"""Parsers for the flat key=value input files used by the CLI.

Two dialects share one syntax: surface configuration files (sections define
catalog entries or parameter overrides) and symbol specification files
(sections define homogeneous components of a matrix-valued symbol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import catalog
from .psdo import ClassicalSymbol

__all__ = ["ParseError", "parse_sections", "load_symbol", "load_surfaces"]

#: Caps on a symbol file's dim, grid and number of components (`order` down
#: to the lowest `degree=`), checked before any allocation: 64 MiB at most.
MAX_SYMBOL_DIM = 8
MAX_SYMBOL_GRID = 1024
MAX_SYMBOL_DEPTH = 32


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class Section:
    header: str
    line: int
    entries: dict = field(default_factory=dict)


def parse_sections(text: str) -> tuple[dict, list[Section]]:
    """Parse `key = value` lines grouped under `[header ...]` sections.

    Returns (top-level entries, sections).  Comments start with '#'.
    """
    top: dict = {}
    sections: list[Section] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(raw))
            current = Section(header=line[1:-1].strip(), line=lineno)
            if not current.header:
                raise ParseError("empty section header", lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError("empty key", lineno)
        target = top if current is None else current.entries
        target[key] = (value, lineno)
    return top, sections


def _parse_matrix(text: str, line: int, dim: int) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    try:
        mat = np.array([[complex(v) for v in row.split()] for row in rows])
    except ValueError as exc:
        raise ParseError(f"bad matrix entry ({exc})", line) from None
    if mat.shape != (dim, dim):
        raise ParseError(f"matrix must be {dim} x {dim}", line)
    if not np.isfinite(mat).all():
        raise ParseError("matrix entries must be finite", line)
    return mat


def _value(entry: tuple[str, int], convert, valid, expected: str):
    """Convert the text of a (text, line) entry; ParseError at its line if
    it does not convert or the result is not valid."""
    text, line = entry
    try:
        value = convert(text)
        ok = valid(value)
    except (ValueError, ZeroDivisionError):
        ok = False
    if not ok:
        raise ParseError(f"expected {expected}, got {text!r}", line)
    return value


def _rational(text: str) -> Fraction:
    """A Fraction from at most 32 characters without an exponent: Fraction
    expands 1eN into an exact power of ten, in more than linear time in N."""
    if len(text) > 32 or "e" in text.lower():
        raise ValueError(text)
    return Fraction(text)


def _component_values(entries: dict, prefix: str, values: np.ndarray, line: int) -> None:
    """Add the constant matrix and the optional cos/sin Fourier terms, sampled
    on the periodic grid, to the zero (G, d, d) array `values`.  A Fourier
    mode is written in ASCII decimal digits only."""
    grid, dim = values.shape[:2]
    x = 2.0 * np.pi * np.arange(grid) / grid
    seen = False
    for key, (text, lineno) in entries.items():
        if key == prefix:
            term = _parse_matrix(text, lineno, dim)[None, :, :]
        elif key.startswith((prefix + "_cos", prefix + "_sin")):
            digits = key[len(prefix) + 4:]
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(digits)
                phase = int(digits) * x
            except (ValueError, OverflowError):  # not digits, too long, or no float
                raise ParseError(f"bad Fourier key {key!r}", lineno) from None
            wave = np.cos if key.startswith(prefix + "_cos") else np.sin
            term = wave(phase)[:, None, None] * _parse_matrix(text, lineno, dim)
        else:
            continue
        # Finite entries can still sum past the float range; checked below.
        with np.errstate(over="ignore", invalid="ignore"):
            values += term
        seen = True
    if not seen:
        raise ParseError(f"component is missing a {prefix!r} matrix", line)
    if not np.isfinite(values).all():
        raise ParseError(f"the {prefix!r} values overflow", line)


def load_symbol(text: str, grid: int = 64) -> ClassicalSymbol:
    """Build a ClassicalSymbol from a symbol specification file.

    Top level: order, dim, optional grid.  Each `[component degree=D]`
    section gives plus/minus matrices with optional `_cos<n>` / `_sin<n>`
    Fourier terms; D = order - j puts it at place j of the ladder, and
    places without a section are zero.
    """
    top, sections = parse_sections(text)
    for key in ("order", "dim"):
        if key not in top:
            raise ParseError(f"missing top-level key {key!r}", 1)
    order = _value(top["order"], _rational, lambda v: True, "a rational order")
    dim = _value(top["dim"], int, lambda v: 1 <= v <= MAX_SYMBOL_DIM,
                 f"an integer dim in [1, {MAX_SYMBOL_DIM}]")
    if "grid" in top:
        grid = _value(top["grid"], int,
                      lambda v: 16 <= v <= MAX_SYMBOL_GRID and v & (v - 1) == 0,
                      f"a power-of-two grid in [16, {MAX_SYMBOL_GRID}]")

    by_place: dict[int, Section] = {}  # component j has degree order - j
    for sec in sections:
        parts = sec.header.split()
        if parts[0] != "component":
            raise ParseError(f"unknown section {parts[0]!r}", sec.line)
        kv = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        if "degree" not in kv:
            raise ParseError("component section needs degree=", sec.line)
        degree = _value((kv["degree"], sec.line), _rational,
                        lambda v: 0 <= order - v < MAX_SYMBOL_DEPTH
                        and (order - v).denominator == 1,
                        f"a degree {top['order'][0]} - j for an integer j in "
                        f"[0, {MAX_SYMBOL_DEPTH - 1}]")
        j = int(order - degree)
        if j in by_place:
            raise ParseError(f"second component of degree {degree} (the first "
                             f"is at line {by_place[j].line})", sec.line)
        by_place[j] = sec

    if not by_place:
        raise ParseError("no components defined", 1)
    values = np.zeros((max(by_place) + 1, 2, grid, dim, dim), dtype=complex)
    for j, sec in sorted(by_place.items()):
        for prefix, side in zip(("plus", "minus"), values[j]):
            _component_values(sec.entries, prefix, side, sec.line)
    values.setflags(write=False)  # so the symbol keeps the ladder without a copy
    return ClassicalSymbol.from_ladder(order, values)


def load_surfaces(text: str) -> dict[str, catalog.KahlerSurface]:
    """Surface entries from a configuration file.

    Each `[surface NAME]` section has a `type` from catalog.SURFACE_TYPES
    plus the parameters that type requires.
    """
    _, sections = parse_sections(text)
    out: dict[str, catalog.KahlerSurface] = {}
    for sec in sections:
        parts = sec.header.split()
        if parts[0] != "surface" or len(parts) != 2:
            raise ParseError("expected '[surface NAME]'", sec.line)
        raw = {key: value for key, (value, _) in sec.entries.items()}
        try:
            out[parts[1]] = catalog.build_surface(raw.get("type"), raw, name=parts[1])
        except catalog.SurfaceSpecError as exc:
            raise ParseError(str(exc), sec.line) from None
    return out
