"""Batch command-line front end with machine-readable JSON/CSV output.

Subcommands: catalog | density | integral | decide | psdo | verify-prop22.
Exit codes: 0 success, 2 usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import catalog, leading, psdo, specfiles, wcs
from .catalog import SurfaceSpecError, UnsupportedSurfaceError
from .sasaki import LiftConsistencyError

SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "surface",
    "k",
    "density_closed",
    "density_perm",
    "route_agreement",
    "integral",
    "prop39_lhs",
    "verdict",
    "calibration_constant",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

#: Caps on user-sized inputs; a value outside them is a usage error.
MAX_TRIALS = 10_000     # psdo --trials
MAX_DEPTH = 32          # psdo --depth
MAX_PROP22_GRID = 256   # verify-prop22 --grid
MAX_K_RANGE = 1_000     # levels in one --k-range
MAX_ABS_LEVEL = 10**6   # |k| of --k and --k-range, |verify-prop22 --charge|


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a UsageError, so that main prints it as
    one line; subparsers are made from the same class."""

    def error(self, message):
        raise UsageError(message)


def _check_range(flag: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise UsageError(f"{flag} must be in [{lo}, {hi}]")
    return value


def _seed(args) -> int:
    text = os.environ.get("WCSLAB_SEED", "0") if args.seed is None else args.seed
    try:
        seed = int(text)
    except ValueError:
        raise UsageError(f"WCSLAB_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise UsageError("the seed must be nonnegative")
    return seed


def _parse_k_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"bad --k-range {text!r}, expected LO..HI")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad --k-range {text!r}, expected LO..HI") from None
    if hi_i < lo_i:
        raise UsageError("--k-range upper bound below lower bound")
    for k in (lo_i, hi_i):
        _check_range("--k-range bounds", k, -MAX_ABS_LEVEL, MAX_ABS_LEVEL)
    if hi_i - lo_i >= MAX_K_RANGE:
        raise UsageError(f"--k-range spans more than {MAX_K_RANGE} levels")
    return list(range(lo_i, hi_i + 1))


def _resolve_ks(args) -> list[int]:
    if (args.k is None) == (args.k_range is None):
        raise UsageError("exactly one of --k / --k-range is required")
    if args.k is not None:
        return [_check_range("--k", args.k, -MAX_ABS_LEVEL, MAX_ABS_LEVEL)]
    return _parse_k_range(args.k_range)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _requirement(stype: str) -> str:
    *head, last = [_flag(key) for key, _ in catalog.SURFACE_TYPES[stype].params]
    return f"requires {', '.join(head)} and {last}" if head else f"requires {last}"


def _read_text(path: str) -> str:
    # A decoding error is a ValueError, which main would report as a
    # computation error; a file that is not text is a usage error.
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _config_surfaces(args) -> dict[str, catalog.KahlerSurface]:
    if not args.config:
        return {}
    return specfiles.load_surfaces(_read_text(args.config))


def _resolve_surface(args) -> catalog.KahlerSurface:
    surfaces = _config_surfaces(args)
    if args.surface in surfaces:
        return surfaces[args.surface]
    try:
        return catalog.build_surface(args.surface, vars(args))
    except SurfaceSpecError as exc:
        if not exc.missing:
            raise
        raise UsageError(f"surface {args.surface} {_requirement(args.surface)}") from None


def _level_row(verdict: wcs.Pi1Verdict) -> dict:
    dens = verdict.densities
    return {
        "schema_version": SCHEMA_VERSION,
        "surface": verdict.surface,
        "k": verdict.k,
        "density_closed": None if dens is None else dens.value_closed,
        "density_perm": None if dens is None else dens.value_permutation,
        "route_agreement": None if dens is None else dens.route_agreement,
        "integral": verdict.integral,
        "prop39_lhs": verdict.prop39_lhs,
        "verdict": verdict.verdict.value,
        "calibration_constant": wcs.calibration_constant(),
        "provenance": verdict.rationale,
    }


def _non_finite(value, where: str) -> tuple[str, float] | None:
    """The first non-finite float in value, nested lists and dicts
    included, and where it is; None if every float is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (where, value)
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = _non_finite(item, f"{where}[{key!r}]")
        if found:
            return found
    return None


def _check_finite(rows: list[dict]) -> None:
    """Refuse a row holding inf or nan, in either format."""
    for row in rows:
        for column, value in row.items():
            found = _non_finite(value, column)
            if found:
                where = " ".join(f"{key}={row[key]!r}" for key in ("surface", "k") if key in row)
                raise ValueError(f"non-finite {found[0]} = {found[1]}"
                                 + (f" at {where}" if where else ""))


def _emit(rows: list[dict], fmt: str, out: str | None) -> None:
    _check_finite(rows)
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row.get(col, "") for col in CSV_COLUMNS])
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _catalog_row(surface: catalog.KahlerSurface) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "surface": surface.name,
        "params": surface.params,
        "signature": surface.signature,
        "volume": surface.volume,
        "r_inf": surface.r_inf,
        "curvature_known": surface.curvature_known,
    }


def _cmd_catalog(args) -> int:
    rows = []
    for stype, spec in catalog.SURFACE_TYPES.items():
        try:
            rows.append(_catalog_row(catalog.build_surface(stype, vars(args))))
        except SurfaceSpecError as exc:
            if not exc.missing:
                raise
            rows.append({
                "schema_version": SCHEMA_VERSION,
                "surface": stype,
                "params": _requirement(stype),
                "curvature_known": spec.curvature_known,
            })
    rows.extend(_catalog_row(surface) for surface in _config_surfaces(args).values())
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _cmd_sweep(args, field: str | None) -> int:
    surface = _resolve_surface(args)
    ks = sorted(_resolve_ks(args))
    if field is not None and not surface.curvature_known:
        raise UnsupportedSurfaceError(
            f"surface {surface.name!r} is bounds-only; {field} unavailable"
        )
    _emit([_level_row(v) for v in wcs.decide_levels(surface, ks)], args.format, args.out)
    return EXIT_OK


def _cmd_psdo(args) -> int:
    _check_range("--trials", args.trials, 1, MAX_TRIALS)
    _check_range("--depth", args.depth, psdo.MIN_TRACE_TEST_DEPTH, MAX_DEPTH)
    seed = _seed(args)
    symbol = specfiles.load_symbol(_read_text(args.symbol_file))
    residue = psdo.wodzicki_residue(symbol)
    violation = psdo.commutator_trace_test(seed, args.trials, args.depth)
    A = psdo.laplacian_plus_one_symbol(
        np.zeros((symbol.fiber_dim, symbol.fiber_dim)), depth=args.depth
    )
    B = psdo.parametrix(A, args.depth)
    defect = psdo.compose(B, A, args.depth) - psdo.identity_symbol(
        symbol.fiber_dim, depth=args.depth
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "residue": [residue.real, residue.imag],
        "commutator_max_violation": violation,
        "commutator_trials": args.trials,
        "parametrix_defect_sup": {
            str(defect.order - j): sup for j, sup in enumerate(defect.sup_norms().tolist())
        },
        "depth": args.depth,
        "seed": seed,
    }
    _emit([report], args.format, args.out)
    return EXIT_OK


def _cmd_verify_prop22(args) -> int:
    _check_range("--grid", args.grid, 16, MAX_PROP22_GRID)
    _check_range("--charge", args.charge, -MAX_ABS_LEVEL, MAX_ABS_LEVEL)
    fam = leading.MappedFamily(args.grid, 2 * args.grid, args.grid)
    L = leading.LineBundleCurvature(args.charge)
    lhs = leading.c_lo_pairing(fam, L)
    rhs = leading.rhs_prop22(fam, L)
    err = leading.relative_error(lhs, rhs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "charge": args.charge,
        "grid": args.grid,
        "family_pairing": lhs,
        "basepoint_pairing": rhs,
        "relative_error": err,
        "pass": err <= leading.PASS_TOL,
    }
    _emit([report], args.format, args.out)
    return EXIT_OK if report["pass"] else EXIT_COMPUTE


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--config", default=None, help="surface configuration file")


def _add_surface_params(p: argparse.ArgumentParser) -> None:
    # Raw strings: build_surface converts and validates them.
    keys = (key for spec in catalog.SURFACE_TYPES.values() for key, _ in spec.params)
    for key in dict.fromkeys(keys):
        p.add_argument(_flag(key))


def _add_surface_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", required=True)
    _add_surface_params(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--k-range", dest="k_range", default=None, metavar="LO..HI")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command line.

    `main` builds it once per process and reuses it (argparse keeps no
    per-parse state in the parser), so it holds the `_cmd_*` handlers and
    the `catalog.SURFACE_TYPES` flags as they were at first use.
    """
    parser = _Parser(
        prog="wcslab",
        description="Loop-space Chern-Simons invariants of circle bundles "
        "over Kahler surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the surface catalog")
    p.set_defaults(run=_cmd_catalog)
    _add_common(p)
    _add_surface_params(p)

    for name, field, help_text in (
        ("density", "density_closed", "pointwise density by both routes"),
        ("integral", "integral", "exact integral over the bundle total space"),
        ("decide", None, "fundamental-group verdicts over a k sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=functools.partial(_cmd_sweep, field=field))
        _add_common(p)
        _add_surface_flags(p)

    p = sub.add_parser("psdo", help="symbol-calculus residue report")
    p.set_defaults(run=_cmd_psdo)
    _add_common(p)
    p.add_argument("--symbol-file", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--depth", type=int, default=6)

    p = sub.add_parser("verify-prop22", help="rotation-family pairing check")
    p.set_defaults(run=_cmd_verify_prop22)
    _add_common(p)
    p.add_argument("--charge", type=int, required=True)
    p.add_argument("--grid", type=int, default=64)
    return parser


def _join_k_range(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-3..3" for flags; fold them into the
    # "--k-range=LO..HI" form before parsing.
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--k-range" else None
        out.append(arg if value is None else f"--k-range={value}")
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _one_line(exc: Exception) -> str:
    # Messages can echo user text (an unrecognized token, a path) verbatim.
    return " ".join(str(exc).splitlines())


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; safe to call many
    times in one process.  `--help` prints the help and returns 0."""
    try:
        args = _parser().parse_args(_join_k_range(list(sys.argv[1:] if argv is None else argv)))
        return args.run(args)
    except SystemExit as exc:  # only --help exits; argparse errors raise UsageError
        return exc.code
    except (UsageError, specfiles.ParseError, SurfaceSpecError, OSError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedSurfaceError, psdo.SymbolError, LiftConsistencyError,
            ValueError) as exc:
        print(f"computation error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
