"""In-memory span tracer that wraps wcslab's public functions from outside.

Wrapping a function rebinds its name in every loaded ``wcslab`` module that
holds the same object, because ``wcs``, ``catalog``, ``cli``, ``sasaki`` and
``specfiles`` import by name (``from .geometry import pontrjagin_density``)
and would otherwise keep calling the unwrapped original.  Nothing under
``src/`` is modified.

Each span records its name, start, end, parent span and the job it belongs
to.  Spans are strictly nested (one thread), so a span's self time is its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    job: int | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


# (span name, module, attribute).  Class attributes use "Class.method".
TRACED = (
    ("cli.main", "wcslab.cli", "main"),
    ("specfiles.load_surfaces", "wcslab.specfiles", "load_surfaces"),
    ("specfiles.load_symbol", "wcslab.specfiles", "load_symbol"),
    ("catalog.flat_torus", "wcslab.catalog", "flat_torus"),
    ("catalog.cp2_fubini_study", "wcslab.catalog", "cp2_fubini_study"),
    ("catalog.product_cp1", "wcslab.catalog", "product_cp1"),
    ("catalog.generic_bounds", "wcslab.catalog", "generic_bounds"),
    ("sasaki.lift_curvature", "wcslab.sasaki", "lift_curvature"),
    ("wcs.decide_pi1", "wcslab.wcs", "decide_pi1"),
    ("wcs.density_closed_form", "wcslab.wcs", "density_closed_form"),
    ("wcs.density_permutation", "wcslab.wcs", "density_permutation"),
    ("geometry.pontrjagin_density", "wcslab.geometry", "pontrjagin_density"),
    ("geometry.symmetry_violation", "wcslab.geometry", "symmetry_violation"),
    ("geometry.max_abs_component", "wcslab.geometry", "max_abs_component"),
    ("psdo.compose", "wcslab.psdo", "compose"),
    ("psdo.wodzicki_residue", "wcslab.psdo", "wodzicki_residue"),
    ("psdo.resolvent_parametrix", "wcslab.psdo", "resolvent_parametrix"),
    ("psdo.commutator_trace_test", "wcslab.psdo", "commutator_trace_test"),
    ("psdo.connection_difference_terms", "wcslab.psdo", "connection_difference_terms"),
    ("leading.c_lo_pairing", "wcslab.leading", "c_lo_pairing"),
    ("leading.rhs_prop22", "wcslab.leading", "rhs_prop22"),
    ("leading.verify_prop22", "wcslab.leading", "verify_prop22"),
    ("leading.parameter_grid", "wcslab.leading", "MappedFamily.parameter_grid"),
)

CATALOG_CONSTRUCTORS = tuple(name for name, _, _ in TRACED if name.startswith("catalog."))


class Tracer:
    """Records spans and counters while installed; restores everything on
    ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.job: int | None = None
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def inside(self, prefix: str) -> bool:
        return any(s.name.startswith(prefix) for s in self._stack)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, parent.sid if parent else None,
                        tracer.job, time.perf_counter_ns())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_ns += span.end_ns - span.start_ns
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_compose(self, args, kwargs, result):
        self.count("psdo.compose.components", len(result.components))

    def _after_lift(self, args, kwargs, result):
        # Lifts made while a CLI job builds its rows; k = 0 rows skip the
        # lift inside decide_pi1, so they are left out of the ratio.
        if result.k != 0 and self.inside("cli.main"):
            self.count("sasaki.lifts_nonzero_k_in_cli")

    def _counting_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.inside("psdo."):
                tracer.count("psdo.fft_calls")
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wcslab" or modname.startswith("wcslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        after = {"psdo.compose": self._after_compose,
                 "sasaki.lift_curvature": self._after_lift}
        for name, modname, attr in TRACED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(name, original, after.get(name)))
        for attr in ("fft", "ifft"):
            original = getattr(np.fft, attr)
            self._restore.append((np.fft, attr, original))
            setattr(np.fft, attr, self._counting_fft(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self time in ms)."""
        out: dict[str, list] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, [0, 0])
            entry[0] += 1
            entry[1] += s.self_ns
        return {name: (calls, ns / 1e6) for name, (calls, ns) in out.items()}

    def write(self, path) -> None:
        """One JSON line per span, written once at the end of a run."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "job": s.job,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": s.self_ns,
                }) + "\n")
