"""Seeded job lists for the three workloads, and the code that runs a job.

A workload is a sequence of passes.  Pass ``i`` of a run with seed ``s`` is
generated from ``numpy.random.default_rng([s, i])`` alone, so the same seed
always gives the same jobs.  Each pass is balanced: the properties that set a
job's cost (the k-range widths, the psdo depth x trials mix, one job of each
heavy check per grid) appear in the same proportions in every pass, and only
the values that do not change the amount of work are drawn at random.  That
keeps the cost of a pass nearly independent of the seed, which is what lets
a run-to-run spread of a few percent be resolved on a shared host.

Jobs go through ``wcslab.cli.main(argv)`` in-process (stdout captured) or
through the public library functions.  Library modules are looked up at call
time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Job:
    kind: str                 # checker key: verdict, psdo, audit, max_abs, prop22
    label: str                # e.g. "decide", "psdo", "prop22"
    argv: list | None         # CLI arguments, or None for a library call
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    value: object = None      # result of a library call
    error: str | None = None  # set when the job raised


def execute(job: Job) -> Outcome:
    """Run one job and return its raw output; exceptions become failures."""
    import wcslab.cli

    out = Outcome()
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                out.exit_code = wcslab.cli.main(list(job.argv))
        else:
            out.value = LIBRARY_CALLS[job.label](job.params)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        out.exit_code = exc.code if isinstance(exc.code, int) else 2
        out.error = f"exited {out.exit_code}"
    except Exception:  # noqa: BLE001 - any raise is a failed job, reported by the checker
        out.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    if out.error and out.stderr.strip():
        out.error += f": {out.stderr.strip().splitlines()[-1]}"
    return out


# ---------------------------------------------------------------------------
# Library calls used by orbit_checks
# ---------------------------------------------------------------------------


def _catalog_surface(spec: dict):
    from wcslab import catalog

    if spec["type"] == "t4":
        return catalog.flat_torus()
    if spec["type"] == "cp2":
        return catalog.cp2_fubini_study()
    return catalog.product_cp1(spec["a"], spec["b"])


def _audit(p: dict) -> dict:
    from wcslab import psdo, sasaki

    lift = sasaki.lift_curvature(_catalog_surface(p["surface"]), p["k"])
    audit = psdo.connection_difference_order_audit(lift, p["depth"], p["grid"])
    total = psdo.connection_difference_symbol(lift, p["depth"], p["grid"])
    lead = total.leading_degree()
    return {"orders": [order for _, order in audit],
            "leading_degree": None if lead is None else float(lead)}


def _max_abs(p: dict) -> float:
    from wcslab import geometry

    R = _catalog_surface(p["surface"]).curvature
    return geometry.max_abs_component(R, seed=p["seed"], samples=p["samples"])


LIBRARY_CALLS = {"audit": _audit, "max_abs": _max_abs}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# Pass streams are 0, 1, 2, ...; these fixed streams sit far above them.
PREPARE_STREAM = 2**31
WARMUP_STREAM = 2**31 + 1
RERUN_STREAM = 2**31 + 2


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _shuffled(rng, seq) -> list:
    return [seq[i] for i in rng.permutation(len(seq))]


def _ab(rng) -> tuple[int, int]:
    return int(rng.integers(1, 7)), int(rng.integers(1, 7))


def _catalog_spec(rng) -> dict:
    kind = _pick(rng, ("t4", "cp2", "cp1xcp1"))
    if kind != "cp1xcp1":
        return {"type": kind}
    a, b = _ab(rng)
    return {"type": kind, "a": a, "b": b}


class Workload:
    """Base: ``prepare`` writes shared input files once, ``make_pass(i)``
    returns the jobs of pass i (writing any per-job files it needs).

    ``tail_percentile`` is fixed per workload: the highest whole percentile
    with at least ten jobs beyond it in a 30 s run at the seed commit.
    """

    name = ""
    trace_passes = 1
    tail_percentile: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def make_pass(self, index: int) -> list[Job]:
        return self._jobs(_rng(self.seed, index), index)

    def _jobs(self, rng: np.random.Generator, index: int) -> list[Job]:
        raise NotImplementedError


class VerdictSweep(Workload):
    """decide / density / integral rows over catalog and config surfaces."""

    name = "verdict_sweep"
    trace_passes = 6
    tail_percentile = 99
    WIDTHS = tuple(range(1, 17))     # one job of each --k-range width per pass
    GENERIC_JOBS = 4
    CSV_JOBS = 2
    CONFIG_GENERIC = 6

    def prepare(self) -> None:
        rng = _rng(self.seed, PREPARE_STREAM)
        self.generic = []
        lines = []
        for n in range(self.CONFIG_GENERIC):
            # sigma <= 0 keeps the bound monotone in k, so the verdict is
            # exactly the prop39_crossover rule (fails below, holds from it on).
            spec = {"type": "generic", "name": f"gen{n}",
                    "sigma": int(rng.integers(-16, 1)),
                    "vol": round(float(rng.uniform(0.5, 4.0)), 3),
                    "r_inf": round(float(rng.uniform(0.0, 3.0)), 3)}
            self.generic.append(spec)
            lines += [f"[surface {spec['name']}]", "type = generic",
                      f"sigma = {spec['sigma']}", f"vol = {spec['vol']}",
                      f"r_inf = {spec['r_inf']}", ""]
        self.config_products = []
        for n in range(3):
            a, b = _ab(rng)
            spec = {"type": "cp1xcp1", "a": a, "b": b, "name": f"prod{n}"}
            self.config_products.append(spec)
            lines += [f"[surface {spec['name']}]", "type = cp1xcp1",
                      f"a = {a}", f"b = {b}", ""]
        self.config = self.workdir / "surfaces.cfg"
        self.config.write_text("\n".join(lines))

    def _k_args(self, rng, width: int) -> tuple[list, list]:
        lo = int(rng.integers(-6, 7))
        ks = list(range(lo, lo + width))
        if width == 1 and rng.random() < 0.5:
            return ["--k", str(lo)], ks
        return ["--k-range", f"{lo}..{lo + width - 1}"], ks

    def _jobs(self, rng, index: int) -> list[Job]:
        widths = _shuffled(rng, list(self.WIDTHS))
        n = len(widths)
        surfaces = _shuffled(rng, (["t4", "cp2", "cp1xcp1"] * n)[index % 3:index % 3 + n])
        commands = _shuffled(rng, (["decide", "density", "integral"] * n)[index % 3:index % 3 + n])
        jobs = []
        for width, stype, command in zip(widths, surfaces, commands):
            k_args, ks = self._k_args(rng, width)
            if stype == "cp1xcp1":
                if rng.random() < 0.5:
                    spec = _pick(rng, self.config_products)
                    s_args = ["--config", str(self.config), "--surface", spec["name"]]
                else:
                    a, b = _ab(rng)
                    spec = {"type": "cp1xcp1", "a": a, "b": b}
                    s_args = ["--surface", "cp1xcp1", "--a", str(a), "--b", str(b)]
            else:
                spec = {"type": stype}
                s_args = ["--surface", stype]
            jobs.append(Job("verdict", command, [command, *s_args, *k_args],
                            {"surface": spec, "ks": ks, "format": "json"}))
        for _ in range(self.GENERIC_JOBS):
            spec = _pick(rng, self.generic)
            k_args, ks = self._k_args(rng, int(rng.integers(1, 17)))
            jobs.append(Job("verdict", "decide",
                            ["decide", "--config", str(self.config), "--surface", spec["name"], *k_args],
                            {"surface": spec, "ks": ks, "format": "json"}))
        for i in rng.choice(len(jobs), size=self.CSV_JOBS, replace=False):
            jobs[i].argv += ["--format", "csv"]
            jobs[i].params["format"] = "csv"
        return _shuffled(rng, jobs)


class ResidueReport(Workload):
    """``wcslab psdo`` on generated symbol files."""

    name = "residue_report"
    trace_passes = 4
    tail_percentile = 97
    DEPTHS = (4, 5, 6)
    TRIALS = (2, 4, 6, 8)   # every depth meets every trial count once per pass

    def _symbol_file(self, rng, path: Path) -> complex:
        """Write a symbol file; return its exact Wodzicki residue.

        The residue is tr(plus) + tr(minus) of the constant part of the
        degree -1 component: the cos/sin terms average to zero on the grid.
        """
        dim = int(rng.integers(1, 3))
        order = int(rng.integers(-2, 2))
        grid = _pick(rng, (32, 64))
        modes = int(rng.integers(0, 4))
        floor = min(order, -1) - int(rng.integers(0, 2))

        def matrix():
            re = np.round(rng.uniform(-2, 2, (dim, dim)), 3)
            im = np.round(rng.uniform(-2, 2, (dim, dim)), 3) * (rng.random() < 0.5)
            text = " ; ".join(" ".join(f"{r:.3f}{i:+.3f}j" for r, i in zip(rr, ii))
                              for rr, ii in zip(re, im))
            return text, complex(np.trace(re) + 1j * np.trace(im))

        lines = [f"order = {order}", f"dim = {dim}", f"grid = {grid}", ""]
        residue = 0j
        for degree in range(order, floor - 1, -1):
            if degree not in (order, floor) and rng.random() < 0.25:
                continue  # an omitted degree is an all-zero component
            lines.append(f"[component degree={degree}]")
            for side in ("plus", "minus"):
                text, trace = matrix()
                lines.append(f"{side} = {text}")
                if degree == -1:
                    residue += trace
                for n in rng.choice(np.arange(1, 4), size=modes, replace=False):
                    lines.append(f"{side}_{_pick(rng, ('cos', 'sin'))}{n} = {matrix()[0]}")
            lines.append("")
        path.write_text("\n".join(lines))
        return residue

    def _jobs(self, rng, index: int) -> list[Job]:
        mix = _shuffled(rng, [(d, t) for d in self.DEPTHS for t in self.TRIALS])
        jobs = []
        for j, (depth, trials) in enumerate(mix):
            path = self.workdir / f"symbol-{index}-{j}.txt"
            residue = self._symbol_file(rng, path)
            seed = int(rng.integers(0, 2**31))
            argv = ["psdo", "--symbol-file", str(path), "--trials", str(trials),
                    "--depth", str(depth), "--seed", str(seed)]
            jobs.append(Job("psdo", "psdo", argv, {"residue": residue, "trials": trials,
                                                  "depth": depth, "seed": seed}))
        return jobs


class OrbitChecks(Workload):
    """Heavy single-kernel checks: the fiber-dimension-5 connection audit,
    the |R|_inf frame search and the prop-2.2 quadrature."""

    name = "orbit_checks"
    trace_passes = 2
    tail_percentile = 90
    # Each pass holds the same strata, so passes cost nearly the same: one
    # audit per fixed (grid, depth) pair, one frame search on cp2 and one on
    # a seeded cp1xcp1, one prop-2.2 check per grid.  With the pairs fixed,
    # the median job of a pass always falls between the same two kinds; a
    # seeded pairing made the pass median jump between two levels.
    # max_abs_component reaches the catalog |R|_inf within 1e-6 from a single
    # refined sample on every catalog surface at the seed commit; a second
    # sample only adds a refinement in some seeds, which would make the cost
    # of a pass depend on the seed.
    # The larger prop-2.2 grid, 56, costs about what a frame search costs, so
    # half of each pass is one heavy group and the p90 tail reads its slow
    # end.  With grid 64 the heaviest kind was one job in six, the tail read
    # the middle of that kind's times, and it followed the machine's phases.
    AUDITS = ((32, 6), (64, 4))   # (grid, depth)
    SAMPLES = 1
    PROP22_GRIDS = (32, 56)

    def _jobs(self, rng, index: int) -> list[Job]:
        audits, searches, quadratures = [], [], []
        for grid, depth in self.AUDITS:
            p = {"surface": _catalog_spec(rng), "k": int(rng.integers(1, 4)),
                 "depth": depth, "grid": grid}
            audits.append(Job("audit", "audit", None, p))
        a, b = _ab(rng)
        for surface in ({"type": "cp2"}, {"type": "cp1xcp1", "a": a, "b": b}):
            p = {"surface": surface, "samples": self.SAMPLES, "seed": int(rng.integers(0, 2**31))}
            searches.append(Job("max_abs", "max_abs", None, p))
        for grid in self.PROP22_GRIDS:
            charge = int(rng.integers(0, 4))
            argv = ["verify-prop22", "--charge", str(charge), "--grid", str(grid)]
            quadratures.append(Job("prop22", "prop22", argv, {"charge": charge, "grid": grid}))
        # A seeded cycle: the three kinds alternate, in a seeded order.
        kinds = _shuffled(rng, [_shuffled(rng, audits), _shuffled(rng, searches),
                                _shuffled(rng, quadratures)])
        return [kind[r] for r in range(2) for kind in kinds]


WORKLOADS = {w.name: w for w in (VerdictSweep, ResidueReport, OrbitChecks)}


def rerun_identical(job: Job, first: Outcome) -> bool:
    """A second run of a CLI job gives byte-identical output."""
    again = execute(job)
    return (again.exit_code, again.stdout) == (first.exit_code, first.stdout)
