"""wcslab benchmark: one closed-loop client driving wcslab in-process.

    python3 perfbench/run.py --workload verdict_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, so a plain checkout needs no install.  Jobs are sent one at a
time, each only after the previous one returned.  Every input comes from
``--seed``; every output is checked against an analytic reference when its
pass ends, outside the pass timing.  The last stdout line is the result
object; the line before it carries the run metadata.  ``--trace 1`` runs a
fixed number of passes twice, untraced and traced, and reports per-layer
numbers and the tracing overhead.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Cap BLAS thread pools before numpy is first imported (inside main), here
# and in the set-up child processes, so that one run uses one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 15       # set-up interpreters, spread evenly over the run
SETUP_CODE = "import wcslab; wcslab.calibration_constant()"
DETERMINISM_SAMPLE = 8   # re-run one verdict job in this many
SLOW_END = 0.90          # quantile at which timings are read (see end_to_end)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """Value at percentile ``pct`` by nearest rank, and the number of jobs
    beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# Set-up time and metadata
# ---------------------------------------------------------------------------


def setup_once() -> float:
    """Wall time of a fresh interpreter that imports wcslab (numpy included)
    and finishes calibration_constant()."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def blas_info() -> dict:
    import numpy as np

    info = {"env": dict(BLAS_ENV), "threads": None, "library": None, "version": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    info["loaded"] = Path(path).name
                    return info
    except OSError:
        pass
    return info


def source_info() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_py_files": len(files),
            "src_lines": lines}


def metadata(args, counts: dict) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "clients": 1,
        "loop": "closed",
        "machine_settings_changed": False,
        "note": "user-level timings only: no CPU pinning, no cache dropping, "
                "no frequency or scheduler setting was changed",
        **counts,
    }


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


def run_pass(jobs, execute):
    """Run one pass back to back; return (records, pass wall seconds)."""
    records = []
    t_pass = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        outcome = execute(job)
        records.append((job, outcome, time.perf_counter() - t0))
    return records, time.perf_counter() - t_pass


class Tally:
    """What a run keeps of a pass once it is checked: job times, the pass
    wall time, counts and failure reasons.  Outputs are dropped right after
    their check, so peak memory does not grow with the number of jobs a
    faster program completes in the same run time."""

    def __init__(self, workload, workloads, checks):
        import numpy as np

        self.workloads, self.checks = workloads, checks
        self.rerun_rng = np.random.default_rng([workload.seed, workloads.RERUN_STREAM])
        self.passes: list[tuple[list[float], float]] = []
        self.failures: list[str] = []
        self.kinds: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return sum(len(times) for times, _ in self.passes)

    def add(self, records, secs: float) -> None:
        """Check every job of a pass; re-run a seeded sample of verdict jobs,
        whose output must then be byte-identical."""
        for job, outcome, _ in records:
            reason = self.checks.check(job, outcome)
            if (reason is None and job.kind == "verdict"
                    and self.rerun_rng.integers(DETERMINISM_SAMPLE) == 0
                    and not self.workloads.rerun_identical(job, outcome)):
                reason = "re-run output is not byte-identical"
            if reason is not None:
                self.failures.append(f"{job.label} {job.argv or job.params}: {reason}")
            self.kinds[job.label] = self.kinds.get(job.label, 0) + 1
        self.passes.append(([t for _, _, t in records], secs))


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    x = q * (len(ordered) - 1)
    i = int(x)
    j = min(i + 1, len(ordered) - 1)
    return ordered[i] + (ordered[j] - ordered[i]) * (x - i)


def pass_rates(passes) -> tuple[list[float], list[float]]:
    """Per pass: jobs per second, and the median job time."""
    return ([len(pass_times) / secs for pass_times, secs in passes],
            [statistics.median(pass_times) for pass_times, _ in passes])


def end_to_end(passes, tail_pct: int) -> tuple[dict, dict]:
    """Timing metrics from a list of (job seconds, pass wall seconds).

    Throughput and median latency are taken per pass and then read at the
    slow end of the run's passes (the 10th percentile of throughput, the
    90th percentile of the pass median): on a shared host the same pass runs
    at a speed that drifts by up to 2x over tens of seconds, and the slow
    level is the one that recurs from run to run.  The tail is read at the
    workload's fixed percentile, so two builds that finish different numbers
    of jobs are compared at the same percentile.
    """
    times = [t for pass_times, _ in passes for t in pass_times]
    rates, pass_p50 = pass_rates(passes)
    tail_s, beyond = tail(times, tail_pct)
    metrics = {
        "jobs_per_s": quantile(rates, 1 - SLOW_END),
        "job_p50_ms": quantile(pass_p50, SLOW_END) * 1e3,
        "job_tail_ms": tail_s * 1e3,
    }
    info = {"jobs": len(times), "passes": len(passes), "tail_percentile": tail_pct,
            "tail_jobs_beyond": beyond,
            "pass_jobs_per_s_median": statistics.median(rates),
            "job_p50_ms_all_jobs": statistics.median(times) * 1e3,
            "wall_s_in_jobs": sum(times)}
    return metrics, info


def untraced_run(args, wl, workloads, checks):
    """Passes back to back until ``--seconds`` have gone by, not counting
    the set-up samples.  Those are taken between passes, one each time the
    run crosses the next of SETUP_SAMPLES evenly spaced points, so that they
    see the same phases of a shared host as the passes and can be read at
    the same slow-end quantile."""
    setup_once()  # unmeasured warm-up; also writes the bytecode cache
    setup: list[float] = []
    tally = Tally(wl, workloads, checks)
    start = time.perf_counter()
    index = 0
    while True:
        tally.add(*run_pass(wl.make_pass(index), workloads.execute))
        index += 1
        elapsed = time.perf_counter() - start - sum(setup)
        while len(setup) < SETUP_SAMPLES and elapsed >= len(setup) / SETUP_SAMPLES * args.seconds:
            setup.append(setup_once())
        if elapsed >= args.seconds:
            break
    metrics, info = end_to_end(tally.passes, wl.tail_percentile)
    metrics["setup_s"] = quantile(setup, SLOW_END)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_frac"] = 1.0 - len(tally.failures) / tally.attempted
    info["setup_runs_s"] = setup
    units = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, info


def traced_run(args, wl, workloads, checks):
    import spans

    tracer = spans.Tracer()
    plain = Tally(wl, workloads, checks)
    traced = Tally(wl, workloads, checks)
    rows = 0
    for index in range(wl.trace_passes):
        jobs = wl.make_pass(index)
        halves: dict[bool, list] = {False: [], True: []}
        for n, job in enumerate(jobs):
            # Each job runs untraced and traced back to back, in alternating
            # order, so a drift of the machine's speed cancels out of the
            # overhead ratio.
            for on in ((False, True) if n % 2 == 0 else (True, False)):
                if on:
                    tracer.job = traced.attempted + n
                    tracer.install()
                t0 = time.perf_counter()
                outcome = workloads.execute(job)
                halves[on].append((job, outcome, time.perf_counter() - t0))
                if on:
                    tracer.uninstall()
        for tally, records in ((plain, halves[False]), (traced, halves[True])):
            tally.add(records, sum(t for _, _, t in records))
        rows += sum(1 for job in jobs if job.kind == "verdict"
                    and job.params["surface"]["type"] != "generic"
                    for k in job.params["ks"] if k != 0)

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.write(span_file)

    totals = tracer.totals()
    metrics = {}
    for name, _, _ in spans.TRACED:
        if name in spans.CATALOG_CONSTRUCTORS:
            continue
        calls, self_ms = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
    cat = [totals.get(n, (0, 0.0)) for n in spans.CATALOG_CONSTRUCTORS]
    metrics["catalog.constructors.calls"] = (sum(c for c, _ in cat), "count")
    metrics["catalog.constructors.self_ms"] = (sum(ms for _, ms in cat), "ms")
    lifts = tracer.counters.get("sasaki.lifts_nonzero_k_in_cli", 0)
    metrics["sasaki.lifts_per_row"] = (lifts / rows if rows else 0.0, "ratio")
    metrics["psdo.compose.components"] = (tracer.counters.get("psdo.compose.components", 0), "count")
    metrics["psdo.fft_calls"] = (tracer.counters.get("psdo.fft_calls", 0), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    # Tracing overhead: summed job time traced over untraced, on the same
    # jobs.  Too few jobs run here for a tail, so none is reported.
    wall = {}
    for key, tally in (("untraced", plain), ("traced", traced)):
        rates, pass_p50 = pass_rates(tally.passes)
        wall[key] = {"wall_s_in_jobs": sum(sum(t) for t, _ in tally.passes),
                     "jobs_per_s": statistics.median(rates),
                     "job_p50_ms": statistics.median(pass_p50) * 1e3}
    metrics["trace.overhead_ratio"] = (wall["traced"]["wall_s_in_jobs"]
                                       / wall["untraced"]["wall_s_in_jobs"], "ratio")
    info = {"traced_passes": len(traced.passes), "span_file": str(span_file.relative_to(ROOT)),
            **wall, "verdict_rows_nonzero_k": rows, "cli_lifts_nonzero_k": lifts}
    # Both halves count as attempted jobs and both are checked.
    traced.passes = plain.passes + traced.passes
    traced.failures = plain.failures + traced.failures
    for label, n in plain.kinds.items():
        traced.kinds[label] = traced.kinds.get(label, 0) + n
    return traced, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wcslab" / "__init__.py").is_file():
        print(f"error: no wcslab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: need --seconds > 0 and --seed >= 0", file=sys.stderr)
        return 2

    import wcslab

    wcslab.calibration_constant()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        # Warm-up outside the timed loop: first-call costs (lazy imports,
        # allocator growth) are paid once per process, not by the first job.
        for job in wl.make_pass(workloads.WARMUP_STREAM)[:3]:
            workloads.execute(job)
        run = traced_run if args.trace else untraced_run
        tally, metrics, info = run(args, wl, workloads, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = tally.failures
    meta = metadata(args, {"attempted": tally.attempted, "failed": len(failures),
                           "jobs_by_kind": tally.kinds, **info})
    meta["failures"] = failures[:20]
    for reason in failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1, sort_keys=True))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
