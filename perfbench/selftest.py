"""Self-test for the benchmark harness.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, finishes with exit 0,
   reports correct results and exactly the metrics BENCHMARK.json names.
2. The checker accepts genuine outputs and rejects corrupted ones: a flipped
   verdict, a residue off by 1e-6, a prop-2.2 error above 1e-6, and more.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import OUT  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    results.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_runs() -> None:
    for w in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "0.01",
                             "--trace", str(trace))
            name = f"tiny run {w['name']} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(name, False)
                print(proc.stderr[-1500:])
                continue
            want = {m["name"] for m in SPEC[section]}
            ok = (proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1 and set(result["metrics"]) == want
                  and set(result) == {"correct", "attempted", "failed", "metrics"})
            expect(name, ok)
            if not ok:
                print(proc.stderr[-1500:], sorted(want ^ set(result["metrics"])))


def first_job(wl, kind: str):
    for index in range(5):
        for job in wl.make_pass(index):
            if job.kind == kind:
                return job
    raise LookupError(kind)


def with_json(outcome, edit):
    """Copy of a CLI outcome whose JSON report was changed by ``edit``."""
    rows = json.loads(outcome.stdout)
    edit(rows)
    bad = copy.copy(outcome)
    bad.stdout = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return bad


def checker_rejections(workdir: Path) -> None:
    def rejects(name, job, bad):
        expect(f"checker rejects {name}", checks.check(job, bad) is not None)

    sweep = workloads.VerdictSweep(5, workdir)
    sweep.prepare()
    job = next(j for i in range(5) for j in sweep.make_pass(i)
               if j.params["format"] == "json" and j.params["surface"]["type"] == "cp2"
               and any(abs(k) > 1 for k in j.params["ks"]))
    good = workloads.execute(job)
    expect("checker accepts a genuine verdict row set", checks.check(job, good) is None)

    def flip(rows):
        row = next(r for r in rows if r["verdict"] == "INFINITE_ORDER")
        row["verdict"] = "INCONCLUSIVE"

    rejects("a flipped verdict", job, with_json(good, flip))
    rejects("a route disagreement of 1e-6", job,
            with_json(good, lambda rows: rows[-1].update(route_agreement=1e-6)))
    rejects("a density off by 1e-6 relative", job,
            with_json(good, lambda rows: rows[-1].update(
                density_closed=rows[-1]["density_closed"] * (1 + 1e-6) + 1e-6)))
    nan = copy.copy(good)
    nan.stdout = good.stdout.replace('"integral": ', '"integral": NaN, "x": ', 1)
    rejects("a NaN literal in the JSON", job, nan)
    rejects("a missing row", job, with_json(good, lambda rows: rows.pop()))
    failed = copy.copy(good)
    failed.exit_code = 3
    rejects("a non-zero exit code", job, failed)

    residue = workloads.ResidueReport(5, workdir)
    job = first_job(residue, "psdo")
    good = workloads.execute(job)
    expect("checker accepts a genuine psdo report", checks.check(job, good) is None)
    rejects("a residue off by 1e-6", job,
            with_json(good, lambda rows: rows[0]["residue"].__setitem__(0, rows[0]["residue"][0] + 1e-6)))
    rejects("a commutator violation of 1e-7", job,
            with_json(good, lambda rows: rows[0].update(commutator_max_violation=1e-7)))
    rejects("a parametrix defect of 1e-9", job,
            with_json(good, lambda rows: rows[0]["parametrix_defect_sup"].update({"0": 1e-9})))

    orbit = workloads.OrbitChecks(5, workdir)
    job = first_job(orbit, "prop22")
    good = workloads.execute(job)
    expect("checker accepts a genuine prop-2.2 report", checks.check(job, good) is None)
    rejects("a prop-2.2 error of 2e-6", job,
            with_json(good, lambda rows: rows[0].update(relative_error=2e-6)))

    job = first_job(orbit, "audit")
    good = workloads.execute(job)
    expect("checker accepts a genuine order audit", checks.check(job, good) is None)
    bad = copy.copy(good)
    bad.value = dict(good.value, orders=[0] + good.value["orders"][1:])
    rejects("an order-0 audit term", job, bad)

    job = first_job(orbit, "max_abs")
    good = workloads.execute(job)
    expect("checker accepts a genuine |R|_inf estimate", checks.check(job, good) is None)
    bad = copy.copy(good)
    bad.value = good.value - 1e-5
    rejects("an |R|_inf estimate 1e-5 low", job, bad)


def bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    w = SPEC["workloads"][0]["name"]
    proc = run_bench(bare, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0")
    expect("bare directory exits non-zero without a result",
           proc.returncode != 0 and not proc.stdout.strip())


def main() -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"selftest-{os.getpid()}"
    workdir.mkdir()
    try:
        import wcslab

        wcslab.calibration_constant()
        checker_rejections(workdir)
        bare_directory(workdir)
        tiny_runs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
