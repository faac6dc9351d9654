"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/collect.py --out perfbench/trajectory/BENCH_1.json

For every workload it runs ``run.py --trace 0`` once for each of the seeds
1..10, one after the other, and ``run.py --trace 1`` once with seed 1.  It records each end-to-end metric's
values, median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, (q3 - q1) / median, next to the bound from BENCHMARK.json, and the
per-layer numbers of the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "bound": bound, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    point = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        meta = None
        for seed in SEEDS:
            t0 = time.time()
            meta, result = run(workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f" ({time.time() - t0:.0f}s)", flush=True)
        trace_meta, trace = run(workload, TRACE_SEED, 1)
        ok = ok and trace["correct"]
        summary = {name: summarize(v, bounds[name]) for name, v in values.items()}
        for name, s in summary.items():
            print(f"  {name:12s} median={s['median']:.5g} spread={s['spread']:.3f} "
                  f"bound={s['bound']}", flush=True)
        point["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "end_to_end": summary,
            "per_layer": {"seed": TRACE_SEED,
                          **{k: v["value"] for k, v in trace["metrics"].items()}},
            "trace_overhead": {"untraced": trace_meta.get("untraced"),
                               "traced": trace_meta.get("traced")},
        }
    keep = ("git_sha", "src_sha256", "src_lines", "src_py_files", "python", "numpy", "blas",
            "nproc", "affinity_cpus", "clients", "loop", "machine_settings_changed", "note")
    point["meta"] = {k: meta[k] for k in keep if k in meta}
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
