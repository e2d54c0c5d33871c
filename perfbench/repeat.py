"""Repeat the benchmark over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workloads run-wide,curves-sweep --seeds 1-10 \
        [--trace 1] [--out results.json]

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json.  ``--out`` keeps every run's result and record.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "elapsed_s": elapsed, "record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed} ({runs[-1]['elapsed_s']:.1f} s): "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
        summary = {}
        for name in sorted(runs[0]["result"]["metrics"]):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = spread(values) if len(values) > 1 else {"median": values[0]}
            if name in bounds and len(values) > 1:
                print(f"  {name}: median {summary[name]['median']:.4g} spread "
                      f"{summary[name]['spread']:.3f} (a third of the bound: "
                      f"{bounds[name] / 3:.3f})", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
