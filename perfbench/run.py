"""fleetwarn benchmark: time the real CLI on seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-wide --seed 1 --seconds 12 --trace 0

Every command runs as a fresh ``python -m fleetwarn`` process against the
sources in ``src/``, because users pay interpreter start and imports on every
invocation.  One run is a closed loop of one client:

1. it builds the inputs ``SETUP_REPS`` times with ``fleetwarn simulate
   --seed`` (``setup_s`` is the median);
2. with ``--trace 0``, it runs the workload's command back to back, at least
   ``MIN_PASSES`` times and for at least ``--seconds``, and reports the
   median wall time (``command_s``) and the largest child peak RSS;
3. with ``--trace 1``, it runs set-up plus the command once untraced and once
   under ``perfbench/tracer.py``, and reports the per-layer figures of the
   traced pass and the tracing overhead.

After every command the outputs are checked (see ``workloads.py``).  A
two-worker command's tree must equal a one-worker reference tree byte for
byte, and the traced tree must equal the untraced one.  A command that exits
non-zero or fails a check counts in ``failed``.  The last line of standard
output is the JSON result; the line before it records versions, input sizes
and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    check_outputs,
    read_json,
    tree_differences,
)

ROOT = HERE.parent
SETUP_REPS = 3
# Three samples let the median reject one disturbed command.
MIN_PASSES = 3
# Per-layer figures taken from the traced simulate process; all others come
# from the traced workload command.
SETUP_LAYERS = ("simgen.generate_s", "core.write_telemetry_s")
# Every run must exit within 180 s; stop starting passes after this.
BUDGET_S = 165.0


@dataclass
class Outcome:
    rc: int
    wall_s: float
    rss_mb: float


@dataclass
class Bench:
    """Launches commands in one work directory and counts failures."""

    work: Path
    deadline: float = field(default_factory=lambda: perf_counter() + BUDGET_S)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def launch(self, argv: list[str], log_name: str) -> Outcome:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timeout = max(self.deadline + 10.0 - perf_counter(), 1.0)
        with open(self.work / f"{log_name}.log", "wb") as log:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=env, stdout=log, stderr=log
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def fleetwarn(self, args: list[str], log_name: str, trace: str | None) -> Outcome:
        prefix = ["-m", "fleetwarn"] if trace is None else [str(HERE / "tracer.py"), trace, "--"]
        return self.launch(prefix + args, log_name)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def setup(self, wl: Workload, seed: int, trace: str | None = None) -> float:
        """Write the configs and simulate the fleet; returns the wall time."""
        shutil.rmtree(self.work / "fleet", ignore_errors=True)
        t0 = perf_counter()
        _write_json(self.work / "fleet.json", {"sim": wl.sim})
        _write_json(self.work / "run.json", wl.run_config())
        args = ["simulate", "--config", "fleet.json", "--seed", str(seed), "--out", "fleet"]
        res = self.fleetwarn(args, "simulate", trace)
        wall = perf_counter() - t0
        problems = [] if res.rc == 0 else [f"exit code {res.rc}"]
        for name in ("telemetry.csv", "events.csv", "manifest.json"):
            if not (self.work / "fleet" / name).is_file():
                problems.append(f"no {name}")
        self.record("simulate", problems)
        return wall

    def command(
        self, wl: Workload, workers: int, out: str, trace: str | None = None,
        same_as: str | None = None,
    ) -> Outcome:
        """Run the workload's command into ``out``, check it and record it."""
        shutil.rmtree(self.work / out, ignore_errors=True)
        args = [wl.command, "--config", "run.json", "--out", out, "--workers", str(workers)]
        res = self.fleetwarn(args, out, trace)
        if res.rc != 0:
            problems = [f"exit code {res.rc}"]
        else:
            problems = check_outputs(wl, self.work / "fleet", self.work / out)
            if same_as is not None:
                problems += [
                    f"{p} differs from {same_as}"
                    for p in tree_differences(self.work / same_as, self.work / out)
                ]
        self.record(f"{wl.command} {out}", problems)
        return res


def _write_json(path: Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def timed_run(bench: Bench, wl: Workload, seed: int, seconds: float) -> dict[str, float]:
    setup = [bench.setup(wl, seed) for _ in range(SETUP_REPS)]
    reference = None
    if wl.workers != 1:
        reference = "out_ref"
        bench.command(wl, 1, reference)
    walls: list[float] = []
    rss: list[float] = []
    start = perf_counter()
    while True:
        res = bench.command(wl, wl.workers, "out", same_as=reference)
        walls.append(res.wall_s)
        rss.append(res.rss_mb)
        now = perf_counter()
        if len(walls) >= MIN_PASSES and now - start >= seconds:
            break
        if now + 1.5 * res.wall_s > bench.deadline:
            break
    return {
        "setup_s": statistics.median(setup),
        "command_s": statistics.median(walls),
        "peak_rss_mb": max(rss),
    }


def traced_run(bench: Bench, wl: Workload, seed: int) -> dict[str, float]:
    plain = bench.setup(wl, seed) + bench.command(wl, wl.workers, "out").wall_s
    sim_trace, cmd_trace = bench.work / "trace_simulate.json", bench.work / "trace_command.json"
    traced = bench.setup(wl, seed, trace=str(sim_trace))
    traced += bench.command(
        wl, wl.workers, "out_traced", trace=str(cmd_trace), same_as="out"
    ).wall_s
    # Layers of the command process, except the two that only set-up runs.
    metrics = layer_metrics(read_json(cmd_trace))
    setup_layers = layer_metrics(read_json(sim_trace))
    for name in SETUP_LAYERS:
        metrics[name] = setup_layers[name]
    metrics["trace.spans"] += setup_layers["trace.spans"]
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return metrics


def input_sizes(bench: Bench, wl: Workload) -> dict:
    fleet = bench.work / "fleet"
    manifest = read_json(fleet / "manifest.json")
    prefix = wl.run["target"]["code_prefix"]
    sizes = {
        "rows": manifest["units"] * manifest["flights_per_unit"],
        "units": manifest["units"],
        "parameters": sum(len(g["columns"]) for g in manifest["groups"]),
        "csv_bytes": (fleet / "telemetry.csv").stat().st_size,
        "events": sum(1 for ev in manifest["events"] if ev["code"].startswith(prefix)),
    }
    stats_path = bench.work / "out" / "stats.json"
    if wl.command == "run" and stats_path.is_file():
        # Candidates are every 1..max_size subset of the alarms that pass the gate.
        alarms = read_json(stats_path)["alarms"].values()
        alpha = wl.run["filter"]["alpha"]
        gated = sum(1 for s in alarms if s["covered_events"] > 1 and s["p_value"] < alpha)
        sizes["candidates"] = sum(
            math.comb(gated, k) for k in range(1, wl.run["filter"]["max_size"] + 1)
        )
    return sizes


def environment() -> dict:
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = read_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fleetwarn" / "cli.py").is_file():
        print(f"perfbench: no fleetwarn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units = declared_metrics(bool(args.trace))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work)
    try:
        if args.trace:
            values = traced_run(bench, wl, args.seed)
        else:
            values = timed_run(bench, wl, args.seed, args.seconds)
        inputs = input_sizes(bench, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    for name in sorted(values):
        print(f"{wl.name} {name} = {values[name]:.6g} {units[name]}")
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "inputs": inputs,
        "environment": environment(),
        "problems": bench.problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
