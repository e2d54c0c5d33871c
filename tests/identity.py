"""Check that this checkout's CLI writes what another revision's writes.

Usage (from the repository root)::

    python3 tests/identity.py REV

``REV`` is any git revision, such as the parent commit of a change.  Its
``src/`` is extracted with ``git archive`` into a temporary directory, which
leaves the repository itself untouched.  For every workload of
``perfbench/workloads.py`` and seeds 0 and 424242, each tree (REV's and this
working tree's ``src/``) runs ``fleetwarn simulate --seed`` and then the
workload's command with its ``--workers``, as ``perfbench/run.py`` runs
them.  Both runs' exit codes, standard output and standard error (with each
tree's directories masked) and output trees must be equal.  At seed 0 each
tree also runs the command under ``perfbench/tracer.py``, and the per-layer
counts of the two traces (the ``count`` metrics of ``BENCHMARK.json``) and
the traced runs' exit codes must be equal too.  One line is printed per
workload and seed; the exit code is 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, tree_differences  # noqa: E402

SEEDS = (0, 424242)
# The seed whose command is also traced, as ``perfbench/run.py --trace`` traces it.
TRACED_SEED = 0
COUNTS = [metric["name"] for metric in
          json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
          if metric["unit"] == "count"]


def fleetwarn(src: Path, work: Path, args: list[str],
              trace: Path | None = None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m fleetwarn ARGS`` run in
    ``work`` against the package in ``src``, with both paths masked; with a
    ``trace`` path, run by ``perfbench/tracer.py``, which writes it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    launcher = ["-m", "fleetwarn"] if trace is None else [
        str(ROOT / "perfbench" / "tracer.py"), str(trace), "--"]
    proc = subprocess.run([sys.executable, *launcher, *args], cwd=work, env=env,
                          capture_output=True, text=True, timeout=600)

    def masked(text: str) -> str:
        return text.replace(str(work), "<work>").replace(str(src), "<src>")

    return proc.returncode, masked(proc.stdout), masked(proc.stderr)


def run_side(src: Path, work: Path, wl: Workload, seed: int) -> list[tuple[int, str, str]]:
    """Simulate the workload's fleet and run its command in ``work``; at
    ``TRACED_SEED``, run it traced as well, into ``out_traced`` and ``trace.json``."""
    work.mkdir(parents=True)
    (work / "fleet.json").write_text(json.dumps({"sim": wl.sim}), encoding="utf-8")
    (work / "run.json").write_text(json.dumps(wl.run_config()), encoding="utf-8")
    command = [wl.command, "--config", "run.json", "--workers", str(wl.workers)]
    runs = [
        fleetwarn(src, work, ["simulate", "--config", "fleet.json", "--seed", str(seed),
                              "--out", "fleet"]),
        fleetwarn(src, work, [*command, "--out", "out"]),
    ]
    if seed == TRACED_SEED:
        runs.append(fleetwarn(src, work, [*command, "--out", "out_traced"], work / "trace.json"))
    return runs


def counts(work: Path) -> dict[str, float] | None:
    """The per-layer counts of the traced run in ``work``; None without a trace."""
    trace = work / "trace.json"
    if not trace.is_file():
        return None
    metrics = layer_metrics(json.loads(trace.read_text(encoding="utf-8")))
    return {name: metrics[name] for name in COUNTS}


def differences(rev_src: Path, tmp: Path, wl: Workload, seed: int) -> list[str]:
    """What differs between REV's and this tree's runs of one workload and seed."""
    a, b = tmp / f"{wl.name}-{seed}" / "rev", tmp / f"{wl.name}-{seed}" / "tree"
    runs_a = run_side(rev_src, a, wl, seed)
    runs_b = run_side(ROOT / "src", b, wl, seed)
    diffs = []
    for step, ra, rb in zip(("simulate", wl.command, f"traced {wl.command}"), runs_a, runs_b):
        for what, va, vb in zip(("exit code", "stdout", "stderr"), ra, rb):
            if va != vb:
                diffs.append(f"{step} {what}: {va!r} != {vb!r}")
    for tree in ("fleet", "out"):
        diffs += [f"{tree}/{p}" for p in tree_differences(a / tree, b / tree)]
    if seed == TRACED_SEED:
        count_a, count_b = counts(a), counts(b)
        if count_a is None or count_b is None:
            diffs.append("a traced run wrote no trace")
        else:
            diffs += [f"{name}: {count_a[name]} != {count_b[name]}"
                      for name in COUNTS if count_a[name] != count_b[name]]
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="fleetwarn-identity-") as name:
        tmp = Path(name)
        archive = subprocess.run(["git", "archive", "--format=tar", argv[0], "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        different = False
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                diffs = differences(tmp / "rev" / "src", tmp, wl, seed)
                different |= bool(diffs)
                print(f"{wl.name} seed {seed}: " + ("; ".join(diffs) or "same"), flush=True)
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
