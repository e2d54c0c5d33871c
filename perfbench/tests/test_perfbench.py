"""Self-tests of the benchmark: smoke-sized workloads, tracer and checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import SITES, SPAN, TIMED, Tracer, layer_metrics, resolve, summarize  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Each workload at smoke size: set-up, then the command at 1 and 2 workers."""
    benches = {}
    for name, wl in WORKLOADS.items():
        bench = run.Bench(tmp_path_factory.mktemp(name))
        bench.setup(wl.smoke(), SEED)
        bench.command(wl.smoke(), 1, "out_w1")
        bench.command(wl.smoke(), 2, "out_w2", same_as="out_w1")
        benches[name] = bench
    return benches


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_runs_clean(smoke, name):
    bench = smoke[name]
    assert bench.problems == []
    assert (bench.attempted, bench.failed) == (3, 0)


def test_corrupted_output_counts_as_failure(smoke):
    bench = run.Bench(smoke["curves-sweep"].work)
    wl = WORKLOADS["curves-sweep"].smoke()
    shutil.copytree(bench.work / "out_w1", bench.work / "out_corrupt")
    curves = bench.work / "out_corrupt" / "curves.csv"
    lines = curves.read_text().splitlines()
    curves.write_text("\n".join(lines[:-1]) + "\n")  # drop the last threshold
    assert check_outputs(wl, bench.work / "fleet", bench.work / "out_corrupt")
    bench.command(wl, 2, "out_w2_again", same_as="out_corrupt")
    assert (bench.attempted, bench.failed) == (1, 1)
    assert any("curves.csv differs from out_corrupt" in p for p in bench.problems)


def test_every_traced_name_resolves():
    for site in SITES:
        _, _, fn = resolve(site)
        assert callable(fn), site


def test_missing_traced_name_fails_loudly():
    tracer = Tracer()
    with pytest.raises(LookupError, match="fleetwarn.pipeline.no_such_function"):
        tracer.install({"fleetwarn.pipeline.no_such_function": ("x", SPAN, None)})


def _check_nesting(doc: dict) -> None:
    spans = {s[0]: s for s in doc["spans"]}
    for _, _, _, parent, start, end, _, tid in doc["spans"]:
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[4] <= start and end <= p[5] and p[7] == tid


def test_spans_nest_and_self_times_are_non_negative():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def middle(x):
        return timed(leaf(x))

    timed = tracer.wrap(lambda x: x, "t.timed", "timed", TIMED, None)
    leaf = tracer.wrap(leaf, "t.leaf", "leaf", SPAN, lambda a, k, r: [("leaf.sum", r)])
    middle = tracer.wrap(middle, "t.middle", "middle", SPAN, None)
    with tracer.span("root"):
        middle(1)
        worker = threading.Thread(target=middle, args=(2,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    doc = tracer.snapshot()
    _check_nesting(doc)
    by_name = {}
    for s in doc["spans"]:
        by_name.setdefault(s[1], []).append(s)
    # The worker thread's span is a root there; the main thread's nests.
    assert sorted(s[3] is None for s in by_name["middle"]) == [False, True]
    summary = summarize(doc)
    assert all(v >= 0 for v in summary["self"].values())
    assert summary["counters"] == {
        "leaf.calls": 2, "leaf.sum": 5, "middle.calls": 2, "timed.calls": 2,
    }


def test_traced_smoke_run_reports_every_layer(tmp_path):
    wl = WORKLOADS["search-dense"].smoke()
    bench = run.Bench(tmp_path)
    metrics = run.traced_run(bench, wl, SEED)
    assert bench.problems == []
    assert set(metrics) == set(run.declared_metrics(trace=True))
    doc = json.loads((tmp_path / "trace_command.json").read_text())
    _check_nesting(doc)
    assert all(v >= 0 for v in summarize(doc)["self"].values())
    assert metrics["grouping.dependence_calls"] == 1
    assert metrics["synth.candidates"] >= metrics["synth.survivors"] > 0
    assert metrics["matching.match_stats_calls"] > metrics["synth.candidates"]
    assert layer_metrics(doc)["cli.import_s"] > 0


def test_benchmark_needs_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-wide", "--seed", "0",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
