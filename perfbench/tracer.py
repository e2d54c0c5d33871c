"""Out-of-process layer tracer for the fleetwarn CLI.

Usage::

    python perfbench/tracer.py TRACE.json -- run --config run.json --out out/

The launcher times ``import fleetwarn.cli``, then replaces the public
functions of each layer at the names their callers look up (for example
``fleetwarn.pipeline.dependence_from_rows``, which is what ``train_model``
calls) with recording wrappers, runs ``fleetwarn.cli.main(argv)`` and writes
the spans and counters to TRACE.json when the process exits.  The program's
own files are not changed; a name that no longer exists aborts the run with
exit code 70, so a refactor cannot silently drop a layer.

Three kinds of wrapper keep the trace small:

* ``SPAN`` records name, start, end, parent and thread id for each call;
* ``TIMED`` only adds the call's time and a call count (for functions called
  once per candidate), charging the time to the enclosing span as child time;
* ``COUNT`` only counts calls (for functions called once per curve
  threshold, up to about a million times per process).

Parents are tracked per thread: a span opened on a worker thread is a root
in that thread.  A span's self time is its duration minus the time covered by
its child spans and ``TIMED`` calls.  ``TIMED`` and ``COUNT`` functions must
be leaves: nothing they call is wrapped.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

SPAN, TIMED, COUNT = "span", "timed", "count"

# Exit code of the launcher when a wrapped name is missing.
MISSING_NAME_EXIT = 70

Counts = Callable[[tuple, dict, Any], Iterable[tuple[str, int]]]


def _telemetry_read(args: tuple, kwargs: dict, panels: Any) -> Iterable[tuple[str, int]]:
    path = kwargs.get("path", args[0] if args else None)
    yield "core.read_telemetry_rows", sum(p.n_flights for p in panels)
    yield "core.read_telemetry_bytes", os.path.getsize(path)


def _dependence(args: tuple, kwargs: dict, dep: Any) -> Iterable[tuple[str, int]]:
    p = len(dep.columns)
    yield "grouping.pairs", p * (p - 1) // 2


def _groups(args: tuple, kwargs: dict, grouping: Any) -> Iterable[tuple[str, int]]:
    yield "grouping.groups", len(grouping.groups)


def _scored(args: tuple, kwargs: dict, scores: Any) -> Iterable[tuple[str, int]]:
    yield "detect.flights_scored", len(scores)


def _binarized(args: tuple, kwargs: dict, alarm: Any) -> Iterable[tuple[str, int]]:
    yield "detect.elementary_firings", alarm.total_firings()


def _classified(args: tuple, kwargs: dict, labels: Any) -> Iterable[tuple[str, int]]:
    yield "matching.firings_graded", len(labels)


def _candidate(args: tuple, kwargs: dict, composed: Any) -> Iterable[tuple[str, int]]:
    members = kwargs.get("alarms", args[0] if args else ())
    yield "synth.candidates", 1
    # Every gated alarm is graded once as a one-member candidate.
    yield "synth.gated", int(len(members) == 1)


def _searched(args: tuple, kwargs: dict, pset: Any) -> Iterable[tuple[str, int]]:
    yield "synth.survivors", len(pset.combinations)


def _loocv(args: tuple, kwargs: dict, result: Any) -> Iterable[tuple[str, int]]:
    yield "evaluation.folds", sum(1 for f in result.folds if not f.skipped)
    yield "evaluation.folds_skipped", len(result.skipped_units)


def _curves(args: tuple, kwargs: dict, points: Any) -> Iterable[tuple[str, int]]:
    scores = kwargs.get("scores", args[0] if args else {})
    yield "evaluation.scored_points", sum(len(series) for series in scores.values())
    yield "evaluation.curve_points", len(points)


# Caller-side name -> (layer name, wrapper kind, counts taken from the call).
SITES: dict[str, tuple[str, str, Counts | None]] = {
    "fleetwarn.cli.generate_fleet": ("simgen.generate", SPAN, None),
    "fleetwarn.cli.write_telemetry_csv": ("core.write_telemetry", SPAN, None),
    "fleetwarn.cli.read_telemetry_csv": ("core.read_telemetry", SPAN, _telemetry_read),
    "fleetwarn.pipeline.fit_column_stats": ("core.normalize", SPAN, None),
    "fleetwarn.pipeline.apply_column_stats": ("core.normalize", SPAN, None),
    "fleetwarn.pipeline.dependence_from_rows": ("grouping.dependence", SPAN, _dependence),
    "fleetwarn.pipeline.build_groups": ("grouping.build_groups", SPAN, _groups),
    "fleetwarn.pipeline.select_normal_regime": ("detect.normal_masks", SPAN, None),
    "fleetwarn.pipeline.fit_subspace_from_rows": ("detect.fit", SPAN, None),
    "fleetwarn.pipeline.fit_threshold": ("detect.fit", SPAN, None),
    "fleetwarn.pipeline.score_reconstruction": ("detect.score", SPAN, _scored),
    "fleetwarn.pipeline.binarize": ("detect.binarize", SPAN, _binarized),
    "fleetwarn.pipeline.layout_periods": ("matching.layout", SPAN, None),
    "fleetwarn.evaluation.layout_periods": ("matching.layout", SPAN, None),
    "fleetwarn.cli.match_stats": ("matching.match_stats", SPAN, None),
    "fleetwarn.synth.match_stats": ("matching.match_stats", SPAN, None),
    "fleetwarn.evaluation.match_stats": ("matching.match_stats", SPAN, None),
    "fleetwarn.matching.significance_samples": ("matching.significance_samples", SPAN, None),
    "fleetwarn.evaluation.significance_samples": ("matching.significance_samples", SPAN, None),
    "fleetwarn.matching.classify_firings": ("matching.classify", COUNT, _classified),
    "fleetwarn.pipeline.search_combinations": ("synth.search", SPAN, _searched),
    "fleetwarn.synth.compose_and": ("synth.compose_and", TIMED, _candidate),
    "fleetwarn.pipeline.compose_and": ("synth.compose_and", TIMED, None),
    "fleetwarn.cli.train_model": ("pipeline.train", SPAN, None),
    "fleetwarn.evaluation.train_model": ("pipeline.train", SPAN, None),
    "fleetwarn.evaluation.pooled_on": ("pipeline.pooled_on", SPAN, None),
    "fleetwarn.cli.leave_one_unit_out": ("evaluation.loocv", SPAN, _loocv),
    "fleetwarn.cli.roc_pr_curves": ("evaluation.roc_pr", SPAN, _curves),
    "fleetwarn.evaluation.greedy_max_matching": ("evaluation.rematch", COUNT, None),
    "fleetwarn.cli.write_detector_json": ("cli.write", SPAN, None),
    "fleetwarn.cli.write_groups_json": ("cli.write", SPAN, None),
    "fleetwarn.cli.write_alarms_csv": ("cli.write", SPAN, None),
    "fleetwarn.cli.write_precursors_json": ("cli.write", SPAN, None),
    "fleetwarn.cli.write_curves_csv": ("cli.write", SPAN, None),
    "fleetwarn.cli._write_json": ("cli.write", SPAN, None),
}


def resolve(site: str) -> tuple[Any, str, Callable]:
    """Module, attribute and current function behind a caller-side name."""
    module_name, _, attr = site.rpartition(".")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise LookupError(f"traced name {site} no longer exists")
    return module, attr, fn


class _ThreadLog:
    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.timed: dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory spans and counters, kept per thread so counts are exact.

    A span is ``[id, name, site, parent_id, start, end, hidden_s, thread_id]``
    where ``hidden_s`` is time spent in ``TIMED`` calls made directly under
    it.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            self._logs.append(log)
        return log

    @contextmanager
    def span(self, name: str, site: str = "") -> Iterator[None]:
        log = self._log()
        parent = log.stack[-1][0] if log.stack else None
        record = [next(self._ids), name, site, parent, perf_counter(), None, 0.0, log.tid]
        log.stack.append(record)
        try:
            yield
        finally:
            record[5] = perf_counter()
            log.stack.pop()
            log.spans.append(record)

    def wrap(self, fn: Callable, site: str, name: str, kind: str, counts: Counts | None) -> Callable:
        def count(log: _ThreadLog, args: tuple, kwargs: dict, result: Any) -> None:
            log.counters[name + ".calls"] += 1
            if counts is not None:
                for key, n in counts(args, kwargs, result):
                    log.counters[key] += n

        if kind == SPAN:
            def wrapper(*args, **kwargs):
                with self.span(name, site):
                    result = fn(*args, **kwargs)
                count(self._log(), args, kwargs, result)
                return result
        elif kind == TIMED:
            def wrapper(*args, **kwargs):
                log = self._log()
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    log.timed[name] += dt
                    if log.stack:
                        log.stack[-1][6] += dt
                count(log, args, kwargs, result)
                return result
        elif kind == COUNT:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self._log(), args, kwargs, result)
                return result
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return wrapper

    def install(self, sites: dict[str, tuple[str, str, Counts | None]] = SITES) -> None:
        """Replace every caller-side name; raise LookupError if one is gone."""
        resolved = [(site, *resolve(site)) for site in sites]
        for site, module, attr, fn in resolved:
            name, kind, counts = sites[site]
            setattr(module, attr, self.wrap(fn, site, name, kind, counts))

    def snapshot(self) -> dict:
        counters: Counter[str] = Counter()
        timed: dict[str, float] = defaultdict(float)
        spans = []
        for log in list(self._logs):
            counters.update(log.counters)
            for name, seconds in log.timed.items():
                timed[name] += seconds
            spans.extend(log.spans)
        return {"spans": spans, "counters": dict(counters), "timed": dict(timed)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def summarize(doc: dict) -> dict:
    """Per-layer totals of one process's trace.

    Returns ``{"self": {name: s}, "total": {name: s}, "site_total":
    {site: s}, "spans": n, "counters": {...}, "timed": {...}}``.
    """
    covered: dict[int, float] = defaultdict(float)
    for sid, _, _, parent, start, end, hidden, _ in doc["spans"]:
        covered[sid] += hidden
        if parent is not None:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    site_total: dict[str, float] = defaultdict(float)
    for sid, name, site, _, start, end, _, _ in doc["spans"]:
        duration = end - start
        self_s[name] += duration - covered[sid]
        total[name] += duration
        if site:
            site_total[site] += duration
    return {
        "self": dict(self_s),
        "total": dict(total),
        "site_total": dict(site_total),
        "spans": len(doc["spans"]),
        "counters": doc["counters"],
        "timed": doc["timed"],
    }


def layer_metrics(doc: dict) -> dict[str, float]:
    """The per-layer figures the benchmark reports for one process's trace.

    Every ``_s`` figure is summed self time, except ``pipeline.train_s`` and
    ``evaluation.fold_train_s``, which include the layers below training.
    """
    summary = summarize(doc)
    own = summary["self"].get
    cnt = summary["counters"].get
    timed = summary["timed"].get
    read_s = summary["total"].get("core.read_telemetry", 0.0)
    candidates = cnt("synth.candidates", 0)
    return {
        "cli.import_s": own("cli.import", 0.0),
        "cli.main_self_s": own("cli.main", 0.0),
        "cli.write_s": own("cli.write", 0.0),
        "core.read_telemetry_s": own("core.read_telemetry", 0.0),
        "core.read_telemetry_rows": cnt("core.read_telemetry_rows", 0),
        "core.read_telemetry_mb_per_s": (
            cnt("core.read_telemetry_bytes", 0) / 1e6 / read_s if read_s else 0.0
        ),
        "core.normalize_s": own("core.normalize", 0.0),
        "core.write_telemetry_s": own("core.write_telemetry", 0.0),
        "simgen.generate_s": own("simgen.generate", 0.0),
        "grouping.dependence_s": own("grouping.dependence", 0.0),
        "grouping.dependence_calls": cnt("grouping.dependence.calls", 0),
        "grouping.pairs": cnt("grouping.pairs", 0),
        "grouping.build_groups_s": own("grouping.build_groups", 0.0),
        "grouping.groups": cnt("grouping.groups", 0),
        "detect.normal_masks_s": own("detect.normal_masks", 0.0),
        "detect.fit_s": own("detect.fit", 0.0),
        "detect.score_s": own("detect.score", 0.0),
        "detect.binarize_s": own("detect.binarize", 0.0),
        "detect.flights_scored": cnt("detect.flights_scored", 0),
        "detect.elementary_firings": cnt("detect.elementary_firings", 0),
        "matching.layout_s": own("matching.layout", 0.0),
        "matching.match_stats_s": own("matching.match_stats", 0.0),
        "matching.match_stats_calls": cnt("matching.match_stats.calls", 0),
        "matching.significance_samples_s": own("matching.significance_samples", 0.0),
        "matching.classify_calls": cnt("matching.classify.calls", 0),
        "matching.firings_graded": cnt("matching.firings_graded", 0),
        "synth.search_self_s": own("synth.search", 0.0),
        "synth.compose_and_s": timed("synth.compose_and", 0.0),
        "synth.candidates": candidates,
        "synth.gated": cnt("synth.gated", 0),
        "synth.survivors": cnt("synth.survivors", 0),
        "synth.survivor_ratio": cnt("synth.survivors", 0) / candidates if candidates else 0.0,
        "pipeline.train_s": summary["total"].get("pipeline.train", 0.0),
        "pipeline.train_self_s": own("pipeline.train", 0.0),
        "pipeline.train_calls": cnt("pipeline.train.calls", 0),
        "pipeline.pooled_on_s": own("pipeline.pooled_on", 0.0),
        "evaluation.loocv_s": own("evaluation.loocv", 0.0),
        "evaluation.folds": cnt("evaluation.folds", 0),
        "evaluation.folds_skipped": cnt("evaluation.folds_skipped", 0),
        "evaluation.fold_train_s": summary["site_total"].get(
            "fleetwarn.evaluation.train_model", 0.0
        ),
        "evaluation.roc_pr_s": own("evaluation.roc_pr", 0.0),
        "evaluation.scored_points": cnt("evaluation.scored_points", 0),
        "evaluation.curve_points": cnt("evaluation.curve_points", 0),
        "evaluation.rematch_calls": cnt("evaluation.rematch.calls", 0),
        "trace.spans": summary["spans"],
    }


def launch(argv: list[str]) -> int:
    """``TRACE.json -- <fleetwarn argv>``: run the CLI with every site traced."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <fleetwarn arguments>", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import fleetwarn.cli
    try:
        tracer.install()
    except LookupError as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return MISSING_NAME_EXIT
    atexit.register(tracer.dump, out)
    with tracer.span("cli.main"):
        return fleetwarn.cli.main(cli_argv)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
