"""Cross-validation and curve-based evaluation of warning signals.

Leave-one-unit-out: each fold retrains the entire pipeline (normalization,
grouping, detectors, thresholds, combination search) without one unit, then
grades the pooled signal on that unit.  Fold counters are micro-aggregated:
summed first, ratios recomputed from the sums.

Curves: any per-flight score source (the pooled signal, an external
classifier, or the single-parameter thresholding baseline) is swept over its
distinct values; flagged flights match events one-to-one within a flight
tolerance, and each threshold yields a confusion row.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from fleetwarn.core import (
    EventRecord,
    NoTargetEventsError,
    TelemetryPanel,
    csv_float,
    write_csv,
)
from fleetwarn.matching import (
    MatchStats,
    layout_periods,
    match_stats,
    significance_samples,
    significance_test,
)
from fleetwarn.pipeline import PipelineConfig, pooled_on, train_model
from fleetwarn.synth import PrecursorSet


@dataclass(frozen=True)
class FoldResult:
    """One held-out unit's evaluation, or a skip marker.

    ``window_counts`` / ``segment_counts`` are the held-out significance
    samples, kept so the aggregate p-value can be computed from the
    concatenation over folds.
    """

    held_out_unit: str
    skipped: bool
    stats: MatchStats | None = None
    precursors: PrecursorSet | None = None
    window_counts: tuple[int, ...] = ()
    segment_counts: tuple[int, ...] = ()


@dataclass(frozen=True)
class CrossvalResult:
    folds: tuple[FoldResult, ...]
    aggregate: MatchStats
    skipped_units: tuple[str, ...]


def _aggregate(folds: Sequence[FoldResult]) -> MatchStats:
    done = [f for f in folds if not f.skipped]
    window_counts = [c for f in done for c in f.window_counts]
    segment_counts = [c for f in done for c in f.segment_counts]
    return MatchStats.from_counters(
        **{name: sum(getattr(f.stats, name) for f in done) for name in MatchStats.COUNTERS},
        p_value=significance_test(window_counts, segment_counts),
    )


def leave_one_unit_out(
    panels: Sequence[TelemetryPanel],
    events: Sequence[EventRecord],
    cfg: PipelineConfig,
) -> CrossvalResult:
    """One fold per unit: train without it, grade the pooled signal on it.

    A fold whose training units carry no target event is marked skipped.
    """
    panels = sorted(panels, key=lambda p: p.unit_id)
    if len(panels) < 2:
        raise ValueError("leave-one-unit-out needs at least 2 units")

    folds: list[FoldResult] = []
    for held in panels:
        train_panels = [p for p in panels if p.unit_id != held.unit_id]
        train_events = [ev for ev in events if ev.unit_id != held.unit_id]
        try:
            model = train_model(train_panels, train_events, cfg)
        except NoTargetEventsError:
            folds.append(FoldResult(held_out_unit=held.unit_id, skipped=True))
            continue
        pooled = pooled_on(model, [held])
        held_events = [
            ev
            for ev in events
            if ev.unit_id == held.unit_id and ev.code.startswith(cfg.code_prefix)
        ]
        layout = layout_periods(
            held_events, cfg.match, {held.unit_id: held.observation_range()}
        )
        stats = match_stats(pooled, layout, require_events=False)
        window_counts, segment_counts = significance_samples(pooled, layout)
        folds.append(
            FoldResult(
                held_out_unit=held.unit_id,
                skipped=False,
                stats=stats,
                precursors=model.precursors,
                window_counts=tuple(window_counts),
                segment_counts=tuple(segment_counts),
            )
        )
    return CrossvalResult(
        folds=tuple(folds),
        aggregate=_aggregate(folds),
        skipped_units=tuple(f.held_out_unit for f in folds if f.skipped),
    )


def threshold_baseline(values: np.ndarray, direction: str) -> np.ndarray:
    """Turn raw parameter levels into sweepable scores.

    ``above`` keeps the values; ``below`` negates them, so in both cases a
    larger score means more suspicious and sweeping a threshold over the
    scores enumerates every fixed-level detector.
    """
    values = np.asarray(values, dtype=np.float64)
    if direction == "above":
        return values.copy()
    if direction == "below":
        return -values
    raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")


@dataclass(frozen=True)
class CurvePoint:
    nu: float
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    fpr: float


def greedy_max_matching(
    flags: Sequence[int], onsets: Sequence[int], tolerance: int
) -> int:
    """Maximum one-to-one matching of flags to onsets within the tolerance.

    Both inputs sorted ascending.  Scanning onsets in order and taking the
    leftmost unmatched flag in [onset - tolerance, onset + tolerance] is
    optimal for equal-width intervals on a line, so this equals the exact
    maximum bipartite matching.
    """
    i = 0
    matched = 0
    for onset in onsets:
        while i < len(flags) and flags[i] < onset - tolerance:
            i += 1
        if i < len(flags) and flags[i] <= onset + tolerance:
            matched += 1
            i += 1
    return matched


def roc_pr_curves(
    scores: Mapping[str, Mapping[int, float]],
    events: Sequence[EventRecord],
    tolerance: int,
    require_events: bool = True,
) -> list[CurvePoint]:
    """Confusion curve over all distinct score thresholds, descending.

    A flight is flagged when its score >= the threshold; the sweep starts at
    +inf (nothing flagged).  Flags match event onsets one-to-one within
    ``tolerance`` flights; unmatched flags are false positives, unmatched
    events false negatives, and remaining scored flights true negatives.
    With no events the PR side is undefined: that raises unless
    ``require_events`` is False, in which case recall is NaN.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    units = sorted(scores)
    for ev in events:
        if ev.unit_id not in scores:
            raise ValueError(f"event on unit {ev.unit_id!r} which has no scores")
    n_events = len(events)
    if n_events == 0 and require_events:
        raise NoTargetEventsError("no events: precision-recall undefined")

    onsets: dict[str, list[int]] = {u: [] for u in units}
    for ev in events:
        onsets[ev.unit_id].append(ev.onset)
    for u in units:
        onsets[u].sort()

    triples: list[tuple[float, str, int]] = []
    relevant: dict[tuple[str, int], bool] = {}
    for u in units:
        near = set()
        for onset in onsets[u]:
            near.update(range(onset - tolerance, onset + tolerance + 1))
        for flight in sorted(scores[u]):
            s = scores[u][flight]
            if math.isnan(s):
                continue
            triples.append((s, u, flight))
            relevant[(u, flight)] = flight in near
    n_scored = len(triples)
    triples.sort(key=lambda t: (-t[0], t[1], t[2]))

    def emit(nu: float, n_flags: int, tp: int) -> CurvePoint:
        fp = n_flags - tp
        fn = n_events - tp
        tn = max(n_scored - tp - fp - fn, 0)
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = tp / n_events if n_events else float("nan")
        fpr = fp / (fp + tn) if fp + tn else 0.0
        return CurvePoint(nu, tp, fp, fn, tn, precision, recall, fpr)

    points = [emit(float("inf"), 0, 0)]
    active: dict[str, list[int]] = {u: [] for u in units}
    unit_tp: dict[str, int] = {u: 0 for u in units}
    n_flags = 0
    tp = 0
    i = 0
    while i < len(triples):
        nu = triples[i][0]
        changed: set[str] = set()
        while i < len(triples) and triples[i][0] == nu:
            _, u, flight = triples[i]
            n_flags += 1
            if relevant[(u, flight)]:
                insort(active[u], flight)
                changed.add(u)
            i += 1
        # only a unit whose relevant flags changed can change its matching
        for u in changed:
            matched = greedy_max_matching(active[u], onsets[u], tolerance)
            tp += matched - unit_tp[u]
            unit_tp[u] = matched
        points.append(emit(float(nu), n_flags, tp))
    return points


def operating_point(points: Sequence[CurvePoint], nu: float = 0.6) -> CurvePoint:
    """The emitted point whose threshold is nearest nu (ties: larger nu)."""
    if not points:
        raise ValueError("no curve points")
    return min(points, key=lambda p: (abs(p.nu - nu), -p.nu))


def write_curves_csv(path: str | Path, points: Sequence[CurvePoint]) -> None:
    """One row per point; the columns are the ``CurvePoint`` fields, in order."""
    # Spelled out: reading the fields by name costs about 2 us a point.
    rows = (
        [csv_float(p.nu), str(p.tp), str(p.fp), str(p.fn), str(p.tn),
         csv_float(p.precision), csv_float(p.recall), csv_float(p.fpr)]
        for p in points
    )
    write_csv(path, [f.name for f in fields(CurvePoint)], rows)
