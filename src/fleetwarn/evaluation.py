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
import sys
import warnings
from bisect import insort
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from fleetwarn import core  # its process helpers, looked up where tests patch them
from fleetwarn.core import (
    CSV_BLOCK_ROWS,
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


def _fold(
    held: TelemetryPanel,
    panels: Sequence[TelemetryPanel],
    events: Sequence[EventRecord],
    targets: Sequence[EventRecord],
    cfg: PipelineConfig,
) -> FoldResult:
    """Train without ``held``, and grade the pooled signal on it."""
    train_panels = [p for p in panels if p.unit_id != held.unit_id]
    train_events = [ev for ev in events if ev.unit_id != held.unit_id]
    # Built before the fold trains; it drops the targets of other units as out of range.
    layout = layout_periods(targets, cfg.match, {held.unit_id: held.observation_range()})
    try:
        model = train_model(train_panels, train_events, cfg)
    except NoTargetEventsError:
        return FoldResult(held_out_unit=held.unit_id, skipped=True)
    pooled = pooled_on(model, [held])
    stats = match_stats(pooled, layout)
    window_counts, segment_counts = significance_samples(pooled, layout)
    return FoldResult(
        held_out_unit=held.unit_id,
        skipped=False,
        stats=stats,
        precursors=model.precursors,
        window_counts=tuple(window_counts),
        segment_counts=tuple(segment_counts),
    )


# A fold's result or the exception it raised, and the warnings it issued.
_Outcome = tuple[FoldResult | Exception, list[tuple[Warning, type[Warning], str, int]]]


def _recorded(fold: Callable[[TelemetryPanel], FoldResult],
              share: Sequence[TelemetryPanel]) -> list[_Outcome]:
    """The outcome of each fold of ``share`` in order, up to the first that raises."""
    outcomes: list[_Outcome] = []
    for held in share:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result: FoldResult | Exception = fold(held)
            except Exception as exc:
                result = exc
        outcomes.append((result, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        if isinstance(result, Exception):
            break
    return outcomes


def leave_one_unit_out(
    panels: Sequence[TelemetryPanel],
    events: Sequence[EventRecord],
    cfg: PipelineConfig,
) -> CrossvalResult:
    """One fold per unit: train without it, grade the pooled signal on it.

    A fold whose training units carry no target event is marked skipped.
    The folds train in k processes, one per CPU and at most one per unit,
    each with one OpenBLAS thread; without fork or numpy's bundled OpenBLAS,
    k is 1.  Process i trains the interleaved share ``panels[i::k]``, so the
    cheap skipped folds spread evenly.  Each fold records its warnings and
    its exception, and both are replayed in unit order, as one loop over the
    folds would issue them: each distinct warning once, and the first
    fold's exception.  The result does not depend on k.
    """
    panels = sorted(panels, key=lambda p: p.unit_id)
    if len(panels) < 2:
        raise ValueError("leave-one-unit-out needs at least 2 units")

    targets = [ev for ev in events if ev.code.startswith(cfg.code_prefix)]
    fold = partial(_fold, panels=panels, events=events, targets=targets, cfg=cfg)
    k = core._processes(len(panels))
    threads = core._blas_threads() if k > 1 else None
    shares = [panels[i::k] for i in range(k)] if threads else [panels]
    if len(shares) > 1:
        import scipy.special  # for the p-values: loaded once here, not once per process
    doing = [f"training the folds that hold out {', '.join(repr(p.unit_id) for p in share)}"
             for share in shares]
    with core._one_blas_thread(threads):
        outcomes = core._on_cpus("leave-one-unit-out", doing, partial(_recorded, fold), shares)
    by_unit = {held.unit_id: outcome for share, done in zip(shares, outcomes)
               for held, outcome in zip(share, done)}
    registries: dict[str, dict] = {}
    # The module of each warning's file, so that a filter on a module name matches.
    modules = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())}
    folds = []
    # A fold after a failed one in its share is missing, but the failure comes first.
    for held in panels:
        result, caught = by_unit[held.unit_id]
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, modules.get(filename),
                                   registries.setdefault(filename, {}))
        if isinstance(result, Exception):
            raise result
        folds.append(result)
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


@dataclass(frozen=True, eq=False)
class Curve:
    """A confusion curve, thresholds descending: one array per ``CurvePoint``
    field, and ``curve[i]`` the i-th point."""

    nu: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    fpr: np.ndarray

    def __len__(self) -> int:
        return len(self.nu)

    def __getitem__(self, i: int) -> CurvePoint:
        return CurvePoint(*(getattr(self, f.name)[i].item() for f in fields(CurvePoint)))

    def __iter__(self) -> Iterator[CurvePoint]:
        return map(self.__getitem__, range(len(self)))


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


def _near(flights: np.ndarray, onsets: np.ndarray, tolerance: int) -> np.ndarray:
    """Whether each flight lies within ``tolerance`` of one of the sorted onsets."""
    after = np.searchsorted(onsets, flights)  # the first onset >= the flight
    # The uint64 difference of two ordered int64 values is exact: it cannot wrap.
    o, f = onsets.view(np.uint64), flights.view(np.uint64)
    near = np.zeros(flights.size, dtype=bool)
    right = after < onsets.size
    near[right] = o[after[right]] - f[right] <= tolerance
    left = after > 0
    near[left] |= f[left] - o[after[left] - 1] <= tolerance
    return near


def roc_pr_curves(
    scores: Mapping[str, Mapping[int, float]],
    events: Sequence[EventRecord],
    tolerance: int,
) -> Curve:
    """Confusion curve over all distinct score thresholds, descending.

    A flight is flagged when its score >= the threshold; the sweep starts at
    +inf (nothing flagged).  Flags match event onsets one-to-one within
    ``tolerance`` flights; unmatched flags are false positives, unmatched
    events false negatives, and remaining scored flights true negatives.
    With no events the PR side is undefined: that raises
    :class:`NoTargetEventsError`.

    The flags are sorted once by (-score, unit, flight); equal scores, -0.0
    and 0.0 included, form one threshold whose ``nu`` is the first of them.
    The sets of flags that can all be matched at once form a transversal
    matroid, so taking the flags in that order and accepting each one that
    can be matched together with those already accepted leaves, at every
    threshold, a maximum matching of the flags so far.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    units = sorted(scores)
    for ev in events:
        if ev.unit_id not in scores:
            raise ValueError(f"event on unit {ev.unit_id!r} which has no scores")
    n_events = len(events)
    if n_events == 0:
        raise NoTargetEventsError("no events: precision-recall undefined")

    onsets: dict[str, list[int]] = {u: [] for u in units}
    for ev in events:
        onsets[ev.unit_id].append(ev.onset)
    unit_onsets = [sorted(onsets[u]) for u in units]

    sizes = [len(scores[u]) for u in units]
    total = sum(sizes)
    flight = np.fromiter(chain.from_iterable(scores[u].keys() for u in units),
                         dtype=np.int64, count=total)
    value = np.fromiter(chain.from_iterable(scores[u].values() for u in units),
                        dtype=np.float64, count=total)
    unit = np.repeat(np.arange(len(units)), sizes)
    scored = ~np.isnan(value)
    flight, value, unit = flight[scored], value[scored], unit[scored]
    # A flag farther than the tolerance from every onset is never matched.
    near = np.zeros(value.size, dtype=bool)
    bounds = np.searchsorted(unit, np.arange(len(units) + 1)).tolist()
    for code, targets in enumerate(unit_onsets):
        if targets:
            lo, hi = bounds[code], bounds[code + 1]
            near[lo:hi] = _near(flight[lo:hi], np.array(targets, dtype=np.int64), tolerance)

    order = np.lexsort((flight, unit, -value))
    value, unit, flight, near = value[order], unit[order], flight[order], near[order]
    n_scored = value.size
    # cuts[k] flags are flagged at the k-th threshold, +inf first.
    step = np.ones(n_scored + 1, dtype=bool)
    step[1:-1] = value[1:] != value[:-1]
    cuts = np.flatnonzero(step)

    accepted = np.zeros(n_scored, dtype=bool)
    taken: list[list[int]] = [[] for _ in units]
    candidates = np.flatnonzero(near)
    for i, code, t in zip(candidates.tolist(), unit[candidates].tolist(),
                          flight[candidates].tolist()):
        if len(taken[code]) == len(unit_onsets[code]):
            continue  # every onset of the unit is matched
        trial = taken[code].copy()
        insort(trial, t)
        if greedy_max_matching(trial, unit_onsets[code], tolerance) == len(trial):
            taken[code] = trial
            accepted[i] = True

    nu = np.concatenate(([math.inf], value[cuts[:-1]]))
    tp = np.concatenate(([0], np.cumsum(accepted)))[cuts]
    fp = cuts - tp
    fn = n_events - tp
    tn = np.maximum(n_scored - tp - fp - fn, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(cuts == 0, 1.0, tp / cuts)
        recall = tp / n_events
        fpr = np.where(fp + tn == 0, 0.0, fp / (fp + tn))
    return Curve(nu, tp, fp, fn, tn, precision, recall, fpr)


def operating_point(curve: Curve, nu: float = 0.6) -> CurvePoint:
    """The point whose threshold is nearest nu (ties: the larger nu, then the
    earlier point)."""
    if not len(curve):
        raise ValueError("no curve points")
    gap = np.abs(curve.nu - nu)
    nearest = np.flatnonzero(gap == gap.min())
    return curve[int(nearest[np.argmax(curve.nu[nearest])])]


def write_curves_csv(path: str | Path, curve: Curve) -> None:
    """One row per point; the columns are the ``CurvePoint`` fields, in order.

    The cells are formatted column by column, ``CSV_BLOCK_ROWS`` rows at a
    time: formatting all 32,001 rows of the curves-sweep benchmark at once
    raised its peak RSS from 41 to 57 MB.
    """
    names = [f.name for f in fields(CurvePoint)]
    columns = [getattr(curve, name) for name in names]
    formats = [csv_float if column.dtype.kind == "f" else str for column in columns]

    def rows() -> Iterator[tuple[str, ...]]:
        for start in range(0, len(curve), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            yield from zip(*(list(map(fmt, column[block].tolist()))
                             for column, fmt in zip(columns, formats)))

    write_csv(path, names, rows())
