"""Match alarm firings against failure events and grade the alarm.

The timeline of each unit is partitioned into three region families derived
from its events and the :class:`~fleetwarn.core.MatchParams` geometry:

* true windows  [onset - horizon - window, onset - horizon): a firing here
  anticipates the event in time to act;
* irrelevant zones [onset - horizon, end + delay): firings here are too late
  to act on or are attributable to the event/repair, and count for nothing;
* false segments: maximal runs of the remaining flights.

Overlaps between regions of different events resolve by precedence
True > Irrelevant > False.  Counters aggregate across the fleet by
summation, and an alarm is graded by three statistics: false firings per
event (false_alarm_rate), fraction of events covered (coverage), and false
firings per covered event (false_to_covered), plus a one-sided Welch t-test
comparing per-window and per-segment firing counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtr

from fleetwarn.core import (
    AlarmSeries,
    EventRecord,
    FiringKind,
    FiringLabel,
    MatchParams,
    NoTargetEventsError,
)


@dataclass(frozen=True)
class UnitLayout:
    """One unit's region decomposition over its observation range.

    Intervals are half-open [lo, hi) on the integer flight timeline
    [first, last].  ``events`` holds the kept events sorted by
    (onset, end, code); interval tuples carry the owning event's index into
    it.  ``window_events`` lists the events whose clipped true window is
    non-empty (the ones eligible for coverage credit).
    """

    unit_id: str
    first: int
    last: int
    events: tuple[EventRecord, ...]
    true_windows: tuple[tuple[int, int, int], ...]
    irrelevant_zones: tuple[tuple[int, int, int], ...]
    false_segments: tuple[tuple[int, int], ...]
    window_events: tuple[int, ...]


@dataclass(frozen=True)
class PeriodLayout:
    """Fleet-wide region decomposition plus the events it had to drop."""

    units: Mapping[str, UnitLayout]
    params: MatchParams
    dropped: tuple[EventRecord, ...]

    def unit_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.units))

    def total_window_events(self) -> int:
        return sum(len(ul.window_events) for ul in self.units.values())


@dataclass(frozen=True)
class MatchStats:
    """Fleet-aggregated match counters and the derived quality metrics.

    ``window_events`` / ``false_segments`` are the denominators (events with
    a usable true window; maximal false segments).  ``coverage`` and
    ``false_alarm_rate`` are NaN when there are no window events (possible
    only on non-strict evaluation of an event-free slice).
    ``false_to_covered`` is +inf when no event is covered.
    """

    window_events: int
    false_segments: int
    true_firings: int
    false_firings: int
    irrelevant_firings: int
    covered_events: int
    fired_false_segments: int
    false_alarm_rate: float
    coverage: float
    false_to_covered: float
    p_value: float


def layout_periods(
    events: Sequence[EventRecord],
    params: MatchParams,
    ranges: Mapping[str, tuple[int, int]],
) -> PeriodLayout:
    """Decompose every unit's timeline into true/irrelevant/false regions.

    ``ranges`` maps unit id to its inclusive [first, last] observation
    range.  An event whose whole influence span [onset-horizon-window,
    end+delay) misses the range, or whose unit has no range, is dropped and
    reported in ``dropped`` rather than raising.
    """
    per_unit: dict[str, list[EventRecord]] = {}
    dropped: list[EventRecord] = []
    for ev in events:
        rng = ranges.get(ev.unit_id)
        if rng is None:
            dropped.append(ev)
            continue
        first, last = rng
        if ev.end + params.delay <= first or ev.onset - params.horizon - params.window > last:
            dropped.append(ev)
            continue
        per_unit.setdefault(ev.unit_id, []).append(ev)

    units: dict[str, UnitLayout] = {}
    for unit in sorted(ranges):
        first, last = ranges[unit]
        if last < first:
            raise ValueError(f"bad observation range for unit {unit!r}")
        evs = tuple(sorted(per_unit.get(unit, []), key=lambda e: (e.onset, e.end, e.code)))
        true_windows: list[tuple[int, int, int]] = []
        irrelevant: list[tuple[int, int, int]] = []
        for i, ev in enumerate(evs):
            t_lo = max(ev.onset - params.horizon - params.window, first)
            t_hi = min(ev.onset - params.horizon, last + 1)
            if t_lo < t_hi:
                true_windows.append((t_lo, t_hi, i))
            z_lo = max(ev.onset - params.horizon, first)
            z_hi = min(ev.end + params.delay, last + 1)
            if z_lo < z_hi:
                irrelevant.append((z_lo, z_hi, i))
        covered = sorted(
            [(lo, hi) for lo, hi, _ in true_windows]
            + [(lo, hi) for lo, hi, _ in irrelevant]
        )
        segments: list[tuple[int, int]] = []
        cursor = first
        for lo, hi in covered:
            if lo > cursor:
                segments.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < last + 1:
            segments.append((cursor, last + 1))
        units[unit] = UnitLayout(
            unit_id=unit,
            first=first,
            last=last,
            events=evs,
            true_windows=tuple(true_windows),
            irrelevant_zones=tuple(irrelevant),
            false_segments=tuple(segments),
            window_events=tuple(i for _, _, i in true_windows),
        )
    return PeriodLayout(units=units, params=params, dropped=tuple(dropped))


def classify_firings(alarm: AlarmSeries, layout: PeriodLayout) -> list[FiringLabel]:
    """Label every firing True, Irrelevant, or False (in that precedence).

    A True firing inside several overlapping windows is credited to every
    owning event.  Firings on units or flights outside the layout violate
    the precondition and raise.
    """
    labels: list[FiringLabel] = []
    for unit in alarm.units():
        ul = layout.units.get(unit)
        firings = alarm.firings_for(unit)
        if ul is None:
            if firings:
                raise ValueError(f"firings on unit {unit!r} absent from layout")
            continue
        seg_starts = [lo for lo, _ in ul.false_segments]
        for t in sorted(firings):
            if not ul.first <= t <= ul.last:
                raise ValueError(
                    f"firing at flight {t} outside range [{ul.first}, {ul.last}] "
                    f"of unit {unit!r}"
                )
            owners = tuple(i for lo, hi, i in ul.true_windows if lo <= t < hi)
            if owners:
                labels.append(FiringLabel(unit, t, FiringKind.TRUE, events=owners))
                continue
            zone_owners = tuple(i for lo, hi, i in ul.irrelevant_zones if lo <= t < hi)
            if zone_owners:
                labels.append(FiringLabel(unit, t, FiringKind.IRRELEVANT, events=zone_owners))
                continue
            seg = bisect_right(seg_starts, t) - 1
            assert 0 <= seg < len(ul.false_segments) and t < ul.false_segments[seg][1]
            labels.append(FiringLabel(unit, t, FiringKind.FALSE, segment=seg))
    return labels


def significance_samples(
    alarm: AlarmSeries, layout: PeriodLayout
) -> tuple[list[int], list[int]]:
    """Per-true-window and per-false-segment firing counts.

    One sample entry per window event and per false segment, fleet-wide in
    sorted unit order.  A true firing owned by several events is counted in
    the earliest-onset owner's entry only, so the window counts sum to the
    total number of true firings.
    """
    labels = classify_firings(alarm, layout)
    window_counts: dict[tuple[str, int], int] = {}
    segment_counts: dict[tuple[str, int], int] = {}
    for unit in layout.unit_ids():
        ul = layout.units[unit]
        for i in ul.window_events:
            window_counts[(unit, i)] = 0
        for s in range(len(ul.false_segments)):
            segment_counts[(unit, s)] = 0
    for lab in labels:
        if lab.kind is FiringKind.TRUE:
            window_counts[(lab.unit_id, min(lab.events))] += 1
        elif lab.kind is FiringKind.FALSE:
            segment_counts[(lab.unit_id, lab.segment)] += 1
    return (
        [window_counts[k] for k in sorted(window_counts)],
        [segment_counts[k] for k in sorted(segment_counts)],
    )


def significance_test(
    true_counts: Sequence[int], false_counts: Sequence[int]
) -> float:
    """One-sided Welch t-test that true windows collect more firings.

    Tests mean(true_counts) > mean(false_counts) with Welch-Satterthwaite
    degrees of freedom.  Inconclusive by construction (either sample smaller
    than 2, or both variances zero with means not separated) returns 1.0;
    both variances zero with the true mean strictly larger returns 0.0.
    """
    a = np.asarray(true_counts, dtype=np.float64)
    b = np.asarray(false_counts, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        return 1.0
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    ma = float(a.mean())
    mb = float(b.mean())
    if va == 0.0 and vb == 0.0:
        return 0.0 if ma > mb else 1.0
    sa = va / a.size
    sb = vb / b.size
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    return float(stdtr(df, -t))  # Student-t survival function at t


def match_stats(
    alarm: AlarmSeries,
    layout: PeriodLayout,
    *,
    require_events: bool = True,
) -> MatchStats:
    """Aggregate counters and metrics for one alarm over the whole layout.

    With ``require_events`` (the default) a layout containing no window
    events raises :class:`NoTargetEventsError`.  Cross-validation passes
    False to evaluate event-free held-out units, in which case the event
    ratios are NaN.
    """
    k_plus = layout.total_window_events()
    if k_plus == 0 and require_events:
        raise NoTargetEventsError("no target events in range")
    k_minus = sum(len(ul.false_segments) for ul in layout.units.values())
    labels = classify_firings(alarm, layout)
    s_plus = sum(1 for lab in labels if lab.kind is FiringKind.TRUE)
    s_minus = sum(1 for lab in labels if lab.kind is FiringKind.FALSE)
    irrelevant = sum(1 for lab in labels if lab.kind is FiringKind.IRRELEVANT)
    covered: set[tuple[str, int]] = set()
    fired_segments: set[tuple[str, int]] = set()
    for lab in labels:
        if lab.kind is FiringKind.TRUE:
            covered.update((lab.unit_id, i) for i in lab.events)
        elif lab.kind is FiringKind.FALSE:
            fired_segments.add((lab.unit_id, lab.segment))
    u_plus = len(covered)
    u_minus = len(fired_segments)
    fa = s_minus / k_plus if k_plus else float("nan")
    cf = u_plus / k_plus if k_plus else float("nan")
    fa_over_cf = s_minus / u_plus if u_plus else float("inf")
    p_value = significance_test(*significance_samples(alarm, layout))
    return MatchStats(
        window_events=k_plus,
        false_segments=k_minus,
        true_firings=s_plus,
        false_firings=s_minus,
        irrelevant_firings=irrelevant,
        covered_events=u_plus,
        fired_false_segments=u_minus,
        false_alarm_rate=fa,
        coverage=cf,
        false_to_covered=fa_over_cf,
        p_value=p_value,
    )


def gate_ttest(stats: MatchStats, alpha: float) -> bool:
    """An alarm is promising if it covers more than one event significantly."""
    return stats.covered_events > 1 and stats.p_value < alpha


def hard_filter(stats: MatchStats, theta: int) -> bool:
    """Implication-grade alarm: enough covered events and zero false firings."""
    return stats.covered_events >= theta and stats.fired_false_segments == 0


def soft_filter(stats: MatchStats, theta: float) -> bool:
    """Tolerate false firings up to ``theta`` per covered event."""
    if math.isinf(stats.false_to_covered):
        return False
    return stats.false_to_covered <= theta


def stats_to_jsonable(stats: MatchStats) -> dict:
    """JSON-safe dict: +inf ratio becomes the string "inf", NaN becomes null."""

    def _num(x: float):
        if math.isinf(x):
            return "inf"
        if math.isnan(x):
            return None
        return x

    return {
        "window_events": stats.window_events,
        "false_segments": stats.false_segments,
        "true_firings": stats.true_firings,
        "false_firings": stats.false_firings,
        "irrelevant_firings": stats.irrelevant_firings,
        "covered_events": stats.covered_events,
        "fired_false_segments": stats.fired_false_segments,
        "false_alarm_rate": _num(stats.false_alarm_rate),
        "coverage": _num(stats.coverage),
        "false_to_covered": _num(stats.false_to_covered),
        "p_value": stats.p_value,
    }
