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
from dataclasses import dataclass, field, fields
from typing import ClassVar, Mapping, Sequence

import numpy as np

from fleetwarn.core import (
    AlarmSeries,
    EventRecord,
    FiringKind,
    FleetAxis,
    FiringLabel,
    MatchParams,
    json_number,
)


# Region kind of one flight on the fleet axis, and the kind of a firing there.
_FALSE, _IRRELEVANT, _TRUE = 0, 1, 2
_FIRING_KINDS = (FiringKind.FALSE, FiringKind.IRRELEVANT, FiringKind.TRUE)
# The longest fleet axis a layout paints: its window and segment ids are int32,
# and its per-flight arrays take 9 bytes a flight.
_MAX_AXIS_FLIGHTS = 2**31 - 1


@dataclass(frozen=True)
class PeriodLayout:
    """Fleet-wide region decomposition, held as per-flight arrays over ``axis``.

    ``events`` maps every unit of the axis to its kept events, sorted by
    (onset, end, code); ``dropped`` holds the events the layout had to drop.
    The arrays over ``axis``, the fleet axis of the observation ranges:

    * ``kind``: the flight's region (``_TRUE``, ``_IRRELEVANT``, ``_FALSE``);
    * ``owner``: for true flights, the fleet-wide id of the earliest-onset
      window containing the flight (windows numbered in sorted unit order,
      then event order);
    * ``segment``: for false flights, the fleet-wide false-segment id;
    * ``window_lo``/``window_hi``: the axis bounds ``[lo, hi)`` of every
      window, in window id order.

    The arrays and ``n_false_segments`` (the fleet's count of false segments)
    restate the events, ``params`` and ``axis`` and take no part in ``repr``
    or equality.
    """

    events: Mapping[str, tuple[EventRecord, ...]]
    params: MatchParams
    dropped: tuple[EventRecord, ...]
    axis: FleetAxis = field(repr=False)
    kind: np.ndarray = field(repr=False, compare=False)
    owner: np.ndarray = field(repr=False, compare=False)
    segment: np.ndarray = field(repr=False, compare=False)
    window_lo: np.ndarray = field(repr=False, compare=False)
    window_hi: np.ndarray = field(repr=False, compare=False)
    n_false_segments: int = field(repr=False, compare=False)

    def total_window_events(self) -> int:
        return self.window_lo.size


@dataclass(frozen=True)
class MatchStats:
    """Fleet-aggregated match counters and the derived quality metrics.

    ``window_events`` / ``false_segments`` are the denominators (events with
    a usable true window; maximal false segments).  ``coverage`` and
    ``false_alarm_rate`` are NaN when there are no window events (an
    event-free layout, such as a held-out unit without target events).
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

    # The integer counters, which sum across units and folds.
    COUNTERS: ClassVar[tuple[str, ...]] = (
        "window_events", "false_segments", "true_firings", "false_firings",
        "irrelevant_firings", "covered_events", "fired_false_segments",
    )

    @classmethod
    def from_counters(cls, *, p_value: float, **counters: int) -> "MatchStats":
        """Stats from the ``COUNTERS`` (possibly summed over folds) and a p-value."""
        k_plus = counters["window_events"]
        s_minus = counters["false_firings"]
        u_plus = counters["covered_events"]
        return cls(
            **counters,
            false_alarm_rate=s_minus / k_plus if k_plus else float("nan"),
            coverage=u_plus / k_plus if k_plus else float("nan"),
            false_to_covered=s_minus / u_plus if u_plus else float("inf"),
            p_value=p_value,
        )


def _spans(ev: EventRecord, params: MatchParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """The event's true window and irrelevant zone, half-open and unclipped."""
    act_by = ev.onset - params.horizon
    return (act_by - params.window, act_by), (act_by, ev.end + params.delay)


def layout_periods(
    events: Sequence[EventRecord],
    params: MatchParams,
    ranges: Mapping[str, tuple[int, int]],
) -> PeriodLayout:
    """Decompose every unit's timeline into true/irrelevant/false regions.

    ``ranges`` maps unit id to its inclusive [first, last] observation
    range.  An event whose whole influence span [onset-horizon-window,
    end+delay) misses the range, or whose unit has no range, is dropped and
    reported in ``dropped`` rather than raising.  Each unit's slice of the
    fleet axis is painted with its zones, then its windows; the false
    segments are the runs left unpainted.  An axis of more than
    ``2**31 - 1`` flights raises ValueError before anything is painted.
    """
    per_unit: dict[str, list[EventRecord]] = {}
    dropped: list[EventRecord] = []
    for ev in events:
        rng = ranges.get(ev.unit_id)
        (lo, _), (_, hi) = _spans(ev, params)
        if rng is None or hi <= rng[0] or lo > rng[1]:
            dropped.append(ev)
        else:
            per_unit.setdefault(ev.unit_id, []).append(ev)

    axis = FleetAxis.from_ranges(ranges)
    if axis.starts[-1] > _MAX_AXIS_FLIGHTS:
        unit = max(axis.units, key=lambda u: ranges[u][1] - ranges[u][0])
        raise ValueError(
            f"the fleet axis would hold {axis.starts[-1]} flights, more than {_MAX_AXIS_FLIGHTS}; "
            f"the widest unit, {unit!r}, spans flights {ranges[unit][0]} to {ranges[unit][1]}"
        )
    kind = np.full(axis.starts[-1], _FALSE, dtype=np.int8)
    owner = np.full(axis.starts[-1], -1, dtype=np.int32)
    segment = np.full(axis.starts[-1], -1, dtype=np.int32)
    bounds: list[tuple[int, int]] = []
    n_segments = 0
    kept: dict[str, tuple[EventRecord, ...]] = {}
    for unit, first, base, end in zip(axis.units, axis.first, axis.starts, axis.starts[1:]):
        evs = kept[unit] = tuple(
            sorted(per_unit.get(unit, []), key=lambda e: (e.onset, e.end, e.code))
        )
        # each event's window and zone on the axis, clipped to the unit's slice
        shift = base - first
        spans = [
            [(max(lo + shift, base), min(hi + shift, end)) for lo, hi in _spans(ev, params)]
            for ev in evs
        ]
        for _, (lo, hi) in spans:
            if lo < hi:
                kind[lo:hi] = _IRRELEVANT
        unit_windows = [(lo, hi) for (lo, hi), _ in spans if lo < hi]
        # later windows first, so an overlap keeps its earliest owner
        for w, (lo, hi) in reversed(list(enumerate(unit_windows, start=len(bounds)))):
            kind[lo:hi] = _TRUE
            owner[lo:hi] = w
        bounds.extend(unit_windows)
        edges = np.flatnonzero(np.diff(kind[base:end] == _FALSE, prepend=False, append=False))
        for s, (lo, hi) in enumerate(edges.reshape(-1, 2).tolist(), start=n_segments):
            segment[base + lo : base + hi] = s
        n_segments += edges.size // 2
    windows = np.array(bounds, dtype=np.int64).reshape(-1, 2)
    for array in (kind, owner, segment, windows):
        array.setflags(write=False)
    return PeriodLayout(
        events=kept, params=params, dropped=tuple(dropped), axis=axis, kind=kind, owner=owner,
        segment=segment, window_lo=windows[:, 0], window_hi=windows[:, 1],
        n_false_segments=n_segments,
    )


def _positions(alarm: AlarmSeries, layout: PeriodLayout) -> np.ndarray:
    """The alarm's sorted positions, which every grader reads on the layout's axis."""
    if alarm.axis != layout.axis:
        raise ValueError("alarm is not on the layout's fleet axis")
    return alarm.positions


def classify_firings(alarm: AlarmSeries, layout: PeriodLayout) -> list[FiringLabel]:
    """Label every firing True, Irrelevant, or False (in that precedence).

    A True or Irrelevant firing is credited to every owning event (the
    events whose window, or zone, contains it); a False firing carries the
    index of its false segment among its unit's.
    """
    labels: list[FiringLabel] = []
    pos = _positions(alarm, layout)
    units, flights = layout.axis.locate(pos)
    # one past the highest false-segment id before each unit: the unit's first id
    seg0 = np.maximum.accumulate(np.append(-1, layout.segment))[list(layout.axis.starts)] + 1
    for u, t, k, s in zip(units.tolist(), flights.tolist(), layout.kind[pos].tolist(),
                          layout.segment[pos].tolist()):
        unit = layout.axis.units[u]
        if k == _FALSE:
            labels.append(FiringLabel(unit, t, _FIRING_KINDS[k], segment=s - int(seg0[u])))
            continue
        region = 0 if k == _TRUE else 1  # the window or the zone of each event
        spans = [_spans(ev, layout.params)[region] for ev in layout.events[unit]]
        owners = tuple(i for i, (lo, hi) in enumerate(spans) if lo <= t < hi)
        labels.append(FiringLabel(unit, t, _FIRING_KINDS[k], events=owners))
    return labels


def _grade(
    alarm: AlarmSeries, layout: PeriodLayout
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Grade every firing of the alarm in one pass over the fleet axis.

    Returns the per-window and per-segment firing counts (the significance
    samples), the number of irrelevant firings and the number of covered
    window events.
    """
    pos = _positions(alarm, layout)  # sorted, so true positions can be searched by window bound
    kind = layout.kind[pos]
    true_pos = pos[kind == _TRUE]
    window_counts = np.bincount(layout.owner[true_pos], minlength=layout.window_lo.size)
    segment_counts = np.bincount(
        layout.segment[pos[kind == _FALSE]], minlength=layout.n_false_segments
    )
    fired_in_window = np.searchsorted(true_pos, layout.window_hi) - np.searchsorted(
        true_pos, layout.window_lo
    )
    irrelevant = int(np.count_nonzero(kind == _IRRELEVANT))
    return window_counts, segment_counts, irrelevant, int(np.count_nonzero(fired_in_window))


def significance_samples(
    alarm: AlarmSeries, layout: PeriodLayout
) -> tuple[list[int], list[int]]:
    """Per-true-window and per-false-segment firing counts.

    One sample entry per window event and per false segment, fleet-wide in
    sorted unit order.  A true firing owned by several events is counted in
    the earliest-onset owner's entry only, so the window counts sum to the
    total number of true firings.
    """
    window_counts, segment_counts, _, _ = _grade(alarm, layout)
    return window_counts.tolist(), segment_counts.tolist()


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
    from scipy.special import stdtr  # here, so commands without p-values never load scipy

    sa = va / a.size
    sb = vb / b.size
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    return float(stdtr(df, -t))  # Student-t survival function at t


def match_stats(alarm: AlarmSeries, layout: PeriodLayout) -> MatchStats:
    """Aggregate counters and metrics for one alarm over the whole layout.

    On a layout without window events the event ratios are NaN.
    """
    window_counts, segment_counts, irrelevant, covered = _grade(alarm, layout)
    return MatchStats.from_counters(
        window_events=layout.total_window_events(),
        false_segments=layout.n_false_segments,
        true_firings=int(window_counts.sum()),
        false_firings=int(segment_counts.sum()),
        irrelevant_firings=irrelevant,
        covered_events=covered,
        fired_false_segments=int(np.count_nonzero(segment_counts)),
        p_value=significance_test(window_counts, segment_counts),
    )


def gate_ttest(stats: MatchStats, alpha: float) -> bool:
    """An alarm is promising if it covers more than one event significantly."""
    return stats.covered_events > 1 and stats.p_value < alpha


def hard_filter(stats: MatchStats, theta: float) -> bool:
    """Implication-grade alarm: enough covered events and zero false firings."""
    return stats.covered_events >= theta and stats.fired_false_segments == 0


def soft_filter(stats: MatchStats, theta: float) -> bool:
    """Tolerate false firings up to ``theta`` per covered event."""
    if math.isinf(stats.false_to_covered):
        return False
    return stats.false_to_covered <= theta


def stats_to_jsonable(stats: MatchStats) -> dict:
    """JSON-safe dict of every field, numbers encoded by :func:`json_number`."""
    return {f.name: json_number(getattr(stats, f.name)) for f in fields(stats)}
