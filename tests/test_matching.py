import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _label_flights,
    _unit_events,
    brute_force_labels,
    brute_force_match,
    welch_reference_p,
)
from support import alarm_series
from fleetwarn.core import (
    EventRecord,
    FiringKind,
    FleetAxis,
    MatchParams,
    write_json,
)
from fleetwarn.matching import (
    _FALSE,
    _IRRELEVANT,
    _TRUE,
    MatchStats,
    classify_firings,
    gate_ttest,
    hard_filter,
    layout_periods,
    match_stats,
    significance_samples,
    significance_test,
    soft_filter,
    stats_to_jsonable,
)


def base_layout(window=5, horizon=0, delay=0):
    # one unit observed on [1, 30] with a single event spanning [20, 22)
    events = [EventRecord("u", 20, 22, "E1")]
    params = MatchParams(window=window, horizon=horizon, delay=delay)
    return layout_periods(events, params, {"u": (1, 30)})


def fleet_of(events, params, ranges, firings=None):
    """A ``random_fleets`` draw of the (unit, onset, end) ``events``."""
    records = [EventRecord(u, onset, end, f"E{k}") for k, (u, onset, end) in enumerate(events)]
    return events, records, params, ranges, firings or {}


@st.composite
def random_fleets(draw):
    """Multi-unit fleets with overlapping, clipped and unknown-unit events.

    Returns (event tuples for the oracle, EventRecords, params, ranges,
    firings); every alarm flight lies in its unit's range, and the first
    and last flight of a unit are drawn on purpose.
    """
    ranges = {}
    events = []
    for u in range(draw(st.integers(1, 4))):
        unit = f"u{u}"
        first = draw(st.integers(0, 5))
        last = first + draw(st.integers(0, 40))
        ranges[unit] = (first, last)
        for _ in range(draw(st.integers(0, 4))):
            onset = draw(st.integers(first - 12, last + 12))
            events.append((unit, onset, onset + draw(st.integers(1, 5))))
    for _ in range(draw(st.integers(0, 2))):
        onset = draw(st.integers(-5, 50))
        events.append(("ghost", onset, onset + draw(st.integers(1, 5))))
    params = MatchParams(
        window=draw(st.integers(1, 10)),
        horizon=draw(st.integers(0, 5)),
        delay=draw(st.integers(0, 5)),
    )
    firings = {}
    if draw(st.booleans()):
        for unit, (first, last) in ranges.items():
            fires = set(draw(st.lists(st.integers(first, last), max_size=15)))
            if draw(st.booleans()):
                fires.add(first)
            if draw(st.booleans()):
                fires.add(last)
            firings[unit] = fires
    return fleet_of(events, params, ranges, firings)


_KINDS = {"F": _FALSE, "I": _IRRELEVANT, "T": _TRUE}


def assert_regions(layout, runs, windows):
    """A one-unit ``layout`` holds exactly the flight ``runs`` and ``windows``.

    ``runs`` are (kind, lo, hi, id) over the unit's whole range, half-open in
    flights; ``id`` is the owning window of a "T" run and the false segment
    of an "F" run.  ``windows`` are the window bounds, in flights.
    """
    shift = layout.axis.shift(layout.axis.units[0])
    kind, owner, segment = (np.full(layout.kind.size, -1) for _ in range(3))
    for k, lo, hi, i in runs:
        kind[lo + shift : hi + shift] = _KINDS[k]
        if k != "I":
            (owner if k == "T" else segment)[lo + shift : hi + shift] = i
    assert layout.kind.tolist() == kind.tolist()
    assert layout.owner.tolist() == owner.tolist()
    assert layout.segment.tolist() == segment.tolist()
    assert layout.n_false_segments == len({i for k, _, _, i in runs if k == "F"})
    bounds = list(zip(layout.window_lo.tolist(), layout.window_hi.tolist()))
    assert bounds == [(lo + shift, hi + shift) for lo, hi in windows]


class TestLayout:
    def test_base_regions(self):
        layout = base_layout()
        assert_regions(
            layout,
            [("F", 1, 15, 0), ("T", 15, 20, 0), ("I", 20, 22, None), ("F", 22, 31, 1)],
            [(15, 20)],
        )
        assert layout.events == {"u": (EventRecord("u", 20, 22, "E1"),)}
        assert layout.dropped == ()

    def test_horizon_shifts_window_back(self):
        assert_regions(
            base_layout(horizon=2),
            [("F", 1, 13, 0), ("T", 13, 18, 0), ("I", 18, 22, None), ("F", 22, 31, 1)],
            [(13, 18)],
        )

    def test_delay_extends_zone(self):
        assert_regions(
            base_layout(delay=3),
            [("F", 1, 15, 0), ("T", 15, 20, 0), ("I", 20, 25, None), ("F", 25, 31, 1)],
            [(15, 20)],
        )

    def test_window_clipped_at_range_start(self):
        layout = layout_periods(
            [EventRecord("u", 3, 4, "E")], MatchParams(window=5), {"u": (1, 30)}
        )
        assert_regions(layout, [("T", 1, 3, 0), ("I", 3, 4, None), ("F", 4, 31, 0)], [(1, 3)])

    def test_window_fully_clipped_event_kept(self):
        # onset at the very first flight: no room for a window, zone remains
        layout = layout_periods(
            [EventRecord("u", 1, 3, "E")], MatchParams(window=5), {"u": (1, 30)}
        )
        assert_regions(layout, [("I", 1, 3, None), ("F", 3, 31, 0)], [])
        assert layout.events == {"u": (EventRecord("u", 1, 3, "E"),)}
        assert layout.dropped == ()

    def test_event_after_range_dropped(self):
        layout = layout_periods(
            [EventRecord("u", 20, 21, "E")], MatchParams(window=5), {"u": (1, 10)}
        )
        assert layout.dropped == (EventRecord("u", 20, 21, "E"),)
        assert layout.events == {"u": ()}
        assert_regions(layout, [("F", 1, 11, 0)], [])

    def test_event_before_range_dropped(self):
        layout = layout_periods(
            [EventRecord("u", 4, 5, "E")], MatchParams(window=2), {"u": (10, 20)}
        )
        assert layout.dropped == (EventRecord("u", 4, 5, "E"),)
        assert layout.events == {"u": ()}

    def test_event_on_unknown_unit_dropped(self):
        layout = layout_periods(
            [EventRecord("ghost", 5, 6, "E")], MatchParams(), {"u": (1, 10)}
        )
        assert layout.dropped == (EventRecord("ghost", 5, 6, "E"),)
        assert layout.events == {"u": ()}

    @settings(max_examples=300, deadline=None)
    @given(random_fleets())
    @example(
        fleet_of(
            # u0: windows clipped at the range start, overlapping, and an event
            # dropped before the range; u1: a window clipped at both ends and
            # an event dropped after the range; a ghost unit's event dropped
            [("u0", 3, 5), ("u0", 12, 13), ("u0", 15, 17), ("u0", -20, -18), ("u1", 7, 8),
             ("u1", 40, 41), ("ghost", 4, 6)],
            MatchParams(window=6, horizon=1, delay=2),
            {"u0": (0, 30), "u1": (2, 4)},
        )
    )
    def test_regions_partition_range(self, fleet):
        """Every flight's kind, owner and segment are those of the brute-force labels."""
        events, records, params, ranges, _ = fleet
        layout = layout_periods(records, params, ranges)
        w, h, m = params.window, params.horizon, params.delay

        def reaches(unit, onset, end):
            first, last = ranges.get(unit, (0, -1))
            return any(onset - h - w <= t < end + m for t in range(first, last + 1))

        assert layout.dropped == tuple(r for r in records if not reaches(r.unit_id, r.onset, r.end))
        windows, n_segments = [], 0
        for unit, base in zip(layout.axis.units, layout.axis.starts):
            first, last = ranges[unit]
            evs = _unit_events(events, unit)
            labels, owners, segments = _label_flights(evs, params, first, last)
            kept = [(onset, end) for _, onset, end in evs if reaches(unit, onset, end)]
            assert [(ev.onset, ev.end) for ev in layout.events[unit]] == kept
            # each event's window as the axis bounds of the true flights it owns
            window_of = {}
            for k in range(len(evs)):
                owned = [t for t in range(first, last + 1) if labels[t] == "T" and k in owners[t]]
                if owned:
                    window_of[k] = (base + owned[0] - first, base + owned[-1] + 1 - first)
            windows.extend(window_of.values())
            segment_of = {t: n_segments + i for i, run in enumerate(segments) for t in run}
            n_segments += len(segments)
            for t in range(first, last + 1):
                p = base + t - first
                assert layout.kind[p] == _KINDS[labels[t]]
                o = int(layout.owner[p])
                if labels[t] == "T":
                    assert (layout.window_lo[o], layout.window_hi[o]) == window_of[min(owners[t])]
                else:
                    assert o == -1
                assert layout.segment[p] == segment_of.get(t, -1)
        assert list(zip(layout.window_lo.tolist(), layout.window_hi.tolist())) == windows
        assert layout.n_false_segments == n_segments

    def test_bad_range_raises(self):
        with pytest.raises(ValueError, match="bad observation range"):
            layout_periods([], MatchParams(), {"u": (5, 4)})


class TestAxisLimit:
    """A layout refuses an axis too long to index with int32 before it allocates
    anything; here any allocation of the per-flight arrays fails the test."""

    @pytest.fixture(autouse=True)
    def no_per_flight_arrays(self, monkeypatch):
        def full(shape, *args, **kwargs):
            raise AssertionError(f"allocated {shape} flights")

        monkeypatch.setattr(np, "full", full)

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ({"u0": (0, 199), "u1": (0, 10**12)},
             "the fleet axis would hold 1000000000201 flights, more than 2147483647; "
             "the widest unit, 'u1', spans flights 0 to 1000000000000"),
            ({"a": (0, 2**30 - 2), "b": (5, 5 + 2**30)},
             "the fleet axis would hold 2147483648 flights, more than 2147483647; "
             "the widest unit, 'b', spans flights 5 to 1073741829"),
        ],
        ids=["gap", "one-over"],
    )
    def test_longer_axis_is_refused(self, ranges, message):
        with pytest.raises(ValueError) as exc:
            layout_periods([EventRecord("u1", 100, 101, "E")], MatchParams(), ranges)
        assert str(exc.value) == message

    def test_longest_axis_reaches_the_arrays(self):
        with pytest.raises(AssertionError, match=f"allocated {2**31 - 1} flights"):
            layout_periods([], MatchParams(), {"a": (0, 2**31 - 2)})


class TestClassify:
    def test_base_example_labels(self):
        layout = base_layout()
        alarm = alarm_series("a", {"u": frozenset({3, 16, 21, 27})}, layout.axis)
        labels = {lab.flight: lab.kind for lab in classify_firings(alarm, layout)}
        assert labels == {
            3: FiringKind.FALSE,
            16: FiringKind.TRUE,
            21: FiringKind.IRRELEVANT,
            27: FiringKind.FALSE,
        }

    def test_true_beats_irrelevant(self):
        # flight 8 falls in event 1's window and event 0's zone
        events = [EventRecord("u", 7, 9, "A"), EventRecord("u", 12, 13, "B")]
        layout = layout_periods(events, MatchParams(window=5), {"u": (1, 30)})
        alarm = alarm_series("a", {"u": frozenset({8})}, layout.axis)
        (lab,) = classify_firings(alarm, layout)
        assert lab.kind is FiringKind.TRUE
        assert lab.events == (1,)

    def test_shared_firing_credits_both_owners(self):
        events = [EventRecord("u", 10, 11, "A"), EventRecord("u", 12, 13, "B")]
        layout = layout_periods(events, MatchParams(window=5), {"u": (1, 30)})
        alarm = alarm_series("a", {"u": frozenset({8})}, layout.axis)
        (lab,) = classify_firings(alarm, layout)
        assert lab.kind is FiringKind.TRUE
        assert lab.events == (0, 1)

    def test_false_firing_carries_segment_index(self):
        layout = base_layout()
        alarm = alarm_series("a", {"u": frozenset({3, 27})}, layout.axis)
        labs = classify_firings(alarm, layout)
        assert [lab.segment for lab in labs] == [0, 1]

    def test_unknown_unit_rejected(self):
        layout = base_layout()
        alarm = alarm_series("a", {"ghost": frozenset({3})})
        with pytest.raises(ValueError, match="not on the layout's fleet axis"):
            classify_firings(alarm, layout)

    def test_out_of_range_flight_rejected(self):
        layout = base_layout()
        alarm = alarm_series("a", {"u": frozenset({31})})
        with pytest.raises(ValueError, match="not on the layout's fleet axis"):
            classify_firings(alarm, layout)

    def test_empty_alarm(self):
        layout = base_layout()
        assert classify_firings(alarm_series("a", {}, layout.axis), layout) == []


class TestSignificance:
    def test_separated_constant_samples(self):
        assert significance_test([1, 1, 1, 1], [0, 0, 0, 0, 0, 0]) == 0.0

    def test_equal_constant_samples(self):
        assert significance_test([1, 1], [1, 1, 1]) == 1.0

    def test_small_samples_inconclusive(self):
        assert significance_test([1], [0, 0]) == 1.0
        assert significance_test([1, 2], [0]) == 1.0
        assert significance_test([], []) == 1.0

    def test_frozen_welch_value(self):
        p = significance_test([2, 1, 2, 1], [0, 1, 0, 0])
        assert p == pytest.approx(0.008733524902224501, rel=1e-12)

    def test_direction_is_one_sided(self):
        low, high = [0, 1, 0, 0], [2, 3, 2, 3]
        assert significance_test(high, low) < 0.01
        assert significance_test(low, high) > 0.9

    def test_matches_reference_on_random_samples(self):
        import random

        rng = random.Random(123)
        for _ in range(200):
            a = [rng.randint(0, 3) for _ in range(rng.randint(0, 6))]
            b = [rng.randint(0, 3) for _ in range(rng.randint(0, 6))]
            assert significance_test(a, b) == pytest.approx(
                welch_reference_p(a, b), rel=1e-9, abs=1e-12
            )

    def test_samples_from_layout(self):
        # two windows, one shared firing attributed to the earlier event only
        events = [EventRecord("u", 10, 11, "A"), EventRecord("u", 12, 13, "B")]
        layout = layout_periods(events, MatchParams(window=5), {"u": (1, 30)})
        alarm = alarm_series("a", {"u": frozenset({8, 20})}, layout.axis)
        window_counts, segment_counts = significance_samples(alarm, layout)
        assert window_counts == [1, 0]
        assert sum(window_counts) == 1  # equals true firing total
        assert sum(segment_counts) == 1


class TestMatchStats:
    def test_base_example_counters(self):
        layout = base_layout()
        alarm = alarm_series("a", {"u": frozenset({3, 16, 21, 27})}, layout.axis)
        st = match_stats(alarm, layout)
        assert st.window_events == 1
        assert st.false_segments == 2
        assert st.true_firings == 1
        assert st.false_firings == 2
        assert st.irrelevant_firings == 1
        assert st.covered_events == 1
        assert st.fired_false_segments == 2
        assert st.false_alarm_rate == 2.0
        assert st.coverage == 1.0
        assert st.false_to_covered == 2.0

    def test_silent_alarm(self):
        layout = base_layout()
        st = match_stats(alarm_series("a", {}, layout.axis), layout)
        assert st.coverage == 0.0
        assert st.false_alarm_rate == 0.0
        assert math.isinf(st.false_to_covered)
        assert st.p_value == 1.0

    def test_half_coverage(self):
        events = [EventRecord("u", 10, 11, "A"), EventRecord("u", 25, 26, "B")]
        layout = layout_periods(events, MatchParams(window=5), {"u": (1, 40)})
        alarm = alarm_series("a", {"u": frozenset({7})}, layout.axis)
        st = match_stats(alarm, layout)
        assert st.covered_events == 1
        assert st.coverage == 0.5

    def test_no_events_lenient(self):
        layout = layout_periods([], MatchParams(), {"u": (1, 10)})
        alarm = alarm_series("a", {"u": frozenset({5})}, layout.axis)
        st = match_stats(alarm, layout)
        assert math.isnan(st.coverage)
        assert math.isnan(st.false_alarm_rate)
        assert math.isinf(st.false_to_covered)
        assert st.false_firings == 1

    def test_translation_invariance(self):
        shift = 1000
        events = [EventRecord("u", 20, 22, "E")]
        params = MatchParams(window=5)
        layout = layout_periods(events, params, {"u": (1, 30)})
        st0 = match_stats(alarm_series("a", {"u": {3, 16, 21, 27}}, layout.axis), layout)
        events_s = [EventRecord("u", 20 + shift, 22 + shift, "E")]
        layout_s = layout_periods(events_s, params, {"u": (1 + shift, 30 + shift)})
        alarm_s = alarm_series("a", {"u": {t + shift for t in (3, 16, 21, 27)}}, layout_s.axis)
        st1 = match_stats(alarm_s, layout_s)
        assert st0 == st1

    def test_wider_window_absorbs_false_firings(self):
        events = [EventRecord("u", 20, 21, "E")]
        prev_false, prev_covered = None, None
        for w in (2, 4, 8, 10):
            layout = layout_periods(events, MatchParams(window=w), {"u": (1, 30)})
            st = match_stats(alarm_series("a", {"u": {12, 18}}, layout.axis), layout)
            if prev_false is not None:
                assert st.false_firings <= prev_false
                assert st.covered_events >= prev_covered
            prev_false, prev_covered = st.false_firings, st.covered_events

    def test_fired_segments_iff_false_firings(self):
        import random

        rng = random.Random(99)
        for _ in range(100):
            events = [EventRecord("u", rng.randint(5, 25), rng.randint(26, 28), "E")]
            fires = frozenset(rng.sample(range(1, 31), rng.randint(0, 10)))
            layout = layout_periods(events, MatchParams(window=rng.randint(1, 6)), {"u": (1, 30)})
            st = match_stats(alarm_series("a", {"u": fires}, layout.axis), layout)
            assert (st.fired_false_segments == 0) == (st.false_firings == 0)

    def test_random_fleet_matches_brute_force(self):
        import random

        rng = random.Random(31337)
        for _ in range(250):
            n_units = rng.randint(1, 3)
            ranges = {}
            firings = {}
            events = []
            records = []
            for u in range(n_units):
                unit = f"u{u}"
                first = rng.randint(0, 4)
                last = first + rng.randint(3, 45)
                ranges[unit] = (first, last)
                for k in range(rng.randint(0, 3)):
                    onset = rng.randint(first - 6, last + 6)
                    end = onset + rng.randint(1, 4)
                    events.append((unit, onset, end))
                    records.append(EventRecord(unit, onset, end, f"E{k}"))
                firings[unit] = set(
                    rng.sample(range(first, last + 1), rng.randint(0, min(12, last - first + 1)))
                )
            params = MatchParams(
                window=rng.randint(1, 9),
                horizon=rng.randint(0, 3),
                delay=rng.randint(0, 3),
            )
            layout = layout_periods(records, params, ranges)
            if layout.total_window_events() == 0:
                continue
            alarm = alarm_series("a", firings, layout.axis)
            st = match_stats(alarm, layout)
            ref = brute_force_match(events, params, ranges, firings)
            for key in (
                "window_events",
                "false_segments",
                "true_firings",
                "false_firings",
                "irrelevant_firings",
                "covered_events",
                "fired_false_segments",
            ):
                assert getattr(st, key) == ref[key], key
            assert st.false_alarm_rate == pytest.approx(ref["false_alarm_rate"])
            assert st.coverage == pytest.approx(ref["coverage"])
            if math.isinf(ref["false_to_covered"]):
                assert math.isinf(st.false_to_covered)
            else:
                assert st.false_to_covered == pytest.approx(ref["false_to_covered"])
            window_counts, segment_counts = significance_samples(alarm, layout)
            assert window_counts == ref["window_counts"]
            assert segment_counts == ref["segment_counts"]
            assert st.p_value == pytest.approx(
                welch_reference_p(ref["window_counts"], ref["segment_counts"]),
                rel=1e-9,
                abs=1e-12,
            )


def same_number(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)


class TestOracleProperties:
    @settings(max_examples=400, deadline=None)
    @given(random_fleets())
    def test_match_stats_equals_brute_force(self, fleet):
        events, records, params, ranges, firings = fleet
        layout = layout_periods(records, params, ranges)
        got = match_stats(alarm_series("a", firings, layout.axis), layout)
        ref = brute_force_match(events, params, ranges, firings)
        for key in (
            "window_events",
            "false_segments",
            "true_firings",
            "false_firings",
            "irrelevant_firings",
            "covered_events",
            "fired_false_segments",
        ):
            assert getattr(got, key) == ref[key], key
        for key in ("false_alarm_rate", "coverage", "false_to_covered"):
            assert same_number(getattr(got, key), ref[key]), key
        assert got.p_value == pytest.approx(
            welch_reference_p(ref["window_counts"], ref["segment_counts"]),
            rel=1e-9,
            abs=1e-12,
        )

    @settings(max_examples=400, deadline=None)
    @given(random_fleets())
    def test_significance_samples_equal_brute_force(self, fleet):
        events, records, params, ranges, firings = fleet
        layout = layout_periods(records, params, ranges)
        ref = brute_force_match(events, params, ranges, firings)
        alarm = alarm_series("a", firings, layout.axis)
        assert significance_samples(alarm, layout) == (ref["window_counts"], ref["segment_counts"])

    @settings(max_examples=400, deadline=None)
    @given(random_fleets())
    @example(
        (
            # u0: a window clipped at each end of the range, and two
            # overlapping windows whose shared flights both events own
            [("u0", 3, 5), ("u0", 12, 13), ("u0", 15, 17), ("u0", 34, 36), ("ghost", 4, 6)],
            [
                EventRecord("u0", 3, 5, "E0"),
                EventRecord("u0", 12, 13, "E1"),
                EventRecord("u0", 15, 17, "E2"),
                EventRecord("u0", 34, 36, "E3"),
                EventRecord("ghost", 4, 6, "E4"),
            ],
            MatchParams(window=6, horizon=1, delay=2),
            {"u0": (0, 30), "u1": (2, 4)},
            {"u0": set(range(31)), "u1": {2, 4}},
        )
    )
    def test_classify_firings_equals_brute_force(self, fleet):
        events, records, params, ranges, firings = fleet
        layout = layout_periods(records, params, ranges)
        kinds = {FiringKind.TRUE: "T", FiringKind.IRRELEVANT: "I", FiringKind.FALSE: "F"}
        got = []
        for lab in classify_firings(alarm_series("a", firings, layout.axis), layout):
            evs = layout.events[lab.unit_id]
            owners = tuple((evs[i].onset, evs[i].end) for i in lab.events)
            got.append((lab.unit_id, lab.flight, kinds[lab.kind], owners, lab.segment))
        assert got == brute_force_labels(events, params, ranges, firings)


class TestFiringPreconditions:
    """Every grader reads an alarm on its layout's axis, and refuses any other."""

    LAYOUT = layout_periods(
        [EventRecord("u", 20, 22, "E1")], MatchParams(window=5), {"u": (1, 30), "w": (5, 9)}
    )

    @pytest.mark.parametrize("grade", [classify_firings, significance_samples, match_stats])
    @pytest.mark.parametrize(
        "ranges",
        [{"u": (1, 30)}, {"u": (1, 30), "w": (5, 10)}, {"u": (0, 29), "w": (5, 9)},
         {"u": (1, 30), "w": (5, 9), "z": (1, 1)}],
        ids=["unit-missing", "range-longer", "range-moved", "unit-extra"],
    )
    def test_alarm_on_another_axis_is_refused(self, grade, ranges):
        alarm = alarm_series("a", {"u": {16}}, FleetAxis.from_ranges(ranges))
        with pytest.raises(ValueError) as exc:
            grade(alarm, self.LAYOUT)
        assert str(exc.value) == "alarm is not on the layout's fleet axis"

    def test_unknown_unit_is_refused_when_built(self):
        with pytest.raises(ValueError) as exc:
            alarm_series("a", {"u": {16}, "ghost": set()}, self.LAYOUT.axis)
        assert str(exc.value) == "unit 'ghost' is not on the axis"

    @pytest.mark.parametrize("unit, flight", [("u", 0), ("u", 31), ("w", 4), ("w", 10)])
    def test_off_axis_flight_is_refused_when_built(self, unit, flight):
        with pytest.raises(ValueError) as exc:
            alarm_series("a", {unit: {flight}}, self.LAYOUT.axis)
        assert str(exc.value) == f"flight {flight} of unit {unit!r} is off the axis"


def make_stats(**kw):
    base = dict(
        window_events=4,
        false_segments=5,
        true_firings=3,
        false_firings=0,
        irrelevant_firings=0,
        covered_events=3,
        fired_false_segments=0,
        false_alarm_rate=0.0,
        coverage=0.75,
        false_to_covered=0.0,
        p_value=0.001,
    )
    base.update(kw)
    return MatchStats(**base)


class TestFilters:
    def test_gate_needs_repeat_coverage(self):
        assert not gate_ttest(make_stats(covered_events=1), alpha=0.05)
        assert gate_ttest(make_stats(covered_events=2), alpha=0.05)

    def test_gate_needs_significance(self):
        assert not gate_ttest(make_stats(p_value=0.05), alpha=0.05)
        assert gate_ttest(make_stats(p_value=0.049), alpha=0.05)

    def test_hard_filter(self):
        assert hard_filter(make_stats(covered_events=2), theta=2)
        assert not hard_filter(make_stats(covered_events=1), theta=2)
        assert not hard_filter(make_stats(fired_false_segments=1), theta=2)

    def test_soft_filter(self):
        assert soft_filter(make_stats(false_to_covered=1.9), theta=2.0)
        assert soft_filter(make_stats(false_to_covered=2.0), theta=2.0)
        assert not soft_filter(make_stats(false_to_covered=2.1), theta=2.0)

    def test_soft_filter_rejects_uncovered(self):
        st = make_stats(covered_events=0, false_to_covered=float("inf"))
        assert not soft_filter(st, theta=1e12)


class TestJsonable:
    def test_plain_numbers_pass_through(self):
        d = stats_to_jsonable(make_stats())
        assert d["covered_events"] == 3
        assert d["coverage"] == 0.75

    def test_inf_and_nan_encoded(self):
        st = make_stats(
            false_to_covered=float("inf"),
            coverage=float("nan"),
            false_alarm_rate=float("nan"),
        )
        d = stats_to_jsonable(st)
        assert d["false_to_covered"] == "inf"
        assert d["coverage"] is None
        assert d["false_alarm_rate"] is None

    def test_golden_values_and_bytes(self, tmp_path):
        st = make_stats(
            covered_events=0,
            false_alarm_rate=-0.0,
            coverage=float("nan"),
            false_to_covered=float("inf"),
            p_value=1.0,
        )
        d = stats_to_jsonable(st)
        assert [repr(d[k]) for k in ("window_events", "false_alarm_rate", "p_value")] == [
            "4", "-0.0", "1.0",
        ]
        path = tmp_path / "stats.json"
        write_json(path, d)
        assert path.read_bytes() == (
            b'{\n'
            b'  "coverage": null,\n'
            b'  "covered_events": 0,\n'
            b'  "false_alarm_rate": -0.0,\n'
            b'  "false_firings": 0,\n'
            b'  "false_segments": 5,\n'
            b'  "false_to_covered": "inf",\n'
            b'  "fired_false_segments": 0,\n'
            b'  "irrelevant_firings": 0,\n'
            b'  "p_value": 1.0,\n'
            b'  "true_firings": 3,\n'
            b'  "window_events": 4\n'
            b'}\n'
        )
