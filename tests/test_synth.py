import json
import math
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_search
from support import alarm_series, firings, make_stats
from fleetwarn.core import EventRecord, FleetAxis, MatchParams
from fleetwarn.matching import MatchStats, layout_periods, match_stats
from fleetwarn.synth import (
    FILTER_KINDS,
    SearchConfig,
    compose_and,
    pool_or,
    precursors_to_jsonable,
    search_combinations,
    write_precursors_json,
)

UNITS = ("u0", "u1", "u2")


def fixture_layout(window=5):
    # each unit observed on [1, 100] with events at 30 and 60
    events = []
    for u in UNITS:
        events.append(EventRecord(u, 30, 31, "E1"))
        events.append(EventRecord(u, 60, 61, "E1"))
    ranges = {u: (1, 100) for u in UNITS}
    return layout_periods(events, MatchParams(window=window), ranges)


# The fleet axis of every fixture layout, whatever its window.
AXIS = fixture_layout().axis


def alarm(alarm_id, flights_by_unit, axis=AXIS):
    firings = {u: frozenset(flights_by_unit.get(u, ())) for u in UNITS}
    return alarm_series(alarm_id, firings, axis)


def same_everywhere(alarm_id, flights, axis=AXIS):
    return alarm(alarm_id, {u: flights for u in UNITS}, axis)


class TestCompose:
    def test_pairwise_intersection(self):
        a = same_everywhere("a", {1, 5, 9})
        b = same_everywhere("b", {5, 9, 12})
        composed = compose_and([a, b])
        assert composed.alarm_id == "a&b"
        for u in UNITS:
            assert firings(composed)[u] == frozenset({5, 9})

    def test_single_member_identity(self):
        a = same_everywhere("a", {2, 4})
        composed = compose_and([a])
        assert composed.alarm_id == "a"
        assert firings(composed) == firings(a)

    def test_triple(self):
        members = [
            same_everywhere("a", {1, 2, 3, 4}),
            same_everywhere("b", {2, 3, 4, 5}),
            same_everywhere("c", {3, 4, 5, 6}),
        ]
        composed = compose_and(members)
        assert firings(composed)["u0"] == frozenset({3, 4})

    def test_disjoint_members_never_fire(self):
        composed = compose_and([same_everywhere("a", {1}), same_everywhere("b", {2})])
        assert composed.total_firings() == 0

    def test_member_order_irrelevant(self):
        a = same_everywhere("a", {1, 5})
        b = same_everywhere("b", {5, 7})
        assert compose_and([b, a]).alarm_id == "a&b"
        assert firings(compose_and([b, a])) == firings(compose_and([a, b]))

    def test_unit_universe_must_agree(self):
        a = same_everywhere("a", {1})
        b = alarm_series("b", {"u0": frozenset({1})})
        with pytest.raises(ValueError, match="unit universe"):
            compose_and([a, b])

    def test_size_limits(self):
        a = same_everywhere("a", {1})
        with pytest.raises(ValueError):
            compose_and([])
        with pytest.raises(ValueError):
            compose_and([a, a, a, a])

    def test_anti_monotone_on_random_members(self):
        rng = random.Random(5)
        for _ in range(100):
            members = [
                same_everywhere(f"m{i}", rng.sample(range(1, 40), rng.randint(0, 15)))
                for i in range(rng.randint(1, 3))
            ]
            composed = compose_and(members)
            for m in members:
                for u in UNITS:
                    assert firings(composed)[u] <= firings(m)[u]


class TestPool:
    def test_union(self):
        pooled = pool_or([same_everywhere("a", {1, 5}), same_everywhere("b", {5, 9})], AXIS)
        assert pooled.alarm_id == "pooled"
        for u in UNITS:
            assert firings(pooled)[u] == frozenset({1, 5, 9})

    def test_single_combination_identity(self):
        pooled = pool_or([same_everywhere("a", {3, 4})], AXIS)
        assert firings(pooled)["u1"] == frozenset({3, 4})

    def test_empty_set_never_fires(self):
        pooled = pool_or([], AXIS)
        assert pooled.total_firings() == 0
        assert pooled.axis == AXIS

    def test_contains_every_member(self):
        rng = random.Random(6)
        alarms = [
            same_everywhere(f"m{i}", rng.sample(range(1, 50), 8)) for i in range(4)
        ]
        pooled = pool_or(alarms, AXIS)
        for a in alarms:
            for u in UNITS:
                assert firings(a)[u] <= firings(pooled)[u]


@st.composite
def alarms_on_an_axis(draw):
    """A random fleet axis and 1-3 per-unit flight sets on it.

    Units may be one or several, a unit may never fire, and a unit's first
    and last flights are drawn on purpose; the small ranges make equal sets
    common.
    """
    ranges = {}
    for unit in draw(st.lists(st.sampled_from(["a", "b", "u0", "u,1"]), min_size=1, unique=True)):
        first = draw(st.integers(-3, 3))
        ranges[unit] = (first, first + draw(st.integers(0, 4)))
    firings = []
    for _ in range(draw(st.integers(1, 3))):
        fires = {}
        for unit, (first, last) in ranges.items():
            flights = st.sampled_from([first, last]) | st.integers(first, last)
            fires[unit] = draw(st.frozensets(flights, max_size=4))
        firings.append(fires)
    return FleetAxis.from_ranges(ranges), firings


class TestArraysAgainstSets:
    """Positions on one axis compose, pool and compare as the flight sets do."""

    @settings(max_examples=300, deadline=None)
    @given(alarms_on_an_axis())
    def test_compose_pool_and_signature_follow_the_sets(self, drawn):
        axis, sets = drawn
        alarms = [alarm_series(f"a{k}", fires, axis) for k, fires in enumerate(sets)]
        for alarm, fires in zip(alarms, sets):
            assert firings(alarm) == fires
            assert alarm.axis.units == tuple(sorted(fires))
            assert alarm.total_firings() == sum(map(len, fires.values()))
        assert firings(compose_and(alarms)) == {
            u: frozenset.intersection(*(f[u] for f in sets)) for u in axis.units
        }
        assert firings(pool_or(alarms, axis)) == {
            u: frozenset.union(*(f[u] for f in sets)) for u in axis.units
        }
        for a, fa in zip(alarms, sets):
            for b, fb in zip(alarms, sets):
                assert (a.signature() == b.signature()) == (fa == fb)

    def test_members_on_other_axes_are_refused(self):
        a = alarm_series("a", {"u": {1}}, FleetAxis.from_ranges({"u": (0, 5)}))
        b = alarm_series("b", {"u": {1}}, FleetAxis.from_ranges({"u": (1, 5)}))
        with pytest.raises(ValueError, match="disagree on the unit universe"):
            compose_and([a, b])
        with pytest.raises(ValueError, match="disagree on the unit universe"):
            pool_or([a, b], a.axis)


class TestFilters:
    """``SearchConfig``'s rule: the gate, then the hard or soft filter.  Each
    filter case that fails passes the gate, so it fails on the filter."""

    def test_gate_needs_repeat_coverage(self):
        cfg = SearchConfig(theta=1)  # the hard filter alone admits one covered event
        assert not cfg.passes_gate(make_stats(covered_events=1))
        assert not cfg.admits(make_stats(covered_events=1))
        assert cfg.passes_gate(make_stats(covered_events=2))
        assert cfg.admits(make_stats(covered_events=2))

    def test_gate_needs_significance(self):
        cfg = SearchConfig()
        assert not cfg.passes_gate(make_stats(p_value=0.05))
        assert not cfg.admits(make_stats(p_value=0.05))
        assert cfg.passes_gate(make_stats(p_value=0.049))
        assert cfg.admits(make_stats(p_value=0.049))

    def test_hard_filter(self):
        cfg = SearchConfig(filter_kind="hard", theta=3)
        assert cfg.admits(make_stats(covered_events=3))
        assert cfg.passes_gate(make_stats(covered_events=2))
        assert not cfg.admits(make_stats(covered_events=2))
        assert not cfg.admits(make_stats(fired_false_segments=1))

    def test_soft_filter(self):
        cfg = SearchConfig(filter_kind="soft", theta=2.0)
        assert cfg.admits(make_stats(false_to_covered=1.9))
        assert cfg.admits(make_stats(false_to_covered=2.0))
        assert cfg.passes_gate(make_stats(false_to_covered=2.1))
        assert not cfg.admits(make_stats(false_to_covered=2.1))

    def test_soft_filter_rejects_uncovered(self):
        # An infinite theta admits every gated candidate, and still none that
        # covers fewer than two events.
        cfg = SearchConfig(filter_kind="soft", theta=math.inf)
        for ratio in (0.0, 2.1, 1e12):
            assert cfg.admits(make_stats(false_to_covered=ratio))
        assert not cfg.admits(make_stats(covered_events=1, false_to_covered=3.0))
        assert not cfg.admits(make_stats(covered_events=0, false_to_covered=math.inf))


class TestSearchFixture:
    """Engineered pool where only the pair survives the hard filter.

    A and B each cover both windows on every unit but carry one private
    false firing per unit; their AND keeps the coverage and sheds the noise.
    """

    def pool(self):
        a = same_everywhere("A", {27, 57, 10})
        b = same_everywhere("B", {27, 57, 80})
        return [a, b]

    def test_singletons_pass_gate_but_fail_hard(self):
        layout = fixture_layout()
        cfg = SearchConfig(alpha=0.05, filter_kind="hard", theta=2, max_size=2)
        for single in self.pool():
            st = match_stats(single, layout)
            assert st.covered_events == 6
            assert st.fired_false_segments == 3
            assert st.p_value < 0.05

    def test_pair_is_sole_survivor(self):
        layout = fixture_layout()
        cfg = SearchConfig(alpha=0.05, filter_kind="hard", theta=2, max_size=2)
        pset = search_combinations(self.pool(), layout, cfg, target_code="E1")
        assert [c.members for c in pset.combinations] == [("A", "B")]
        combo = pset.combinations[0]
        assert combo.provenance == "hard"
        assert combo.stats.false_firings == 0
        assert combo.stats.coverage == 1.0
        assert combo.stats.p_value == 0.0

    def test_pooled_equals_pair(self):
        layout = fixture_layout()
        cfg = SearchConfig(filter_kind="hard", theta=2)
        pset = search_combinations(self.pool(), layout, cfg, target_code="E1")
        for u in UNITS:
            assert firings(pset.pooled_alarm)[u] == frozenset({27, 57})
        assert pset.pooled_stats.false_firings == 0
        assert pset.pooled_stats.coverage == 1.0

    def test_soft_filter_admits_singles_and_ranks_pair_first(self):
        layout = fixture_layout()
        cfg = SearchConfig(filter_kind="soft", theta=0.5, max_size=2)
        pset = search_combinations(self.pool(), layout, cfg, target_code="E1")
        assert [c.members for c in pset.combinations] == [("A", "B"), ("A",), ("B",)]
        facfs = [c.stats.false_to_covered for c in pset.combinations]
        assert facfs == sorted(facfs)
        assert pset.pooled_stats.false_firings == 6  # both private flights pool back in

    def test_gate_failure_yields_empty_set(self):
        layout = fixture_layout()
        noise = same_everywhere("C", {5})  # never inside a window
        cfg = SearchConfig(filter_kind="hard", theta=2)
        pset = search_combinations([noise], layout, cfg, target_code="E1")
        assert pset.combinations == ()
        assert pset.pooled_alarm.axis == layout.axis
        assert pset.pooled_alarm.total_firings() == 0
        assert pset.pooled_stats.window_events == 6
        assert pset.pooled_stats.false_segments == 9
        assert pset.pooled_stats.true_firings == pset.pooled_stats.false_firings == 0
        assert pset.pooled_stats.coverage == 0.0
        assert math.isinf(pset.pooled_stats.false_to_covered)

    def test_duplicate_firings_keep_smallest_member_set(self):
        layout = fixture_layout()
        d1 = same_everywhere("D1", {27, 57})
        d2 = same_everywhere("D2", {27, 57})
        cfg = SearchConfig(filter_kind="hard", theta=2, max_size=2)
        pset = search_combinations([d1, d2], layout, cfg)
        assert [c.members for c in pset.combinations] == [("D1",)]

    def test_duplicate_ids_rejected(self):
        layout = fixture_layout()
        with pytest.raises(ValueError, match="duplicate alarm ids"):
            search_combinations(
                [same_everywhere("A", {1}), same_everywhere("A", {2})], layout,
                SearchConfig(),
            )

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty alarm pool"):
            search_combinations([], fixture_layout(), SearchConfig())

    def test_eventless_layout_rejected(self):
        layout = layout_periods([], MatchParams(), {"u": (1, 10)})
        with pytest.raises(ValueError, match="no target events"):
            search_combinations([alarm_series("a", {"u": set()}, layout.axis)], layout, SearchConfig())


def oracle_search(pool, layout, cfg, events, ranges):
    """Member ids of :func:`brute_force_search` survivors, best first."""
    firings_by_id = {a.alarm_id: firings(a) for a in pool}
    ranked = brute_force_search(
        firings_by_id, events, layout.params, ranges,
        cfg.alpha, cfg.filter_kind, cfg.theta, cfg.max_size,
    )
    return [ids for ids, _, _ in ranked]


@st.composite
def search_instances(draw):
    """Small fleets, layouts and alarm pools for the exhaustive reference.

    Alarms draw their firings from a few flights per unit, most of them
    inside predictive windows, so gated alarms, AND survivors and duplicate
    composed firing sets all occur.
    """
    params = MatchParams(
        window=draw(st.integers(1, 6)),
        horizon=draw(st.integers(0, 2)),
        delay=draw(st.integers(0, 3)),
    )
    ranges, events, flights = {}, [], {}
    for u in range(draw(st.integers(1, 3))):
        unit = f"u{u}"
        first = draw(st.integers(0, 3))
        last = first + draw(st.integers(8, 40))
        ranges[unit] = (first, last)
        onsets = draw(st.lists(st.integers(first, last + 4), min_size=1, max_size=4))
        events += [(unit, onset, onset + draw(st.integers(1, 3))) for onset in onsets]
        lead = params.horizon + 1 + draw(st.integers(0, params.window - 1))
        near = {min(max(onset - lead, first), last) for onset in onsets}
        flights[unit] = sorted(near | draw(st.sets(st.integers(first, last), max_size=2)))
    ids = draw(st.permutations([f"a{i}" for i in range(draw(st.integers(1, 5)))]))
    pool = {
        alarm_id: {
            u: draw(st.sets(st.sampled_from(fl))) if fl else set() for u, fl in flights.items()
        }
        for alarm_id in ids
    }
    kind = draw(st.sampled_from(FILTER_KINDS))
    cfg = SearchConfig(
        alpha=draw(st.sampled_from((0.05, 0.3, 1.0))),
        filter_kind=kind,
        theta=draw(st.integers(0, 3)) if kind == "hard" else draw(st.sampled_from((0.0, 0.5, 2.0))),
        max_size=draw(st.sampled_from((2, 3))),
    )
    return events, params, ranges, pool, cfg


class TestSearchProperty:
    @settings(max_examples=300, deadline=None)
    @given(search_instances())
    def test_search_equals_exhaustive_reference(self, instance):
        events, params, ranges, pool, cfg = instance
        records = [EventRecord(u, onset, end, "E1") for u, onset, end in events]
        layout = layout_periods(records, params, ranges)
        alarms = [
            alarm_series(alarm_id, fires, layout.axis)
            for alarm_id, fires in pool.items()
        ]
        if layout.total_window_events() < 1:
            with pytest.raises(ValueError, match="no target events"):
                search_combinations(alarms, layout, cfg)
            return
        pset = search_combinations(alarms, layout, cfg)
        ranked = brute_force_search(
            pool, events, params, ranges, cfg.alpha, cfg.filter_kind, cfg.theta, cfg.max_size
        )
        assert [c.members for c in pset.combinations] == [ids for ids, _, _ in ranked]
        for combo, (ids, fires, ref) in zip(pset.combinations, ranked):
            assert combo.alarm.alarm_id == "&".join(ids)
            assert firings(combo.alarm) == {u: frozenset(ts) for u, ts in fires.items()}
            for key in MatchStats.COUNTERS:
                assert getattr(combo.stats, key) == ref[key], key
        pooled = {u: set() for u in ranges}
        for _, fires, _ in ranked:
            for u, ts in fires.items():
                pooled[u] |= ts
        assert {u: ts for u, ts in firings(pset.pooled_alarm).items() if ts} == {
            u: frozenset(ts) for u, ts in pooled.items() if ts
        }


class TestSearchAgainstOracle:
    def random_instance(self, rng):
        events = []
        records = []
        ranges = {u: (1, 80) for u in UNITS}
        for u in UNITS:
            for onset in rng.sample(range(12, 75), rng.randint(1, 2)):
                events.append((u, onset, onset + 1))
                records.append(EventRecord(u, onset, onset + 1, "E1"))
        layout = layout_periods(records, MatchParams(window=6), ranges)

        # shared in-window hits so AND pairs can survive; private noise so
        # singletons usually cannot
        hits: dict[str, set[int]] = {u: set() for u in UNITS}
        for u, onset, _ in events:
            if rng.random() < 0.85:
                hits[u].add(rng.randrange(onset - 6, onset))

        def good(i):
            fires = {u: set(hits[u]) for u in UNITS}
            for u in UNITS:
                for _ in range(rng.randint(0, 2)):
                    fires[u].add(rng.randrange(1, 81))
            return alarm_series(f"g{i}", fires, layout.axis)

        pool = [good(i) for i in range(rng.randint(1, 2))]
        pool += [
            same_everywhere(f"n{i}", rng.sample(range(1, 81), rng.randint(0, 20)), layout.axis)
            for i in range(rng.randint(0, 2))
        ]
        return events, records, ranges, layout, pool

    def test_matches_exhaustive_reference(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(60):
            events, records, ranges, layout, pool = self.random_instance(rng)
            for kind, theta in (("hard", 1), ("soft", 2.0)):
                cfg = SearchConfig(filter_kind=kind, theta=theta, max_size=rng.choice((2, 3)))
                pset = search_combinations(pool, layout, cfg)
                expect = oracle_search(pool, layout, cfg, events, ranges)
                assert [c.members for c in pset.combinations] == expect
                checked += 1
        assert checked == 120

    def test_pool_covers_at_least_best_member(self):
        rng = random.Random(404)
        seen = 0
        for _ in range(80):
            events, records, ranges, layout, pool = self.random_instance(rng)
            cfg = SearchConfig(filter_kind="soft", theta=3.0, max_size=2)
            pset = search_combinations(pool, layout, cfg)
            if not pset.combinations:
                continue
            seen += 1
            best = max(c.stats.coverage for c in pset.combinations)
            assert pset.pooled_stats.coverage >= best - 1e-12
        assert seen >= 10

    def test_hard_filter_means_silent_pool_on_false_segments(self):
        rng = random.Random(808)
        seen = 0
        for _ in range(80):
            events, records, ranges, layout, pool = self.random_instance(rng)
            cfg = SearchConfig(filter_kind="hard", theta=2, max_size=2)
            pset = search_combinations(pool, layout, cfg)
            if not pset.combinations:
                continue
            seen += 1
            assert pset.pooled_stats.false_firings == 0
            assert pset.pooled_stats.fired_false_segments == 0
        assert seen >= 3


class TestSerialization:
    def test_jsonable_shape(self):
        layout = fixture_layout()
        cfg = SearchConfig(filter_kind="hard", theta=2)
        pool = [same_everywhere("A", {27, 57, 10}), same_everywhere("B", {27, 57, 80})]
        pset = search_combinations(pool, layout, cfg, target_code="E1")
        doc = precursors_to_jsonable(pset)
        assert doc["target_code"] == "E1"
        assert doc["combinations"][0]["members"] == ["A", "B"]
        assert doc["combinations"][0]["stats"]["false_firings"] == 0
        assert doc["pooled"]["alarm_id"] == "pooled"

    def test_written_file_parses(self, tmp_path):
        layout = fixture_layout()
        pset = search_combinations(
            [same_everywhere("A", {27, 57})], layout, SearchConfig(filter_kind="hard", theta=2)
        )
        path = tmp_path / "precursors.json"
        write_precursors_json(path, pset)
        text = path.read_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["pooled"]["stats"]["coverage"] == 1.0
