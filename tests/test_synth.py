import json
import math
import random
from itertools import combinations as icombinations

import pytest

from oracles import brute_force_match, welch_reference_p
from fleetwarn.core import AlarmSeries, EventRecord, MatchParams
from fleetwarn.matching import layout_periods, match_stats
from fleetwarn.synth import (
    SearchConfig,
    compose_and,
    pool_or,
    precursors_to_jsonable,
    search_combinations,
    write_precursors_json,
)

UNITS = ("u0", "u1", "u2")


def alarm(alarm_id, flights_by_unit):
    firings = {u: frozenset(flights_by_unit.get(u, ())) for u in UNITS}
    return AlarmSeries(alarm_id=alarm_id, firings=firings)


def same_everywhere(alarm_id, flights):
    return alarm(alarm_id, {u: flights for u in UNITS})


def fixture_layout(window=5):
    # each unit observed on [1, 100] with events at 30 and 60
    events = []
    for u in UNITS:
        events.append(EventRecord(u, 30, 31, "E1"))
        events.append(EventRecord(u, 60, 61, "E1"))
    ranges = {u: (1, 100) for u in UNITS}
    return layout_periods(events, MatchParams(window=window), ranges)


class TestCompose:
    def test_pairwise_intersection(self):
        a = same_everywhere("a", {1, 5, 9})
        b = same_everywhere("b", {5, 9, 12})
        composed = compose_and([a, b])
        assert composed.alarm_id == "a&b"
        for u in UNITS:
            assert composed.firings_for(u) == frozenset({5, 9})

    def test_single_member_identity(self):
        a = same_everywhere("a", {2, 4})
        composed = compose_and([a])
        assert composed.alarm_id == "a"
        assert composed.firings == a.firings

    def test_triple(self):
        members = [
            same_everywhere("a", {1, 2, 3, 4}),
            same_everywhere("b", {2, 3, 4, 5}),
            same_everywhere("c", {3, 4, 5, 6}),
        ]
        composed = compose_and(members)
        assert composed.firings_for("u0") == frozenset({3, 4})

    def test_disjoint_members_never_fire(self):
        composed = compose_and([same_everywhere("a", {1}), same_everywhere("b", {2})])
        assert composed.total_firings() == 0

    def test_member_order_irrelevant(self):
        a = same_everywhere("a", {1, 5})
        b = same_everywhere("b", {5, 7})
        assert compose_and([b, a]).alarm_id == "a&b"
        assert compose_and([b, a]).firings == compose_and([a, b]).firings

    def test_unit_universe_must_agree(self):
        a = same_everywhere("a", {1})
        b = AlarmSeries("b", {"u0": frozenset({1})})
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
                    assert composed.firings_for(u) <= m.firings_for(u)


class TestPool:
    def test_union(self):
        pooled = pool_or([same_everywhere("a", {1, 5}), same_everywhere("b", {5, 9})])
        assert pooled.alarm_id == "pooled"
        for u in UNITS:
            assert pooled.firings_for(u) == frozenset({1, 5, 9})

    def test_single_combination_identity(self):
        pooled = pool_or([same_everywhere("a", {3, 4})])
        assert pooled.firings_for("u1") == frozenset({3, 4})

    def test_empty_set_never_fires(self):
        pooled = pool_or([])
        assert pooled.total_firings() == 0

    def test_contains_every_member(self):
        rng = random.Random(6)
        alarms = [
            same_everywhere(f"m{i}", rng.sample(range(1, 50), 8)) for i in range(4)
        ]
        pooled = pool_or(alarms)
        for a in alarms:
            for u in UNITS:
                assert a.firings_for(u) <= pooled.firings_for(u)


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
            assert pset.pooled_alarm.firings_for(u) == frozenset({27, 57})
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
        assert pset.pooled_alarm.total_firings() == 0
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
            search_combinations([AlarmSeries("a", {"u": frozenset()})], layout, SearchConfig())


def oracle_search(pool, layout, cfg, events, ranges):
    """Re-run the whole search with brute-force counting and set algebra."""

    def grade(alarms):
        fires = {
            u: frozenset.intersection(*(a.firings_for(u) for a in alarms))
            for u in alarms[0].units()
        }
        ref = brute_force_match(events, layout.params, ranges, fires)
        ref["p_value"] = welch_reference_p(ref["window_counts"], ref["segment_counts"])
        return fires, ref

    def gate(ref, alpha):
        return ref["covered_events"] > 1 and ref["p_value"] < alpha

    gated = [a for a in sorted(pool, key=lambda a: a.alarm_id) if gate(grade([a])[1], cfg.alpha)]
    survivors = []
    for size in range(1, cfg.max_size + 1):
        for members in icombinations(gated, size):
            fires, ref = grade(list(members))
            if not gate(ref, cfg.alpha):
                continue
            if cfg.filter_kind == "hard":
                ok = ref["covered_events"] >= cfg.theta and ref["fired_false_segments"] == 0
            else:
                facf = ref["false_to_covered"]
                ok = not math.isinf(facf) and facf <= cfg.theta
            if ok:
                key = tuple(sorted((u, tuple(sorted(ts))) for u, ts in fires.items() if ts))
                ids = tuple(sorted(a.alarm_id for a in members))
                survivors.append((key, ids, ref))
    best = {}
    for key, ids, ref in survivors:
        if key not in best or (len(ids), ids) < (len(best[key][0]), best[key][0]):
            best[key] = (ids, ref)
    ranked = sorted(
        best.items(),
        key=lambda kv: (kv[1][1]["false_to_covered"], -kv[1][1]["coverage"], "&".join(kv[1][0])),
    )
    return [ids for _, (ids, _) in ranked]


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
            return AlarmSeries(f"g{i}", {u: frozenset(v) for u, v in fires.items()})

        pool = [good(i) for i in range(rng.randint(1, 2))]
        pool += [
            same_everywhere(f"n{i}", rng.sample(range(1, 81), rng.randint(0, 20)))
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
