import ctypes
import dataclasses
import functools
import math
import random
import re
import types
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_max_matching, roc_pr_reference
from fleetwarn import core, evaluation
from fleetwarn.core import (
    EventRecord,
    FleetAxis,
    MatchParams,
    NoTargetEventsError,
    csv_float,
)
from fleetwarn.evaluation import (
    Curve,
    CurvePoint,
    greedy_max_matching,
    leave_one_unit_out,
    operating_point,
    roc_pr_curves,
    threshold_baseline,
    write_curves_csv,
)
from fleetwarn.matching import significance_test
from fleetwarn.pipeline import PipelineConfig
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig, generate_fleet
from fleetwarn.synth import SearchConfig, precursors_to_jsonable
from support import curve_of, precision_at_recall


class TestThresholdBaseline:
    def test_above_copies(self):
        values = np.array([1.0, 5.0, 2.0])
        scores = threshold_baseline(values, "above")
        assert np.array_equal(scores, values)
        scores[0] = 99.0
        assert values[0] == 1.0

    def test_below_negates(self):
        assert np.array_equal(
            threshold_baseline(np.array([1.0, -2.0]), "below"), [-1.0, 2.0]
        )

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            threshold_baseline(np.array([1.0]), "sideways")

    def test_sweep_size(self):
        scores = {"u": {1: 1.0, 2: 2.0, 3: 3.0}}
        points = roc_pr_curves(scores, [EventRecord("u", 2, 3, "E")], tolerance=0)
        assert len(points) == 4  # +inf plus three distinct values


class TestGreedyMatching:
    def test_leftmost_assignment_beats_nearest(self):
        # nearest-first would burn flag 5 on onset 5 and strand onset 3
        assert greedy_max_matching([5, 7], [3, 5], 2) == 2

    def test_tolerance_zero_exact_hits(self):
        assert greedy_max_matching([3, 9], [3, 5], 0) == 1

    def test_each_flag_used_once(self):
        assert greedy_max_matching([5], [4, 5], 2) == 1

    def test_matches_exact_maximum(self):
        rng = random.Random(314)
        for _ in range(300):
            flags = sorted(rng.sample(range(0, 20), rng.randint(0, 8)))
            onsets = sorted(rng.sample(range(0, 20), rng.randint(0, 5)))
            for tol in range(0, 4):
                assert greedy_max_matching(flags, onsets, tol) == exact_max_matching(
                    flags, onsets, tol
                ), (flags, onsets, tol)


class TestCurves:
    def scores_for(self, values_by_unit):
        return {
            u: {t + 1: float(v) for t, v in enumerate(vals)}
            for u, vals in values_by_unit.items()
        }

    def test_perfect_scorer(self):
        vals = [0.0] * 40
        vals[19] = 1.0  # flight 20
        points = roc_pr_curves(
            self.scores_for({"u": vals}), [EventRecord("u", 20, 21, "E")], tolerance=0
        )
        assert points[0].nu == math.inf and points[0].tp == 0
        top = points[1]
        assert (top.nu, top.tp, top.fp, top.fn) == (1.0, 1, 0, 0)
        assert top.precision == 1.0 and top.recall == 1.0 and top.fpr == 0.0

    def test_tolerance_matches_nearby_flag(self):
        vals = [0.0] * 30
        vals[17] = 1.0  # flight 18, event onset 20
        events = [EventRecord("u", 20, 21, "E")]
        exact = roc_pr_curves(self.scores_for({"u": vals}), events, tolerance=0)
        loose = roc_pr_curves(self.scores_for({"u": vals}), events, tolerance=2)
        assert exact[1].tp == 0 and exact[1].fp == 1
        assert loose[1].tp == 1 and loose[1].fp == 0

    def test_second_flag_is_false_positive(self):
        vals = [0.0] * 30
        vals[18] = 1.0
        vals[20] = 1.0  # flights 19 and 21, one event at 20
        points = roc_pr_curves(
            self.scores_for({"u": vals}), [EventRecord("u", 20, 21, "E")], tolerance=2
        )
        assert points[1].tp == 1
        assert points[1].fp == 1
        assert points[1].precision == 0.5

    def test_equal_scores_batch_into_one_point(self):
        points = roc_pr_curves(
            {"u": {1: 0.5, 2: 0.5, 3: 0.1}},
            [EventRecord("u", 2, 3, "E")],
            tolerance=0,
        )
        assert [p.nu for p in points] == [math.inf, 0.5, 0.1]
        assert points[1].tp + points[1].fp == 2

    def test_nan_scores_are_unscored(self):
        points = roc_pr_curves(
            {"u": {1: float("nan"), 2: 1.0}},
            [EventRecord("u", 2, 3, "E")],
            tolerance=0,
        )
        assert len(points) == 2
        final = points[-1]
        assert final.tp + final.fp + final.fn + final.tn == 1

    def test_no_events_strict_raises(self):
        with pytest.raises(NoTargetEventsError):
            roc_pr_curves({"u": {1: 1.0}}, [], tolerance=0)

    def test_event_on_unscored_unit_rejected(self):
        with pytest.raises(ValueError, match="no scores"):
            roc_pr_curves({"u": {1: 1.0}}, [EventRecord("v", 1, 2, "E")], tolerance=0)

    def test_monotone_as_threshold_descends(self):
        rng = random.Random(27)
        for _ in range(50):
            n = rng.randint(5, 40)
            scores = {"u": {t: rng.choice([0.0, 0.3, 0.7, 1.0, rng.random()]) for t in range(1, n + 1)}}
            onsets = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            events = [EventRecord("u", o, o + 1, "E") for o in onsets]
            points = list(roc_pr_curves(scores, events, tolerance=rng.randint(0, 2)))
            for prev, cur in zip(points, points[1:]):
                assert cur.recall >= prev.recall - 1e-12
                assert cur.fpr >= prev.fpr - 1e-12
                assert cur.tp + cur.fp >= prev.tp + prev.fp

    def test_recall_non_decreasing_in_tolerance(self):
        rng = random.Random(28)
        for _ in range(40):
            n = 30
            scores = {"u": {t: rng.random() for t in range(1, n + 1)}}
            onsets = rng.sample(range(1, n + 1), 3)
            events = [EventRecord("u", o, o + 1, "E") for o in onsets]
            tight = roc_pr_curves(scores, events, tolerance=0)
            loose = roc_pr_curves(scores, events, tolerance=2)
            assert len(tight) == len(loose)
            for a, b in zip(tight, loose):
                assert a.nu == b.nu
                assert b.tp >= a.tp

    def test_multi_unit_matching_is_per_unit(self):
        # flag on u1 cannot claim the event on u2
        scores = {"u1": {1: 1.0}, "u2": {1: 0.0}}
        points = roc_pr_curves(scores, [EventRecord("u2", 1, 2, "E")], tolerance=0)
        assert points[1].tp == 0
        assert points[1].fp == 1
        assert points[-1].tp == 1


@st.composite
def curve_inputs(draw):
    """Scores with ties (0.0 and -0.0 among them) and NaNs on 1-3 units at
    negative and positive flights; a unit may have no events, and nearby
    onsets have overlapping tolerance windows."""
    levels = st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, float("nan")]), st.floats(-1, 1)
    )
    scores = {}
    events = []
    for u in range(draw(st.integers(1, 3))):
        unit = f"u{u}"
        flights = draw(st.sets(st.integers(-10, 30), max_size=25))
        scores[unit] = {t: draw(levels) for t in sorted(flights)}
        for onset in draw(st.lists(st.integers(-12, 33), max_size=5)):
            events.append(EventRecord(unit, onset, onset + 1, "E"))
    return scores, events, draw(st.integers(0, 5))


class TestCurveOracle:
    @settings(max_examples=300, deadline=None)
    @given(curve_inputs())
    def test_every_point_equals_a_recount(self, inputs):
        scores, events, tolerance = inputs
        if not events:
            with pytest.raises(NoTargetEventsError):
                roc_pr_curves(scores, events, tolerance)
            return
        points = roc_pr_curves(scores, events, tolerance)
        finite = [s for series in scores.values() for s in series.values() if not math.isnan(s)]
        assert [p.nu for p in points] == [math.inf] + sorted(set(finite), reverse=True)
        n_scored = len(finite)
        for p in points:
            flags = {
                u: [t for t, s in series.items() if not math.isnan(s) and s >= p.nu]
                for u, series in scores.items()
            }
            tp = sum(
                exact_max_matching(
                    flags[u], [ev.onset for ev in events if ev.unit_id == u], tolerance
                )
                for u in scores
            )
            fp = sum(len(f) for f in flags.values()) - tp
            fn = len(events) - tp
            assert (p.tp, p.fp, p.fn) == (tp, fp, fn)
            assert p.tn == max(n_scored - tp - fp - fn, 0)


class TestCurveReference:
    """The sorted-array sweep against the threshold-by-threshold rematching
    it replaced, compared by ``repr`` so the bits of -0.0 and NaN count."""

    @staticmethod
    def same(scores, events, tolerance):
        if not events:
            for sweep in (roc_pr_curves, roc_pr_reference):
                with pytest.raises(NoTargetEventsError):
                    sweep(scores, events, tolerance)
            return
        curve = roc_pr_curves(scores, events, tolerance)
        reference = roc_pr_reference(scores, events, tolerance)
        assert [repr(p) for p in curve] == [repr(p) for p in reference]

    @settings(max_examples=500, deadline=None)
    @given(curve_inputs())
    def test_sweep_equals_reference(self, inputs):
        self.same(*inputs)

    def test_no_scores_at_all(self):
        self.same({"u": {}, "v": {1: float("nan")}}, [EventRecord("u", 3, 4, "E")], 1)
        self.same({}, [], 0)

    def test_infinite_scores_form_their_own_thresholds(self):
        scores = {"u": {1: math.inf, 2: math.inf, 3: -math.inf, 4: 0.0}}
        self.same(scores, [EventRecord("u", 2, 3, "E")], 1)

    def test_int64_bound_flights_and_onsets(self):
        low, high = -(2**63), 2**63 - 1
        scores = {"u": {low: 1.0, low + 1: 0.5, high - 1: 0.5, high: 0.25}}
        events = [EventRecord("u", low, low + 1, "E"), EventRecord("u", high, high + 1, "E")]
        for tolerance in (0, 1, 3):
            self.same(scores, events, tolerance)


class TestCurveColumns:
    def test_fields_are_the_point_fields(self):
        assert [f.name for f in fields(Curve)] == [f.name for f in fields(CurvePoint)]

    def test_points_are_python_scalars(self):
        curve = roc_pr_curves({"u": {1: 0.5, 2: -0.0}}, [EventRecord("u", 2, 3, "E")], 0)
        assert len(curve) == 3
        assert curve[-1] == CurvePoint(-0.0, 1, 1, 0, 0, 0.5, 1.0, 1.0)
        assert list(curve) == [curve[0], curve[1], curve[2]]
        assert [type(getattr(curve[1], f.name)) for f in fields(CurvePoint)] == [
            float, int, int, int, int, float, float, float
        ]

    @pytest.mark.parametrize("rows", [1, 3, 4096])
    def test_blocks_do_not_change_the_file(self, tmp_path, monkeypatch, rows):
        rng = random.Random(5)
        scores = {"u": {t: rng.choice([0.0, -0.0, rng.random()]) for t in range(40)}}
        curve = roc_pr_curves(scores, [EventRecord("u", 7, 8, "E")], 2)
        monkeypatch.setattr(evaluation, "CSV_BLOCK_ROWS", rows)
        write_curves_csv(tmp_path / "curves.csv", curve)
        expected = ["nu,tp,fp,fn,tn,precision,recall,fpr"] + [
            ",".join(csv_float(v) if isinstance(v, float) else str(v) for v in astuple(p))
            for p in curve
        ]
        assert (tmp_path / "curves.csv").read_text().splitlines() == expected


class TestCurveSummaries:
    def points(self, nus):
        return curve_of([CurvePoint(nu, 1, 1, 0, 7, 0.5, 1.0, 0.125) for nu in nus])

    def test_operating_point_nearest(self):
        pts = self.points([math.inf, 0.9, 0.55, 0.2])
        assert operating_point(pts, nu=0.6).nu == 0.55

    def test_operating_point_tie_takes_larger(self):
        # 0.75 and 0.25 sit exactly 0.25 from the target in binary floats
        pts = self.points([math.inf, 0.75, 0.25])
        assert operating_point(pts, nu=0.5).nu == 0.75

    def test_operating_point_empty(self):
        with pytest.raises(ValueError):
            operating_point(curve_of([]))

    def test_precision_at_recall_picks_best(self):
        pts = [
            CurvePoint(1.0, 1, 0, 1, 8, 1.0, 0.5, 0.0),
            CurvePoint(0.5, 2, 2, 0, 6, 0.5, 1.0, 0.25),
        ]
        assert precision_at_recall(pts, 0.5) == 1.0
        assert precision_at_recall(pts, 0.8) == 0.5

    def test_precision_at_recall_unreachable(self):
        pts = [CurvePoint(1.0, 0, 0, 2, 8, 1.0, 0.0, 0.0)]
        with pytest.raises(ValueError, match="recall"):
            precision_at_recall(pts, 0.5)

    def test_csv_layout(self, tmp_path):
        pts = [
            CurvePoint(math.inf, 0, 0, 2, 8, 1.0, 0.0, 0.0),
            CurvePoint(0.5, 1, 1, 1, 7, 0.5, 0.5, 0.125),
        ]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, curve_of(pts))
        lines = path.read_text().splitlines()
        assert lines[0] == "nu,tp,fp,fn,tn,precision,recall,fpr"
        assert lines[1] == "inf,0,0,2,8,1.0,0.0,0.0"
        assert lines[2] == "0.5,1,1,1,7,0.5,0.5,0.125"

    def test_csv_nan_becomes_empty(self, tmp_path):
        pts = [CurvePoint(1.0, 0, 1, 0, 9, 0.0, float("nan"), 0.1)]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, curve_of(pts))
        assert path.read_text().splitlines()[1] == "1.0,0,1,0,9,0.0,,0.1"

    def test_csv_golden_bytes(self, tmp_path):
        pts = [
            CurvePoint(math.inf, 0, 0, 3, 9, 1.0, 0.0, 0.0),
            CurvePoint(-0.0, 3, 9, 0, 0, 0.25, float("nan"), 1.0),
        ]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, curve_of(pts))
        assert path.read_bytes() == (
            b"nu,tp,fp,fn,tn,precision,recall,fpr\n"
            b"inf,0,0,3,9,1.0,0.0,0.0\n"
            b"-0.0,3,9,0,0,0.25,,1.0\n"
        )


SMALL_SIM = SimConfig(
    units=5,
    flights_per_unit=300,
    groups=(GroupSpec(4, 0.9), GroupSpec(4, 0.9), GroupSpec(3, 0.9)),
    planted=(PlantedSpec((0, 1), 3, 6, 9.0),),
    event_rate=2.5,
    seed=11,
)

SMALL_CFG = PipelineConfig(
    match=MatchParams(window=10),
    quantile=0.999,
    search=SearchConfig(filter_kind="soft", theta=1.0),
)


@functools.lru_cache(maxsize=None)
def small_fleet():
    panels, events, _ = generate_fleet(SMALL_SIM, verify=False)
    return tuple(panels), tuple(events)


@functools.lru_cache(maxsize=None)
def small_crossval():
    panels, events = small_fleet()
    return leave_one_unit_out(list(panels), list(events), SMALL_CFG)


class TestCrossval:
    def test_one_fold_per_unit(self):
        panels, _ = small_fleet()
        result = small_crossval()
        assert [f.held_out_unit for f in result.folds] == sorted(p.unit_id for p in panels)

    def test_needs_two_units(self):
        panels, events = small_fleet()
        with pytest.raises(ValueError, match="at least 2"):
            leave_one_unit_out([panels[0]], list(events), SMALL_CFG)

    def test_aggregate_sums_fold_counters(self):
        result = small_crossval()
        done = [f for f in result.folds if not f.skipped]
        agg = result.aggregate
        assert agg.window_events == sum(f.stats.window_events for f in done)
        assert agg.false_firings == sum(f.stats.false_firings for f in done)
        assert agg.covered_events == sum(f.stats.covered_events for f in done)
        assert agg.fired_false_segments == sum(f.stats.fired_false_segments for f in done)
        if agg.window_events:
            assert agg.coverage == pytest.approx(agg.covered_events / agg.window_events)
        window_counts = [c for f in done for c in f.window_counts]
        segment_counts = [c for f in done for c in f.segment_counts]
        assert agg.p_value == significance_test(window_counts, segment_counts)

    def test_planted_pattern_found_out_of_sample(self):
        result = small_crossval()
        assert not result.skipped_units
        assert result.aggregate.coverage >= 0.8

    def test_no_leakage_from_held_out_unit(self):
        panels, events = small_fleet()
        held = panels[0]
        result = small_crossval()
        mangled = [dataclasses.replace(held, values=held.values * 1.7 + 0.3)] + list(panels[1:])
        redone = leave_one_unit_out(mangled, list(events), SMALL_CFG)
        fold0 = result.folds[0]
        refold0 = redone.folds[0]
        assert fold0.held_out_unit == held.unit_id == refold0.held_out_unit
        assert precursors_to_jsonable(fold0.precursors) == precursors_to_jsonable(
            refold0.precursors
        )

    def test_event_free_unit_contributes_only_noise_counts(self):
        panels, events = small_fleet()
        quiet = panels[2].unit_id
        filtered = [ev for ev in events if ev.unit_id != quiet]
        assert filtered  # other units still carry events
        result = leave_one_unit_out(list(panels), filtered, SMALL_CFG)
        fold = next(f for f in result.folds if f.held_out_unit == quiet)
        assert not fold.skipped
        assert fold.stats.window_events == 0
        assert fold.stats.true_firings == 0
        assert fold.stats.covered_events == 0
        assert math.isnan(fold.stats.coverage)

    def test_fold_whose_search_keeps_nothing_grades_a_silent_pool(self, monkeypatch):
        panels, events = small_fleet()
        pooled, pooled_on = {}, evaluation.pooled_on
        # One CPU, so that pooled_on records in this process.
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0})

        def recording_pooled_on(model, held):
            (panel,) = held
            pooled[panel.unit_id] = pooled_on(model, held)
            return pooled[panel.unit_id]

        monkeypatch.setattr(evaluation, "pooled_on", recording_pooled_on)
        cfg = dataclasses.replace(SMALL_CFG, search=SearchConfig(filter_kind="hard", theta=50))
        result = leave_one_unit_out(list(panels), list(events), cfg)
        assert sorted(pooled) == [p.unit_id for p in panels]
        for panel, fold in zip(panels, result.folds):
            assert fold.precursors.combinations == ()
            alarm = pooled[fold.held_out_unit]
            assert alarm.axis == FleetAxis.from_ranges({panel.unit_id: panel.observation_range()})
            assert alarm.total_firings() == 0
            assert fold.stats.true_firings == fold.stats.false_firings == 0
            assert fold.stats.irrelevant_firings == fold.stats.covered_events == 0
            assert fold.stats.false_segments == len(fold.segment_counts) > 0

    def test_fold_without_training_events_is_skipped(self):
        panels, events = small_fleet()
        assert events
        keeper = events[0].unit_id
        only_one = [ev for ev in events if ev.unit_id == keeper]
        result = leave_one_unit_out(list(panels), only_one, SMALL_CFG)
        assert result.skipped_units == (keeper,)
        for fold in result.folds:
            assert fold.skipped == (fold.held_out_unit == keeper)


def crossval_cases():
    """The small fleet (5 units), its first 4 units, and a fleet whose one
    skipped fold holds out the only unit with events."""
    panels, events = small_fleet()
    keeper = events[0].unit_id
    four = {p.unit_id for p in panels[:4]}
    return {
        "odd": (panels, events),
        "even": (panels[:4], tuple(ev for ev in events if ev.unit_id in four)),
        "one-skipped": (panels, tuple(ev for ev in events if ev.unit_id == keeper)),
    }


def crossval_on(monkeypatch, cpus, panels, events):
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return leave_one_unit_out(list(panels), list(events), SMALL_CFG)


class TestCrossvalProcesses:
    """Folds trained in forked processes give what one process gives."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", sorted(crossval_cases()))
    def test_processes_give_the_serial_result(self, monkeypatch, case, cpus):
        panels, events = crossval_cases()[case]
        serial = crossval_on(monkeypatch, 1, panels, events)
        if case == "one-skipped":
            assert len(serial.skipped_units) == 1
        shared, on_cpus = [], core._on_cpus

        def counted(where, doing, fn, shares):
            shared.append(doing)
            return on_cpus(where, doing, fn, shares)

        monkeypatch.setattr(core, "_on_cpus", counted)
        if core._blas_threads() is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded: the folds train serially")
        assert repr(crossval_on(monkeypatch, cpus, panels, events)) == repr(serial)
        units = [p.unit_id for p in panels]
        assert shared == [[
            "training the folds that hold out " + ", ".join(map(repr, units[i::cpus]))
            for i in range(cpus)
        ]]

    def test_without_the_blas_symbol_the_folds_train_serially(self, monkeypatch):
        panels, events = crossval_cases()["odd"]
        serial = crossval_on(monkeypatch, 1, panels, events)
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: types.SimpleNamespace())
        assert core._blas_threads() is None

        def forking():
            raise AssertionError("forked without a handle on the BLAS thread count")

        monkeypatch.setattr(core.os, "fork", forking)
        assert repr(crossval_on(monkeypatch, 2, panels, events)) == repr(serial)

    def test_folds_run_on_one_blas_thread_and_the_count_is_restored(self, monkeypatch):
        threads = core._blas_threads()
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        get, set_ = threads
        panels, events = crossval_cases()["odd"]
        serial = crossval_on(monkeypatch, 1, panels, events)
        fold = evaluation._fold

        def one_thread(held, **kwargs):
            assert get() == 1, f"fold {held.unit_id} ran on {get()} BLAS threads"
            return fold(held, **kwargs)

        monkeypatch.setattr(evaluation, "_fold", one_thread)
        before = get()
        set_(3)
        try:
            assert repr(crossval_on(monkeypatch, 2, panels, events)) == repr(serial)
            assert get() == 3
        finally:
            set_(before)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failing_fold_raises_and_warnings_keep_the_serial_order(
        self, monkeypatch, cpus
    ):
        panels, events = crossval_cases()["odd"]
        units = [p.unit_id for p in panels]
        fold = evaluation._fold

        def noisy(held, **kwargs):
            warnings.warn("about the config")  # the same text every fold: shown once
            warnings.warn(f"about fold {held.unit_id}")
            if held.unit_id in units[3:]:
                raise ValueError(f"fold {held.unit_id} broke")
            return fold(held, **kwargs)

        monkeypatch.setattr(evaluation, "_fold", noisy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            with pytest.raises(ValueError, match=f"^fold {units[3]} broke$"):
                crossval_on(monkeypatch, cpus, panels, events)
        assert [str(w.message) for w in caught] == [
            "about the config", *(f"about fold {u}" for u in units[:4])
        ]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_filter_on_the_warning_module_applies(self, monkeypatch, cpus):
        panels, events = crossval_cases()["odd"]
        fold = evaluation._fold

        def noisy(held, **kwargs):
            warnings.warn("about the config")
            warnings.warn(f"about fold {held.unit_id}")
            return fold(held, **kwargs)

        monkeypatch.setattr(evaluation, "_fold", noisy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            warnings.filterwarnings("ignore", "about the config", module=re.escape(__name__))
            crossval_on(monkeypatch, cpus, panels, events)
        assert [str(w.message) for w in caught] == [f"about fold {p.unit_id}" for p in panels]
