import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import normal_regime_reference
from support import firings
from fleetwarn.core import EventRecord, FleetAxis, TelemetryPanel
from fleetwarn.detect import (
    InsufficientNormalDataError,
    SubspaceDetector,
    binarize,
    fit_subspace_from_rows,
    fit_threshold,
    score_reconstruction,
    select_normal_regime,
    squared_distance,
    write_detector_json,
)


def read_detector_json(path):
    """Parse a detector JSON back into a SubspaceDetector (the CLI only writes it)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return SubspaceDetector(
        group=tuple(payload["group"]),
        mean=np.array(payload["mean"], dtype=np.float64),
        basis=np.array(payload["basis"], dtype=np.float64),
        rank=int(payload["rank"]),
        quantile=float(payload["q"]),
        threshold=payload["threshold"],
    )


def panel_of(values, columns, unit="u", start=1):
    values = np.asarray(values, dtype=float)
    flights = np.arange(start, start + len(values))
    return TelemetryPanel(unit, flights, tuple(columns), values)


class TestNormalRegime:
    def test_no_events_keeps_everything(self):
        panel = panel_of(np.zeros((100, 1)), ("x",))
        mask = select_normal_regime(panel, [], 50, 30)
        assert mask.all()

    def test_single_event_window(self):
        panel = panel_of(np.zeros((120, 1)), ("x",))
        mask = select_normal_regime(panel, [EventRecord("u", 60, 61, "X")], 50, 30)
        kept = set(panel.flights[mask].tolist())
        assert kept == set(range(1, 11)) | set(range(91, 121))

    def test_other_units_events_ignored(self):
        panel = panel_of(np.zeros((10, 1)), ("x",))
        mask = select_normal_regime(panel, [EventRecord("v", 5, 6, "X")], 50, 30)
        assert mask.all()

    def test_two_events_intersection(self):
        panel = panel_of(np.zeros((200, 1)), ("x",))
        events = [EventRecord("u", 60, 61, "X"), EventRecord("u", 130, 132, "X")]
        mask = select_normal_regime(panel, events, 50, 30)
        for t, ok in zip(panel.flights, mask):
            expect = all(t <= ev.onset - 50 or t >= ev.end + 30 for ev in events)
            assert ok == expect

    def test_empty_regime_is_all_false(self):
        panel = panel_of(np.zeros((40, 1)), ("x",))
        mask = select_normal_regime(panel, [EventRecord("u", 20, 21, "X")], 50, 30)
        assert mask.shape == (40,) and not mask.any()


def regime_panel(flights):
    return TelemetryPanel("u", flights, ("x",), np.zeros((len(flights), 1)))


@st.composite
def regime_inputs(draw):
    """A panel of unit ``u`` whose flights have gaps, events on ``u`` and on
    ``v``, and exclusion spans from 0 to past the whole record."""
    panel = regime_panel(sorted(draw(st.sets(st.integers(-20, 60), max_size=30))))
    events = [
        EventRecord(unit, onset, onset + draw(st.integers(1, 4)), "X")
        for unit, onset in draw(
            st.lists(st.tuples(st.sampled_from("uv"), st.integers(-30, 70)), max_size=4)
        )
    ]
    return panel, events, draw(st.integers(0, 90)), draw(st.integers(0, 90))


@settings(max_examples=300, deadline=None)
@given(regime_inputs())
@example((regime_panel([1, 2, 5, 9]), [EventRecord("u", 5, 6, "X")], 0, 0))
@example((regime_panel([1, 4, 30]), [EventRecord("v", 4, 5, "X"), EventRecord("u", 29, 31, "X")],
          0, 0))
@example((regime_panel([3, 7, 8, 20]), [EventRecord("u", 10, 11, "X")], 50, 30))  # all False
def test_normal_regime_equals_reference(inputs):
    panel, events, before, after = inputs
    mask = select_normal_regime(panel, events, before, after)
    assert mask.dtype == bool
    assert np.array_equal(mask, normal_regime_reference(panel, events, before, after))


class TestFitSubspace:
    def test_line_y_equals_x(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=200)
        rows = np.column_stack([t, t])
        det = fit_subspace_from_rows(rows, ("a", "b"), rank=1)
        assert np.allclose(np.abs(det.basis[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-9)
        assert det.basis[:, 0].max() > 0  # sign convention

    def test_axis_aligned(self):
        rng = np.random.default_rng(2)
        rows = np.column_stack([2.0 * rng.normal(size=500), rng.normal(size=500)])
        det = fit_subspace_from_rows(rows, ("a", "b"), rank=1)
        assert abs(det.basis[0, 0]) > 0.99
        assert det.basis[0, 0] > 0

    def test_mean_error_equals_trailing_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rows = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
            eigvals = np.linalg.eigvalsh(np.cov(rows.T, bias=True))[::-1]
            for rank in (1, 2, 3, 4):
                det = fit_subspace_from_rows(rows, tuple("abcde"), rank)
                panel = panel_of(rows, tuple("abcde"))
                mean_err = float(np.mean(score_reconstruction(det, panel)))
                expect = float(eigvals[rank:].sum())
                assert mean_err == pytest.approx(expect, rel=1e-6)

    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(100, 4))
        det = fit_subspace_from_rows(rows, tuple("abcd"), rank=4)
        scores = score_reconstruction(det, panel_of(rows, tuple("abcd")))
        assert np.max(scores) <= 1e-9

    def test_rank_monotonicity(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(200, 5)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5])
        panel = panel_of(rows, tuple("abcde"))
        means = [
            float(np.mean(score_reconstruction(fit_subspace_from_rows(rows, tuple("abcde"), r), panel)))
            for r in range(1, 6)
        ]
        assert all(means[i + 1] <= means[i] + 1e-12 for i in range(4))

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(150, 5))
        det = fit_subspace_from_rows(rows, tuple("abcde"), rank=3)
        gram = det.basis.T @ det.basis
        assert np.abs(gram - np.eye(3)).max() <= 1e-9

    def test_missing_rows_dropped_for_fit(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(50, 2))
        dirty = rows.copy()
        dirty[10, 0] = np.nan
        det_clean = fit_subspace_from_rows(np.delete(rows, 10, axis=0), ("a", "b"), 1)
        det_dirty = fit_subspace_from_rows(dirty, ("a", "b"), 1)
        assert np.allclose(det_clean.basis, det_dirty.basis)
        assert np.allclose(det_clean.mean, det_dirty.mean)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientNormalDataError, match="insufficient normal data"):
            fit_subspace_from_rows(np.zeros((2, 3)), ("a", "b", "c"), rank=2)

    def test_deterministic_fit(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(100, 5))
        a = fit_subspace_from_rows(rows, tuple("abcde"), 2)
        b = fit_subspace_from_rows(rows.copy(), tuple("abcde"), 2)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.mean, b.mean)


class TestScore:
    def fitted_line_detector(self):
        t = np.linspace(-3, 3, 101)  # symmetric: mean exactly 0
        return fit_subspace_from_rows(np.column_stack([t, t]), ("a", "b"), 1)

    def test_zero_at_mean(self):
        det = self.fitted_line_detector()
        panel = panel_of([det.mean], ("a", "b"))
        assert score_reconstruction(det, panel)[0] == pytest.approx(0.0, abs=1e-18)

    def test_orthogonal_point(self):
        det = self.fitted_line_detector()
        panel = panel_of([[1.0, -1.0]], ("a", "b"))
        assert score_reconstruction(det, panel)[0] == pytest.approx(2.0, abs=1e-12)

    def test_missing_propagates(self):
        det = self.fitted_line_detector()
        panel = panel_of([[1.0, np.nan], [1.0, 1.0]], ("a", "b"))
        scores = score_reconstruction(det, panel)
        assert math.isnan(scores[0])
        assert scores[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_helper_behind_panel_scores(self):
        det = self.fitted_line_detector()
        rows = np.array([[1.0, -1.0], [np.nan, 2.0], [3.0, np.inf], [2.0, 2.0]])
        scores = squared_distance(det, rows)
        assert scores[0] == pytest.approx(2.0, abs=1e-12)
        assert np.isnan(scores[1:3]).all()
        assert scores[3] == pytest.approx(0.0, abs=1e-12)
        # the panel entry point picks the group's columns by name
        panel = panel_of(rows[:, ::-1], ("b", "a"))
        assert np.array_equal(score_reconstruction(det, panel), scores, equal_nan=True)

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(80, 3))
        det = fit_subspace_from_rows(rows, ("a", "b", "c"), 2)
        scores = score_reconstruction(det, panel_of(rng.normal(size=(40, 3)), ("a", "b", "c")))
        assert (scores >= 0).all()

    def test_panel_scores_bit_equal_to_row_major_reference(self):
        # thresholds and alarms read the same scores, so the panel path may not
        # round differently from contiguous rows
        rng = np.random.default_rng(11)
        columns = tuple(f"p{j}" for j in range(12))
        for _ in range(40):
            data = rng.standard_normal((int(rng.integers(200, 3000)), 12))
            data = data @ rng.standard_normal((12, 12))
            data[rng.random(data.shape) < 0.02] = np.nan
            cols = sorted(rng.choice(12, int(rng.integers(2, 7)), replace=False).tolist())
            rows = np.ascontiguousarray(data[:, cols])
            rank = int(rng.integers(1, len(cols) + 1))
            det = fit_subspace_from_rows(rows, [columns[c] for c in cols], rank)
            got = score_reconstruction(det, panel_of(data, columns))
            assert got.tobytes() == squared_distance(det, rows).tobytes()


class TestThreshold:
    def test_nearest_rank_95(self):
        scores = np.arange(1.0, 101.0)
        assert fit_threshold(scores, 0.95) == 95.0

    def test_nearest_rank_99(self):
        scores = np.arange(1.0, 101.0)
        assert fit_threshold(scores, 0.99) == 99.0

    def test_single_score(self):
        assert fit_threshold(np.array([3.25]), 0.5) == 3.25

    def test_order_independent(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=57)
        assert fit_threshold(scores, 0.9) == fit_threshold(np.sort(scores)[::-1], 0.9)

    def test_all_missing_errors(self):
        with pytest.raises(ValueError):
            fit_threshold(np.array([np.nan, np.nan]), 0.9)

    def test_quantile_contract(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 400))
            scores = rng.normal(size=n)
            for q in (0.90, 0.95, 0.99):
                thr = fit_threshold(scores, q)
                frac = float(np.mean(scores > thr))
                assert frac <= 1 - q + 1 / n + 1e-12


# one unit observed on flights 1-3
AXIS = FleetAxis.from_ranges({"u": (1, 3)})


class TestBinarize:
    def detector(self, threshold):
        det = SubspaceDetector(
            group=("a", "b"),
            mean=np.zeros(2),
            basis=np.array([[1.0], [0.0]]),
            rank=1,
            quantile=0.95,
        )
        return replace(det, threshold=float(threshold))

    def test_strictly_above_fires(self):
        det = self.detector(1.0)
        alarm = binarize(det, {"u": (np.array([1, 2, 3]), np.array([0.1, 5.0, 0.2]))}, AXIS)
        assert firings(alarm)["u"] == frozenset({2})

    def test_at_threshold_does_not_fire(self):
        det = self.detector(1.0)
        alarm = binarize(det, {"u": (np.array([1]), np.array([1.0]))}, AXIS)
        assert firings(alarm)["u"] == frozenset()

    def test_missing_never_fires(self):
        det = self.detector(0.5)
        alarm = binarize(det, {"u": (np.array([1, 2]), np.array([np.nan, 2.0]))}, AXIS)
        assert firings(alarm)["u"] == frozenset({2})

    def test_threshold_required(self):
        det = SubspaceDetector(
            group=("a",), mean=np.zeros(1), basis=np.ones((1, 1)), rank=1, quantile=0.9
        )
        with pytest.raises(ValueError, match="threshold"):
            binarize(det, {"u": (np.array([1]), np.array([1.0]))}, AXIS)

    def test_alarm_id_records_group_rank_quantile(self):
        det = self.detector(1.0)
        assert det.alarm_id == "pca[a+b]r1q0.95"


class TestDetectorJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(60, 3))
        det = replace(fit_subspace_from_rows(rows, ("a", "b", "c"), 2), threshold=1.5)
        path = tmp_path / "det.json"
        write_detector_json(path, det)
        back = read_detector_json(path)
        assert back.group == det.group
        assert back.rank == det.rank
        assert back.quantile == det.quantile
        assert back.threshold == det.threshold
        assert np.array_equal(back.mean, det.mean)
        assert np.array_equal(back.basis, det.basis)
