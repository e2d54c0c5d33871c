import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetwarn.core import (
    EventRecord,
    FleetAxis,
    MatchParams,
    NoTargetEventsError,
    TelemetryPanel,
    apply_column_stats,
)
from fleetwarn.detect import (
    fit_subspace_from_rows,
    fit_threshold,
    score_reconstruction,
    select_normal_regime,
)
from fleetwarn.pipeline import (
    PipelineConfig,
    elementary_alarms_on,
    fit_alarm,
    pooled_on,
    select_target_events,
    train_model,
)
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig, generate_fleet
from fleetwarn.synth import SearchConfig
from support import firings


def tiny_fleet():
    """Three units, a correlated pair (a, b) and a loner (c), mixed codes."""
    panels = []
    specs = {"u0": (150, 7), "u1": (150, 8), "u2": (80, 9)}
    for unit, (T, seed) in specs.items():
        rng = np.random.default_rng(seed)
        f = rng.normal(size=T)
        a = f + 0.05 * rng.normal(size=T)
        b = f + 0.05 * rng.normal(size=T)
        c = rng.normal(size=T)
        panels.append(
            TelemetryPanel(unit, np.arange(1, T + 1), ("a", "b", "c"), np.column_stack([a, b, c]))
        )
    events = [
        EventRecord("u0", 100, 101, "E100"),
        EventRecord("u1", 90, 91, "X200"),
        EventRecord("u2", 30, 31, "E100"),
        EventRecord("u2", 70, 71, "E100"),
    ]
    return panels, events


class TestTargetSelection:
    def test_prefix_filters(self):
        _, events = tiny_fleet()
        kept = select_target_events(events, "E")
        assert all(ev.code.startswith("E") for ev in kept)
        assert len(kept) == 3

    def test_empty_prefix_keeps_all(self):
        _, events = tiny_fleet()
        assert select_target_events(events, "") == events

    def test_no_match_raises(self):
        _, events = tiny_fleet()
        with pytest.raises(NoTargetEventsError, match="prefix"):
            select_target_events(events, "Z")


class TestNormalMasks:
    def test_saturated_unit_gets_empty_mask(self):
        panels, events = tiny_fleet()
        target = select_target_events(events, "E100")
        masks = [select_normal_regime(p, target, 50, 30) for p in panels]
        by_unit = dict(zip((p.unit_id for p in panels), masks))
        # u2's two events blanket its whole 80-flight record
        assert not by_unit["u2"].any()
        assert by_unit["u0"].any()
        assert by_unit["u1"].all()  # its only event is not a target


class TestConfigValidation:
    def test_rank_floor(self):
        with pytest.raises(ValueError):
            PipelineConfig(rank=0)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(quantile=1.0)

    def test_override_bounds(self):
        with pytest.raises(ValueError, match="override"):
            PipelineConfig(quantile_overrides={"a": 0.0})

    def test_negative_margins(self):
        with pytest.raises(ValueError):
            PipelineConfig(normal_before=-1)


TINY_CFG = PipelineConfig(
    match=MatchParams(window=20),
    rank=3,
    quantile=0.95,
    code_prefix="E",
)


@functools.lru_cache(maxsize=None)
def tiny_model():
    panels, events = tiny_fleet()
    return train_model(panels, events, TINY_CFG), tuple(panels), tuple(events)


class TestTrainOnTinyFleet:
    def test_grouping_found(self):
        model, _, _ = tiny_model()
        assert model.grouping.groups == (("a", "b"), ("c",))

    def test_rank_clamped_to_group_size(self):
        model, _, _ = tiny_model()
        by_group = {det.group: det for det in model.detectors}
        assert by_group[("a", "b")].rank == 2
        assert by_group[("c",)].rank == 1

    def test_full_rank_singleton_never_fires(self):
        model, _, _ = tiny_model()
        alarm = next(a for a in model.alarms if "[c]" in a.alarm_id)
        assert alarm.total_firings() == 0

    def test_thresholds_fitted(self):
        model, _, _ = tiny_model()
        for det in model.detectors:
            assert det.threshold is not None
            assert det.threshold >= 0.0

    def test_alarms_cover_all_units(self):
        model, _, _ = tiny_model()
        for alarm in model.alarms:
            assert alarm.axis.units == ("u0", "u1", "u2")

    def test_layout_holds_targets_only(self):
        model, _, _ = tiny_model()
        kept = [ev.code for evs in model.layout.events.values() for ev in evs]
        assert kept == ["E100"] * 3
        assert model.layout.events["u1"] == ()
        assert len(model.layout.events["u2"]) == 2

    def test_no_panels_rejected(self):
        _, events = tiny_fleet()
        with pytest.raises(ValueError, match="no panels"):
            train_model([], events, TINY_CFG)

    def test_wrong_prefix_raises(self):
        import dataclasses

        panels, events = tiny_fleet()
        cfg = dataclasses.replace(TINY_CFG, code_prefix="Z")
        with pytest.raises(NoTargetEventsError):
            train_model(panels, events, cfg)

    def test_quantile_override_by_smallest_member(self):
        import dataclasses

        panels, events = tiny_fleet()
        cfg = dataclasses.replace(TINY_CFG, quantile_overrides={"a": 0.5})
        model = train_model(panels, events, cfg)
        by_group = {det.group: det for det in model.detectors}
        assert by_group[("a", "b")].quantile == 0.5
        assert by_group[("c",)].quantile == 0.95
        # lower quantile, lower threshold
        base = tiny_model()[0]
        assert (
            by_group[("a", "b")].threshold
            < {d.group: d for d in base.detectors}[("a", "b")].threshold
        )


def test_thresholds_bit_equal_to_complete_row_reference():
    # outputs are compared byte for byte, so a threshold may not move by an ulp
    rng = np.random.default_rng(11)
    columns = tuple(f"p{j}" for j in range(12))
    for _ in range(40):
        data = rng.standard_normal((int(rng.integers(200, 3000)), 12))
        data = data @ rng.standard_normal((12, 12))
        data[rng.random(data.shape) < 0.02] = np.nan
        cols = sorted(rng.choice(12, int(rng.integers(2, 7)), replace=False).tolist())
        rows = data[:, cols]  # a column selection, as train_model passes it
        complete = rows[np.isfinite(rows).all(axis=1)]
        panel = TelemetryPanel("u", np.arange(1, len(data) + 1), columns, data)
        everything = np.ones(len(data), dtype=bool)
        for rank in range(1, len(cols) + 1):
            det, _ = fit_alarm(
                fit_subspace_from_rows(rows, tuple(f"p{c}" for c in cols), rank),
                [panel],
                [everything],
                0.99,
                FleetAxis.from_ranges({"u": panel.observation_range()}),
            )
            centered = complete - det.mean
            residual = centered - (centered @ det.basis) @ det.basis.T
            scores = np.einsum("ij,ij->i", residual, residual)
            assert det.threshold == fit_threshold(scores, 0.99)


@st.composite
def small_fleets(draw):
    """1-4 units over a few correlated columns, with NaN cells and one event each."""
    n_units = draw(st.integers(1, 4))
    n_cols = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nan_rate = draw(st.sampled_from([0.0, 0.02, 0.1]))
    columns = tuple(f"c{j}" for j in range(n_cols))
    mixing = rng.normal(size=(n_cols, n_cols)) * (rng.random((n_cols, n_cols)) < 0.5)
    panels, events = [], []
    for u in range(n_units):
        T = int(rng.integers(40, 120))
        values = rng.normal(size=(T, n_cols)) @ (np.eye(n_cols) + mixing)
        values[rng.random(values.shape) < nan_rate] = np.nan
        panels.append(TelemetryPanel(f"u{u}", np.arange(1, T + 1), columns, values))
        onset = int(rng.integers(15, T - 5))
        events.append(EventRecord(f"u{u}", onset, onset + 1, "E1"))
    cfg = PipelineConfig(
        match=MatchParams(window=5),
        rank=draw(st.integers(1, 3)),
        quantile=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99])),
        normal_before=5,
        normal_after=3,
        rho=0.5,
    )
    return panels, events, cfg


@settings(max_examples=60, deadline=None)
@given(small_fleets())
def test_alarms_fire_exactly_above_threshold_fitted_on_same_scores(fleet):
    panels, events, cfg = fleet
    model = train_model(panels, events, cfg)
    masks = [select_normal_regime(p, events, cfg.normal_before, cfg.normal_after) for p in panels]
    normalized = [apply_column_stats(p, model.column_stats) for p in panels]
    for det, alarm in zip(model.detectors, model.alarms):
        scores = [score_reconstruction(det, p) for p in normalized]
        normal = np.concatenate([s[m] for s, m in zip(scores, masks)])
        assert det.threshold == fit_threshold(normal, det.quantile)
        for panel, s, m in zip(normalized, scores, masks):
            fired = firings(alarm)[panel.unit_id]
            assert fired == frozenset(panel.flights[s > det.threshold].tolist())
            assert not fired & frozenset(panel.flights[m & (s == det.threshold)].tolist())
        finite = normal[np.isfinite(normal)]
        flagged = np.count_nonzero(finite > det.threshold)
        assert flagged / finite.size <= 1.0 - det.quantile + 1.0 / finite.size


SIM = SimConfig(
    units=5,
    flights_per_unit=300,
    groups=(GroupSpec(4, 0.9), GroupSpec(4, 0.9), GroupSpec(3, 0.9)),
    planted=(PlantedSpec((0, 1), 3, 6, 9.0),),
    event_rate=2.5,
    seed=15,
)

SIM_CFG = PipelineConfig(
    match=MatchParams(window=10),
    quantile=0.999,
    search=SearchConfig(filter_kind="soft", theta=1.0),
)


@functools.lru_cache(maxsize=None)
def sim_model():
    panels, events, _ = generate_fleet(SIM, verify=False)
    return train_model(panels, events, SIM_CFG), tuple(panels), tuple(events)


class TestTrainOnSimFleet:
    def test_planted_groups_recovered(self):
        model, _, _ = sim_model()
        assert model.grouping.groups == (
            ("g0p0", "g0p1", "g0p2", "g0p3"),
            ("g1p0", "g1p1", "g1p2", "g1p3"),
            ("g2p0", "g2p1", "g2p2"),
        )

    def test_planted_pair_ranked_first(self):
        model, _, _ = sim_model()
        planted_pair = (
            "pca[g0p0+g0p1+g0p2+g0p3]r1q0.999",
            "pca[g1p0+g1p1+g1p2+g1p3]r1q0.999",
        )
        assert model.precursors.combinations[0].members == planted_pair
        assert model.precursors.combinations[0].stats.false_firings == 0
        assert model.precursors.pooled_stats.coverage == 1.0

    def test_scoring_training_panels_reproduces_alarms(self):
        model, panels, _ = sim_model()
        rescored = elementary_alarms_on(model, list(panels), model.layout.axis)
        assert set(rescored) == {a.alarm_id for a in model.alarms}
        for alarm in model.alarms:
            assert rescored[alarm.alarm_id].axis == alarm.axis == model.layout.axis
            assert rescored[alarm.alarm_id].signature() == alarm.signature()

    def test_pooled_on_training_panels_reproduces_pool(self):
        model, panels, _ = sim_model()
        pooled = pooled_on(model, list(panels))
        assert pooled.alarm_id == "pooled"
        assert pooled.axis == model.precursors.pooled_alarm.axis == model.layout.axis
        assert pooled.signature() == model.precursors.pooled_alarm.signature()

    def test_pooled_on_unseen_fleet(self):
        import dataclasses

        model, _, _ = sim_model()
        new_panels, new_events, _ = generate_fleet(
            dataclasses.replace(SIM, seed=14), verify=False
        )
        pooled = pooled_on(model, new_panels)
        assert pooled.axis.units == tuple(sorted(p.unit_id for p in new_panels))
        for panel in new_panels:
            fires = firings(pooled)[panel.unit_id]
            assert all(1 <= t <= panel.n_flights for t in fires)


SIM_SMALL = SimConfig(
    units=4,
    flights_per_unit=200,
    groups=(GroupSpec(3, 0.9), GroupSpec(3, 0.9)),
    planted=(PlantedSpec((0, 1), 3, 6, 9.0),),
    event_rate=1.5,
    seed=3,
)


def test_override_key_leading_no_group_warns():
    import dataclasses

    panels, events, _ = generate_fleet(SIM_SMALL, verify=False)
    cfg = dataclasses.replace(SIM_CFG, quantile_overrides={"g0p1": 0.5})
    with pytest.warns(UserWarning, match=r"detect.quantile_overrides key 'g0p1' leads no group; ignored"):
        model = train_model(panels, events, cfg)
    assert model.grouping.groups == (("g0p0", "g0p1", "g0p2"), ("g1p0", "g1p1", "g1p2"))
    base = train_model(panels, events, SIM_CFG)
    assert [d.threshold for d in model.detectors] == [d.threshold for d in base.detectors]
    assert [d.quantile for d in model.detectors] == [SIM_CFG.quantile] * 2
