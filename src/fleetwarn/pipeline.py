"""End-to-end training pipeline shared by the CLI and cross-validation.

One call to :func:`train_model` performs: target-event selection, normal
regime masking, fleet-pooled z-score normalization, dependence grouping,
per-group subspace detectors with quantile thresholds, alarm binarization,
event matching, and the filtered combination search.  The fitted model can
then score any fleet (training or held-out) with :func:`pooled_on`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from fleetwarn.core import (
    AlarmSeries,
    ColumnStats,
    EventRecord,
    FleetAxis,
    MatchParams,
    NoTargetEventsError,
    TelemetryPanel,
    apply_column_stats,
    fit_column_stats,
)
from fleetwarn.detect import (
    SubspaceDetector,
    binarize,
    fit_subspace_from_rows,
    fit_threshold,
    score_reconstruction,
    select_normal_regime,
)
from fleetwarn.grouping import MEASURES, ParameterGrouping, build_groups, dependence_from_rows
from fleetwarn.matching import PeriodLayout, layout_periods
from fleetwarn.synth import PrecursorSet, SearchConfig, compose_and, pool_or, search_combinations


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs beyond the data itself.

    ``quantile_overrides`` maps a group's smallest member name to the
    quantile used for that group instead of the default; a key that leads
    no group is ignored with a warning.
    """

    match: MatchParams = MatchParams()
    rank: int = 1
    quantile: float = 0.95
    quantile_overrides: Mapping[str, float] = field(default_factory=dict)
    normal_before: int = 50
    normal_after: int = 30
    measure: str = "pearson"
    rho: float = 0.7
    search: SearchConfig = SearchConfig()
    code_prefix: str = ""

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        for key, q in self.quantile_overrides.items():
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile override for {key!r} must lie in (0, 1)")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}; expected one of {MEASURES}")
        if not self.rho > 0.0:  # NaN too
            raise ValueError("rho must be positive")
        if self.normal_before < 0 or self.normal_after < 0:
            raise ValueError("normal_before and normal_after must be >= 0")
        object.__setattr__(self, "quantile_overrides", dict(self.quantile_overrides))


@dataclass(frozen=True)
class TrainedModel:
    """Everything fitted on a training fleet, ready to score new panels."""

    column_stats: ColumnStats
    grouping: ParameterGrouping
    detectors: tuple[SubspaceDetector, ...]
    alarms: tuple[AlarmSeries, ...]
    layout: PeriodLayout
    precursors: PrecursorSet


def select_target_events(
    events: Sequence[EventRecord], code_prefix: str
) -> list[EventRecord]:
    """Events whose code starts with the prefix (empty prefix keeps all)."""
    kept = [ev for ev in events if ev.code.startswith(code_prefix)]
    if not kept:
        raise NoTargetEventsError(
            f"no events match code prefix {code_prefix!r}"
        )
    return kept


def _scores(
    det: SubspaceDetector, panels: Sequence[TelemetryPanel]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {p.unit_id: (p.flights, score_reconstruction(det, p)) for p in panels}


def fit_alarm(
    det: SubspaceDetector,
    panels: Sequence[TelemetryPanel],
    masks: Sequence[np.ndarray],
    q: float,
    axis: FleetAxis,
) -> tuple[SubspaceDetector, AlarmSeries]:
    """Threshold ``det`` at the q-quantile of its scores on the masked (normal)
    flights, and binarize those same scores into its alarm on the panels' ``axis``."""
    scores = _scores(det, panels)
    normal = np.concatenate([scores[p.unit_id][1][m] for p, m in zip(panels, masks)])
    det = replace(det, quantile=q, threshold=fit_threshold(normal, q))
    return det, binarize(det, scores, axis)


def train_model(
    panels: Sequence[TelemetryPanel],
    events: Sequence[EventRecord],
    cfg: PipelineConfig,
) -> TrainedModel:
    """Fit the whole warning pipeline on the given fleet.

    Raises :class:`NoTargetEventsError` when no event matches the target
    prefix, and ValueError when the fleet axis is too long for the event
    layout (before any mask or fit) or the fleet has no normal-regime rows.
    """
    if not panels:
        raise ValueError("no panels")
    panels = sorted(panels, key=lambda p: p.unit_id)
    target_events = select_target_events(events, cfg.code_prefix)
    ranges = {p.unit_id: p.observation_range() for p in panels}
    layout = layout_periods(target_events, cfg.match, ranges)

    masks = [select_normal_regime(p, target_events, cfg.normal_before, cfg.normal_after)
             for p in panels]
    stats = fit_column_stats(list(panels), masks)
    normalized = [apply_column_stats(p, stats) for p in panels]
    normal_rows = np.vstack([p.values[m] for p, m in zip(normalized, masks)])

    dep = dependence_from_rows(normal_rows, panels[0].columns, cfg.measure)
    grouping = build_groups(dep, cfg.rho)

    col_index = {name: i for i, name in enumerate(panels[0].columns)}
    detectors, alarms = [], []
    for group in grouping.groups:
        rows = normal_rows[:, [col_index[n] for n in group]]
        det = fit_subspace_from_rows(rows, group, min(cfg.rank, len(group)))
        q = cfg.quantile_overrides.get(group[0], cfg.quantile)
        det, alarm = fit_alarm(det, normalized, masks, q, layout.axis)
        detectors.append(det)
        alarms.append(alarm)

    precursors = search_combinations(alarms, layout, cfg.search, target_code=cfg.code_prefix)
    # Warned after the search, whose first p-value imports scipy.special: that resets the
    # once-per-location warning registry, so an earlier warning repeats in the next fold.
    unused = sorted(set(cfg.quantile_overrides) - {group[0] for group in grouping.groups})
    if unused:
        noun, verb = ("key", "leads") if len(unused) == 1 else ("keys", "lead")
        keys = ", ".join(map(repr, unused))
        warnings.warn(f"detect.quantile_overrides {noun} {keys} {verb} no group; ignored")
    return TrainedModel(
        column_stats=stats,
        grouping=grouping,
        detectors=tuple(detectors),
        alarms=tuple(alarms),
        layout=layout,
        precursors=precursors,
    )


def elementary_alarms_on(
    model: TrainedModel, panels: Sequence[TelemetryPanel], axis: FleetAxis
) -> dict[str, AlarmSeries]:
    """Score new panels with the fitted detectors and thresholds, on the panels' ``axis``."""
    normalized = [apply_column_stats(p, model.column_stats) for p in panels]
    return {det.alarm_id: binarize(det, _scores(det, normalized), axis) for det in model.detectors}


def pooled_on(model: TrainedModel, panels: Sequence[TelemetryPanel]) -> AlarmSeries:
    """The trained warning signal applied to (possibly unseen) panels, on their fleet axis."""
    axis = FleetAxis.from_ranges({p.unit_id: p.observation_range() for p in panels})
    alarms = elementary_alarms_on(model, panels, axis)
    combos = model.precursors.combinations
    return pool_or([compose_and([alarms[mid] for mid in c.members]) for c in combos], axis)
