"""End-to-end training pipeline shared by the CLI and cross-validation.

One call to :func:`train_model` performs: target-event selection, normal
regime masking, fleet-pooled z-score normalization, dependence grouping,
per-group subspace detectors with quantile thresholds, alarm binarization,
event matching, and the filtered combination search.  The fitted model can
then score any fleet (training or held-out) with :func:`pooled_on`.  Training holds
no copy of the fleet: the column stats and the dependence matrix read the normal rows
a block at a time, the fits gather their groups' columns a few groups at a time, and
scoring z-scores one panel at a time.
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
    NormalRows,
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
            raise ValueError(f"detect.rank must be >= 1, got {self.rank}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"detect.quantile must lie in (0, 1), got {self.quantile}")
        for key, q in self.quantile_overrides.items():
            if not 0.0 < q < 1.0:
                raise ValueError(f"detect.quantile_overrides.{key} must lie in (0, 1), got {q}")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}; expected one of {MEASURES}")
        if not self.rho > 0.0:  # NaN too
            raise ValueError(f"grouping.rho must be positive, got {self.rho}")
        for key in ("normal_before", "normal_after"):
            if getattr(self, key) < 0:
                raise ValueError(f"detect.{key} must be >= 0, got {getattr(self, key)}")
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


def normal_rows(panels: Sequence[TelemetryPanel], masks: Sequence[np.ndarray]) -> NormalRows:
    """The panels' masked (normal) rows as a row source z-scored with the column stats fitted
    on them, its ``stats``; neither stacks the rows."""
    return NormalRows(panels, masks, fit_column_stats(NormalRows(panels, masks)))


def fit_detectors(
    normal: NormalRows, groups: Sequence[tuple[str, ...]], rank: int
) -> list[SubspaceDetector]:
    """Each group's detector at rank min(``rank``, group size), fitted on its columns of the
    z-scored ``normal`` rows.  Consecutive groups are gathered together, about a quarter of
    the columns at a time: a gather of few columns costs more per cell, and one of all
    columns would copy the rows."""
    detectors: list[SubspaceDetector] = []
    batch: list[tuple[str, ...]] = []
    for i, group in enumerate(groups):
        batch.append(group)
        if 4 * sum(map(len, batch)) < len(normal.columns) and i + 1 < len(groups):
            continue
        rows = normal.gather([normal.columns.index(name) for g in batch for name in g])
        start = 0
        for g in batch:
            detectors.append(fit_subspace_from_rows(rows[:, start:start + len(g)], g,
                                                    min(rank, len(g))))
            start += len(g)
        batch = []
    return detectors


def score_panels(
    detectors: Sequence[SubspaceDetector], panels: Sequence[TelemetryPanel], stats: ColumnStats
) -> list[dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Each detector's scores on the panels, unit -> (flights, scores) in panel order: one
    :func:`score_reconstruction` call per whole panel (regrouping rows would move bits), and
    one z-scored panel alive at a time."""
    scores: list[dict[str, tuple[np.ndarray, np.ndarray]]] = [{} for _ in detectors]
    indices = [[stats.columns.index(name) for name in det.group] for det in detectors]
    for panel in panels:
        normalized = apply_column_stats(panel, stats)
        for det, idx, by_unit in zip(detectors, indices, scores):
            by_unit[panel.unit_id] = (
                panel.flights, score_reconstruction(det, normalized.take(idx, axis=1)))
        del normalized
    return scores


def fit_alarms(
    normal: NormalRows, groups: Sequence[tuple[str, ...]], rank: int, quantiles: Sequence[float],
    axis: FleetAxis,
) -> list[tuple[SubspaceDetector, AlarmSeries]]:
    """Each group's detector from :func:`fit_detectors`, thresholded at its quantile of its
    scores on the ``normal`` rows, and its alarm on ``axis``: those same scores of every
    flight of ``normal.panels``, z-scored with ``normal.stats``, binarized."""
    detectors = fit_detectors(normal, groups, rank)
    fitted = []
    for det, q, scores in zip(detectors, quantiles,
                              score_panels(detectors, normal.panels, normal.stats)):
        on_normal = [values[rows] for (_, values), rows in zip(scores.values(), normal.rows)]
        det = replace(det, quantile=q, threshold=fit_threshold(np.concatenate(on_normal), q))
        fitted.append((det, binarize(det, scores, axis)))
    return fitted


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
    if not any(m.any() for m in masks):
        raise ValueError(f"every flight lies fewer than {cfg.normal_before} flights before or "
                         f"{cfg.normal_after} after an event of its unit (detect.normal_before, "
                         "detect.normal_after): the normal regime is empty")
    normal = normal_rows(panels, masks)
    grouping = build_groups(dependence_from_rows(normal, cfg.measure), cfg.rho)
    quantiles = [cfg.quantile_overrides.get(group[0], cfg.quantile) for group in grouping.groups]
    fitted = fit_alarms(normal, grouping.groups, cfg.rank, quantiles, layout.axis)
    alarms = tuple(alarm for _, alarm in fitted)

    precursors = search_combinations(alarms, layout, cfg.search, target_code=cfg.code_prefix)
    # Warned after the search, so a failing search warns of nothing.  Its p-value ufunc loads
    # without a warnings filter (matching._stdtr), so the once-per-location registry holds.
    unused = sorted(set(cfg.quantile_overrides) - {group[0] for group in grouping.groups})
    if unused:
        noun, verb = ("key", "leads") if len(unused) == 1 else ("keys", "lead")
        keys = ", ".join(map(repr, unused))
        warnings.warn(f"detect.quantile_overrides {noun} {keys} {verb} no group; ignored")
    return TrainedModel(
        column_stats=normal.stats,
        grouping=grouping,
        detectors=tuple(det for det, _ in fitted),
        alarms=alarms,
        layout=layout,
        precursors=precursors,
    )


def pooled_on(model: TrainedModel, panels: Sequence[TelemetryPanel]) -> AlarmSeries:
    """The trained warning signal applied to (possibly unseen) panels, on their fleet axis."""
    axis = FleetAxis.from_ranges({p.unit_id: p.observation_range() for p in panels})
    scores = score_panels(model.detectors, panels, model.column_stats)
    alarms = {det.alarm_id: binarize(det, s, axis) for det, s in zip(model.detectors, scores)}
    combos = model.precursors.combinations
    return pool_or([compose_and([alarms[mid] for mid in c.members]) for c in combos], axis)
