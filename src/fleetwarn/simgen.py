"""Synthetic fleet with planted precursor structure and a ground-truth manifest.

Each parameter group follows a one-factor Gaussian model: member j of a group
with within-correlation c is sqrt(c)*F_t + sqrt(1-c)*e_jt, giving unit
marginal variance and pairwise correlation exactly c.  Failure events are
placed with a minimum onset spacing; ahead of each event every planted
precursor group receives an additive deviation along (e1 - e2)/sqrt(2) -- a
unit direction orthogonal to the factor, so the group's rank-1 reconstruction
error responds by the squared magnitude while single-parameter levels move
only by magnitude/sqrt(2).

All randomness flows from one seed through per-unit spawned generators; the
draw order is fixed (group values, then event count, then placement, then
per-event leads), so output is byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fleetwarn.core import (
    EventRecord,
    FleetAxis,
    TelemetryPanel,
    apply_column_stats,
    fit_column_stats,
)
from fleetwarn.detect import fit_subspace_from_rows, select_normal_regime
from fleetwarn.pipeline import fit_alarm


@dataclass(frozen=True)
class GroupSpec:
    size: int
    correlation: float

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("group size must be >= 2")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("within-group correlation must lie in [0, 1)")


@dataclass(frozen=True)
class PlantedSpec:
    """A precursor pattern: which groups deviate, how early, how strongly."""

    groups: tuple[int, ...]
    lead_lo: int
    lead_hi: int
    magnitude: float

    def __post_init__(self) -> None:
        if not 2 <= len(self.groups) <= 3:
            raise ValueError("planted precursor must span 2 or 3 groups")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError("planted group ids must be distinct")
        if not 1 <= self.lead_lo <= self.lead_hi:
            raise ValueError("lead range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.magnitude < math.inf:
            raise ValueError(f"sim.planted magnitude must be finite and >= 0, got {self.magnitude}")
        object.__setattr__(self, "groups", tuple(self.groups))


@dataclass(frozen=True)
class SimConfig:
    units: int = 16
    flights_per_unit: int = 500
    groups: tuple[GroupSpec, ...] = tuple(GroupSpec(5, 0.9) for _ in range(8))
    planted: tuple[PlantedSpec, ...] = (PlantedSpec((0, 1), 5, 15, 6.0),)
    event_rate: float = 1.5
    seed: int = 0
    event_code: str = "E100"

    def __post_init__(self) -> None:
        if self.units < 1 or self.flights_per_unit < 1:
            raise ValueError("units and flights_per_unit must be >= 1")
        if not self.groups:
            raise ValueError("need at least one group")
        if not 0.0 <= self.event_rate < math.inf:
            raise ValueError(f"sim.event_rate must be finite and >= 0, got {self.event_rate}")
        if self.seed < 0:
            raise ValueError(f"sim.seed must be >= 0, got {self.seed}")
        for spec in self.planted:
            for g in spec.groups:
                if not 0 <= g < len(self.groups):
                    raise ValueError(f"planted group id {g} out of range")
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "planted", tuple(self.planted))

    def group_columns(self) -> list[list[str]]:
        return [
            [f"g{g}p{k}" for k in range(spec.size)]
            for g, spec in enumerate(self.groups)
        ]

    def all_columns(self) -> tuple[str, ...]:
        return tuple(name for cols in self.group_columns() for name in cols)

    def max_lead(self) -> int:
        return max((spec.lead_hi for spec in self.planted), default=0)

    def min_spacing(self) -> int:
        return 2 * (self.max_lead() + 10)


def _place_onsets(rng: np.random.Generator, n: int, lo: int, hi: int, spacing: int) -> list[int]:
    """n onsets uniform over [lo, hi] with pairwise spacing >= spacing."""
    if n == 0:
        return []
    slack = hi - lo - (n - 1) * spacing
    if slack < 0:
        raise ValueError(
            f"cannot fit {n} events with spacing {spacing} in onsets [{lo}, {hi}]"
        )
    offsets = np.sort(rng.uniform(0.0, 1.0, size=n))
    return [
        lo + i * spacing + min(int(offsets[i] * (slack + 1)), slack)
        for i in range(n)
    ]


def generate_fleet(
    cfg: SimConfig, verify: bool = True
) -> tuple[list[TelemetryPanel], list[EventRecord], dict]:
    """Generate panels, events, and the ground-truth manifest.

    With ``verify`` the manifest additionally records whether every planted
    anomaly flight's rank-1 group reconstruction score (normalized fleet,
    normal-regime fit) exceeds the 95% training quantile.
    """
    columns = cfg.all_columns()
    group_cols = cfg.group_columns()
    T = cfg.flights_per_unit
    onset_lo = cfg.max_lead() + 1
    if onset_lo > T and cfg.event_rate > 0:
        raise ValueError("timeline too short for the planted lead range")

    root = np.random.SeedSequence(cfg.seed)
    unit_seeds = root.spawn(cfg.units)

    panels: list[TelemetryPanel] = []
    events: list[EventRecord] = []
    anomalies: list[dict] = []
    for u in range(cfg.units):
        unit_id = f"unit{u:03d}"
        rng = np.random.default_rng(unit_seeds[u])
        values = np.empty((T, len(columns)), dtype=np.float64)
        col = 0
        for spec in cfg.groups:
            factor = rng.standard_normal(T)
            noise = rng.standard_normal((T, spec.size))
            c = spec.correlation
            values[:, col : col + spec.size] = (
                math.sqrt(c) * factor[:, None] + math.sqrt(1.0 - c) * noise
            )
            col += spec.size
        n_events = int(rng.poisson(cfg.event_rate))
        onsets = _place_onsets(rng, n_events, onset_lo, T, cfg.min_spacing())
        for onset in onsets:
            events.append(EventRecord(unit_id, onset, onset + 1, cfg.event_code))
            for spec_idx, spec in enumerate(cfg.planted):
                lead = int(rng.integers(spec.lead_lo, spec.lead_hi + 1))
                flight = onset - lead
                for g in spec.groups:
                    j0 = columns.index(group_cols[g][0])
                    j1 = columns.index(group_cols[g][1])
                    shift = spec.magnitude / math.sqrt(2.0)
                    values[flight - 1, j0] += shift
                    values[flight - 1, j1] -= shift
                anomalies.append(
                    {
                        "unit": unit_id,
                        "event_onset": onset,
                        "spec": spec_idx,
                        "lead": lead,
                        "flight": flight,
                    }
                )
        panels.append(
            TelemetryPanel(
                unit_id=unit_id,
                flights=np.arange(1, T + 1),
                columns=columns,
                values=values,
                phases=("cruise",) * T,
            )
        )

    manifest = {
        "seed": cfg.seed,
        "units": cfg.units,
        "flights_per_unit": T,
        "event_code": cfg.event_code,
        "groups": [
            {"columns": group_cols[g], "correlation": cfg.groups[g].correlation}
            for g in range(len(cfg.groups))
        ],
        "planted": [
            {
                "groups": [group_cols[g] for g in spec.groups],
                "lead_range": [spec.lead_lo, spec.lead_hi],
                "magnitude": spec.magnitude,
            }
            for spec in cfg.planted
        ],
        "events": [
            {"unit": ev.unit_id, "onset": ev.onset, "end": ev.end, "code": ev.code}
            for ev in events
        ],
        "anomalies": anomalies,
    }
    if verify:
        manifest["verified_q95"] = _anomalies_exceed_q95(cfg, panels, events, anomalies)
    return panels, events, manifest


def _anomalies_exceed_q95(
    cfg: SimConfig,
    panels: Sequence[TelemetryPanel],
    events: Sequence[EventRecord],
    anomalies: Sequence[dict],
) -> bool:
    """Self-check: every planted flight fires in the rank-1 alarm of each of
    its groups, fitted with :func:`fit_alarm` at the 0.95 quantile on the
    fleet's normal regime.

    With nothing planted it holds without a fit.  A planted fleet with no
    flight at least 50 flights ahead of and 30 flights past every event of
    its unit has no normal regime to fit on: a ValueError.
    """
    q, before, after = 0.95, 50, 30
    planted_groups = sorted({g for spec in cfg.planted for g in spec.groups})
    if not planted_groups:
        return True
    masks = [select_normal_regime(p, events, before, after) for p in panels]
    if not any(m.any() for m in masks):
        raise ValueError(
            f"cannot verify the planted precursors: every flight lies fewer than {before} "
            f"flights before or {after} after an event of its unit, so no flight is left "
            f"in the normal regime the check fits on"
        )
    stats = fit_column_stats(list(panels), masks)
    normalized = [apply_column_stats(p, stats) for p in panels]
    axis = FleetAxis.from_ranges({p.unit_id: p.observation_range() for p in panels})
    group_cols = cfg.group_columns()
    for g in planted_groups:
        cols = group_cols[g]
        rows = np.vstack([p.subvalues(cols)[m] for p, m in zip(normalized, masks)])
        _, alarm = fit_alarm(fit_subspace_from_rows(rows, cols, rank=1), normalized, masks, q, axis)
        fired = alarm.firings
        for anom in anomalies:
            if g in cfg.planted[anom["spec"]].groups and anom["flight"] not in fired[anom["unit"]]:
                return False
    return True

