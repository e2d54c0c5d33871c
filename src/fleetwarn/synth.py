"""Combine elementary alarms into the final early-warning signal.

Candidate combinations (AND of 1-3 alarms) are enumerated from the alarms
that pass the significance gate, graded by match statistics, filtered either
hard (zero false firings) or soft (bounded false-to-covered ratio), and the
survivors are pooled by OR into one warning signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fleetwarn.core import AlarmSeries, FleetAxis, write_json
from fleetwarn.matching import (
    MatchStats,
    PeriodLayout,
    gate_ttest,
    hard_filter,
    match_stats,
    soft_filter,
    stats_to_jsonable,
)

FILTER_KINDS = ("hard", "soft")


@dataclass(frozen=True)
class SearchConfig:
    """Gate and filter settings for the combination search."""

    alpha: float = 0.05
    filter_kind: str = "hard"
    theta: float = 2.0
    max_size: int = 2

    def __post_init__(self) -> None:
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(f"filter.kind must be one of {FILTER_KINDS}, got {self.filter_kind!r}")
        if self.max_size not in (2, 3):
            raise ValueError(f"filter.max_size must be 2 or 3, got {self.max_size}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"filter.alpha must lie in (0, 1], got {self.alpha}")
        if not self.theta >= 0:
            raise ValueError(f"filter.theta must be >= 0, got {self.theta}")
        if self.filter_kind == "hard" and self.theta % 1:
            raise ValueError(f"filter.theta must be a whole number of events, got {self.theta}")


@dataclass(frozen=True)
class Combination:
    """A surviving AND-combination with its training statistics."""

    members: tuple[str, ...]
    alarm: AlarmSeries
    stats: MatchStats
    provenance: str  # which filter admitted it: "hard" | "soft"


@dataclass(frozen=True)
class PrecursorSet:
    """Filter survivors plus their OR-pooled warning signal."""

    target_code: str
    combinations: tuple[Combination, ...]
    pooled_alarm: AlarmSeries
    pooled_stats: MatchStats


def compose_and(alarms: Sequence[AlarmSeries]) -> AlarmSeries:
    """Intersection of 1-3 member alarms on one fleet axis."""
    if not 1 <= len(alarms) <= 3:
        raise ValueError("compose_and takes 1 to 3 member alarms")
    positions = alarms[0].positions
    for alarm in alarms[1:]:
        if alarm.axis != alarms[0].axis:
            raise ValueError("member alarms disagree on the unit universe")
        # the positions of the shorter array that the longer one holds too
        short, long = sorted((positions, alarm.positions), key=len)
        positions = short[long.take(long.searchsorted(short), mode="clip") == short]
    member_ids = sorted(a.alarm_id for a in alarms)
    return AlarmSeries("&".join(member_ids), alarms[0].axis, positions)


def pool_or(alarms: Iterable[AlarmSeries], axis: FleetAxis) -> AlarmSeries:
    """OR-pool of the combinations' composed alarms on ``axis``; an empty pool never fires."""
    alarms = list(alarms)
    if any(a.axis != axis for a in alarms):
        raise ValueError("pooled alarms disagree on the unit universe")
    positions = np.unique(np.concatenate([a.positions for a in alarms] or [np.empty(0, np.int64)]))
    return AlarmSeries("pooled", axis, positions)


def _passes(stats: MatchStats, cfg: SearchConfig) -> bool:
    if not gate_ttest(stats, cfg.alpha):
        return False
    if cfg.filter_kind == "hard":
        return hard_filter(stats, cfg.theta)
    return soft_filter(stats, cfg.theta)


def search_combinations(
    pool: Sequence[AlarmSeries],
    layout: PeriodLayout,
    cfg: SearchConfig,
    target_code: str = "",
) -> PrecursorSet:
    """Enumerate, gate, filter, deduplicate, rank, and pool combinations.

    Only alarms that individually pass the significance gate enter the
    enumeration; every candidate combination is then re-gated and must pass
    the configured filter.  Duplicates (identical composed firing sets) keep
    the smallest member set, ties broken lexicographically.  Survivors are
    ranked by false_to_covered ascending, coverage descending, then id.
    An empty survivor list is a valid result with a never-firing pool.
    """
    if not pool:
        raise ValueError("empty alarm pool")
    if layout.total_window_events() < 1:
        raise ValueError("layout has no target events")
    ordered = sorted(pool, key=lambda a: a.alarm_id)
    if len({a.alarm_id for a in ordered}) != len(ordered):
        raise ValueError("duplicate alarm ids in pool")

    gated = [alarm for alarm in ordered if gate_ttest(match_stats(alarm, layout), cfg.alpha)]

    candidates: list[tuple[AlarmSeries, ...]] = []
    for size in range(1, cfg.max_size + 1):
        candidates.extend(combinations(gated, size))

    survivors: list[Combination] = []
    for members in candidates:
        composed = compose_and(members)
        stats = match_stats(composed, layout)
        if _passes(stats, cfg):
            survivors.append(
                Combination(
                    members=tuple(sorted(a.alarm_id for a in members)),
                    alarm=composed,
                    stats=stats,
                    provenance=cfg.filter_kind,
                )
            )

    by_signature: dict[tuple, Combination] = {}
    for combo in survivors:
        key = combo.alarm.signature()
        held = by_signature.get(key)
        if held is None or (len(combo.members), combo.members) < (len(held.members), held.members):
            by_signature[key] = combo
    unique = sorted(
        by_signature.values(),
        key=lambda c: (c.stats.false_to_covered, -c.stats.coverage, c.alarm.alarm_id),
    )

    pooled = pool_or((c.alarm for c in unique), layout.axis)
    return PrecursorSet(
        target_code=target_code,
        combinations=tuple(unique),
        pooled_alarm=pooled,
        pooled_stats=match_stats(pooled, layout),
    )


def precursors_to_jsonable(pset: PrecursorSet) -> dict:
    return {
        "target_code": pset.target_code,
        "combinations": [
            {
                "members": list(c.members),
                "provenance": c.provenance,
                "stats": stats_to_jsonable(c.stats),
            }
            for c in pset.combinations
        ],
        "pooled": {
            "alarm_id": pset.pooled_alarm.alarm_id,
            "stats": stats_to_jsonable(pset.pooled_stats),
        },
    }


def write_precursors_json(path: str | Path, pset: PrecursorSet) -> None:
    write_json(path, precursors_to_jsonable(pset))
