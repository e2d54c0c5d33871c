"""fleetwarn: mine early-warning precursors of rare failures from fleet telemetry."""

from fleetwarn.core import (
    AlarmSeries,
    ColumnStats,
    EventRecord,
    FiringKind,
    FiringLabel,
    FleetAxis,
    MatchParams,
    TelemetryPanel,
    apply_column_stats,
    fit_column_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmSeries",
    "ColumnStats",
    "EventRecord",
    "FiringKind",
    "FiringLabel",
    "FleetAxis",
    "MatchParams",
    "TelemetryPanel",
    "apply_column_stats",
    "fit_column_stats",
    "__version__",
]
