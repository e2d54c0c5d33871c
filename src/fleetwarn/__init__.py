"""fleetwarn: mine early-warning precursors of rare failures from fleet telemetry."""
