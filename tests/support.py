"""Test-only helpers that the package itself never calls."""

from __future__ import annotations

import math

from fleetwarn.core import write_csv


def write_scores_csv(path, scores):
    """Write per-unit ``{flight: score}`` maps as the scores CSV the CLI reads.

    Scores are written with ``repr``, so NaN is the text ``nan``.
    """
    rows = (
        [unit, str(flight), repr(float(scores[unit][flight]))]
        for unit in sorted(scores)
        for flight in sorted(scores[unit])
    )
    write_csv(path, ["unit_id", "flight", "score"], rows)


def precision_at_recall(points, recall):
    """Best precision among curve points with recall >= the requested level."""
    eligible = [p.precision for p in points if not math.isnan(p.recall) and p.recall >= recall]
    if not eligible:
        raise ValueError(f"no curve point reaches recall {recall}")
    return max(eligible)
