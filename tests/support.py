"""Test-only helpers that the package itself never calls."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import fleetwarn
from fleetwarn.core import AlarmSeries, FleetAxis, write_csv
from fleetwarn.evaluation import Curve, CurvePoint

# The flight range of every unit of a test alarm built without an axis, so
# that alarms over the same units share one fleet axis, as one fleet's do.
WIDE_RANGE = (-(2**31), 2**31 - 1)


def alarm_series(alarm_id, firings, axis=None):
    """An ``AlarmSeries`` from per-unit flight sets.

    Without ``axis`` every unit named in ``firings`` spans ``WIDE_RANGE``.
    A unit missing from ``axis``, or a flight off its range, is refused.
    """
    if axis is None:
        axis = FleetAxis.from_ranges({unit: WIDE_RANGE for unit in firings})
    positions = []
    for unit, flights in firings.items():
        if unit not in axis.units:
            raise ValueError(f"unit {unit!r} is not on the axis")
        i = axis.units.index(unit)
        for t in set(flights):
            if not 0 <= t - axis.first[i] < axis.starts[i + 1] - axis.starts[i]:
                raise ValueError(f"flight {t} of unit {unit!r} is off the axis")
            positions.append(t + axis.shift(unit))
    return AlarmSeries(alarm_id, axis, np.array(sorted(positions), dtype=np.int64))


def firings(alarm):
    """Each unit of the alarm's axis mapped to the flights where the alarm fires."""
    unit, flight = alarm.axis.locate(alarm.positions)
    return {u: frozenset(flight[unit == i].tolist()) for i, u in enumerate(alarm.axis.units)}


def run_python(*args, timeout=300):
    """``python *args`` in a fresh interpreter that imports fleetwarn from this tree.

    Its stdout is a block-buffered pipe even where the caller's environment
    sets ``PYTHONUNBUFFERED``, so that a test sees output that a forked child
    would write twice.
    """
    src = str(Path(fleetwarn.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def curve_of(points):
    """A ``Curve`` holding ``points`` in order."""
    return Curve(**{
        f.name: np.array([getattr(p, f.name) for p in points],
                         dtype=np.float64 if f.type == "float" else np.int64)
        for f in fields(CurvePoint)
    })


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
