"""Per-group anomaly detectors: low-rank reconstruction error + quantile alarm.

A detector models one parameter group's normal regime as an affine low-rank
subspace (mean + top principal directions).  The diagnostic score of a flight
is the squared Euclidean distance between its group vector and the subspace;
the alarm fires when the score exceeds an empirical quantile of the training
scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from fleetwarn.core import AlarmSeries, EventRecord, FleetAxis, TelemetryPanel, write_json


class InsufficientNormalDataError(ValueError):
    """Too few complete training rows to fit the requested rank."""


@dataclass(frozen=True)
class SubspaceDetector:
    """Affine low-rank model of a parameter group's normal regime.

    ``basis`` is d x r with orthonormal columns (top principal directions of
    the training covariance).  ``threshold`` stays None until a quantile is
    fitted; ``quantile`` records which q produced it.
    """

    group: tuple[str, ...]
    mean: np.ndarray
    basis: np.ndarray
    rank: int
    quantile: float
    threshold: float | None = None

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        basis = np.array(self.basis, dtype=np.float64, copy=True)
        d = len(self.group)
        if mean.shape != (d,):
            raise ValueError("mean length does not match group size")
        if basis.shape != (d, self.rank):
            raise ValueError("basis must be d x rank")
        if not 1 <= self.rank <= d:
            raise ValueError("rank must be in [1, group size]")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        if self.threshold is not None and self.threshold < 0.0:
            raise ValueError("threshold must be >= 0")
        gram_err = np.abs(basis.T @ basis - np.eye(self.rank)).max()
        if gram_err > 1e-9:
            raise ValueError(f"basis columns not orthonormal (err {gram_err:.3e})")
        mean.setflags(write=False)
        basis.setflags(write=False)
        object.__setattr__(self, "group", tuple(self.group))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def alarm_id(self) -> str:
        return f"pca[{'+'.join(self.group)}]r{self.rank}q{self.quantile!r}"


def select_normal_regime(
    panel: TelemetryPanel,
    events: Sequence[EventRecord],
    before: int,
    after: int,
) -> np.ndarray:
    """Boolean mask of flights far from every event of this unit.

    A flight t qualifies when, for every event [onset, end) of the unit,
    t <= onset - before or t >= end + after.  Units with no event keep all
    flights; a unit whose every flight is near an event keeps none.
    """
    if before < 0 or after < 0:
        raise ValueError("before and after must be >= 0")
    mask = np.ones(panel.n_flights, dtype=bool)
    for ev in events:
        if ev.unit_id != panel.unit_id:
            continue
        excluded = (panel.flights > ev.onset - before) & (panel.flights < ev.end + after)
        mask &= ~excluded
    return mask


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry positive; ties resolved by the first such index.
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _order_eigens(eigvals: np.ndarray, eigvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending with sign-fixed vectors.

    Runs of near-degenerate eigenvalues (adjacent gap < 1e-10) are ordered
    lexicographically by vector entries so the basis is reproducible even
    when the eigensolver's order within the run is arbitrary.
    """
    order = np.argsort(eigvals, kind="stable")[::-1]
    vals = eigvals[order]
    vecs = [_fix_sign(eigvecs[:, j]) for j in order]
    out_vals: list[float] = []
    out_vecs: list[np.ndarray] = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j - 1] - vals[j] < 1e-10:
            j += 1
        block = sorted(range(i, j), key=lambda k: tuple(vecs[k]))
        out_vals.extend(vals[k] for k in block)
        out_vecs.extend(vecs[k] for k in block)
        i = j
    return np.array(out_vals), np.column_stack(out_vecs)


def fit_subspace_from_rows(rows: np.ndarray, group: Sequence[str], rank: int) -> SubspaceDetector:
    """Fit on an N x d matrix of group rows; rows with any NaN are dropped."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(group):
        raise ValueError("rows must be N x group size")
    complete = rows[np.isfinite(rows).all(axis=1)]
    if complete.shape[0] < rank + 1:
        raise InsufficientNormalDataError(
            f"insufficient normal data: {complete.shape[0]} complete rows "
            f"for rank {rank} on group {tuple(group)}"
        )
    mean = complete.mean(axis=0)
    centered = complete - mean
    cov = (centered.T @ centered) / complete.shape[0]  # population (1/N)
    eigvals, eigvecs = np.linalg.eigh(cov)
    scale = max(float(np.abs(eigvals).max()), 1.0)
    residual = np.abs(cov @ eigvecs - eigvecs * eigvals).max() / scale
    if residual > 1e-8:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} exceeds 1e-8")
    _, ordered = _order_eigens(eigvals, eigvecs)
    basis = ordered[:, :rank]
    return SubspaceDetector(
        group=tuple(group), mean=mean, basis=basis, rank=rank, quantile=0.95
    )


def squared_distance(det: SubspaceDetector, rows: np.ndarray) -> np.ndarray:
    """Each row's squared distance to the subspace; NaN on incomplete rows.

    Exact zeros at the training mean and (up to rounding) everywhere when
    rank equals the group size.
    """
    with np.errstate(invalid="ignore"):  # infinite cells give NaN, masked below
        centered = rows - det.mean
        residual = centered - (centered @ det.basis) @ det.basis.T
        scores = np.einsum("ij,ij->i", residual, residual)
    scores[~np.isfinite(rows).all(axis=1)] = np.nan
    return scores


def score_reconstruction(det: SubspaceDetector, panel: TelemetryPanel) -> np.ndarray:
    """:func:`squared_distance` of the panel's group columns, aligned with flights."""
    return squared_distance(det, panel.subvalues(det.group))


def fit_threshold(scores: np.ndarray, q: float) -> float:
    """Nearest-rank empirical quantile: the ceil(q*N)-th order statistic.

    Missing scores are ignored; all-missing input is an error.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    clean = np.sort(scores[np.isfinite(scores)])
    n = clean.size
    if n == 0:
        raise ValueError("no non-missing training scores")
    # tiny slack guards against float drift in q*n for exact-integer products
    k = min(n, max(1, math.ceil(q * n - 1e-12)))
    return float(clean[k - 1])


def binarize(
    det: SubspaceDetector, scores: Mapping[str, tuple[np.ndarray, np.ndarray]], axis: FleetAxis
) -> AlarmSeries:
    """Alarm on ``axis`` that fires where a score strictly exceeds the threshold.

    ``scores`` maps unit -> (flights, scores), two aligned arrays as
    :func:`score_reconstruction` gives them for a panel, with the flights
    inside the unit's range on the axis; missing (NaN) never fires.
    """
    if det.threshold is None:
        raise ValueError("threshold not set; call fit_threshold first")
    positions = [np.empty(0, dtype=np.int64)] + [
        np.asarray(flights)[np.asarray(values) > det.threshold] + axis.shift(unit)
        for unit, (flights, values) in sorted(scores.items())
    ]
    return AlarmSeries(det.alarm_id, axis, np.concatenate(positions))


def write_detector_json(path: str | Path, det: SubspaceDetector) -> None:
    write_json(path, {
        "group": list(det.group),
        "mean": det.mean.tolist(),
        "basis": det.basis.tolist(),
        "rank": det.rank,
        "q": det.quantile,
        "threshold": det.threshold,
    })
