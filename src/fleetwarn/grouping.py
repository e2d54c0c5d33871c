"""Split the parameter set into dependence groups.

Parameters that move together (high absolute correlation or high mutual
information) are modelled jointly; unrelated ones are kept apart so that a
deviation in one group cannot be masked by variance in another.  Groups are
the connected components of the graph whose edges join parameter pairs with
dependence at or above a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fleetwarn.core import ROW_BLOCK, NormalRows, own_fields, write_json

MEASURES = ("pearson", "mutual_info")


@dataclass(frozen=True)
class DependenceMatrix:
    """Symmetric pairwise dependence over named parameters.

    Pearson values lie in [-1, 1] with unit diagonal; mutual information is
    nonnegative (nats) with each parameter's own entropy on the diagonal.
    NaN marks a pair with too little overlapping data to compute.
    """

    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        own_fields(self, columns=tuple, values=np.float64)
        values = self.values
        if values.shape != (len(self.columns), len(self.columns)):
            raise ValueError("dependence matrix shape does not match columns")
        with np.errstate(invalid="ignore"):
            asym = np.abs(values - values.T)
        if np.any(asym[np.isfinite(asym)] > 1e-12):
            raise ValueError("dependence matrix must be symmetric")


@dataclass(frozen=True)
class ParameterGrouping:
    """Disjoint parameter-name groups plus the threshold that produced them."""

    groups: tuple[tuple[str, ...], ...]
    rho: float

    def __post_init__(self) -> None:
        flat = [name for group in self.groups for name in group]
        if len(set(flat)) != len(flat):
            raise ValueError("groups must be disjoint")
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))


# A pair whose shifted sums cancel to below this share of the sum of squares
# has lost more than two decimal digits of its variance; it is recomputed
# from its complete rows.
_CANCELLATION = 1e-2


def _complete_pair(rows: NormalRows, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns i and j on the rows where both are finite."""
    x, y = rows.gather([i, j]).T
    both = np.isfinite(x) & np.isfinite(y)
    return x[both], y[both]


def _pair_pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Two-pass Pearson of two fully observed samples (NaN if not computable)."""
    dx = x - x[0]
    dy = y - y[0]
    dx -= dx.mean()
    dy -= dy.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx <= 0.0 or syy <= 0.0:
        return float("nan")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def _pearson_matrix(rows: NormalRows) -> np.ndarray:
    """Signed Pearson correlation, pairwise-complete over missing entries.

    Pairs with fewer than two complete rows, or a constant column on the
    complete rows, are not computable and get NaN.

    All pairs come from four Gram products of the finite mask ``M`` and the
    shifted values ``X0`` (NaN -> 0): ``n = M'M``, ``Sx = X0'M``,
    ``Sxx = (X0*X0)'M`` and ``Sxy = X0'X0``, summed over the row blocks into
    reused block buffers, so temporaries stay at ``ROW_BLOCK`` x P floats.
    Each column is shifted by its first finite value (Chan, Golub & LeVeque
    1983), which keeps the sums on the scale of the spread and makes a
    constant column exactly zero.
    """
    n_cols = len(rows.columns)
    shift = np.full(n_cols, np.nan)  # finite once found
    for block in rows.blocks():
        todo = np.flatnonzero(np.isnan(shift))
        finite = np.isfinite(block[:, todo])
        found = finite.any(axis=0)
        shift[todo[found]] = block[np.argmax(finite, axis=0)[found], todo[found]]
        if found.all():
            break
    shift[np.isnan(shift)] = 0.0
    n, sx, sxx, sxy = (np.zeros((n_cols, n_cols)) for _ in range(4))
    finite = np.empty((ROW_BLOCK, n_cols), dtype=bool)
    m, x0, x0_sq = (np.empty((ROW_BLOCK, n_cols)) for _ in range(3))
    for block in rows.blocks():
        k = block.shape[0]
        mask, mk, xk, qk = finite[:k], m[:k], x0[:k], x0_sq[:k]
        np.isfinite(block, out=mask)
        np.copyto(mk, mask)
        np.subtract(block, shift, out=xk)
        xk[~mask] = 0.0
        np.multiply(xk, xk, out=qk)
        n += mk.T @ mk
        sx += xk.T @ mk
        sxx += qk.T @ mk
        sxy += xk.T @ xk
    # [i, j] holds column i's sums over the rows complete for (i, j).
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = sxy - sx * sx.T / n
        var = sxx - sx * sx / n
        r = cov / np.sqrt(var * var.T)
    computable = (n >= 2) & (var > 0.0) & (var.T > 0.0)
    out = np.triu(np.where(computable, r, np.nan), 1)
    cancelled = (n >= 2) & ((var < _CANCELLATION * sxx) | (var.T < _CANCELLATION * sxx.T))
    for i, j in zip(*np.nonzero(np.triu(cancelled, 1))):
        out[i, j] = _pair_pearson(*_complete_pair(rows, i, j))
    out += out.T
    np.fill_diagonal(out, 1.0)
    return out


def _equal_frequency_bins(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign each value a bin index by rank so bins hold ~equal counts."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[order] = np.arange(x.size)
    return (ranks * n_bins) // x.size


def _bin_count(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 1 else 1  # ceil(sqrt(n))


def _entropy(x: np.ndarray) -> float:
    n = x.size
    if n < 2:
        return float("nan")
    bins = _equal_frequency_bins(x, _bin_count(n))
    counts = np.bincount(bins).astype(np.float64)
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)))


def _mutual_info_matrix(rows: NormalRows) -> np.ndarray:
    """Plug-in mutual information (nats) on equal-frequency binned values.

    Bins per variable: ceil(sqrt(N)) over the pair's complete rows.  The
    diagonal holds each column's own entropy under the same binning.  Each
    pair gathers its two columns, so no more than two are held at a time.
    """
    n_cols = len(rows.columns)
    out = np.full((n_cols, n_cols), np.nan)
    for i in range(n_cols):
        xi = rows.gather([i])[:, 0]
        out[i, i] = _entropy(xi[np.isfinite(xi)])
        for j in range(i + 1, n_cols):
            x, y = _complete_pair(rows, i, j)
            n = x.size
            if n < 2:
                continue
            n_bins = _bin_count(n)
            bi = _equal_frequency_bins(x, n_bins)
            bj = _equal_frequency_bins(y, n_bins)
            joint = np.zeros((n_bins, n_bins))
            np.add.at(joint, (bi, bj), 1.0)
            joint /= n
            pi = joint.sum(axis=1)
            pj = joint.sum(axis=0)
            nz = joint > 0
            mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pi, pj)[nz])))
            out[i, j] = out[j, i] = max(mi, 0.0)
    return out


def dependence_from_rows(rows: NormalRows, measure: str = "pearson") -> DependenceMatrix:
    """Dependence over the columns of the rows of a row source."""
    if rows.n_rows < 2:
        raise ValueError("need at least 2 rows to estimate dependence")
    if measure == "pearson":
        values = _pearson_matrix(rows)
    elif measure == "mutual_info":
        values = _mutual_info_matrix(rows)
    else:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    return DependenceMatrix(columns=rows.columns, values=values)


def build_groups(dep: DependenceMatrix, rho: float = 0.7) -> ParameterGrouping:
    """Connected components of the thresholded dependence graph.

    Edge (i, j) exists iff |dep[i, j]| >= rho; missing entries are
    non-edges.  Members are listed sorted within each group and groups are
    ordered by their smallest member name.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    with np.errstate(invalid="ignore"):
        adjacency = np.abs(dep.values) >= rho  # NaN compares False
    adjacency |= adjacency.T
    # Breadth-first by frontiers; each node is expanded once, O(P^2) in all.
    labels = np.full(len(dep.columns), -1)
    for start in range(labels.size):
        if labels[start] >= 0:
            continue
        frontier = np.array([start])
        while frontier.size:
            labels[frontier] = start
            frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & (labels < 0))
    names = np.array(dep.columns, dtype=object)
    groups = sorted(tuple(sorted(names[labels == k])) for k in np.unique(labels))
    return ParameterGrouping(groups=tuple(groups), rho=rho)


def write_groups_json(path: str | Path, grouping: ParameterGrouping, measure: str) -> None:
    write_json(path, {
        "measure": measure,
        "rho": grouping.rho,
        "groups": [list(g) for g in grouping.groups],
    })
