"""Minibatch samplers for large sparse matrices.

Two schemes: uniform draws over observed cells, and a two-stage scheme
that picks rows in proportion to how much data they carry, then columns
in proportion to their mass within the chosen rows, keeping every
observed cell of the induced submatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseExchangeableTensor

__all__ = [
    "DEFAULT_CELL_BUDGET",
    "SampleBatch",
    "uniform_subsample",
    "conditional_subsample",
    "row_marginal",
    "restricted_col_marginal",
    "budget_targets",
    "subset_tensor",
]

DEFAULT_CELL_BUDGET = 20_000


@dataclass(frozen=True)
class SampleBatch:
    """A duplicate-free subset of an observed index set."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[0] == 0:
            raise ValueError("a batch holds a non-empty (b, ndim) index array")
        order = np.lexsort(idx.T[::-1])
        idx = idx[order]
        if (np.diff(idx, axis=0) == 0).all(axis=1).any():
            raise ValueError("duplicate index in batch")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def uniform_subsample(
    t: SparseExchangeableTensor, batch_size: int, seed: int = 0
) -> SampleBatch:
    """Draw batch_size observed cells uniformly without replacement."""
    n = t.indices.shape[0]
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch size {batch_size} not in [1, {n}]")
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=batch_size, replace=False)
    return SampleBatch(t.indices[rows])


def row_marginal(t: SparseExchangeableTensor) -> np.ndarray:
    """Observation share of each row."""
    counts = np.bincount(t.indices[:, 0], minlength=t.dims[0])
    return counts / t.indices.shape[0]


def restricted_col_marginal(
    t: SparseExchangeableTensor, rows: np.ndarray
) -> np.ndarray:
    """Column marginal over only the cells whose row was selected."""
    keep = np.isin(t.indices[:, 0], rows)
    counts = np.bincount(
        t.indices[keep, 1], minlength=t.dims[1]
    ).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("no observations under the selected rows")
    return counts / total


def _sequential_weighted_draws(weights, k, rng):
    """k distinct draws, each from the renormalized remaining weights."""
    w = np.asarray(weights, dtype=np.float64).copy()
    out = np.empty(k, dtype=np.int64)
    for j in range(k):
        total = w.sum()
        if total <= 0:
            raise ValueError(
                f"degenerate marginal: only {j} of {k} draws have support"
            )
        out[j] = rng.choice(w.size, p=w / total)
        w[out[j]] = 0.0
    return out


def conditional_subsample(
    t: SparseExchangeableTensor,
    target_rows: int,
    target_cols: int,
    seed: int = 0,
) -> SampleBatch:
    """Row-then-column subsampling that keeps the whole induced submatrix.

    Rows come from sequential weighted draws proportional to each row's
    observation count; columns from the renormalized marginal restricted
    to the drawn rows.  The batch is every observed cell whose row and
    column were both selected.
    """
    if t.ndim != 2:
        raise ValueError("conditional subsampling is defined for matrices")
    n_rows, n_cols = t.dims
    if not 1 <= target_rows <= n_rows:
        raise ValueError(f"target rows {target_rows} not in [1, {n_rows}]")
    if not 1 <= target_cols <= n_cols:
        raise ValueError(f"target cols {target_cols} not in [1, {n_cols}]")
    rng = np.random.default_rng(seed)
    picked_rows = _sequential_weighted_draws(row_marginal(t), target_rows, rng)
    col_weights = restricted_col_marginal(t, picked_rows)
    picked_cols = _sequential_weighted_draws(col_weights, target_cols, rng)
    keep = np.isin(t.indices[:, 0], picked_rows) & np.isin(
        t.indices[:, 1], picked_cols
    )
    return SampleBatch(t.indices[keep])


def budget_targets(
    t: SparseExchangeableTensor, cell_budget: int = DEFAULT_CELL_BUDGET
) -> tuple[int, int]:
    """Row/column targets whose induced batch is near the cell budget.

    Shrinks both axes by the same fraction, so expected cells scale as
    the squared fraction of the observed count.
    """
    n_obs = t.indices.shape[0]
    frac = min(1.0, math.sqrt(cell_budget / n_obs))
    rows = min(t.dims[0], max(1, math.ceil(frac * t.dims[0])))
    cols = min(t.dims[1], max(1, math.ceil(frac * t.dims[1])))
    return rows, cols


def subset_tensor(
    t: SparseExchangeableTensor, batch: SampleBatch
) -> SparseExchangeableTensor:
    """Restrict a tensor to a batch's cells; dims are kept whole."""
    pos = t.find(batch.indices)
    if (pos < 0).any():
        raise ValueError("batch contains an unobserved index")
    return SparseExchangeableTensor(
        t.dims, np.take(t.indices, pos, axis=0), np.take(t.values, pos, axis=0)
    )
