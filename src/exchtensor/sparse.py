"""Sparse exchangeable arrays and their index bookkeeping.

A sparse exchangeable array is a D-dimensional array in which only some
cells are observed, and each observed cell carries a fixed-length channel
vector.  The meaning of the array is unchanged by permuting the labels
along any axis, which is why everything downstream (pooling, layers,
verification) is phrased in terms of the observed index set rather than a
dense grid.

This module provides the array type itself, grouping of observed cells by
coordinates (the substrate for pooling), application of per-axis
permutations, and dense conversion for the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseExchangeableTensor",
    "AxisGroups",
    "PermutationSpec",
    "build_sparse",
    "axis_groups",
    "apply_permutation",
    "to_dense",
    "from_dense",
    "DENSE_CELL_CAP",
]

# to_dense is a verifier-only path; refuse to materialize anything larger.
DENSE_CELL_CAP = 10**6


def _lex_order(indices: np.ndarray) -> np.ndarray:
    """Row order that sorts index tuples lexicographically."""
    return np.lexsort(indices.T[::-1])


@dataclass(frozen=True)
class SparseExchangeableTensor:
    """A D-dimensional sparse array of observed cells with K channels.

    ``indices`` is an (n_obs, D) int array of 0-based coordinates, kept in
    lexicographic order so that two tensors with the same content compare
    equal.  ``values`` is (n_obs, K): every observed cell is either fully
    observed across channels or absent entirely.
    """

    dims: tuple[int, ...]
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        idx = np.asarray(self.indices, dtype=np.int64)
        vals = np.asarray(self.values)
        if idx.ndim != 2 or idx.shape[1] != len(dims):
            raise ValueError(f"indices must be (n, {len(dims)}), got {idx.shape}")
        if idx.shape[0] == 0:
            raise ValueError("tensor must contain at least one observed cell")
        if vals.ndim != 2 or vals.shape[0] != idx.shape[0]:
            raise ValueError(
                f"values must be (n, K) aligned with indices, got {vals.shape}"
            )
        if idx.min() < 0 or (idx >= np.asarray(dims)).any():
            bad = idx[((idx < 0) | (idx >= np.asarray(dims))).any(axis=1)][0]
            raise ValueError(f"index {tuple(bad)} out of bounds for dims {dims}")
        order = _lex_order(idx)
        idx = idx[order]
        vals = vals[order]
        dup = (np.diff(idx, axis=0) == 0).all(axis=1)
        if dup.any():
            where = int(np.flatnonzero(dup)[0])
            raise ValueError(f"duplicate index {tuple(idx[where])}")
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n_observed(self) -> int:
        return self.indices.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "SparseExchangeableTensor":
        """Same index set, new channel values (no re-sorting needed)."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] != self.n_observed:
            raise ValueError(
                f"values must be ({self.n_observed}, K), got {values.shape}"
            )
        t = object.__new__(SparseExchangeableTensor)
        object.__setattr__(t, "dims", self.dims)
        object.__setattr__(t, "indices", self.indices)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(t, "values", values)
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseExchangeableTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.values.shape == other.values.shape
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def allclose(self, other: "SparseExchangeableTensor", tol: float = 0.0) -> bool:
        return (
            self.dims == other.dims
            and np.array_equal(self.indices, other.indices)
            and self.values.shape == other.values.shape
            and np.allclose(self.values, other.values, rtol=0.0, atol=tol)
        )

    def __repr__(self) -> str:
        return (
            f"SparseExchangeableTensor(dims={self.dims}, "
            f"n_observed={self.n_observed}, channels={self.channels})"
        )


def build_sparse(
    dims: Sequence[int],
    entries: Iterable[tuple[Sequence[int], Sequence[float]]],
    dtype=np.float64,
) -> SparseExchangeableTensor:
    """Construct a tensor from (index-tuple, channel-vector) entries.

    Rejects duplicate indices, out-of-range indices, and ragged channel
    vectors.  The result is in canonical (lexicographic) index order.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("entries must be non-empty")
    widths = {len(v) for _, v in entries}
    if len(widths) != 1:
        raise ValueError(f"ragged channel vectors: lengths {sorted(widths)}")
    indices = np.array([tuple(i) for i, _ in entries], dtype=np.int64)
    values = np.array([list(v) for _, v in entries], dtype=dtype)
    if values.shape[1] == 0:
        raise ValueError("channel vectors must be non-empty")
    return SparseExchangeableTensor(tuple(dims), indices, values)


@dataclass(frozen=True)
class AxisGroups:
    """Observed cells grouped by their coordinates on a set of fixed axes.

    Generalizes the per-row set R_n = {m | (n, m) observed} and per-column
    set C_m: fixing the row axis groups cells by row, fixing nothing pools
    everything into one group.  The groups partition the observed set.

    ``group_of`` maps each cell position (row of the owning tensor's
    ``indices``) to its group id; ``sizes`` are group cardinalities.
    ``sum_matrix`` is the (n_groups, n_obs) 0/1 CSR operator whose row g
    selects group g's members, so ``sum_matrix @ x`` gives every group's
    sum at once.  It serves both pooling (the group sums of the cell
    values) and the gradient of broadcasting (the group sums of the cell
    gradients).  Its rows list each group's members in ascending order.

    ``group_sums`` and ``group_means`` accumulate in float64 whatever the
    operand's dtype and return the operand's floating dtype (float64 for
    integer operands): the global group of a large matrix sums ~10^5
    cells, which float32 accumulation would get wrong in the fourth digit.
    """

    fixed_axes: tuple[int, ...]
    keys: np.ndarray       # (n_groups, len(fixed_axes)) coordinates per group
    group_of: np.ndarray   # (n_obs,) group id per cell position
    sizes: np.ndarray      # (n_groups,)
    sum_matrix: sp.csr_array  # (n_groups, n_obs) float64 0/1 group-sum operator

    @property
    def n_groups(self) -> int:
        return self.sizes.shape[0]

    @property
    def n_members(self) -> int:
        return self.group_of.shape[0]

    def group_sums(self, x: np.ndarray) -> np.ndarray:
        """(n_obs, K) -> (n_groups, K) per-group sums, float64-accumulated."""
        sums = self.sum_matrix @ x
        return sums.astype(np.result_type(x, np.float32), copy=False)

    def group_means(self, x: np.ndarray) -> np.ndarray:
        """(n_obs, K) -> (n_groups, K) per-group means, float64-accumulated."""
        means = self.sum_matrix @ x / self.sizes[:, None]
        return means.astype(np.result_type(x, np.float32), copy=False)

    def members(self) -> dict[tuple[int, ...], np.ndarray]:
        """Group key -> array of member cell positions (canonical order)."""
        m = self.sum_matrix
        return {
            tuple(self.keys[g]): m.indices[m.indptr[g] : m.indptr[g + 1]].copy()
            for g in range(self.n_groups)
        }


def axis_groups(
    t: SparseExchangeableTensor, fixed_axes: Iterable[int]
) -> AxisGroups:
    """Group observed cells by their coordinates on ``fixed_axes``.

    ``fixed_axes`` empty yields a single group of all observed cells;
    fixing every axis yields singleton groups.
    """
    fixed = tuple(sorted(set(int(a) for a in fixed_axes)))
    if any(a < 0 or a >= t.ndim for a in fixed):
        raise ValueError(f"fixed_axes {fixed} out of range for ndim {t.ndim}")
    n = t.n_observed
    if fixed:
        sub = t.indices[:, fixed]
        sub_dims = tuple(t.dims[a] for a in fixed)
        flat = np.ravel_multi_index(tuple(sub.T), sub_dims)
        uniq, group_of = np.unique(flat, return_inverse=True)
        keys = np.stack(np.unravel_index(uniq, sub_dims), axis=1)
    else:
        group_of = np.zeros(n, dtype=np.int64)
        keys = np.zeros((1, 0), dtype=np.int64)
    group_of = group_of.astype(np.int64)
    sizes = np.bincount(group_of, minlength=keys.shape[0]).astype(np.int64)
    # members of each group in ascending cell position: a CSR row layout
    order = np.argsort(group_of, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    sum_matrix = sp.csr_array(
        (np.ones(n), order, indptr), shape=(keys.shape[0], n)
    )
    return AxisGroups(
        fixed_axes=fixed,
        keys=keys.astype(np.int64),
        group_of=group_of,
        sizes=sizes,
        sum_matrix=sum_matrix,
    )


@dataclass(frozen=True)
class PermutationSpec:
    """One permutation per axis: an element of S_{N1} x ... x S_{ND}.

    ``maps[i]`` sends coordinate v on axis i to ``maps[i][v]``.
    """

    maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        maps = tuple(np.asarray(m, dtype=np.int64) for m in self.maps)
        for i, m in enumerate(maps):
            if m.ndim != 1 or not np.array_equal(np.sort(m), np.arange(m.shape[0])):
                raise ValueError(f"axis {i} map is not a bijection")
        object.__setattr__(self, "maps", maps)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.maps)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "PermutationSpec":
        return cls(tuple(np.arange(d) for d in dims))

    @classmethod
    def random(cls, dims: Sequence[int], rng: np.random.Generator) -> "PermutationSpec":
        return cls(tuple(rng.permutation(d) for d in dims))

    def inverse(self) -> "PermutationSpec":
        return PermutationSpec(tuple(np.argsort(m) for m in self.maps))

    def compose(self, other: "PermutationSpec") -> "PermutationSpec":
        """Per-axis composition self after other: (self∘other)(v) = self(other(v))."""
        if self.dims != other.dims:
            raise ValueError(f"axis sizes differ: {self.dims} vs {other.dims}")
        return PermutationSpec(tuple(s[o] for s, o in zip(self.maps, other.maps)))

    def flatten(self) -> np.ndarray:
        """The induced permutation of flat cell ids (row-major convention)."""
        dims = self.dims
        grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
        coords = [self.maps[i][g].ravel() for i, g in enumerate(grids)]
        return np.ravel_multi_index(tuple(coords), dims)


def apply_permutation(
    t: SparseExchangeableTensor, p: PermutationSpec
) -> SparseExchangeableTensor:
    """Relabel coordinates axis-by-axis, carrying values along.

    The observed-cell multiset of channel vectors is unchanged; the result
    is re-canonicalized.
    """
    if p.dims != t.dims:
        raise ValueError(f"permutation dims {p.dims} do not match tensor {t.dims}")
    new_idx = np.column_stack([p.maps[a][t.indices[:, a]] for a in range(t.ndim)])
    return SparseExchangeableTensor(t.dims, new_idx, t.values)


def to_dense(
    t: SparseExchangeableTensor, cell_cap: int = DENSE_CELL_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize as a dense (dims..., K) array plus observation mask.

    Small instances only: refuses when the cell count exceeds ``cell_cap``.
    """
    total = int(np.prod(t.dims))
    if total > cell_cap:
        raise ValueError(
            f"{total} cells exceed the dense conversion cap of {cell_cap}"
        )
    dense = np.zeros(t.dims + (t.channels,), dtype=t.values.dtype)
    mask = np.zeros(t.dims, dtype=bool)
    slot = tuple(t.indices.T)
    dense[slot] = t.values
    mask[slot] = True
    return dense, mask


def from_dense(arr: np.ndarray, mask: np.ndarray | None = None) -> SparseExchangeableTensor:
    """Inverse of :func:`to_dense`; ``mask`` defaults to fully observed."""
    arr = np.asarray(arr)
    if arr.ndim < 2:
        raise ValueError("dense array must have at least one axis plus channels")
    dims = arr.shape[:-1]
    if mask is None:
        mask = np.ones(dims, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != dims:
        raise ValueError(f"mask shape {mask.shape} does not match dims {dims}")
    idx = np.argwhere(mask)
    if idx.shape[0] == 0:
        raise ValueError("mask selects no observed cells")
    values = arr[tuple(idx.T)]
    return SparseExchangeableTensor(dims, idx, values)
