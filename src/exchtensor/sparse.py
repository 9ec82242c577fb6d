"""Sparse exchangeable arrays and their index bookkeeping.

A sparse exchangeable array is a D-dimensional array in which only some
cells are observed, and each observed cell carries a fixed-length channel
vector.  The meaning of the array is unchanged by permuting the labels
along any axis, which is why everything downstream (pooling, layers,
verification) is phrased in terms of the observed index set rather than a
dense grid.

This module provides the array type itself, grouping of observed cells by
coordinates (the substrate for pooling), and application of per-axis
permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseExchangeableTensor",
    "AxisGroups",
    "PermutationSpec",
    "axis_groups",
    "apply_permutation",
]


def _flat_keys(idx: np.ndarray, dims: tuple[int, ...], what: str) -> np.ndarray:
    """Row-major flat keys of (n, D) ``idx``; the first row outside
    ``dims`` raises ``ValueError`` naming it and the dims."""
    try:
        return np.ravel_multi_index(tuple(idx.T), dims)
    except ValueError:
        out = ((idx < 0) | (idx >= np.asarray(dims))).any(axis=1)
        if not out.any():
            raise
        bad = tuple(int(v) for v in idx[out][0])
        raise ValueError(f"{what} {bad} out of bounds for dims {dims}") from None


@dataclass(frozen=True)
class SparseExchangeableTensor:
    """A D-dimensional sparse array of observed cells with K channels.

    ``indices`` is an (n_obs, D) int array of 0-based coordinates, kept in
    lexicographic order so that two tensors with the same content compare
    equal.  ``values`` is (n_obs, K): every observed cell is either fully
    observed across channels or absent entirely.  ``groups`` and ``find``
    cache their work on the index set, which ``with_values`` shares.
    """

    dims: tuple[int, ...]
    indices: np.ndarray
    values: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
        if math.prod(dims) > np.iinfo(np.int64).max:
            raise ValueError(f"dims {dims} hold more cells than int64 keys address")
        # row-major keys sort cells lexicographically, and are unique here
        keys = _flat_keys(idx, dims, "index")
        order = np.argsort(keys)
        # np.take copies whole rows, several times faster than idx[order]
        keys = keys[order]
        idx, vals = np.take(idx, order, axis=0), np.take(vals, order, axis=0)
        dup = keys[1:] == keys[:-1]
        if dup.any():
            where = int(np.flatnonzero(dup)[0])
            raise ValueError(f"duplicate index {tuple(idx[where])}")
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        self._cache["keys"] = keys

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
        """Same index set and cached groupings, new channel values.

        The tensor takes over ``values`` without a copy and makes it
        read-only; a caller that keeps writing its array passes a copy."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] != self.n_observed:
            raise ValueError(
                f"values must be ({self.n_observed}, K), got {values.shape}"
            )
        t = object.__new__(SparseExchangeableTensor)
        object.__setattr__(t, "dims", self.dims)
        object.__setattr__(t, "indices", self.indices)
        values.setflags(write=False)
        object.__setattr__(t, "values", values)
        object.__setattr__(t, "_cache", self._cache)
        return t

    def groups(self, fixed_axes: Iterable[int]) -> "AxisGroups":
        """``axis_groups(self, fixed_axes)``, computed once per index set."""
        fixed = tuple(sorted(set(int(a) for a in fixed_axes)))
        key = ("groups", fixed)
        if key not in self._cache:
            self._cache[key] = axis_groups(self, fixed)
        return self._cache[key]

    def find(self, cells: np.ndarray) -> np.ndarray:
        """Row position in ``indices`` of each (m, D) cell, -1 if absent.

        A cell outside ``dims`` raises ``ValueError`` naming the first
        such cell and the dims, as the constructor does."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self.ndim:
            raise ValueError(f"cells must be (m, {self.ndim}), got {cells.shape}")
        keys = self._cache["keys"]
        want = _flat_keys(cells, self.dims, "cell")
        pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[pos] == want, pos, -1)

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
    fixing every axis yields singleton groups.  The keys, ``group_of``,
    sizes and CSR member order all come from one stable argsort of the
    cells' flat keys, cast to the smallest unsigned dtype that holds the
    key space.
    """
    fixed = tuple(sorted(set(int(a) for a in fixed_axes)))
    if any(a < 0 or a >= t.ndim for a in fixed):
        raise ValueError(f"fixed_axes {fixed} out of range for ndim {t.ndim}")
    n = t.n_observed
    if fixed:
        sub_dims = tuple(t.dims[a] for a in fixed)
        flat = np.ravel_multi_index(tuple(t.indices[:, a] for a in fixed), sub_dims)
        # one stable sort orders the groups by key and each group's
        # members by position; NumPy radix-sorts keys of 16 bits or fewer
        flat = flat.astype(np.min_scalar_type(math.prod(sub_dims) - 1))
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group_of = np.empty(n, dtype=np.int64)
        group_of[order] = np.cumsum(first) - 1
        # a group's key is its first member's coordinates on the fixed axes
        keys = np.take(t.indices, order[starts], axis=0)[:, list(fixed)]
        indptr = np.append(starts, n)
    else:
        keys = np.zeros((1, 0), dtype=np.int64)
        order = np.arange(n)
        indptr = np.array([0, n])
        group_of = np.zeros(n, dtype=np.int64)
    sum_matrix = sp.csr_array(
        (np.ones(n), order, indptr), shape=(keys.shape[0], n)
    )
    return AxisGroups(
        fixed_axes=fixed,
        keys=keys,
        group_of=group_of,
        sizes=np.diff(indptr),
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
    def random(cls, dims: Sequence[int], rng: np.random.Generator) -> "PermutationSpec":
        return cls(tuple(rng.permutation(d) for d in dims))

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
