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
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseExchangeableTensor",
    "AxisGroups",
    "PermutationSpec",
    "axis_groups",
    "cell_keys",
    "lookup",
    "with_zero_row",
    "apply_permutation",
]


def _integer_array(name: str, a) -> np.ndarray:
    """``a`` as an int64 array.  A nonempty array of another kind, float
    or bool, raises ``TypeError`` naming ``name`` and its dtype, since
    the cast would truncate it."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"{name} must be an integer array, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


def cell_keys(cells: np.ndarray, dims: tuple[int, ...], axes=None) -> np.ndarray:
    """Row-major flat keys of (m, D) ``cells`` over ``dims``, or of their
    coordinates on ``axes`` (ascending) over those axes' sizes; 0 for
    every cell when ``axes`` is empty.  The first cell outside ``dims``
    on those axes raises ``ValueError`` naming it and the dims."""
    axes = list(range(len(dims)) if axes is None else axes)
    if not axes:
        return np.zeros(cells.shape[0], dtype=np.int64)
    sub = tuple(dims[a] for a in axes)
    try:
        return np.ravel_multi_index(tuple(cells[:, a] for a in axes), sub)
    except ValueError:
        out = ((cells[:, axes] < 0) | (cells[:, axes] >= np.asarray(sub))).any(axis=1)
        if not out.any():
            raise
        bad = tuple(int(v) for v in cells[out][0])
        raise ValueError(f"cell {bad} out of bounds for dims {tuple(dims)}") from None


@dataclass(frozen=True)
class SparseExchangeableTensor:
    """A D-dimensional sparse array of observed cells with K channels.

    ``indices`` is an (n_obs, D) int array of 0-based coordinates, kept in
    lexicographic order so that two tensors with the same content compare
    equal.  ``values`` is (n_obs, K): every observed cell is either fully
    observed across channels or absent entirely.  ``groups`` and ``keys``
    are kept on the index set, which ``with_values`` shares.
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
        idx = _integer_array("indices", self.indices)
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
        keys = cell_keys(idx, dims)
        if (keys[1:] > keys[:-1]).all():
            # already in order, without duplicates: copy, never alias
            idx, vals = idx.copy(), vals.copy()
        else:
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

    def _of_ordered(self, indices, values, cache) -> "SparseExchangeableTensor":
        """A tensor over ``dims`` taking over ordered, distinct ``indices``,
        their ``values`` and the index set's ``cache``, all unchecked."""
        t = object.__new__(SparseExchangeableTensor)
        object.__setattr__(t, "dims", self.dims)
        for name, a in (("indices", indices), ("values", values)):
            a.setflags(write=False)
            object.__setattr__(t, name, a)
        object.__setattr__(t, "_cache", cache)
        return t

    def with_values(self, values: np.ndarray) -> "SparseExchangeableTensor":
        """Same index set and cached groupings, new channel values.

        The tensor takes over ``values`` without a copy and makes it
        read-only; a caller that keeps writing its array passes a copy."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] != self.n_observed:
            raise ValueError(
                f"values must be ({self.n_observed}, K), got {values.shape}"
            )
        return self._of_ordered(self.indices, values, self._cache)

    def at_positions(self, positions: np.ndarray) -> "SparseExchangeableTensor":
        """The cells at ``positions``, rows of ``indices``, as a tensor
        over the same dims.  Ascending positions give cells in order
        already, so their keys are read off, not recomputed and sorted;
        any others go through the constructor.  A position outside the
        cells raises ``IndexError``."""
        pos = np.asarray(positions)
        indices = np.take(self.indices, pos, axis=0)
        values = np.take(self.values, pos, axis=0)
        if pos.size == 0 or (pos[1:] <= pos[:-1]).any():
            return SparseExchangeableTensor(self.dims, indices, values)
        return self._of_ordered(indices, values, {"keys": self.keys[pos]})

    def groups(self, fixed_axes: Iterable[int]) -> "AxisGroups":
        """``axis_groups(self, fixed_axes)``, computed once per index set."""
        fixed = tuple(sorted(set(int(a) for a in fixed_axes)))
        key = ("groups", fixed)
        if key not in self._cache:
            self._cache[key] = axis_groups(self, fixed)
        return self._cache[key]

    def for_values(self, key, compute):
        """``compute(self)``, kept on the index set for these values: a
        tensor that shares the index set and the same values array reads
        it back.  One entry per key; other values replace it."""
        hit = self._cache.get(key)
        if hit is None or hit[0]() is not self.values:
            hit = self._cache[key] = (weakref.ref(self.values), compute(self))
        return hit[1]

    @property
    def keys(self) -> np.ndarray:
        """Each cell's row-major flat key over ``dims``, ascending."""
        return self._cache["keys"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseExchangeableTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.values.shape == other.values.shape
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
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
    ``order`` lists the cell positions group by group, each group's in
    ascending order, and group g's run starts at ``indptr[g]``: the CSR
    layout of the (n_groups, n_obs) 0/1 operator whose row g selects
    group g's members, so ``operator(dtype) @ x`` gives every group's sum
    at once.  It serves both pooling and the gradient of broadcasting
    (the group sums of the cell gradients).

    ``context`` marks the cells the pools read; None marks every cell.
    ``counts`` are the context cells per group and ``pool_of`` each
    context cell's group id (``n_groups`` for any other cell), so a
    group's mean sums its context cells over their count (``means``);
    ``spread`` (or ``term`` with ``context``) of a gradient over the
    counts is its transpose.  A group with no context cell pools to 0.
    With every cell in the context they are ``sizes`` and ``group_of``.

    The operators accumulate in the operand's floating dtype (float64
    for integer operands) when there are several groups, and in float64
    for a single group: the global group of a large matrix sums ~10^5
    cells, which float32 accumulation would get wrong in the fourth
    digit, while a row or column sums a few hundred.  The pools that
    read them are ``autodiff.pooled_means`` and its group sums.
    """

    fixed_axes: tuple[int, ...]
    group_of: np.ndarray   # (n_obs,) group id per cell position
    sizes: np.ndarray      # (n_groups,)
    order: np.ndarray      # (n_obs,) cell positions, group by group
    indptr: np.ndarray     # (n_groups + 1,) start of each group in order
    # (n_groups,) each group's one name, ascending: its cells' ``cell_keys``
    # on the fixed axes, the coordinate itself for a single axis
    flat_keys: np.ndarray
    context: np.ndarray | None = None  # (n_obs,) bool, None for every cell
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    pool_of: np.ndarray = field(init=False, repr=False, compare=False)
    # counts, with 1 for an empty group, whose sum is 0
    divisor: np.ndarray = field(init=False, repr=False, compare=False)
    # the context cells' CSR layout, as order and indptr are every cell's
    _pool_layout: tuple = field(init=False, repr=False, compare=False)
    # dtype -> operator over every member, built on first use and shared
    # with the copies ``with_context`` makes
    _sum_ops: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    # dtype -> operator over the context cells; _sum_ops for every cell
    _pool_ops: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.context is None:
            layout, pool_ops = (self.order, self.indptr), self._sum_ops
            counts, pool_of = self.sizes, self.group_of
        else:
            ctx = np.asarray(self.context, dtype=bool)
            if ctx.shape != (self.n_members,):
                raise ValueError(f"context mask must be ({self.n_members},), "
                                 f"got {ctx.shape}")
            keep = ctx[self.order]
            kept = np.concatenate([[0], np.cumsum(keep)])[self.indptr]
            layout, pool_ops = (self.order[keep], kept), {}
            counts = kept[1:] - kept[:-1]
            pool_of = np.where(ctx, self.group_of, self.n_groups)
            object.__setattr__(self, "context", ctx)
        object.__setattr__(self, "_pool_layout", layout)
        object.__setattr__(self, "_pool_ops", pool_ops)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "pool_of", pool_of)
        object.__setattr__(self, "divisor", np.maximum(counts, 1))

    @property
    def n_groups(self) -> int:
        return self.sizes.shape[0]

    @property
    def n_members(self) -> int:
        return self.group_of.shape[0]

    def operator(self, dtype, context: bool = True) -> sp.csr_array:
        """The (n_groups, n_obs) 0/1 operator that sums each group's
        context cells (every member's when ``context`` is False) of an
        operand of ``dtype``, in the dtype that operand accumulates in.
        Built on first use and kept, sharing the index arrays with every
        other dtype's; a 1.0 entry is exact in either dtype."""
        ops = self._pool_ops if context else self._sum_ops
        # keyed by the operand's dtype too, so that a hit skips the ~1 µs
        # np.result_type: a small fit asks tens of thousands of times
        op = ops.get(dtype)
        if op is None:
            acc = np.result_type(dtype, np.float32) if self.n_groups > 1 \
                else np.dtype(np.float64)
            if acc not in ops:
                order, indptr = self._pool_layout if context else (
                    self.order, self.indptr)
                ops[acc] = sp.csr_array(
                    (np.ones(order.shape[0], acc), order, indptr),
                    shape=(self.n_groups, self.n_members))
            op = ops[dtype] = ops[acc]
        return op

    def with_context(self, context: np.ndarray | None) -> "AxisGroups":
        """The same groups, pooling only the cells ``context`` marks;
        these groups themselves when it marks every cell or is None."""
        if context is not None:
            context = np.asarray(context, dtype=bool)
            if context.all():
                context = None
        if context is None and self.context is None:
            return self
        groups = AxisGroups(self.fixed_axes, self.group_of, self.sizes,
                            self.order, self.indptr, self.flat_keys, context)
        if groups.context is not None:
            object.__setattr__(groups, "_sum_ops", self._sum_ops)
        return groups

    def means(self, sums: np.ndarray, dtype) -> np.ndarray:
        """Context sums, as ``operator(dtype) @ x`` gives them, over the
        counts, in the floating dtype of an operand of ``dtype``."""
        means = sums / self.divisor[:, None]
        return means.astype(np.result_type(dtype, np.float32), copy=False)

    def term(self, rows: np.ndarray, context: bool = False) -> tuple:
        """(n_groups, K) rows as an ``autodiff.add_terms`` term: each
        member's group row, or with ``context`` a zero row off context."""
        if context and self.context is not None:
            return with_zero_row(rows), self.pool_of
        return rows, self.group_of if self.n_groups > 1 else None

    def spread(self, rows: np.ndarray) -> np.ndarray:
        """(n_groups, K) -> (n_obs, K): each context cell takes its
        group's row, every other cell 0.  Spreading a group's gradient
        over its count is the transpose of pooling to the means."""
        rows, at = self.term(rows, context=True)
        return np.take(rows, self.group_of if at is None else at, axis=0)


def with_zero_row(table: np.ndarray) -> np.ndarray:
    """table and a zero row, which index -1 or ``len(table)`` picks."""
    return np.concatenate([table, np.zeros((1, *table.shape[1:]), table.dtype)])


def lookup(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Position of each of ``want``, an array of any shape, in the
    ascending, distinct ``keys``; -1 where it is absent, as for every
    one when ``keys`` is empty."""
    want = np.asarray(want)
    if keys.size == 0:
        return np.full(want.shape, -1, dtype=np.intp)
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[pos] == want, pos, -1)


def axis_groups(
    t: SparseExchangeableTensor, fixed_axes: Iterable[int]
) -> AxisGroups:
    """Group observed cells by their coordinates on ``fixed_axes``.

    ``fixed_axes`` empty yields a single group of all observed cells;
    fixing every axis yields singleton groups.  The flat keys, ``group_of``,
    sizes and CSR member order all come from one stable argsort of the
    cells' ``cell_keys`` on the fixed axes, cast to the smallest unsigned
    dtype that holds the key space.
    """
    fixed = tuple(sorted(set(int(a) for a in fixed_axes)))
    if any(a < 0 or a >= t.ndim for a in fixed):
        raise ValueError(f"fixed_axes {fixed} out of range for ndim {t.ndim}")
    n = t.n_observed
    # one stable sort orders the groups by key and each group's members
    # by position; NumPy radix-sorts keys of 16 bits or fewer
    flat = cell_keys(t.indices, t.dims, fixed).astype(
        np.min_scalar_type(math.prod(t.dims[a] for a in fixed) - 1))
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group_of = np.empty(n, dtype=np.int64)
    group_of[order] = np.cumsum(first) - 1
    flat_keys = ranked[starts].astype(np.int64)
    indptr = np.append(starts, n)
    return AxisGroups(
        fixed_axes=fixed,
        group_of=group_of,
        sizes=np.diff(indptr),
        order=order,
        indptr=indptr,
        flat_keys=flat_keys,
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
