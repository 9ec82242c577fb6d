"""Tensor construction, grouping, permutation, and dense round-trips."""

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    assert_bitwise_equal, build_sparse, from_dense, to_dense,
    unique_then_argsort_groups,
)

import exchtensor
from exchtensor.autodiff import pooled_means
from exchtensor.layers import pooling_groups
from exchtensor.sampling import SampleBatch, subset_tensor
from exchtensor.sparse import (
    SparseExchangeableTensor,
    PermutationSpec,
    apply_permutation,
    axis_groups,
    cell_keys,
    lookup,
)


def small_matrix():
    # 3x4, five observed cells, two channels
    return build_sparse(
        (3, 4),
        [
            ((0, 0), (1.0, 10.0)),
            ((0, 2), (2.0, 20.0)),
            ((1, 1), (3.0, 30.0)),
            ((2, 1), (4.0, 40.0)),
            ((2, 3), (5.0, 50.0)),
        ],
    )


class TestConstruction:
    def test_canonical_order_is_lexicographic(self):
        t = build_sparse(
            (3, 3),
            [
                ((2, 1), (1.0,)),
                ((0, 2), (2.0,)),
                ((0, 0), (3.0,)),
                ((1, 1), (4.0,)),
            ],
        )
        assert_array_equal(t.indices, [[0, 0], [0, 2], [1, 1], [2, 1]])
        assert_allclose(t.values[:, 0], [3.0, 2.0, 4.0, 1.0])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_sparse((2, 2), [((0, 1), (1.0,)), ((0, 1), (2.0,))])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            build_sparse((2, 2), [((0, 2), (1.0,))])
        with pytest.raises(ValueError):
            SparseExchangeableTensor(
                (2, 2), np.array([[-1, 0]]), np.array([[1.0]])
            )

    @pytest.mark.parametrize("indices", [
        [[0.5, 1.9]], np.array([[0, 1]], dtype=np.float32), [[True, False]]])
    def test_non_integer_indices_refused(self, indices):
        """A cast would truncate these: [[0.5, 1.9]] would be cell (0, 1)."""
        with pytest.raises(TypeError, match=(
                rf"indices must be an integer array, got dtype "
                rf"{np.asarray(indices).dtype}")):
            SparseExchangeableTensor((3, 3), indices, [[1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one observed cell"):
            SparseExchangeableTensor(
                (2, 2), np.zeros((0, 2), dtype=np.int64), np.zeros((0, 1))
            )

    def test_values_are_immutable(self):
        t = small_matrix()
        with pytest.raises(ValueError):
            t.values[0, 0] = 99.0

    def test_equality_ignores_input_order(self):
        a = build_sparse((2, 2), [((0, 0), (1.0,)), ((1, 1), (2.0,))])
        b = build_sparse((2, 2), [((1, 1), (2.0,)), ((0, 0), (1.0,))])
        assert a == b

    def test_with_values_keeps_indices(self):
        t = small_matrix()
        u = t.with_values(t.values * 2.0)
        assert_array_equal(u.indices, t.indices)
        assert_allclose(u.values, t.values * 2.0)

    def test_with_values_takes_over_the_array_read_only(self):
        t = small_matrix()
        fresh = t.values * 2.0
        u = t.with_values(fresh)
        assert u.values is fresh and fresh.flags.writeable is False
        with pytest.raises(ValueError):
            fresh[0, 0] = 1.0

    def test_order_matches_lexsort_on_a_three_axis_tensor(self):
        rng = np.random.default_rng(3)
        dims = (4, 5, 6)
        flat = rng.choice(np.prod(dims), 40, replace=False)
        idx = np.stack(np.unravel_index(flat, dims), axis=1)
        t = SparseExchangeableTensor(dims, idx, flat[:, None].astype(float))
        order = np.lexsort(idx.T[::-1])
        assert_array_equal(t.indices, idx[order])
        assert_array_equal(t.values[:, 0], flat[order])

    def test_dims_beyond_int64_keys_rejected(self):
        dims = (2**32, 2**32)
        with pytest.raises(ValueError, match=r"dims \(4294967296, 4294967296\)"):
            SparseExchangeableTensor(dims, np.array([[0, 0]]), np.array([[1.0]]))
        # the largest addressable product still builds
        t = SparseExchangeableTensor((2**31, 2**32 - 1), np.array([[5, 7]]),
                                     np.array([[1.0]]))
        cells = np.array([[5, 7], [7, 5]])
        assert lookup(t.keys, cell_keys(cells, t.dims)).tolist() == [0, -1]


class TestSortedInput:
    """Rows that arrive in order skip the sort; the tensor is the same
    either way, and never shares or freezes the caller's arrays."""

    @staticmethod
    def rows(seed=0):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.choice(6 * 7, size=20, replace=False))
        idx = np.stack(np.unravel_index(keys, (6, 7)), axis=1)
        return idx, rng.normal(size=(20, 3))

    def test_sorted_and_shuffled_input_give_the_same_tensor(self):
        idx, vals = self.rows()
        perm = np.random.default_rng(1).permutation(len(idx))
        a = SparseExchangeableTensor((6, 7), idx, vals)
        b = SparseExchangeableTensor((6, 7), idx[perm], vals[perm])
        for got, want in ((a.indices, b.indices), (a.values, b.values),
                          (a.keys, b.keys)):
            assert_bitwise_equal(got, want)
        assert_array_equal(a.indices, idx)

    def test_sorted_input_is_copied_not_frozen(self):
        idx, vals = self.rows()
        t = SparseExchangeableTensor((6, 7), idx, vals)
        assert not np.shares_memory(t.indices, idx)
        assert not np.shares_memory(t.values, vals)
        assert idx.flags.writeable and vals.flags.writeable
        idx[0] = (5, 6)
        vals[0] = 99.0
        assert tuple(t.indices[0]) != (5, 6) and (t.values[0] != 99.0).all()

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_a_duplicate_is_rejected_sorted_or_not(self, shuffle):
        idx, vals = self.rows()
        dup = tuple(idx[4])
        idx = np.insert(idx, 4, idx[4], axis=0)
        vals = np.insert(vals, 4, vals[4] + 1.0, axis=0)
        if shuffle:
            perm = np.random.default_rng(2).permutation(len(idx))
            idx, vals = idx[perm], vals[perm]
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'duplicate index {dup}')}$"):
            SparseExchangeableTensor((6, 7), idx, vals)


class TestAxisGroups:
    def test_row_groups_match_bruteforce(self):
        t = small_matrix()
        g = axis_groups(t, [0])
        assert_array_equal(g.flat_keys, [0, 1, 2])
        # row 0 holds cells (0,0),(0,2); row 2 holds (2,1),(2,3)
        assert_array_equal(g.order, [0, 1, 2, 3, 4])
        assert_array_equal(g.indptr, [0, 2, 3, 5])
        assert_array_equal(g.sizes, [2, 1, 2])

    def test_column_groups_match_bruteforce(self):
        t = small_matrix()
        g = axis_groups(t, [1])
        assert_array_equal(g.flat_keys, [0, 1, 2, 3])
        # column 1 holds cells (1,1),(2,1)
        assert_array_equal(g.order, [0, 2, 3, 1, 4])
        assert_array_equal(g.indptr, [0, 1, 3, 4, 5])
        assert_array_equal(g.sizes, [1, 2, 1, 1])

    def test_empty_fixed_axes_pools_everything(self):
        t = small_matrix()
        g = axis_groups(t, [])
        assert g.n_groups == 1
        assert g.sizes[0] == t.n_observed
        assert_array_equal(g.order, np.arange(t.n_observed))
        assert_array_equal(g.indptr, [0, t.n_observed])

    def test_all_axes_fixed_gives_singletons(self):
        t = small_matrix()
        g = axis_groups(t, [0, 1])
        assert g.n_groups == t.n_observed
        assert (g.sizes == 1).all()

    def test_groups_partition_observed_set(self):
        rng = np.random.default_rng(42)
        dims = (5, 6, 4)
        total = np.prod(dims)
        picks = rng.choice(total, size=20, replace=False)
        idx = np.stack(np.unravel_index(picks, dims), axis=1)
        t = SparseExchangeableTensor(dims, idx, rng.normal(size=(20, 2)))
        for fixed in [(), (0,), (2,), (0, 2), (0, 1, 2)]:
            g = axis_groups(t, fixed)
            assert g.sizes.sum() == t.n_observed
            assert_array_equal(np.sort(g.order), np.arange(t.n_observed))
            assert_array_equal(np.diff(g.indptr), g.sizes)
            # group_of agrees with the group-sum operator's rows, and
            # each group's cells share its key on the fixed axes
            runs = np.repeat(np.arange(g.n_groups), g.sizes)
            assert_array_equal(g.group_of[g.order], runs)
            assert_array_equal(cell_keys(t.indices[g.order], t.dims, fixed),
                               g.flat_keys[runs])

    def test_operator_gives_group_sums(self):
        t = small_matrix()
        g = axis_groups(t, [0])
        assert g.operator(np.float64).shape == (g.n_groups, t.n_observed)
        assert_allclose((g.operator(np.float64) @ t.values)[:, 0], [3.0, 3.0, 9.0])
        assert_allclose(pooled_means(t.values, [g])[0][:, 0], [1.5, 3.0, 4.5])

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            axis_groups(small_matrix(), [2])


class TestIndexSetCache:
    def test_groups_equal_axis_groups_and_are_computed_once(self):
        t = small_matrix()
        for fixed in [(), (0,), (1,), (0, 1)]:
            g = t.groups(fixed)
            assert t.groups(list(reversed(fixed))) is g
            ref = axis_groups(t, fixed)
            assert g.fixed_axes == ref.fixed_axes
            assert_array_equal(g.group_of, ref.group_of)
            assert_array_equal(g.flat_keys, ref.flat_keys)

    def test_with_values_shares_the_very_same_groups(self):
        t = small_matrix()
        before = pooling_groups(t)
        u = t.with_values(t.values * 2.0).with_values(np.ones((5, 3)))
        after = pooling_groups(u)
        assert before.keys() == after.keys()
        assert all(after[S] is before[S] for S in before)

    def test_new_index_sets_group_afresh(self):
        t = small_matrix()
        g = t.groups([0])
        identity = PermutationSpec(tuple(np.arange(d) for d in t.dims))
        same_cells = apply_permutation(t, identity)
        assert same_cells == t
        assert same_cells.groups([0]) is not g
        sub = subset_tensor(t, SampleBatch(np.arange(t.n_observed), t.indices))
        assert_array_equal(sub.indices, t.indices)
        assert sub.groups([0]) is not g

    @staticmethod
    def find(t, cells):
        """Each cell's row in t's indices, -1 if t lacks it."""
        return lookup(t.keys, cell_keys(cells, t.dims))

    def test_lookup_of_cell_keys_on_a_matrix(self):
        t = small_matrix()
        assert_array_equal(self.find(t, t.indices[::-1]), np.arange(5)[::-1])
        assert_array_equal(
            self.find(t, np.array([[0, 2], [0, 1], [2, 3], [2, 2], [0, 0]])),
            [1, -1, 4, -1, 0],
        )
        assert self.find(t, np.zeros((0, 2), dtype=np.int64)).shape == (0,)

    def test_lookup_of_cell_keys_on_a_three_axis_tensor(self):
        rng = np.random.default_rng(5)
        dims = (4, 3, 5)
        dense = rng.normal(size=dims + (1,))
        mask = rng.random(dims) < 0.4
        t = from_dense(dense, mask)
        every = np.argwhere(np.ones(dims, dtype=bool))
        pos = self.find(t, every)
        assert_array_equal(pos >= 0, mask.ravel())
        assert_array_equal(t.indices[pos[pos >= 0]], every[mask.ravel()])
        assert_array_equal(t.values[pos[pos >= 0], 0], dense[mask][:, 0])

    def test_lookup_in_no_keys_finds_nothing(self):
        """An empty key array holds no wanted key: -1 for each, none for
        no wanted key, and no IndexError from reading its last key."""
        empty = np.array([], dtype=np.int64)
        assert_array_equal(lookup(empty, np.array([3, 0])), [-1, -1])
        assert lookup(empty, empty).shape == (0,)
        assert_array_equal(lookup(np.array([2, 5]), np.array([5, 3, 2, 9])),
                           [1, -1, 0, -1])

    def test_lookup_matches_a_search_key_by_key(self):
        """Random, repeated, absent and descending wanted keys, in one or
        two dimensions, each answered as a search for it alone would."""
        rng = np.random.default_rng(9)
        keys = np.unique(rng.integers(0, 500, size=120))
        where = {int(k): i for i, k in enumerate(keys)}
        absent = np.setdiff1d(np.arange(-5, 505), keys)
        wants = [
            rng.integers(-5, 505, size=300),
            rng.choice(keys, size=50),  # repeated
            absent[:40],
            np.sort(rng.integers(-5, 505, size=80))[::-1],
            np.concatenate([keys[::-1], absent[::-1]]),
            rng.integers(-5, 505, size=(7, 9)),
            np.array([keys[0]]),
            np.array([], dtype=np.int64),
        ]
        for want in wants:
            got = lookup(keys, want)
            assert got.shape == want.shape and got.dtype == np.intp
            assert_array_equal(got, np.vectorize(
                lambda k: where.get(int(k), -1), otypes=[np.intp])(want))
            # no keys hold no wanted key, whatever its shape
            assert_array_equal(lookup(keys[:0], want), np.full(want.shape, -1))



def grouping_cases():
    """(name, tensor) pairs whose groupings exercise the one-sort path."""
    rng = np.random.default_rng(11)

    def cells(dims, n):
        flat = rng.choice(int(np.prod(dims)), size=n, replace=False)
        return np.stack(np.unravel_index(flat, dims), axis=1)

    def tensor(dims, idx):
        return SparseExchangeableTensor(dims, idx, np.ones((len(idx), 1)))

    rows = np.stack([np.zeros(9, dtype=np.int64), rng.permutation(9)], axis=1)
    return [
        ("2d", tensor((40, 50), cells((40, 50), 600))),
        ("3d", tensor((6, 7, 5), cells((6, 7, 5), 120))),
        # axes (0, 1) hold 90,000 keys: a 32-bit sort, not a radix sort
        ("wide", tensor((300, 300, 4), cells((300, 300, 4), 20_000))),
        ("one cell", tensor((4, 5), np.array([[2, 3]]))),
        ("one group", tensor((3, 9), rows)),
        ("all singletons", tensor((5, 6), cells((5, 6), 30))),
    ]


class TestOneSortGrouping:
    """``axis_groups`` equals the ``np.unique`` plus stable-argsort
    grouping it replaced, array for array."""

    @pytest.mark.parametrize(
        "t", [pytest.param(t, id=name) for name, t in grouping_cases()])
    def test_matches_unique_then_argsort(self, t):
        subsets = [fixed for r in range(t.ndim + 1)
                   for fixed in itertools.combinations(range(t.ndim), r)]
        for fixed in subsets:
            g = axis_groups(t, fixed)
            keys, group_of, sizes, order, indptr = unique_then_argsort_groups(
                t, fixed)
            assert_bitwise_equal(g.flat_keys, keys)
            assert_bitwise_equal(g.group_of, group_of)
            assert_bitwise_equal(g.sizes, sizes)
            assert_bitwise_equal(g.order, order)
            assert_bitwise_equal(g.indptr, indptr)
            m = g.operator(np.float64)
            assert_array_equal(m.indices, order)
            assert_array_equal(m.indptr, indptr)
            assert_bitwise_equal(m.data, np.ones(t.n_observed))

    def test_wide_case_crosses_sixteen_bit_keys(self):
        t = dict(grouping_cases())["wide"]
        assert axis_groups(t, (0, 1)).flat_keys.max() >= 2**16


class TestPermutation:
    def test_identity_is_noop(self):
        t = small_matrix()
        p = PermutationSpec(tuple(np.arange(d) for d in t.dims))
        assert apply_permutation(t, p) == t

    def test_known_relabeling(self):
        t = build_sparse((2, 3), [((0, 1), (1.0,)), ((1, 2), (2.0,))])
        p = PermutationSpec((np.array([1, 0]), np.array([2, 0, 1])))
        u = apply_permutation(t, p)
        # (0,1)->(1,0), (1,2)->(0,1)
        assert_array_equal(u.indices, [[0, 1], [1, 0]])
        assert_allclose(u.values[:, 0], [2.0, 1.0])

    def test_inverse_round_trips(self):
        rng = np.random.default_rng(7)
        t = small_matrix()
        p = PermutationSpec.random(t.dims, rng)
        inverse = PermutationSpec(tuple(np.argsort(m) for m in p.maps))
        assert apply_permutation(apply_permutation(t, p), inverse) == t

    def test_compose_matches_sequencing(self):
        rng = np.random.default_rng(3)
        t = small_matrix()
        p = PermutationSpec.random(t.dims, rng)
        q = PermutationSpec.random(t.dims, rng)
        seq = apply_permutation(apply_permutation(t, q), p)
        p_after_q = PermutationSpec(tuple(a[b] for a, b in zip(p.maps, q.maps)))
        assert apply_permutation(t, p_after_q) == seq

    def test_value_multiset_preserved(self):
        rng = np.random.default_rng(11)
        t = small_matrix()
        p = PermutationSpec.random(t.dims, rng)
        u = apply_permutation(t, p)
        assert_allclose(
            np.sort(u.values, axis=0), np.sort(t.values, axis=0)
        )

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            PermutationSpec((np.array([0, 0]),))

    def test_flatten_matches_dense_relabeling(self):
        rng = np.random.default_rng(5)
        dims = (3, 4)
        p = PermutationSpec.random(dims, rng)
        flat = p.flatten()
        # dense relabel: value at cell x moves to cell p(x)
        a = rng.normal(size=dims)
        b = np.empty_like(a)
        for i in range(dims[0]):
            for j in range(dims[1]):
                b[p.maps[0][i], p.maps[1][j]] = a[i, j]
        assert_allclose(b.ravel()[flat], a.ravel())


class TestDenseRoundTrip:
    def test_round_trip(self):
        t = small_matrix()
        dense, mask = to_dense(t)
        assert dense.shape == (3, 4, 2)
        assert mask.sum() == t.n_observed
        assert from_dense(dense, mask) == t

    def test_unobserved_cells_are_zero(self):
        t = small_matrix()
        dense, mask = to_dense(t)
        assert_allclose(dense[~mask], 0.0)

    def test_from_dense_full_mask_default(self):
        arr = np.arange(12.0).reshape(3, 4)[:, :, None]
        t = from_dense(arr)
        assert t.n_observed == 12
        dense, mask = to_dense(t)
        assert mask.all()
        assert_allclose(dense, arr)


class TestCellKeys:
    def test_keys_over_every_axis_and_over_a_subset(self):
        rng = np.random.default_rng(3)
        dims = (4, 5, 6)
        cells = np.stack([rng.integers(0, d, size=30) for d in dims], axis=1)
        assert_array_equal(cell_keys(cells, dims),
                           np.ravel_multi_index(tuple(cells.T), dims))
        assert_array_equal(cell_keys(cells, dims, [0, 2]),
                           cells[:, 0] * 6 + cells[:, 2])
        assert_array_equal(cell_keys(cells, dims, []), np.zeros(30))

    @pytest.mark.parametrize("axes", [None, [1]])
    def test_a_cell_outside_the_dims_is_named(self, axes):
        cells = np.array([[0, 0], [1, 4], [2, 9]])
        with pytest.raises(ValueError, match=re.escape(
                "cell (1, 4) out of bounds for dims (3, 4)")):
            cell_keys(cells, (3, 4), axes)

    def test_an_axis_left_out_is_not_checked(self):
        assert_array_equal(cell_keys(np.array([[7, 1]]), (3, 4), [1]), [1])


def test_only_sparse_makes_cell_keys():
    """A cell's flat key is one rule, and sparse.py holds it
    (``cell_keys``): a module that ravels coordinates itself could key
    cells otherwise than the groupings it looks them up in."""
    src = Path(exchtensor.__file__).parent
    callers = sorted(
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py") if path.name != "sparse.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "ravel_multi_index"
    )
    assert not callers, f"ravel_multi_index called outside sparse.py: {callers}"
