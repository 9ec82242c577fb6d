"""Tensor construction, grouping, permutation, and dense round-trips."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    assert_bitwise_equal, build_sparse, from_dense, to_dense,
    unique_then_argsort_groups,
)

from exchtensor.layers import pooling_groups
from exchtensor.sampling import SampleBatch, subset_tensor
from exchtensor.sparse import (
    SparseExchangeableTensor,
    PermutationSpec,
    apply_permutation,
    axis_groups,
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
        assert t.find(np.array([[5, 7], [7, 5]])).tolist() == [0, -1]


class TestAxisGroups:
    def test_row_groups_match_bruteforce(self):
        t = small_matrix()
        g = axis_groups(t, [0])
        members = g.members()
        assert set(members) == {(0,), (1,), (2,)}
        # row 0 holds cells (0,0),(0,2); row 2 holds (2,1),(2,3)
        assert_array_equal(members[(0,)], [0, 1])
        assert_array_equal(members[(1,)], [2])
        assert_array_equal(members[(2,)], [3, 4])
        assert_array_equal(g.sizes, [2, 1, 2])

    def test_column_groups_match_bruteforce(self):
        t = small_matrix()
        g = axis_groups(t, [1])
        members = g.members()
        assert set(members) == {(0,), (1,), (2,), (3,)}
        assert_array_equal(members[(1,)], [2, 3])
        assert_array_equal(g.sizes, [1, 2, 1, 1])

    def test_empty_fixed_axes_pools_everything(self):
        t = small_matrix()
        g = axis_groups(t, [])
        assert g.n_groups == 1
        assert g.sizes[0] == t.n_observed
        assert_array_equal(g.members()[()], np.arange(t.n_observed))

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
            covered = np.concatenate(list(g.members().values()))
            assert_array_equal(np.sort(covered), np.arange(t.n_observed))
            # group_of agrees with the group-sum operator's rows
            for key, mem in g.members().items():
                gid = np.flatnonzero((g.keys == key).all(axis=1))[0]
                assert (g.group_of[mem] == gid).all()

    def test_sum_matrix_gives_group_sums(self):
        t = small_matrix()
        g = axis_groups(t, [0])
        assert g.sum_matrix.shape == (g.n_groups, t.n_observed)
        assert_allclose(g.group_sums(t.values)[:, 0], [3.0, 3.0, 9.0])
        assert_allclose(g.group_means(t.values)[:, 0], [1.5, 3.0, 4.5])

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
            assert_array_equal(g.keys, ref.keys)

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
        sub = subset_tensor(t, SampleBatch(t.indices))
        assert_array_equal(sub.indices, t.indices)
        assert sub.groups([0]) is not g

    def test_find_on_a_matrix(self):
        t = small_matrix()
        assert_array_equal(t.find(t.indices[::-1]), np.arange(5)[::-1])
        assert_array_equal(
            t.find(np.array([[0, 2], [0, 1], [2, 3], [2, 2], [0, 0]])),
            [1, -1, 4, -1, 0],
        )
        assert t.find(np.zeros((0, 2), dtype=np.int64)).shape == (0,)

    def test_find_on_a_three_axis_tensor(self):
        rng = np.random.default_rng(5)
        dims = (4, 3, 5)
        dense = rng.normal(size=dims + (1,))
        mask = rng.random(dims) < 0.4
        t = from_dense(dense, mask)
        every = np.argwhere(np.ones(dims, dtype=bool))
        pos = t.find(every)
        assert_array_equal(pos >= 0, mask.ravel())
        assert_array_equal(t.indices[pos[pos >= 0]], every[mask.ravel()])
        assert_array_equal(t.values[pos[pos >= 0], 0], dense[mask][:, 0])

    def test_find_rejects_cells_of_another_rank(self):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            small_matrix().find(np.zeros((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("cell", [(3, 0), (0, 4), (-1, 2)])
    def test_find_rejects_cells_outside_the_dims(self, cell):
        cells = np.array([[0, 0], cell, [5, 5]])
        with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) "
                           r"out of bounds for dims \(3, 4\)"):
            small_matrix().find(cells)


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
            assert_bitwise_equal(g.keys, keys)
            assert_bitwise_equal(g.group_of, group_of)
            assert_bitwise_equal(g.sizes, sizes)
            m = g.sum_matrix
            assert_array_equal(m.indices, order)
            assert_array_equal(m.indptr, indptr)
            assert_bitwise_equal(m.data, np.ones(t.n_observed))

    def test_wide_case_crosses_sixteen_bit_keys(self):
        t = dict(grouping_cases())["wide"]
        keys = axis_groups(t, (0, 1)).keys
        assert np.ravel_multi_index(tuple(keys.T), (300, 300)).max() >= 2**16


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
