"""Tensor construction, grouping, permutation, and dense round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exchtensor.sparse import (
    SparseExchangeableTensor,
    PermutationSpec,
    apply_permutation,
    axis_groups,
    build_sparse,
    from_dense,
    to_dense,
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

    def test_ragged_channels_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            build_sparse((2, 2), [((0, 0), (1.0,)), ((1, 1), (1.0, 2.0))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_sparse((2, 2), [])

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


class TestPermutation:
    def test_identity_is_noop(self):
        t = small_matrix()
        p = PermutationSpec.identity(t.dims)
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
        assert apply_permutation(apply_permutation(t, p), p.inverse()) == t

    def test_compose_matches_sequencing(self):
        rng = np.random.default_rng(3)
        t = small_matrix()
        p = PermutationSpec.random(t.dims, rng)
        q = PermutationSpec.random(t.dims, rng)
        seq = apply_permutation(apply_permutation(t, q), p)
        assert apply_permutation(t, p.compose(q)) == seq

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

    def test_cell_cap_enforced(self):
        t = small_matrix()
        with pytest.raises(ValueError, match="cap"):
            to_dense(t, cell_cap=11)

    def test_from_dense_full_mask_default(self):
        arr = np.arange(12.0).reshape(3, 4)[:, :, None]
        t = from_dense(arr)
        assert t.n_observed == 12
        dense, mask = to_dense(t)
        assert mask.all()
        assert_allclose(dense, arr)
