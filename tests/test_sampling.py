"""Uniform and row-then-column samplers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exchtensor.sampling import (
    SampleBatch,
    budget_targets,
    conditional_subsample,
    restricted_col_marginal,
    row_marginal,
    subset_tensor,
    uniform_subsample,
)
from exchtensor.sparse import SparseExchangeableTensor

from helpers import random_sparse


def three_cell_matrix():
    """The worked toy: cells (0,0), (0,1), (1,0) of a 2x2 matrix."""
    return SparseExchangeableTensor(
        (2, 2),
        np.array([[0, 0], [0, 1], [1, 0]]),
        np.ones((3, 1)),
    )


def draw(sampler, t, seed):
    """A batch of about a third of t's cells from either sampler."""
    if sampler == "uniform":
        return uniform_subsample(t, max(1, t.n_observed // 3), seed=seed)
    rows, cols = budget_targets(t, max(1, t.n_observed // 3))
    return conditional_subsample(t, rows, cols, seed=seed)


class TestSamplerContract:
    """A batch names its cells by ascending positions into the tensor."""

    @pytest.mark.parametrize("sampler", ["uniform", "conditional"])
    @pytest.mark.parametrize("dims,n_obs", [((9, 7), 30), ((40, 25), 300),
                                            ((3, 60), 90)])
    def test_positions_ascend_in_range_and_name_the_indices(
            self, sampler, dims, n_obs):
        t = random_sparse(dims, 2, n_obs, np.random.default_rng(n_obs))
        for seed in range(8):
            b = draw(sampler, t, seed)
            assert b.positions.dtype == np.int64 and b.positions.ndim == 1
            assert (np.diff(b.positions) > 0).all()
            assert 0 <= b.positions[0] and b.positions[-1] < t.n_observed
            assert_array_equal(t.indices[b.positions], b.indices)

    def test_fixed_seed_batches_are_pinned(self):
        """The cells each sampler draws at a fixed seed, as recorded
        before batches carried positions."""
        t = random_sparse((9, 7), 1, 30, np.random.default_rng(0))
        u = uniform_subsample(t, 6, seed=11)
        assert_array_equal(u.positions, [3, 13, 17, 18, 21, 25])
        assert_array_equal(
            u.indices, [[0, 3], [4, 1], [5, 0], [5, 2], [6, 2], [7, 0]])
        c = conditional_subsample(t, 3, 3, seed=4)
        assert_array_equal(c.positions, [12, 13, 15, 25, 26, 27, 28, 29])
        assert_array_equal(c.indices, [[4, 0], [4, 1], [4, 5], [7, 0],
                                       [7, 1], [8, 0], [8, 1], [8, 5]])


class TestUniformSubsample:
    def test_full_batch_is_the_whole_index_set(self):
        t = three_cell_matrix()
        b = uniform_subsample(t, 3, seed=4)
        assert_array_equal(b.indices, t.indices)

    def test_batch_is_a_subset_without_duplicates(self):
        t = random_sparse((9, 7), 2, 30, np.random.default_rng(0))
        b = uniform_subsample(t, 11, seed=1)
        assert b.indices.shape[0] == 11
        obs = {tuple(ix) for ix in t.indices.tolist()}
        assert {tuple(ix) for ix in b.indices.tolist()} <= obs

    def test_same_seed_same_batch(self):
        t = random_sparse((9, 7), 1, 30, np.random.default_rng(2))
        a = uniform_subsample(t, 5, seed=77)
        b = uniform_subsample(t, 5, seed=77)
        assert_array_equal(a.indices, b.indices)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            uniform_subsample(three_cell_matrix(), 4)

    def test_single_draws_are_uniform(self):
        """Each of 3 cells drawn with frequency 1/3 within 3 sigma."""
        t = three_cell_matrix()
        trials = 30_000
        counts = np.zeros(3)
        for s in range(trials):
            b = uniform_subsample(t, 1, seed=s)
            cell = tuple(b.indices[0].tolist())
            counts[{(0, 0): 0, (0, 1): 1, (1, 0): 2}[cell]] += 1
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        assert np.abs(counts - trials / 3).max() <= 3 * sigma

    def test_inclusion_probability_matches_batch_fraction(self):
        """With batch 2 of 4 cells each cell appears about half the time."""
        t = SparseExchangeableTensor(
            (2, 2),
            np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
            np.ones((4, 1)),
        )
        trials = 10_000
        counts = np.zeros(4)
        for s in range(trials):
            b = uniform_subsample(t, 2, seed=s)
            for ix in b.indices.tolist():
                counts[2 * ix[0] + ix[1]] += 1
        sigma = math.sqrt(trials * 0.5 * 0.5)
        assert np.abs(counts - trials / 2).max() <= 3 * sigma


class TestMarginals:
    def test_row_marginal_of_the_worked_toy(self):
        assert_allclose(row_marginal(three_cell_matrix()), [2 / 3, 1 / 3])

    def test_restricted_column_marginal(self):
        """Restricting to row 0 leaves two equally likely columns."""
        t = three_cell_matrix()
        assert_allclose(
            restricted_col_marginal(t, np.array([0])), [1 / 2, 1 / 2]
        )

    def test_restriction_with_no_support_rejected(self):
        t = SparseExchangeableTensor(
            (3, 2), np.array([[0, 0], [0, 1]]), np.ones((2, 1))
        )
        with pytest.raises(ValueError, match="no observations"):
            restricted_col_marginal(t, np.array([2]))


class TestConditionalSubsample:
    def test_full_targets_recover_everything(self):
        t = three_cell_matrix()
        b = conditional_subsample(t, 2, 2, seed=0)
        assert_array_equal(b.indices, t.indices)

    def test_batch_is_the_induced_submatrix(self):
        """Every observed cell of the picked rows x cols is included."""
        rng = np.random.default_rng(8)
        t = random_sparse((12, 9), 1, 50, rng)
        b = conditional_subsample(t, 4, 3, seed=5)
        rows = set(b.indices[:, 0].tolist())
        cols = set(b.indices[:, 1].tolist())
        expected = [
            tuple(ix)
            for ix in t.indices.tolist()
            if ix[0] in rows and ix[1] in cols
        ]
        assert sorted(map(tuple, b.indices.tolist())) == sorted(expected)

    def test_row_frequencies_track_observation_counts(self):
        """Single-row draws land on each row proportionally to its data."""
        t = three_cell_matrix()
        trials = 10_000
        hits = np.zeros(2)
        for s in range(trials):
            b = conditional_subsample(t, 1, 1, seed=s)
            hits[b.indices[0, 0]] += 1
        for row, p in enumerate(row_marginal(t)):
            sigma = math.sqrt(trials * p * (1 - p))
            assert abs(hits[row] - trials * p) <= 3 * sigma

    def test_excess_targets_hit_degenerate_marginal(self):
        """Asking for more rows than carry data cannot be satisfied."""
        t = SparseExchangeableTensor(
            (3, 2), np.array([[0, 0], [0, 1]]), np.ones((2, 1))
        )
        with pytest.raises(ValueError, match="degenerate marginal"):
            conditional_subsample(t, 2, 1, seed=0)

    def test_targets_validated_against_axis_sizes(self):
        t = three_cell_matrix()
        with pytest.raises(ValueError, match="target rows"):
            conditional_subsample(t, 3, 1)
        with pytest.raises(ValueError, match="target cols"):
            conditional_subsample(t, 1, 0)

    def test_matrices_only(self):
        t = SparseExchangeableTensor(
            (2, 2, 2), np.array([[0, 0, 0]]), np.ones((1, 1))
        )
        with pytest.raises(ValueError, match="matrices"):
            conditional_subsample(t, 1, 1)


class TestBudgetTargets:
    def test_small_matrix_selects_everything(self):
        t = three_cell_matrix()
        assert budget_targets(t, cell_budget=100) == (2, 2)

    def test_targets_shrink_both_axes_by_one_fraction(self):
        rng = np.random.default_rng(1)
        t = random_sparse((100, 50), 1, 4000, rng)
        rows, cols = budget_targets(t, cell_budget=1000)
        frac = math.sqrt(1000 / 4000)
        assert rows == math.ceil(frac * 100)
        assert cols == math.ceil(frac * 50)

    def test_induced_batch_lands_near_the_budget(self):
        rng = np.random.default_rng(2)
        t = random_sparse((60, 60), 1, 1800, rng)
        rows, cols = budget_targets(t, cell_budget=450)
        sizes = [
            conditional_subsample(t, rows, cols, seed=s).indices.shape[0]
            for s in range(20)
        ]
        # row-weighted selection overshoots a little; same order suffices
        assert 450 / 3 <= np.mean(sizes) <= 450 * 3


class TestSubsetTensor:
    def test_values_follow_their_indices(self):
        rng = np.random.default_rng(3)
        t = random_sparse((8, 8), 3, 20, rng)
        b = uniform_subsample(t, 7, seed=9)
        sub = subset_tensor(t, b)
        assert sub.dims == t.dims
        lookup = {
            tuple(ix): v for ix, v in zip(t.indices.tolist(), t.values)
        }
        for ix, v in zip(sub.indices.tolist(), sub.values):
            assert_allclose(v, lookup[tuple(ix)])

    def test_positions_in_any_order_give_the_same_batch(self):
        """Samplers hand over ascending positions, which skip the sort;
        the same cells in another order give the same tensor."""
        t = random_sparse((8, 8), 3, 20, np.random.default_rng(3))
        b = uniform_subsample(t, 7, seed=9)
        order = np.random.default_rng(1).permutation(7)
        shuffled = SampleBatch(b.positions[order], b.indices[order])
        want = subset_tensor(t, b)
        got = subset_tensor(t, shuffled)
        assert got == want
        assert_array_equal(got.keys, want.keys)

    def test_a_batch_of_another_tensor_is_rejected(self):
        t = random_sparse((8, 8), 1, 20, np.random.default_rng(3))
        other = random_sparse((8, 8), 1, 20, np.random.default_rng(4))
        with pytest.raises(ValueError, match="differ"):
            subset_tensor(t, uniform_subsample(other, 7, seed=9))

    @pytest.mark.parametrize("positions", [[0, 3], [-1, 0]])
    def test_positions_outside_the_tensor_are_rejected(self, positions):
        t = three_cell_matrix()
        b = SampleBatch(np.array(positions), t.indices[[0, 1]])
        with pytest.raises(ValueError, match="outside the tensor's 3 cells"):
            subset_tensor(t, b)

