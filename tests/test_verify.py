"""Dense-oracle equivalence, permutation legality, witnesses, orbits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import assert_bitwise_equal, random_dense

from exchtensor import verify
from exchtensor.autodiff import apply_nonlinearity
from exchtensor.layers import (
    ExchLayerParams,
    all_subsets,
    exchangeable_tensor_layer,
)
from exchtensor.sparse import PermutationSpec
from exchtensor.verify import (
    EquivarianceReport,
    apply_flat_permutation,
    check_equivariance,
    constant_scalar_blocks,
    count_orbits,
    dense_oracle_layer,
    dense_to_pooled_blocks,
    enumerate_flat_permutations,
    find_witness,
    generic_scalar_blocks,
    is_legal_permutation,
    run_verifier_suite,
    sample_illegal_permutations,
)


def scalar_blocks(ndim, rng):
    return {S: rng.normal(size=(1, 1)) for S in all_subsets(ndim)}


class TestOwnSoftmax:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_row_wise_softmax_equals_the_production_one(self, k):
        """The oracle's own softmax must not drift from the one it checks:
        equal bit for bit on both sides of the channel-major width."""
        rng = np.random.default_rng(k)
        for dtype in (np.float32, np.float64):
            y = rng.uniform(-80.0, 80.0, size=(630, k)).astype(dtype)
            assert_bitwise_equal(verify._activation(y, "softmax", 0.01),
                                 apply_nonlinearity(y, "softmax"))

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    def test_own_leaky_relu_equals_the_production_one(self, slope):
        """where(y >= 0, y, slope * y) and the production maximum agree
        bit for bit on every finite input, signed zeros and values too
        small for their product with the slope among them."""
        rng = np.random.default_rng(int(slope * 100))
        for dtype in (np.float32, np.float64):
            tiny = np.finfo(dtype).smallest_subnormal
            special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                                np.finfo(dtype).tiny, -np.finfo(dtype).tiny],
                               dtype)
            y = np.concatenate([rng.normal(scale=10.0, size=624).astype(dtype),
                                special]).reshape(79, 8)
            assert_bitwise_equal(verify._activation(y, "leaky_relu", slope),
                                 apply_nonlinearity(y, "leaky_relu", slope))
            assert_bitwise_equal(verify._activation(y, "identity", slope), y)


class TestOracleEquivalence:
    def test_1x1_uses_only_the_full_agreement_block(self):
        # the lone cell pairs only with itself, where every axis agrees
        rng = np.random.default_rng(2)
        t = random_dense((1, 1), 1, rng)
        blocks = scalar_blocks(2, rng)
        y = dense_oracle_layer(
            t, ExchLayerParams(blocks=blocks, bias=np.array([0.25]))
        )
        assert_allclose(y.values, t.values * blocks[frozenset({0, 1})] + 0.25)

    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(3)
        t = random_dense((3, 4), 1, rng).with_values(np.zeros((12, 1)))
        p = ExchLayerParams(blocks=scalar_blocks(2, rng), bias=np.array([-0.7]),
                            nonlinearity="leaky_relu", slope=0.1)
        y = dense_oracle_layer(t, p)
        pooled = exchangeable_tensor_layer(t, p)
        assert_allclose(y.values, -0.07)
        assert_allclose(pooled.values, -0.07)

    @pytest.mark.parametrize("dims", [(3, 4), (2, 5), (6, 7), (3, 4, 2), (2, 2, 2)])
    def test_pooled_equals_oracle_after_reparameterization(self, dims):
        rng = np.random.default_rng(4)
        for _ in range(20):
            K, O = rng.integers(1, 4, size=2)
            t = random_dense(dims, K, rng)
            dense_blocks = {S: rng.normal(size=(K, O)) for S in all_subsets(len(dims))}
            bias = rng.normal(size=O)
            nl = ("identity", "leaky_relu", "softmax")[int(rng.integers(3))]
            oracle = dense_oracle_layer(
                t, ExchLayerParams(blocks=dense_blocks, bias=bias, nonlinearity=nl)
            )
            pooled = exchangeable_tensor_layer(
                t, ExchLayerParams(
                    blocks=dense_to_pooled_blocks(dense_blocks, dims),
                    bias=bias, nonlinearity=nl,
                )
            )
            assert_allclose(pooled.values, oracle.values, atol=1e-10, rtol=0)

    def test_d2_reparameterization_closed_form(self):
        # with dims (N, M): pooled blocks from dense (w_both, w_row, w_col, w_none)
        rng = np.random.default_rng(6)
        N, M = 4, 6
        w_both, w_row, w_col, w_none = rng.normal(size=4)
        blocks = {
            frozenset({0, 1}): np.array([[w_both]]),
            frozenset({0}): np.array([[w_row]]),
            frozenset({1}): np.array([[w_col]]),
            frozenset(): np.array([[w_none]]),
        }
        u = dense_to_pooled_blocks(blocks, (N, M))
        assert_allclose(u[frozenset({0, 1})], w_both - w_row - w_col + w_none)
        assert_allclose(u[frozenset({0})], (w_row - w_none) * M)
        assert_allclose(u[frozenset({1})], (w_col - w_none) * N)
        assert_allclose(u[frozenset()], w_none * N * M)

    def test_partial_observation_rejected(self):
        rng = np.random.default_rng(7)
        t = random_dense((2, 2), 1, rng)
        partial = type(t)((2, 2), t.indices[:3], t.values[:3])
        with pytest.raises(ValueError, match="fully observed"):
            dense_oracle_layer(
                partial, ExchLayerParams(blocks=scalar_blocks(2, rng),
                                         bias=np.zeros(1))
            )


class TestLegality:
    def test_identity_legal(self):
        legal, spec = is_legal_permutation(np.arange(6), (2, 3))
        assert legal
        assert_array_equal(spec.maps[0], [0, 1])
        assert_array_equal(spec.maps[1], [0, 1, 2])

    def test_flattened_spec_recovered(self):
        rng = np.random.default_rng(8)
        for dims in [(2, 3), (3, 4), (2, 2, 2)]:
            p = PermutationSpec.random(dims, rng)
            legal, spec = is_legal_permutation(p.flatten(), dims)
            assert legal
            for a, b in zip(spec.maps, p.maps):
                assert_array_equal(a, b)

    def test_diagonal_swap_illegal(self):
        # swap cells (0,0) <-> (1,1) on a 2x2, fix the rest
        perm = np.array([3, 1, 2, 0])
        legal, spec = is_legal_permutation(perm, (2, 2))
        assert not legal
        assert spec is None

    def test_four_cycle_illegal(self):
        # rotate (0,0)->(0,1)->(1,1)->(1,0)->(0,0): each coordinate value
        # maps to both axis labels, so no per-axis factoring exists
        perm = np.array([1, 3, 0, 2])
        assert not is_legal_permutation(perm, (2, 2))[0]

    def test_exhaustive_2x2_census(self):
        legal = [p for p in enumerate_flat_permutations((2, 2))
                 if is_legal_permutation(p, (2, 2))[0]]
        assert len(legal) == 4

    def test_one_axis_all_legal(self):
        for p in enumerate_flat_permutations((4,)):
            assert is_legal_permutation(p, (4,))[0]


class TestWitnesses:
    def test_generic_weights_witness_every_illegal_2x2(self):
        rng = np.random.default_rng(9)
        params = ExchLayerParams(
            blocks=generic_scalar_blocks(2, rng), bias=np.zeros(1)
        )
        layer = lambda t: exchangeable_tensor_layer(t, params)
        for perm in enumerate_flat_permutations((2, 2)):
            if is_legal_permutation(perm, (2, 2))[0]:
                continue
            w = find_witness(layer, (2, 2), perm)
            assert w.found, perm
            assert w.deviation > 1e-10

    def test_constant_weight_matrix_has_no_witness(self):
        # a constant cell-by-cell matrix commutes with EVERY permutation;
        # expressed in pooled form, only the global-mean block survives
        params = ExchLayerParams(
            blocks=dense_to_pooled_blocks(constant_scalar_blocks(2, 0.8), (2, 2)),
            bias=np.zeros(1),
        )
        layer = lambda t: exchangeable_tensor_layer(t, params)
        for perm in enumerate_flat_permutations((2, 2)):
            if is_legal_permutation(perm, (2, 2))[0]:
                continue
            assert not find_witness(layer, (2, 2), perm).found

    def test_monotone_nonlinearity_preserves_witnesses(self):
        rng = np.random.default_rng(10)
        params = ExchLayerParams(
            blocks=generic_scalar_blocks(2, rng), bias=np.array([0.3]),
            nonlinearity="leaky_relu",
        )
        layer = lambda t: exchangeable_tensor_layer(t, params)
        perm = np.array([3, 1, 2, 0])
        assert find_witness(layer, (2, 2), perm).found

    def test_sampler_returns_only_illegal(self):
        rng = np.random.default_rng(11)
        for perm in sample_illegal_permutations((2, 3), 5, rng):
            assert not is_legal_permutation(perm, (2, 3))[0]

    def test_no_illegal_exists_for_single_wide_axis(self):
        rng = np.random.default_rng(12)
        assert sample_illegal_permutations((1, 4), 5, rng, max_attempts=200) == []


class TestOrbits:
    def test_counts_match_subset_structure(self):
        assert count_orbits((3,)) == 2
        assert count_orbits((2, 3)) == 4
        assert count_orbits((2, 2, 2)) == 8

    def test_formula_agrees_with_bruteforce(self):
        for dims in [(2,), (4,), (2, 2), (3, 3), (2, 2, 3)]:
            brute = count_orbits(dims)
            assert brute == 2 ** sum(d >= 2 for d in dims)

    def test_degenerate_axis_halves_count(self):
        # an axis with one label can never disagree
        assert count_orbits((1, 3)) == 2
        assert count_orbits((1, 1)) == 1

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            count_orbits((70, 70))


class TestReports:
    def test_check_equivariance_passes_generic_layer(self):
        report = check_equivariance((3, 4), trials=25, seed=0)
        assert report.legal_max_deviation <= 1e-10
        assert len(report.illegal) > 0
        assert all(w.found for w in report.illegal)
        assert report.orbit_count == report.orbit_expected == 4
        assert report.passed

    def test_check_equivariance_flags_broken_layer(self):
        # a layer that mixes absolute row position in is not equivariant
        def bad_layer(t):
            return t.with_values(t.values + t.indices[:, :1].astype(float))

        report = check_equivariance((3, 4), trials=25, seed=1, layer=bad_layer)
        assert report.legal_max_deviation > 1e-10
        assert not report.passed

    def test_zero_trials_do_not_pass(self):
        report = check_equivariance((3, 3), trials=0, seed=0)
        assert report.legal_trials == 0
        assert not report.passed
        assert not run_verifier_suite((2, 2), trials=0, oracle_draws=2)["passed"]

    @pytest.mark.parametrize("dims", [(1, 1), (1,)])
    def test_suite_passes_on_one_cell_shapes(self, dims):
        out = run_verifier_suite(dims, trials=5, seed=0, oracle_draws=5)
        assert out["passed"]
        assert out["census"] == {"legal": 1, "expected": 1}

    def test_suite_passes_and_serializes(self):
        out = run_verifier_suite((2, 2), trials=10, seed=0, oracle_draws=10)
        assert out["passed"]
        assert out["census"] == {"legal": 4, "expected": 4}
        assert out["orbit_count"] == 4
        assert out["oracle_max_deviation"] <= 1e-10
        import json

        json.dumps(out)

    def test_apply_flat_permutation_requires_dense(self):
        rng = np.random.default_rng(13)
        t = random_dense((2, 2), 1, rng)
        partial = type(t)((2, 2), t.indices[:2], t.values[:2])
        with pytest.raises(ValueError, match="fully observed"):
            apply_flat_permutation(partial, np.array([1, 0, 2, 3]))

    def test_flat_action_matches_axis_action_when_legal(self):
        from exchtensor.sparse import apply_permutation

        rng = np.random.default_rng(14)
        t = random_dense((3, 4), 2, rng)
        p = PermutationSpec.random((3, 4), rng)
        a = apply_flat_permutation(t, p.flatten())
        b = apply_permutation(t, p)
        assert a == b
