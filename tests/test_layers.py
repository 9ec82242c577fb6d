"""Equivariant layer semantics: worked values, symmetry, factor pooling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import random_dense, random_sparse, transpose_matrix

from exchtensor.autodiff import Graph, backward, forward
from exchtensor.layers import (
    ExchLayerParams,
    FactorPair,
    add_layer_nodes,
    all_subsets,
    apply_stack,
    broadcast_factors,
    broadcast_side_features,
    dropout_channel_mask,
    exchangeable_tensor_layer,
    pool_to_factors,
    pooling_groups,
    random_layer_params,
)
from exchtensor.sparse import PermutationSpec, apply_permutation, build_sparse, to_dense


def unit_params(ndim, nonlinearity="identity"):
    """All 2^D blocks equal to the 1x1 matrix [1], zero bias."""
    blocks = {S: np.array([[1.0]]) for S in all_subsets(ndim)}
    return ExchLayerParams(
        blocks=blocks, bias=np.zeros(1), nonlinearity=nonlinearity,
    )


class TestMatrixLayerValues:
    def test_single_cell_collapses_to_four_x(self):
        t = build_sparse((1, 1), [((0, 0), (2.5,))])
        y = exchangeable_tensor_layer(t, unit_params(2))
        assert_allclose(y.values, [[10.0]])

    def test_fully_observed_2x2_unit_weights(self):
        t = build_sparse(
            (2, 2),
            [((0, 0), (1.0,)), ((0, 1), (2.0,)), ((1, 0), (3.0,)), ((1, 1), (4.0,))],
        )
        y = exchangeable_tensor_layer(t, unit_params(2))
        dense, _ = to_dense(y)
        assert_allclose(dense[:, :, 0], [[7.0, 9.0], [11.0, 13.0]])

    def test_sparse_three_cell_example(self):
        t = build_sparse(
            (2, 2), [((0, 0), (1.0,)), ((0, 1), (2.0,)), ((1, 0), (3.0,))]
        )
        y = exchangeable_tensor_layer(t, unit_params(2))
        # cell + column mean + row mean + global mean, observed cells only
        assert_array_equal(y.indices, [[0, 0], [0, 1], [1, 0]])
        assert_allclose(y.values[:, 0], [6.5, 7.5, 10.0])

    def test_distinct_blocks_route_to_the_right_pools(self):
        # weights picked so each term is separable in the output
        t = build_sparse(
            (2, 2), [((0, 0), (1.0,)), ((0, 1), (2.0,)), ((1, 0), (3.0,))]
        )
        blocks = {
            frozenset({0, 1}): np.array([[1.0]]),
            frozenset({1}): np.array([[100.0]]),   # column mean
            frozenset({0}): np.array([[10000.0]]), # row mean
            frozenset(): np.array([[0.0]]),
        }
        p = ExchLayerParams(blocks=blocks, bias=np.zeros(1))
        y = exchangeable_tensor_layer(t, p)
        # Y(0,0) = 1 + 100*colmean{1,3} + 10000*rowmean{1,2}
        assert_allclose(y.values[0, 0], 1.0 + 100 * 2.0 + 10000 * 1.5)

    def test_bias_and_nonlinearity_applied_last(self):
        t = build_sparse((1, 1), [((0, 0), (-1.0,))])
        p = unit_params(2, nonlinearity="leaky_relu")
        p.bias = np.array([1.0])
        y = exchangeable_tensor_layer(t, p)
        # pre-activation: 4*(-1) + 1 = -3, leaky slope 0.01
        assert_allclose(y.values, [[-0.03]])

    def test_channel_mismatch_rejected(self):
        t = build_sparse((2, 2), [((0, 0), (1.0, 2.0))])
        with pytest.raises(ValueError, match="channels"):
            exchangeable_tensor_layer(t, unit_params(2))

    def test_requires_two_axes(self):
        t = build_sparse((3,), [((0,), (1.0,)), ((2,), (2.0,))])
        with pytest.raises(ValueError, match="2 axes"):
            exchangeable_tensor_layer(t, unit_params(2))


class TestTensorLayer:
    def test_one_axis_is_the_set_layer(self):
        rng = np.random.default_rng(0)
        t = build_sparse((4,), [((i,), (float(v),)) for i, v in
                                zip(range(4), rng.normal(size=4))])
        w_self, w_pool, bias = 1.7, -0.3, 0.25
        p = ExchLayerParams(
            blocks={frozenset({0}): np.array([[w_self]]),
                    frozenset(): np.array([[w_pool]])},
            bias=np.array([bias]),
        )
        y = exchangeable_tensor_layer(t, p)
        expect = w_self * t.values + w_pool * t.values.mean() + bias
        assert_allclose(y.values, expect)

    def test_all_singleton_dims_sums_blocks(self):
        rng = np.random.default_rng(1)
        t = build_sparse((1, 1, 1), [((0, 0, 0), (2.0,))])
        blocks = {S: rng.normal(size=(1, 1)) for S in all_subsets(3)}
        p = ExchLayerParams(blocks=blocks, bias=np.array([0.5]))
        y = exchangeable_tensor_layer(t, p)
        total = sum(w[0, 0] for w in blocks.values())
        assert_allclose(y.values, [[2.0 * total + 0.5]])

    def test_one_layer_stack_equals_tensor_layer_bitwise(self):
        rng = np.random.default_rng(2)
        t = random_sparse((4, 5), 3, 12, rng)
        p = random_layer_params(2, 3, 2, rng, nonlinearity="sigmoid")
        a = exchangeable_tensor_layer(t, p)
        b = apply_stack(t, (p,))
        assert_array_equal(a.values, b.values)

    def test_three_axis_matches_dense_pooled_oracle(self):
        rng = np.random.default_rng(3)
        t = random_dense((3, 4, 2), 1, rng)
        blocks = {S: rng.normal(size=(1, 1)) for S in all_subsets(3)}
        p = ExchLayerParams(blocks=blocks, bias=rng.normal(size=1))
        y = exchangeable_tensor_layer(t, p)
        dense, _ = to_dense(t)
        x = dense[:, :, :, 0]
        acc = np.zeros_like(x)
        for S, w in blocks.items():
            pool_axes = tuple(a for a in range(3) if a not in S)
            acc += w[0, 0] * x.mean(axis=pool_axes, keepdims=True)
        acc += p.bias[0]
        ydense, _ = to_dense(y)
        assert_allclose(ydense[:, :, :, 0], acc, atol=1e-12)

    @pytest.mark.parametrize("dims,n_obs,tied", [
        ((6, 7), 25, False), ((5, 5), 18, True), ((4, 5, 3), 30, False),
    ])
    def test_pool_mix_broadcast_equals_broadcast_then_mix(self, dims, n_obs,
                                                          tied):
        """The layer mixes pooled group rows and then broadcasts; the
        paper's order broadcasts every pooled mean to its cells and then
        mixes.  Both give the same values."""
        rng = np.random.default_rng(sum(dims) + n_obs)
        t = random_sparse(dims, 3, n_obs, rng)
        p = random_layer_params(len(dims), 3, 4, rng,
                                nonlinearity="leaky_relu", slope=0.2,
                                tied=tied)
        p.bias = rng.normal(size=4)
        pre = np.tile(p.bias, (n_obs, 1))
        for S, w in p.blocks.items():
            keep = sorted(S)
            if keep:
                _, gid = np.unique(t.indices[:, keep], axis=0,
                                   return_inverse=True)
                gid = gid.ravel()
            else:
                gid = np.zeros(n_obs, dtype=np.int64)
            sums = np.zeros((gid.max() + 1, 3))
            np.add.at(sums, gid, t.values)
            means = sums / np.bincount(gid)[:, None]
            pre += means[gid] @ w
        expect = np.where(pre >= 0, pre, 0.2 * pre)
        got = exchangeable_tensor_layer(t, p).values
        assert_allclose(got, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan"), "0.5"])
    def test_slope_outside_unit_interval_rejected(self, slope):
        blocks = {S: np.ones((1, 1)) for S in all_subsets(2)}
        with pytest.raises(ValueError, match="slope"):
            ExchLayerParams(blocks=blocks, bias=np.zeros(1),
                            nonlinearity="leaky_relu", slope=slope)

    def test_block_count_mismatch_rejected(self):
        blocks = {frozenset({0, 1}): np.ones((1, 1)), frozenset(): np.ones((1, 1))}
        with pytest.raises(ValueError, match="subsets"):
            ExchLayerParams(blocks=blocks, bias=np.zeros(1))

    def test_parameter_count(self):
        rng = np.random.default_rng(4)
        for ndim, K, O in [(1, 3, 2), (2, 4, 4), (3, 2, 5)]:
            p = random_layer_params(ndim, K, O, rng)
            assert p.n_params == 2**ndim * K * O + O


class TestEquivariance:
    @pytest.mark.parametrize(
        "dims,channels", [((3, 4), 1), ((6, 7), 3), ((3, 4, 2), 2), ((2, 2, 2, 2), 1)]
    )
    def test_layer_commutes_with_permutations(self, dims, channels):
        rng = np.random.default_rng(42)
        for trial in range(10):
            dense = trial % 2 == 0
            n_obs = int(np.prod(dims)) if dense else max(2, int(np.prod(dims)) // 2)
            t = random_sparse(dims, channels, n_obs, rng)
            p = random_layer_params(
                len(dims), channels, 2, rng,
                nonlinearity=("sigmoid", "leaky_relu")[trial % 2],
            )
            perm = PermutationSpec.random(dims, rng)
            left = exchangeable_tensor_layer(apply_permutation(t, perm), p)
            right = apply_permutation(exchangeable_tensor_layer(t, p), perm)
            assert left.allclose(right, tol=1e-10)

    def test_two_layer_stack_stays_equivariant(self):
        rng = np.random.default_rng(5)
        t = random_sparse((5, 6), 2, 14, rng)
        p1 = random_layer_params(2, 2, 3, rng, nonlinearity="leaky_relu")
        p2 = random_layer_params(2, 3, 2, rng, nonlinearity="sigmoid")
        perm = PermutationSpec.random(t.dims, rng)

        def stack(x):
            return apply_stack(x, (p1, p2))

        left = stack(apply_permutation(t, perm))
        right = apply_permutation(stack(t), perm)
        assert left.allclose(right, tol=1e-10)

    def test_tied_blocks_commute_with_transpose(self):
        rng = np.random.default_rng(6)
        t = random_sparse((5, 5), 2, 17, rng)
        p = random_layer_params(2, 2, 2, rng, tied=True, nonlinearity="sigmoid")
        assert p.blocks[frozenset({0})] is p.blocks[frozenset({1})]
        left = exchangeable_tensor_layer(transpose_matrix(t), p)
        right = transpose_matrix(exchangeable_tensor_layer(t, p))
        assert left.allclose(right, tol=1e-10)

    def test_untied_blocks_do_not_commute_with_transpose(self):
        rng = np.random.default_rng(7)
        t = random_sparse((5, 5), 1, 17, rng)
        p = random_layer_params(2, 1, 1, rng)
        left = exchangeable_tensor_layer(transpose_matrix(t), p)
        right = transpose_matrix(exchangeable_tensor_layer(t, p))
        assert not left.allclose(right, tol=1e-10)


class TestLayerGradients:
    def test_layer_parameters_match_finite_differences(self):
        rng = np.random.default_rng(8)
        t = random_sparse((3, 3), 2, 6, rng)
        params = random_layer_params(2, 2, 3, rng, nonlinearity="sigmoid")
        g = Graph()
        x = g.input("x")
        out = add_layer_nodes(g, x, pooling_groups(t), params, "L0")
        loss = g.mean_square_error(out, g.input("target"))
        bindings = {"x": t.values, "target": rng.normal(size=(6, 3)),
                    **params.bindings("L0")}
        vals = forward(g, bindings)
        grads = backward(g, vals, loss)
        eps = 1e-5
        for pname in g.parameters:
            base = bindings[pname]
            num = np.zeros_like(base)
            for i in range(base.size):
                for sign in (+1, -1):
                    b = dict(bindings)
                    shifted = base.copy()
                    shifted.ravel()[i] += sign * eps
                    b[pname] = shifted
                    num.ravel()[i] += sign * float(forward(g, b)[loss]) / (2 * eps)
            rel = np.abs(grads[pname] - num) / np.maximum(
                1.0, np.abs(grads[pname]) + np.abs(num))
            assert rel.max() < 1e-4, pname

    def test_tied_layer_shares_one_parameter_node(self):
        rng = np.random.default_rng(9)
        t = random_sparse((4, 4), 2, 9, rng)
        params = random_layer_params(2, 2, 2, rng, tied=True)
        g = Graph()
        x = g.input("x")
        add_layer_nodes(g, x, pooling_groups(t), params, "L0")
        # 3 distinct blocks + bias for the tied matrix layer
        assert len(g.parameters) == 4


class TestSideFeatures:
    def test_no_features_is_identity(self):
        rng = np.random.default_rng(10)
        t = random_sparse((3, 4), 2, 7, rng)
        assert broadcast_side_features(t) == t

    def test_constant_row_feature_fills_channel(self):
        t = build_sparse((2, 2), [((0, 0), (1.0,)), ((1, 1), (2.0,))])
        out = broadcast_side_features(t, row_features=np.full((2, 1), 9.0))
        assert out.channels == 2
        assert_allclose(out.values[:, 1], [9.0, 9.0])

    def test_rows_and_cols_appended_in_order(self):
        t = build_sparse((2, 3), [((0, 1), (0.0,)), ((1, 2), (0.0,))])
        rf = np.array([[1.0], [2.0]])
        cf = np.array([[10.0], [20.0], [30.0]])
        out = broadcast_side_features(t, rf, cf)
        assert_allclose(out.values, [[0.0, 1.0, 20.0], [0.0, 2.0, 30.0]])

    def test_commutes_with_joint_permutation(self):
        rng = np.random.default_rng(11)
        t = random_sparse((4, 5), 2, 11, rng)
        rf = rng.normal(size=(4, 2))
        cf = rng.normal(size=(5, 1))
        perm = PermutationSpec.random(t.dims, rng)
        inv_r = np.argsort(perm.maps[0])
        inv_c = np.argsort(perm.maps[1])
        left = broadcast_side_features(
            apply_permutation(t, perm), rf[inv_r], cf[inv_c]
        )
        right = apply_permutation(broadcast_side_features(t, rf, cf), perm)
        assert left.allclose(right, tol=0)

    def test_size_mismatch_rejected(self):
        t = build_sparse((2, 2), [((0, 0), (1.0,))])
        with pytest.raises(ValueError, match="row features"):
            broadcast_side_features(t, row_features=np.zeros((3, 1)))


class TestChannelDropout:
    def test_rate_zero_is_identity(self):
        mask, kept = dropout_channel_mask(4, 0.0, np.random.default_rng(0))
        assert kept.all()
        assert_array_equal(mask, np.ones((1, 4)))

    def test_dropped_channel_zero_everywhere(self):
        rng = np.random.default_rng(13)
        t = random_sparse((4, 4), 8, 12, rng)
        mask, kept = dropout_channel_mask(8, 0.5, np.random.default_rng(99))
        out = t.values * mask
        for k in range(8):
            if kept[k]:
                assert_allclose(out[:, k], t.values[:, k] * 2.0)
            else:
                assert_allclose(out[:, k], 0.0)

    def test_deterministic_given_seed(self):
        a, ka = dropout_channel_mask(6, 0.4, np.random.default_rng(7))
        b, kb = dropout_channel_mask(6, 0.4, np.random.default_rng(7))
        assert_array_equal(ka, kb)
        assert_array_equal(a, b)

    def test_survivor_count_concentrates(self):
        survivors = [
            dropout_channel_mask(256, 0.5, np.random.default_rng(seed))[1].sum()
            for seed in range(1000)
        ]
        # Binomial(256, 0.5): mean 128, sd 8; sample mean has sd 0.25
        assert 120 <= np.mean(survivors) <= 136

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            dropout_channel_mask(1, 1.0, np.random.default_rng(0))


class TestFactors:
    def test_single_cell(self):
        t = build_sparse((1, 1), [((0, 0), (3.0,))])
        f = pool_to_factors(t)
        assert_allclose(f.z_rows, [[3.0]])
        assert_allclose(f.z_cols, [[3.0]])

    def test_two_by_two_means(self):
        t = build_sparse(
            (2, 2),
            [((0, 0), (1.0,)), ((0, 1), (2.0,)), ((1, 0), (3.0,)), ((1, 1), (4.0,))],
        )
        f = pool_to_factors(t)
        assert_allclose(f.z_rows[:, 0], [1.5, 3.5])
        assert_allclose(f.z_cols[:, 0], [2.0, 3.0])

    def test_constant_tensor_constant_factors(self):
        rng = np.random.default_rng(16)
        t = random_sparse((4, 5), 2, 12, rng)
        t = t.with_values(np.full_like(t.values, 1.25))
        f = pool_to_factors(t)
        assert_allclose(f.z_rows[f.row_observed], 1.25)
        assert_allclose(f.z_cols[f.col_observed], 1.25)

    def test_cold_rows_flagged_not_zero_filled_silently(self):
        t = build_sparse((3, 2), [((0, 0), (1.0,)), ((2, 1), (2.0,))])
        f = pool_to_factors(t)
        assert_array_equal(f.row_observed, [True, False, True])
        assert f.col_observed.all()

    def test_permuting_rows_permutes_row_factors_only(self):
        rng = np.random.default_rng(17)
        t = random_sparse((5, 4), 3, 11, rng)
        rowperm = PermutationSpec(
            (rng.permutation(5), np.arange(4))
        )
        f0 = pool_to_factors(t)
        f1 = pool_to_factors(apply_permutation(t, rowperm))
        assert_allclose(f1.z_rows[rowperm.maps[0]], f0.z_rows, atol=1e-12)
        assert_allclose(f1.z_cols, f0.z_cols, atol=1e-12)

    def test_broadcast_example(self):
        f = FactorPair(np.array([[1.0], [2.0]]), np.array([[3.0]]))
        out = broadcast_factors(f, [(0, 0), (1, 0)])
        assert_allclose(out.values, [[1.0, 3.0], [2.0, 3.0]])
        assert out.dims == (2, 1)

    def test_broadcast_then_pool_recovers_factors(self):
        rng = np.random.default_rng(18)
        f = FactorPair(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
        idx = [(n, m) for n in range(3) for m in range(4)]
        back = pool_to_factors(broadcast_factors(f, idx))
        assert_allclose(back.z_rows[:, :2], f.z_rows, atol=1e-12)
        assert_allclose(back.z_cols[:, 2:], f.z_cols, atol=1e-12)

    def test_cold_index_rejected_unless_allowed(self):
        t = build_sparse((3, 2), [((0, 0), (1.0,)), ((2, 1), (2.0,))])
        f = pool_to_factors(t)
        with pytest.raises(ValueError, match="cold row 1"):
            broadcast_factors(f, [(1, 0)])
        out = broadcast_factors(f, [(1, 0)], allow_cold=True)
        assert_allclose(out.values[0, 0], 0.0)

    def test_imputed_fills_cold_rows_with_warm_mean(self):
        t = build_sparse((3, 2), [((0, 0), (2.0,)), ((2, 1), (4.0,))])
        f = pool_to_factors(t).imputed()
        assert f.row_observed.all()
        assert_allclose(f.z_rows[1, 0], 3.0)

    def test_out_of_range_index_rejected(self):
        f = FactorPair(np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="factor tables"):
            broadcast_factors(f, [(2, 0)])
