"""Equivariant layer semantics: worked values, symmetry, factor pooling."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    build_sparse, random_dense, random_sparse, to_dense, transpose_matrix,
)

from exchtensor import autodiff
from exchtensor.autodiff import (
    Graph, apply_nonlinearity, backward, equivariant_layer, forward,
)
from exchtensor.layers import (
    ExchLayerParams,
    FactorPair,
    add_layer_nodes,
    all_subsets,
    apply_stack,
    broadcast_factors,
    dropout_channel_mask,
    exchangeable_tensor_layer,
    pool_to_factors,
    pooling_groups,
    random_layer_params,
)
from exchtensor.sparse import PermutationSpec, apply_permutation


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
        p = random_layer_params(2, 3, 2, rng, nonlinearity="softmax")
        a = exchangeable_tensor_layer(t, p)
        b = apply_stack(t, (p,))
        assert_array_equal(a.values, b.values)

    @staticmethod
    def assert_activates_its_own_buffer(dims, n_obs, tied, nonlinearity,
                                        dtype):
        """The layer activates its output in place and hands it over
        read-only; the values equal the whole pre-activation's
        activation bit for bit, and the input is left as it was."""
        rng = np.random.default_rng(5)
        t = random_sparse(dims, 3, n_obs, rng)
        t = t.with_values(t.values.astype(dtype))
        before = t.values.copy()
        p = random_layer_params(len(dims), 3, 4, rng,
                                nonlinearity=nonlinearity, tied=tied)
        blocks = {S: w.astype(dtype) for S, w in p.blocks.items()}
        if tied:
            blocks[frozenset({1})] = blocks[frozenset({0})]
        p = ExchLayerParams(blocks, rng.normal(size=4).astype(dtype),
                            nonlinearity, slope=np.float64(0.2), tied=tied)
        assert type(p.slope) is float
        subsets = all_subsets(len(dims))
        pre, _ = equivariant_layer(
            t.values, p.bias, [p.blocks[S] for S in subsets],
            [pooling_groups(t)[S] for S in subsets[1:]])
        want = apply_nonlinearity(pre, nonlinearity, p.slope)
        got = exchangeable_tensor_layer(t, p).values
        assert got.dtype == want.dtype == dtype and not got.flags.writeable
        assert got.tobytes() == want.tobytes()
        assert_array_equal(t.values, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nonlinearity",
                             ["identity", "leaky_relu", "softmax"])
    def test_activates_its_own_buffer_bitwise(self, nonlinearity, dtype):
        self.assert_activates_its_own_buffer((6, 7), 25, False, nonlinearity,
                                             dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nonlinearity",
                             ["identity", "leaky_relu", "softmax"])
    @pytest.mark.parametrize("dims, n_obs, tied", [
        ((12, 15), 101, False),
        ((11, 11), 97, True),
        ((1, 150), 101, False),  # one row: the row pool is one group
        ((6, 5, 7), 103, False),
    ])
    def test_activates_across_row_blocks_bitwise(self, monkeypatch, dims,
                                                 n_obs, tied, nonlinearity,
                                                 dtype):
        """As above, with 256-byte blocks: 4 output channels span 7 to 13
        row blocks, the last one short."""
        monkeypatch.setattr(autodiff, "BLOCK_BYTES", 256)
        self.assert_activates_its_own_buffer(dims, n_obs, tied, nonlinearity,
                                             dtype)

    @pytest.mark.parametrize("nonlinearity", ["identity", "leaky_relu"])
    def test_holds_little_beyond_its_output(self, nonlinearity):
        """A float64 64->64 layer over 40k cells: the cell term's product
        is the output, and the bias, pooled terms and activation go over
        it a row block at a time, so the traced peak stays within 2 MiB
        of the output's 19.5 MiB."""
        rng = np.random.default_rng(0)
        t = random_sparse((200, 400), 64, 40_000, rng)
        p = random_layer_params(2, 64, 64, rng, nonlinearity)
        pooling_groups(t)  # computed once per index set, not per layer
        tracemalloc.start()
        try:
            out = exchangeable_tensor_layer(t, p).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20

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
                                nonlinearity="leaky_relu", tied=tied)
        p.slope = 0.2
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

    def test_rebinding_keeps_the_tie_and_refuses_other_shapes(self):
        p = random_layer_params(2, 2, 3, np.random.default_rng(4),
                                nonlinearity="leaky_relu", tied=True)
        arrays = {n: a + 1.0 for n, a in p.bindings("L").items()}
        q = p.from_bindings("L", arrays)
        assert q.tied and q.nonlinearity == "leaky_relu"
        assert q.blocks[frozenset({0})] is q.blocks[frozenset({1})] \
            is arrays["L.w0"]
        assert p.blocks[frozenset({0})] is not arrays["L.w0"]
        with pytest.raises(ValueError, match="other shapes"):
            p.from_bindings("L", {**arrays, "L.bias": np.zeros(2)})

    def test_parameter_count(self):
        rng = np.random.default_rng(4)
        for ndim, K, O in [(1, 3, 2), (2, 4, 4), (3, 2, 5)]:
            p = random_layer_params(ndim, K, O, rng)
            sizes = [a.size for a in p.bindings("layer1").values()]
            assert sum(sizes) == 2**ndim * K * O + O


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
                nonlinearity=("softmax", "leaky_relu")[trial % 2],
            )
            perm = PermutationSpec.random(dims, rng)
            left = exchangeable_tensor_layer(apply_permutation(t, perm), p)
            right = apply_permutation(exchangeable_tensor_layer(t, p), perm)
            assert left.allclose(right, tol=1e-10)

    def test_two_layer_stack_stays_equivariant(self):
        rng = np.random.default_rng(5)
        t = random_sparse((5, 6), 2, 14, rng)
        p1 = random_layer_params(2, 2, 3, rng, nonlinearity="leaky_relu")
        p2 = random_layer_params(2, 3, 2, rng, nonlinearity="softmax")
        perm = PermutationSpec.random(t.dims, rng)

        def stack(x):
            return apply_stack(x, (p1, p2))

        left = stack(apply_permutation(t, perm))
        right = apply_permutation(stack(t), perm)
        assert left.allclose(right, tol=1e-10)

    def test_tied_blocks_commute_with_transpose(self):
        rng = np.random.default_rng(6)
        t = random_sparse((5, 5), 2, 17, rng)
        p = random_layer_params(2, 2, 2, rng, tied=True, nonlinearity="leaky_relu")
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
        params = random_layer_params(2, 2, 3, rng, nonlinearity="softmax")
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

    @pytest.mark.parametrize("ndim, n_params", [(2, 5), (3, 9)])
    def test_a_layer_is_one_op_node_and_its_nonlinearity(self, ndim,
                                                         n_params):
        rng = np.random.default_rng(ndim)
        t = random_sparse((3,) * ndim, 2, 9, rng)
        params = random_layer_params(ndim, 2, 2, rng)
        g = Graph()
        x = g.input("x")
        add_layer_nodes(g, x, pooling_groups(t), params, "L0",
                        dropout_mask=np.ones((1, 2)))
        assert len(g.parameters) == n_params
        assert [n.op for n in g.nodes if n.op not in ("input", "parameter")] \
            == ["equivariant_layer", "nonlinearity", "dropout_mask"]

    def test_tied_layer_shares_one_parameter_node(self):
        rng = np.random.default_rng(9)
        t = random_sparse((4, 4), 2, 9, rng)
        params = random_layer_params(2, 2, 2, rng, tied=True)
        g = Graph()
        x = g.input("x")
        add_layer_nodes(g, x, pooling_groups(t), params, "L0")
        # 3 distinct blocks + bias for the tied matrix layer
        assert len(g.parameters) == 4


class TestChannelDropout:
    def test_rate_zero_is_identity(self):
        mask = dropout_channel_mask(4, 0.0, np.random.default_rng(0))
        assert_array_equal(mask, np.ones((1, 4)))

    def test_dropped_channel_zero_everywhere(self):
        rng = np.random.default_rng(13)
        t = random_sparse((4, 4), 8, 12, rng)
        mask = dropout_channel_mask(8, 0.5, np.random.default_rng(99))
        out = t.values * mask
        for k in range(8):
            if mask[0, k]:
                assert_allclose(out[:, k], t.values[:, k] * 2.0)
            else:
                assert_allclose(out[:, k], 0.0)

    def test_deterministic_given_seed(self):
        a = dropout_channel_mask(6, 0.4, np.random.default_rng(7))
        b = dropout_channel_mask(6, 0.4, np.random.default_rng(7))
        assert_array_equal(a, b)

    def test_survivor_count_concentrates(self):
        survivors = [
            np.count_nonzero(
                dropout_channel_mask(256, 0.5, np.random.default_rng(seed)))
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

    def test_cold_index_rejected(self):
        t = build_sparse((3, 2), [((0, 0), (1.0,)), ((2, 1), (2.0,))])
        f = pool_to_factors(t)
        with pytest.raises(ValueError, match="cold row 1"):
            broadcast_factors(f, [(1, 0)])

    def test_imputed_fills_cold_rows_with_warm_mean(self):
        t = build_sparse((3, 2), [((0, 0), (2.0,)), ((2, 1), (4.0,))])
        f = pool_to_factors(t).imputed()
        assert f.row_observed.all()
        assert_allclose(f.z_rows[1, 0], 3.0)

    def test_out_of_range_index_rejected(self):
        f = FactorPair(np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="factor tables"):
            broadcast_factors(f, [(2, 0)])

    def test_broadcast_onto_an_index_set_shares_its_groupings(self):
        rng = np.random.default_rng(19)
        f = FactorPair(rng.normal(size=(4, 2)), rng.normal(size=(5, 2)))
        cells = random_sparse((4, 5), 1, 9, rng)
        groups = pooling_groups(cells)
        out = broadcast_factors(f, cells)
        assert out == broadcast_factors(f, cells.indices[::-1])
        assert pooling_groups(out) == groups
        assert all(pooling_groups(out)[S] is g for S, g in groups.items())
        with pytest.raises(ValueError, match="differ from factors"):
            broadcast_factors(f, random_sparse((4, 6), 1, 9, rng))
