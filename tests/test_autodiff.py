"""Forward semantics and gradient correctness of the operation graph."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    assert_bitwise_equal, build_sparse, composed_layer_nodes, random_sparse,
    row_wise_cross_entropy, row_wise_softmax,
)

from exchtensor import autodiff
from exchtensor.autodiff import Graph, backward, forward
from exchtensor.layers import (
    add_layer_nodes, all_subsets, block_name, pooling_groups,
    random_layer_params,
)
from exchtensor.sparse import SparseExchangeableTensor, axis_groups


def numeric_grads(graph, bindings, loss, params, eps=1e-5):
    """Central finite differences of the scalar loss wrt each parameter."""
    out = {}
    for p in params:
        base = np.asarray(bindings[p], dtype=np.float64)
        g = np.zeros_like(base)
        flat = base.ravel()
        for i in range(flat.size):
            for sign in (+1, -1):
                shifted = base.copy().ravel()
                shifted[i] += sign * eps
                b = dict(bindings)
                b[p] = shifted.reshape(base.shape)
                val = float(forward(graph, b)[loss])
                g.ravel()[i] += sign * val / (2 * eps)
        out[p] = g
    return out


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for p, a in analytic.items():
        n = numeric[p]
        denom = np.maximum(1.0, np.abs(a) + np.abs(n))
        rel = np.abs(a - n) / denom
        assert rel.max() < rtol, f"param {p}: max rel err {rel.max():.2e}"


def three_cell_groups():
    t = build_sparse(
        (2, 2), [((0, 0), (1.0,)), ((0, 1), (2.0,)), ((1, 0), (3.0,))]
    )
    return t, axis_groups(t, [0]), axis_groups(t, [1]), axis_groups(t, [])


class TestForward:
    def test_identity_passthrough(self):
        g = Graph()
        x = g.input("x")
        y = g.nonlinearity(x, "identity")
        vals = forward(g, {"x": np.array([[3.0]])})
        assert_allclose(vals[y], [[3.0]])

    def test_leaky_relu_negative_slope(self):
        g = Graph()
        x = g.input("x")
        y = g.nonlinearity(x, "leaky_relu", slope=0.01)
        vals = forward(g, {"x": np.array([[-1.0, 2.0]])})
        assert_allclose(vals[y], [[-0.01, 2.0]])

    def test_unbound_node_named_in_error(self):
        g = Graph()
        g.input("presence")
        with pytest.raises(ValueError, match="presence"):
            forward(g, {})

    def test_deterministic_given_bindings(self):
        t, rows, cols, _ = three_cell_groups()
        g = Graph()
        x = g.input("x")
        p = g.segment_pool(x, rows, "mean")
        b = g.gather_broadcast(p, rows)
        rng = np.random.default_rng(0)
        binding = {"x": rng.normal(size=(3, 1))}
        v1 = forward(g, binding)[b]
        v2 = forward(g, binding)[b]
        assert_allclose(v1, v2, rtol=0, atol=0)


class TestSegmentOps:
    def test_single_group_mean(self):
        t, _, _, whole = three_cell_groups()
        g = Graph()
        x = g.input("x")
        y = g.segment_pool(x, whole, "mean")
        vals = forward(g, {"x": np.array([[1.0], [2.0], [3.0]])})
        assert_allclose(vals[y], [[2.0]])

    def test_singleton_groups_identity_all_modes(self):
        t, *_ = three_cell_groups()
        both = axis_groups(t, [0, 1])
        g = Graph()
        x = g.input("x")
        y = g.segment_pool(x, both)
        v = np.array([[1.0], [2.0], [3.0]])
        assert_allclose(forward(g, {"x": v})[y], v)

    def test_two_group_mean(self):
        t, rows, _, _ = three_cell_groups()
        g = Graph()
        x = g.input("x")
        y = g.segment_pool(x, rows)
        vals = forward(g, {"x": np.array([[1.0], [2.0], [3.0]])})
        assert_allclose(vals[y], [[1.5], [3.0]])

    def test_only_mean_pooling(self):
        t, rows, _, _ = three_cell_groups()
        g = Graph()
        with pytest.raises(ValueError, match="pool mode"):
            g.segment_pool(g.input("x"), rows, "max")

    def test_broadcast_replicates_group_vector(self):
        t, _, _, whole = three_cell_groups()
        g = Graph()
        gv = g.input("gv")
        y = g.gather_broadcast(gv, whole)
        assert_allclose(
            forward(g, {"gv": np.array([[5.0]])})[y], [[5.0], [5.0], [5.0]]
        )

    def test_mean_then_broadcast_is_projection(self):
        t, rows, _, _ = three_cell_groups()
        g = Graph()
        x = g.input("x")
        b1 = g.gather_broadcast(g.segment_pool(x, rows, "mean"), rows)
        b2 = g.gather_broadcast(g.segment_pool(b1, rows, "mean"), rows)
        rng = np.random.default_rng(1)
        vals = forward(g, {"x": rng.normal(size=(3, 2))})
        assert_allclose(vals[b1], vals[b2], atol=1e-15)

    def test_row_count_mismatch_rejected(self):
        t, rows, _, _ = three_cell_groups()
        g = Graph()
        x = g.input("x")
        g.segment_pool(x, rows, "mean", name="pool")
        with pytest.raises(ValueError, match="pool"):
            forward(g, {"x": np.zeros((4, 1))})

    def test_group_count_mismatch_rejected(self):
        t, rows, _, _ = three_cell_groups()
        g = Graph()
        gv = g.input("gv")
        g.gather_broadcast(gv, rows, name="bcast")
        with pytest.raises(ValueError, match="bcast"):
            forward(g, {"gv": np.zeros((3, 1))})


class TestGroupSumAccuracy:
    """Group sums accumulate in float64 and come back in the operand's
    dtype: one float32 group of 100k same-sign cells would be off in the
    fourth digit if the sums ran in float32."""

    N = 100_000
    K = 2

    def whole_set(self):
        t = SparseExchangeableTensor(
            (self.N,), np.arange(self.N)[:, None], np.zeros((self.N, 1))
        )
        return axis_groups(t, [])

    def test_pool_forward_matches_float64_reference(self):
        whole = self.whole_set()
        rng = np.random.default_rng(21)
        x = rng.uniform(0.5, 1.5, size=(self.N, self.K)).astype(np.float32)
        g = Graph()
        y = g.segment_pool(g.input("x"), whole)
        got = forward(g, {"x": x})[y]
        ref = np.zeros((1, self.K))
        np.add.at(ref, np.zeros(self.N, dtype=np.int64), x.astype(np.float64))
        ref /= self.N
        assert got.dtype == np.float32
        assert_allclose(got, ref, rtol=1e-6, atol=0)

    def test_broadcast_backward_matches_float64_reference(self):
        whole = self.whole_set()
        rng = np.random.default_rng(22)
        v = rng.uniform(0.5, 1.5, size=(self.N, self.K)).astype(np.float32)
        g = Graph()
        y = g.gather_broadcast(g.parameter("gv"), whole)
        loss = g.mean_square_error(y, g.input("t"))
        # gv = 0 and t = -v make the cell gradients 2 v / (N K), one sign
        bindings = {"gv": np.zeros((1, self.K), np.float32), "t": -v}
        got = backward(g, forward(g, bindings), loss)["gv"]
        ref = np.zeros((1, self.K))
        np.add.at(ref, np.zeros(self.N, dtype=np.int64),
                  2.0 * v.astype(np.float64) / v.size)
        assert got.dtype == np.float32
        assert_allclose(got, ref, rtol=1e-6, atol=0)


class TestDtypes:
    def test_float32_graph_values_and_gradients_stay_float32(self):
        """Float64 masks, row weights and slopes do not promote float32
        values: every node value and every gradient stays float32."""
        rng = np.random.default_rng(23)
        t = build_sparse(
            (3, 4), [((i, j), (0.0,)) for i in range(3) for j in range(4)
                     if (i + j) % 3]
        )
        rows = axis_groups(t, [0])
        n = t.n_observed
        g = Graph()
        x = g.input("x")
        pooled = g.gather_broadcast(
            g.channel_mix(g.segment_pool(x, rows), g.parameter("wp")), rows
        )
        summed = g.add(g.channel_mix(x, g.parameter("w"), g.parameter("b")),
                       pooled)
        act = g.nonlinearity(summed, "leaky_relu", slope=0.1)
        dropped = g.dropout_mask(act, np.array([[2.0, 0.0, 2.0]]))
        loss = g.softmax_cross_entropy(
            dropped, g.input("t"), row_weights=np.arange(n) % 2 + 0.0
        )
        f32 = np.float32
        bindings = {
            "x": rng.normal(size=(n, 2)).astype(f32),
            "w": rng.normal(size=(2, 3)).astype(f32),
            "wp": rng.normal(size=(2, 3)).astype(f32),
            "b": rng.normal(size=3).astype(f32),
            "t": np.eye(3, dtype=f32)[rng.integers(0, 3, size=n)],
        }
        values = forward(g, bindings)
        for name, v in values.items():
            assert v.dtype == f32, name
        for name, d in backward(g, values, loss).items():
            assert d.dtype == f32, name

    def test_leaky_relu_slope_outside_unit_interval_rejected(self):
        g = Graph()
        x = g.input("x")
        for slope in (-0.5, 1.5):
            with pytest.raises(ValueError, match="slope"):
                g.nonlinearity(x, "leaky_relu", slope=slope)


class TestChannelMix:
    def test_scalar_affine(self):
        g = Graph()
        x, w, b = g.input("x"), g.parameter("w"), g.parameter("b")
        y = g.channel_mix(x, w, b)
        vals = forward(
            g, {"x": [[3.0]], "w": [[2.0]], "b": [1.0]}
        )
        assert_allclose(vals[y], [[7.0]])

    def test_identity_weights(self):
        g = Graph()
        x, w = g.input("x"), g.parameter("w")
        y = g.channel_mix(x, w)
        v = np.random.default_rng(2).normal(size=(4, 3))
        assert_allclose(forward(g, {"x": v, "w": np.eye(3)})[y], v)

    def test_two_to_one(self):
        g = Graph()
        x, w = g.input("x"), g.parameter("w")
        y = g.channel_mix(x, w)
        vals = forward(g, {"x": [[4.0, 1.0]], "w": [[1.0], [-1.0]]})
        assert_allclose(vals[y], [[3.0]])

    def test_row_independence(self):
        rng = np.random.default_rng(3)
        g = Graph()
        x, w, b = g.input("x"), g.parameter("w"), g.parameter("b")
        y = g.channel_mix(x, w, b)
        binding = {"x": rng.normal(size=(5, 3)), "w": rng.normal(size=(3, 2)),
                   "b": rng.normal(size=2)}
        out = forward(g, binding)[y]
        perm = rng.permutation(5)
        binding2 = dict(binding, x=binding["x"][perm])
        assert_allclose(forward(g, binding2)[y], out[perm])

    def test_shape_mismatch_named(self):
        g = Graph()
        x, w = g.input("x"), g.parameter("w")
        g.channel_mix(x, w, name="mix")
        with pytest.raises(ValueError, match="mix"):
            forward(g, {"x": np.zeros((2, 3)), "w": np.zeros((2, 2))})


class TestLosses:
    def test_cross_entropy_uniform(self):
        g = Graph()
        z, t = g.input("z"), g.input("t")
        loss = g.softmax_cross_entropy(z, t)
        vals = forward(
            g, {"z": np.zeros((2, 5)), "t": np.eye(5)[:2]}
        )
        assert_allclose(vals[loss], np.log(5.0))

    def test_cross_entropy_row_weights_select_rows(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(4, 3))
        t = np.eye(3)[rng.integers(0, 3, size=4)]
        g1 = Graph()
        a, b = g1.input("z"), g1.input("t")
        l1 = g1.softmax_cross_entropy(a, b, row_weights=np.array([1.0, 0, 0, 1.0]))
        g2 = Graph()
        a2, b2 = g2.input("z"), g2.input("t")
        l2 = g2.softmax_cross_entropy(a2, b2)
        full = forward(g1, {"z": z, "t": t})[l1]
        sub = forward(g2, {"z": z[[0, 3]], "t": t[[0, 3]]})[l2]
        assert_allclose(full, sub, atol=1e-15)

    def test_cross_entropy_stable_for_large_logits(self):
        g = Graph()
        z, t = g.input("z"), g.input("t")
        loss = g.softmax_cross_entropy(z, t)
        vals = forward(g, {"z": np.array([[1e4, 0.0]]), "t": [[1.0, 0.0]]})
        assert np.isfinite(vals[loss])
        assert vals[loss] < 1e-8

    def test_mse(self):
        g = Graph()
        p, t = g.input("p"), g.input("t")
        loss = g.mean_square_error(p, t)
        vals = forward(g, {"p": [[1.0, 3.0]], "t": [[2.0, 2.0]]})
        assert_allclose(vals[loss], 1.0)


def spread_logits(n, k, dtype, seed=0):
    """(n, k) logits spread over [-80, 80] and random soft targets: the
    targets' products with the logits make the target dot a real sum."""
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-80.0, 80.0, size=(n, k)).astype(dtype)
    return logits, rng.random((n, k)).astype(dtype)


SOFTMAX_CASES = [(n, k, dtype) for n in (1, 7, 630, 20_000)
                 for k in range(2, 13) for dtype in (np.float32, np.float64)]


class TestChannelMajorSoftmax:
    """Softmax and the fused loss reduce rows of up to
    ``CHANNEL_MAJOR_MAX`` channels on a (K, n) copy, and give the row-wise
    formulas' results bit for bit at every width."""

    @pytest.mark.parametrize("n, k, dtype", SOFTMAX_CASES)
    def test_softmax_equals_row_wise_formula(self, n, k, dtype):
        logits, _ = spread_logits(n, k, dtype)
        got = autodiff.apply_nonlinearity(logits, "softmax")
        assert got.flags.c_contiguous
        assert_bitwise_equal(got, row_wise_softmax(logits))

    @pytest.mark.parametrize("n, k, dtype", SOFTMAX_CASES)
    def test_cross_entropy_equals_row_wise_formula(self, n, k, dtype):
        logits, targets = spread_logits(n, k, dtype, seed=1)
        g = Graph()
        z, t = g.parameter("z"), g.parameter("t")
        loss = g.softmax_cross_entropy(z, t)
        values = forward(g, {"z": logits, "t": targets})
        grads = backward(g, values, loss)
        want, dlogits, dtargets = row_wise_cross_entropy(logits, targets)
        assert_bitwise_equal(values[loss], want)
        assert_bitwise_equal(grads["z"], dlogits)
        assert_bitwise_equal(grads["t"], dtargets)


class TestBackward:
    def test_linear_gradient(self):
        # loss = w*x at x=2: d/dw = 2
        g = Graph()
        x, w = g.input("x"), g.parameter("w")
        y = g.channel_mix(x, w)
        vals = forward(g, {"x": [[2.0]], "w": [[3.0]]})
        grads = backward(g, vals, y)
        assert_allclose(grads["w"], [[2.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.input("x")
        y = g.nonlinearity(x, "identity")
        vals = forward(g, {"x": np.zeros((2, 2))})
        with pytest.raises(ValueError, match="scalar"):
            backward(g, vals, y)

    def test_unused_parameter_gets_zero(self):
        g = Graph()
        x, w, unused = g.input("x"), g.parameter("w"), g.parameter("unused")
        y = g.channel_mix(x, w)
        loss = g.mean_square_error(y, x)
        vals = forward(g, {"x": [[1.0]], "w": [[2.0]], "unused": np.ones((3, 2))})
        grads = backward(g, vals, loss)
        assert grads["unused"].shape == (3, 2)
        assert_allclose(grads["unused"], 0.0)

    def test_full_graph_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        t = build_sparse(
            (3, 3),
            [((i, j), tuple(rng.normal(size=2)))
             for i, j in [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]],
        )
        rows = axis_groups(t, [0])
        cols = axis_groups(t, [1])
        both = axis_groups(t, [])
        g = Graph()
        x = g.input("x")
        w1, w2, w3 = g.parameter("w1"), g.parameter("w2"), g.parameter("w3")
        bias = g.parameter("bias")
        pr = g.gather_broadcast(g.segment_pool(x, rows, "mean"), rows)
        pc = g.gather_broadcast(g.segment_pool(x, cols, "mean"), cols)
        pg = g.gather_broadcast(g.segment_pool(x, both, "mean"), both)
        mixed = g.add(
            g.channel_mix(x, w1, bias),
            g.channel_mix(pr, w2),
            g.channel_mix(pc, w3),
        )
        act = g.nonlinearity(mixed, "leaky_relu")
        cat = g.concat_channels(act, pg)
        mask = np.array([[1.0 / 0.75, 0.0, 1.0 / 0.75, 1.0 / 0.75, 0.0]])
        dropped = g.dropout_mask(cat, mask)
        wout = g.parameter("wout")
        logits = g.channel_mix(dropped, wout)
        targets = g.input("targets")
        loss = g.softmax_cross_entropy(
            logits, targets, row_weights=np.array([1.0, 1, 0, 1, 0])
        )
        bindings = {
            "x": t.values,
            "w1": rng.normal(size=(2, 3)),
            "w2": rng.normal(size=(2, 3)),
            "w3": rng.normal(size=(2, 3)),
            "bias": rng.normal(size=3),
            "wout": rng.normal(size=(5, 4)),
            "targets": np.eye(4)[rng.integers(0, 4, size=5)],
        }
        vals = forward(g, bindings)
        analytic = backward(g, vals, loss)
        numeric = numeric_grads(g, bindings, loss, g.parameters)
        assert_grads_close(analytic, numeric)

    def test_leaky_relu_softmax_mse_path_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        t = build_sparse(
            (2, 3),
            [((i, j), tuple(rng.normal(size=3)))
             for i, j in [(0, 0), (0, 1), (1, 1), (1, 2)]],
        )
        cols = axis_groups(t, [1])
        g = Graph()
        x = g.input("x")
        w, b = g.parameter("w"), g.parameter("b")
        h = g.nonlinearity(g.channel_mix(x, w, b), "leaky_relu")
        h2 = g.gather_broadcast(g.segment_pool(h, cols, "mean"), cols)
        sm = g.nonlinearity(h2, "softmax")
        loss = g.mean_square_error(sm, g.input("t"))
        bindings = {
            "x": t.values,
            "w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=4),
            "t": rng.normal(size=(4, 4)),
        }
        vals = forward(g, bindings)
        analytic = backward(g, vals, loss)
        numeric = numeric_grads(g, bindings, loss, ["w", "b"])
        assert_grads_close(analytic, numeric)

    def test_reused_operand_accumulates(self):
        # y = w + w: dy/dw = 2
        g = Graph()
        w = g.parameter("w")
        y = g.add(w, w)
        vals = forward(g, {"w": np.full((1, 1), 3.0)})
        assert_allclose(backward(g, vals, y)["w"], [[2.0]])


def out_of_context(t):
    """A context mask over t's cells that leaves out every third cell and
    every cell of t's first row, so that row's groups pool nothing."""
    mask = np.arange(t.n_observed) % 3 > 0
    mask[t.indices[:, 0] == t.indices[0, 0]] = False
    return mask


def cast_layer(lp, prefix, dtype):
    """lp with every array cast to dtype; a tied block stays shared."""
    return lp.from_bindings(prefix, {
        k: v.astype(dtype) for k, v in lp.bindings(prefix).items()})


class TestEquivariantLayerOp:
    """The fused layer op against the separate pool, mix, broadcast and
    add nodes it replaces: equal bit for bit, forward and backward."""

    CASES = [
        ((6, 7), 25, False),
        ((5, 5), 14, True),   # tied: one block serves the row and column pools
        ((1, 8), 6, False),   # one row: a non-empty subset with a single group
        ((3, 4, 2), 15, False),
    ]
    # With BLOCK_BYTES at 256, a layer of 2 or 4 output channels passes
    # over these index sets in 4 to 13 row blocks, the last one short.
    MULTI_BLOCK_CASES = [
        ((12, 15), 101, False),
        ((11, 11), 97, True),
        ((1, 150), 101, False),
        ((6, 5, 7), 103, False),
    ]

    @staticmethod
    def fused_and_composed(dims, n_obs, tied, dtype, context=False):
        """Outputs of a two-layer stack and the gradients of a loss on
        it, as (outputs, gradients) for the fused op and the composition.
        dtype "mixed" keeps every array float32 but the first layer's
        global block, so that layer's sum turns float64 at its last term.
        ``context`` leaves a third of the cells, and every cell of the
        first row, out of the pools."""
        rng = np.random.default_rng(sum(dims) + n_obs)
        t = random_sparse(dims, 3, n_obs, rng)
        groups = pooling_groups(t, out_of_context(t) if context else None)
        ndim = len(dims)
        arrays = np.float32 if dtype == "mixed" else dtype
        stack = [cast_layer(random_layer_params(ndim, 3, 4, rng, "leaky_relu",
                                                tied=tied), "a1", arrays),
                 cast_layer(random_layer_params(ndim, 4, 2, rng, tied=tied),
                            "a2", arrays)]
        for lp in stack:
            lp.bias[...] = rng.normal(size=lp.bias.shape)
        bindings = {"x": t.values.astype(arrays),
                    "target": rng.normal(size=(n_obs, 2)).astype(arrays),
                    **stack[0].bindings("a1"), **stack[1].bindings("a2")}
        if dtype == "mixed":
            bindings["a1.wg"] = bindings["a1.wg"].astype(np.float64)
        results = []
        for emit in (add_layer_nodes, composed_layer_nodes):
            g = Graph()
            h = g.parameter("x")  # a parameter, so its gradient is reported
            outs = []
            for k, lp in enumerate(stack, start=1):
                h = emit(g, h, groups, lp, f"a{k}")
                outs.append(h)
            loss = g.mean_square_error(h, g.input("target"))
            values = forward(g, bindings)
            grads = backward(g, values, loss)
            results.append(([values[o] for o in outs], grads))
        return results

    @staticmethod
    def assert_bitwise_same(results):
        (fused_outs, fused_grads), (ref_outs, ref_grads) = results
        for got, want in zip(fused_outs, ref_outs):
            assert_bitwise_equal(got, want)
        assert list(fused_grads) == list(ref_grads)
        for name in ref_grads:
            assert_bitwise_equal(fused_grads[name], ref_grads[name])

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_composition_bit_for_bit(self, dims, n_obs, tied,
                                                 dtype):
        self.assert_bitwise_same(
            self.fused_and_composed(dims, n_obs, tied, dtype))

    @pytest.mark.parametrize("dims, n_obs, tied", MULTI_BLOCK_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, "mixed"])
    def test_matches_the_composition_across_row_blocks(
            self, monkeypatch, dims, n_obs, tied, dtype):
        monkeypatch.setattr(autodiff, "BLOCK_BYTES", 256)
        results = self.fused_and_composed(dims, n_obs, tied, dtype)
        for out in results[0][0]:
            rows = autodiff.BLOCK_BYTES // (out.itemsize * out.shape[1])
            assert out.shape[0] > 2 * rows and out.shape[0] % rows
        self.assert_bitwise_same(results)

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_composition_with_a_context_bit_for_bit(
            self, dims, n_obs, tied, dtype):
        self.assert_bitwise_same(
            self.fused_and_composed(dims, n_obs, tied, dtype, context=True))

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    def test_gradients_match_finite_differences(self, dims, n_obs, tied):
        self.check_finite_differences(dims, n_obs, tied, context=False)

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    def test_gradients_with_a_context_match_finite_differences(
            self, dims, n_obs, tied):
        self.check_finite_differences(dims, n_obs, tied, context=True)

    @staticmethod
    def check_finite_differences(dims, n_obs, tied, context):
        rng = np.random.default_rng(n_obs)
        t = random_sparse(dims, 2, n_obs, rng)
        lp = random_layer_params(len(dims), 2, 3, rng, tied=tied)
        subsets = all_subsets(len(dims))
        groups = pooling_groups(t, out_of_context(t) if context else None)
        g = Graph()
        blocks = [block_name("L", S, tied) for S in subsets]
        for nm in dict.fromkeys(blocks):
            g.parameter(nm)
        y = g.equivariant_layer(g.parameter("x"), g.parameter("L.bias"),
                                blocks, [groups[S] for S in subsets[1:]])
        loss = g.mean_square_error(y, g.input("target"))
        bindings = {"x": t.values, "target": rng.normal(size=(n_obs, 3)),
                    **lp.bindings("L")}
        bindings["L.bias"] = rng.normal(size=3)
        grads = backward(g, forward(g, bindings), loss)
        assert sorted(grads) == sorted(g.parameters)
        assert_grads_close(grads, numeric_grads(g, bindings, loss, grads),
                           rtol=1e-7)

    def test_shape_mismatch_names_the_node(self):
        t, *_ = three_cell_groups()
        lp = random_layer_params(2, 1, 2, np.random.default_rng(0))
        g = Graph()
        subsets = all_subsets(2)
        groups = pooling_groups(t)
        y = g.equivariant_layer(
            g.input("x"), g.parameter("b"), [g.parameter("w")] * 4,
            [groups[S] for S in subsets[1:]], name="layer")
        bindings = {"x": t.values, "b": lp.bias, "w": np.zeros((2, 2))}
        with pytest.raises(ValueError, match="node 'layer'"):
            forward(g, bindings)
        bindings.update(w=np.zeros((1, 2)), x=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="node 'layer'"):
            forward(g, bindings)
        bindings.update(x=t.values)
        assert forward(g, bindings)[y].shape == (3, 2)
