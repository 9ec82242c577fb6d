"""Forward semantics and gradient correctness of the operation graph,
the fused layer op and the layer tape."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    assert_bitwise_equal, build_sparse, composed_layer_nodes, numeric_grads,
    random_sparse, row_wise_cross_entropy, row_wise_softmax,
    separate_layer_passes, tape_stack, whole_array_layer_grads,
)

from exchtensor import autodiff, layers
from exchtensor.autodiff import Graph, backward, forward
from exchtensor.layers import (
    all_subsets, dropout_channel_mask, pooling_groups, random_layer_params,
    stack_grads, train_stack,
)
from exchtensor.models import build_ss_loss_graph
from exchtensor.sparse import SparseExchangeableTensor, axis_groups


def graph_numeric_grads(graph, bindings, loss, params):
    """Central finite differences of a graph's scalar loss node."""
    return numeric_grads(lambda b: forward(graph, b)[loss], bindings, params)


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
        pool = g.segment_pool(x, rows, "mean")
        with pytest.raises(ValueError, match=f"node '{pool}'"):
            forward(g, {"x": np.zeros((4, 1))})

    def test_group_count_mismatch_rejected(self):
        t, rows, _, _ = three_cell_groups()
        g = Graph()
        gv = g.input("gv")
        bcast = g.gather_broadcast(gv, rows)
        with pytest.raises(ValueError, match=f"node '{bcast}'"):
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
        """A float64 slope does not promote float32 values: every node
        value and every gradient stays float32."""
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
        loss = g.softmax_cross_entropy(act, g.input("t"))
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

    def test_float32_tape_values_and_gradients_stay_float32(self):
        """Float64 dropout masks, row weights and slopes do not promote a
        float32 tape: every layer output, the loss and every gradient
        stay float32."""
        rng = np.random.default_rng(24)
        f32 = np.float32
        t = random_sparse((6, 7), 3, 25, rng)
        x = t.with_values(t.values.astype(f32))
        stack = [cast_layer(random_layer_params(2, 3, 4, rng, "leaky_relu"),
                            "layer1", f32),
                 cast_layer(random_layer_params(2, 4, 3, rng, "softmax"),
                            "layer2", f32)]
        stack[0].slope = 0.1
        masks = {1: np.array([[2.0, 0.0, 2.0, 2.0]]),
                 2: np.array([[2.0, 2.0, 0.0]])}
        targets = np.eye(3, dtype=f32)[rng.integers(0, 3, size=25)]
        hit = np.arange(25) % 3 == 0
        groups = pooling_groups(x, ~hit)
        for _, _, y, *_ in train_stack(x.values, groups, stack[:1],
                                       {1: masks[1]}):
            assert y.dtype == f32
        loss, grads = build_ss_loss_graph(x, stack, targets,
                                          hit.astype(np.float64), masks,
                                          context=~hit)
        assert loss.dtype == f32
        for name, d in grads().items():
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
        mix = g.channel_mix(x, w)
        with pytest.raises(ValueError, match=f"node '{mix}'"):
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
        full = autodiff.cross_entropy(z, t, np.array([1.0, 0, 0, 1.0]))
        sub = autodiff.cross_entropy(z[[0, 3]], t[[0, 3]])
        assert_allclose(full, sub, atol=1e-15)

    @pytest.mark.parametrize("weights, match", [
        ([1.0, -1.0, 0.0, 1.0], "nonnegative"),
        ([0.0, 0.0, 0.0, 0.0], "positive sum"),
        ([1.0, 1.0, 1.0], "shape"),
    ])
    def test_cross_entropy_refuses_bad_row_weights(self, weights, match):
        z, t = np.zeros((4, 3)), np.eye(3)[[0, 1, 2, 0]]
        with pytest.raises(ValueError, match=match):
            autodiff.cross_entropy(z, t, np.array(weights))

    def test_cross_entropy_refuses_targets_of_another_shape(self):
        with pytest.raises(ValueError, match="targets"):
            autodiff.cross_entropy(np.zeros((4, 3)), np.zeros((4, 2)))

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
        logits = g.add(g.channel_mix(act, g.parameter("wout")),
                       g.channel_mix(pg, g.parameter("wg")))
        targets = g.input("targets")
        loss = g.softmax_cross_entropy(logits, targets)
        bindings = {
            "x": t.values,
            "w1": rng.normal(size=(2, 3)),
            "w2": rng.normal(size=(2, 3)),
            "w3": rng.normal(size=(2, 3)),
            "bias": rng.normal(size=3),
            "wout": rng.normal(size=(3, 4)),
            "wg": rng.normal(size=(2, 4)),
            "targets": np.eye(4)[rng.integers(0, 4, size=5)],
        }
        vals = forward(g, bindings)
        analytic = backward(g, vals, loss)
        numeric = graph_numeric_grads(g, bindings, loss, g.parameters)
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
        numeric = graph_numeric_grads(g, bindings, loss, ["w", "b"])
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
    """A stack of the fused layer op on a tape (``train_stack`` and
    ``stack_grads``) against the separate pool, mix, broadcast and add
    nodes it replaces, forward and backward.  The fused op takes its
    global pool from the row pool's sums, so the two agree to rounding:
    within 1e-12 of the largest magnitude in float64, 1e-6 in float32."""

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
    def tape_and_composed(dims, n_obs, tied, dtype, context=False,
                          composed=True):
        """Outputs of a two-layer stack and the gradients of a loss on
        it, as (outputs, gradients) for the tape and, when ``composed``,
        for the composition.  dtype "mixed" keeps every array float32 but
        the first layer's global block, so that layer's sum turns float64
        at its last term.  ``context`` leaves a third of the cells, and
        every cell of the first row, out of the pools."""
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
            stack[0] = stack[0].from_bindings("a1", bindings)
        results = [tape_stack(bindings["x"], groups, stack, "a",
                              bindings["target"])]
        if composed:
            g = Graph()
            h = g.parameter("x")  # a parameter, so its gradient is reported
            outs = []
            for k, lp in enumerate(stack, start=1):
                h = composed_layer_nodes(g, h, groups, lp, f"a{k}")
                outs.append(h)
            loss = g.mean_square_error(h, g.input("target"))
            values = forward(g, bindings)
            results.append(([values[o] for o in outs],
                            backward(g, values, loss)))
        return results

    @staticmethod
    def pairs(results):
        (tape_outs, tape_grads), (ref_outs, ref_grads) = results
        assert sorted(tape_grads) == sorted(ref_grads)
        return zip([*tape_outs, *(tape_grads[k] for k in sorted(tape_grads))],
                   [*ref_outs, *(ref_grads[k] for k in sorted(ref_grads))])

    @classmethod
    def assert_close(cls, results, dtype):
        tol = 1e-12 if dtype is np.float64 else 1e-6
        for got, want in cls.pairs(results):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_composition(self, dims, n_obs, tied, dtype):
        self.assert_close(
            self.tape_and_composed(dims, n_obs, tied, dtype), dtype)

    @pytest.mark.parametrize("dims, n_obs, tied", MULTI_BLOCK_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, "mixed"])
    def test_matches_the_composition_across_row_blocks(
            self, monkeypatch, dims, n_obs, tied, dtype):
        """The composition to rounding; the tape in one row block bit for
        bit."""
        (one_block,) = self.tape_and_composed(dims, n_obs, tied, dtype,
                                              composed=False)
        monkeypatch.setattr(autodiff, "BLOCK_BYTES", 256)
        results = self.tape_and_composed(dims, n_obs, tied, dtype)
        for out in results[0][0]:
            rows = autodiff.BLOCK_BYTES // (out.itemsize * out.shape[1])
            assert out.shape[0] > 2 * rows and out.shape[0] % rows
        self.assert_close(results, dtype)
        for got, want in self.pairs([results[0], one_block]):
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("dims, n_obs, tied", CASES + MULTI_BLOCK_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, "mixed"])
    @pytest.mark.parametrize("context", [False, True])
    def test_backward_sums_as_the_whole_array_reference(
            self, monkeypatch, dims, n_obs, tied, dtype, context):
        """Outputs and gradients bit for bit with the layer backward
        swapped for ``whole_array_layer_grads``: dx adds the pooled
        terms onto the cell term in subset order, across row blocks."""
        monkeypatch.setattr(autodiff, "BLOCK_BYTES", 256)
        tape = dict(context=context, composed=False)
        (blocked,) = self.tape_and_composed(dims, n_obs, tied, dtype, **tape)
        monkeypatch.setattr(layers, "_equivariant_layer_grads",
                            whole_array_layer_grads)
        (whole,) = self.tape_and_composed(dims, n_obs, tied, dtype, **tape)
        for got, want in self.pairs([blocked, whole]):
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("wide", [0, 1, 3])
    @pytest.mark.parametrize("context", [False, True])
    def test_backward_promotes_as_the_whole_array_reference(
            self, monkeypatch, wide, context):
        """A float64 block under a float32 dY (the cell block, the row
        pool's or the global pool's): dx turns float64 at that block's
        term, as whole arrays would, bit for bit."""
        monkeypatch.setattr(autodiff, "BLOCK_BYTES", 256)
        rng = np.random.default_rng(wide)
        t = random_sparse((12, 15), 3, 101, rng)
        by_subset = pooling_groups(t, out_of_context(t) if context else None)
        groups = [by_subset[S] for S in all_subsets(2)[1:]]
        x = t.values.astype(np.float32)
        blocks = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(4)]
        blocks[wide] = blocks[wide].astype(np.float64)
        _, means = autodiff.equivariant_layer(x, np.zeros(4, np.float32),
                                              blocks, groups)
        dY = rng.normal(size=(101, 4)).astype(np.float32)
        got = autodiff._equivariant_layer_grads(dY, x, blocks, groups, means)
        want = whole_array_layer_grads(dY, x, blocks, groups, means)
        assert got[0].dtype == np.float64
        for a, b in zip([got[0], got[1], *got[2]], [want[0], want[1], *want[2]]):
            assert_bitwise_equal(a, b)

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_composition_with_a_context(self, dims, n_obs, tied,
                                                    dtype):
        self.assert_close(
            self.tape_and_composed(dims, n_obs, tied, dtype, context=True),
            dtype)

    @pytest.mark.parametrize("dims, n_obs, tied", CASES)
    @pytest.mark.parametrize("context", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_match_finite_differences(self, dims, n_obs, tied,
                                                context, masked):
        """``stack_grads`` through ``train_stack``: a two-layer identity
        stack under a squared loss, every array and the input against
        central differences in float64."""
        rng = np.random.default_rng(n_obs)
        t = random_sparse(dims, 2, n_obs, rng)
        stack = [random_layer_params(len(dims), 2, 3, rng, tied=tied),
                 random_layer_params(len(dims), 3, 2, rng, tied=tied)]
        groups = pooling_groups(t, out_of_context(t) if context else None)
        masks = {1: np.array([[1 / 0.7, 0.0, 1 / 0.7]]),
                 2: np.array([[0.0, 2.0]])} if masked else None
        arrays = {"x": t.values, "target": rng.normal(size=(n_obs, 2)),
                  **stack[0].bindings("L1"), **stack[1].bindings("L2")}
        arrays["L1.bias"] = rng.normal(size=3)

        def run(a):
            layers_ = [lp.from_bindings(f"L{k}", a)
                       for k, lp in enumerate(stack, start=1)]
            return tape_stack(a["x"], groups, layers_, "L", a["target"],
                              masks)

        def loss_of(a):
            (_, y), _ = run(a)
            return np.mean((y - a["target"]) ** 2)

        _, grads = run(arrays)
        assert sorted(grads) == sorted(set(arrays) - {"target"})
        assert_grads_close(grads, numeric_grads(loss_of, arrays, grads),
                           rtol=1e-7)

    @pytest.mark.parametrize("dims, n_obs, _", CASES)
    def test_rows_the_groups_do_not_cover_are_refused(self, dims, n_obs, _):
        rng = np.random.default_rng(0)
        t = random_sparse(dims, 2, n_obs, rng)
        lp = random_layer_params(len(dims), 2, 3, rng)
        with pytest.raises(ValueError, match=f"groups cover {n_obs} cells, "
                                             f"values have {n_obs + 1}"):
            train_stack(np.zeros((n_obs + 1, 2)), pooling_groups(t), [lp])


class TestPoolAccumulation:
    """Row and column pools sum in the operand's dtype; the global pool
    is the float64 sum of the row pool's sums, and a float32 layer makes
    no float64 copy of its input or of its output gradient."""

    @pytest.mark.parametrize("dims, n_obs", [((30, 40), 500),
                                             ((6, 5, 7), 103)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("context", [False, True])
    def test_global_mean_is_the_float64_sum_of_the_row_sums(
            self, dims, n_obs, dtype, context):
        rng = np.random.default_rng(n_obs)
        t = random_sparse(dims, 6, n_obs, rng)
        ctx = out_of_context(t) if context else np.ones(n_obs, bool)
        groups = pooling_groups(t, ctx)
        subsets = all_subsets(t.ndim)
        assert subsets[-2:] == (frozenset({0}), frozenset())
        x = t.values.astype(dtype)
        means = autodiff.pooled_means(x, [groups[S] for S in subsets[1:]])
        rows = groups[frozenset({0})]
        # each row's context cells summed in x's dtype, in cell order
        row_sums = np.zeros((rows.n_groups, 6), dtype)
        np.add.at(row_sums, rows.group_of[ctx], x[ctx])
        want = row_sums.sum(axis=0, dtype=np.float64) / ctx.sum()
        assert_bitwise_equal(means[-1], want[None].astype(dtype))
        assert_bitwise_equal(
            means[-2], (row_sums / rows.divisor[:, None]).astype(dtype))

    def test_operators_take_the_accumulation_dtype(self):
        t = random_sparse((30, 40), 2, 500, np.random.default_rng(5))
        groups = pooling_groups(t)
        rows, whole = groups[frozenset({0})], groups[frozenset()]
        assert rows.operator(np.float32).dtype == np.float32
        assert rows.operator(np.float64).dtype == np.float64
        assert rows.operator(np.int64).dtype == np.float64
        assert whole.operator(np.float32).dtype == np.float64
        # built once per dtype, index arrays shared between dtypes
        assert rows.operator(np.float32) is rows.operator(np.float32)
        assert np.shares_memory(rows.operator(np.float32).indices,
                                rows.operator(np.float64).indices)
        # a context copy pools its own cells but shares the sums over all
        masked = rows.with_context(out_of_context(t))
        assert masked.operator(np.float32).nnz < t.n_observed
        assert masked.operator(np.float32, context=False) is \
            rows.operator(np.float32)

    def test_float32_pools_and_backward_copy_nothing_to_float64(self):
        """No allocation as large as a float64 copy of the (n, 64)
        operand: the pools read x and the gradient pools read dY in
        float32.  The layer is 5 -> 64, so that dx and the cell term's
        gradient are (n, 5) and the bound sees only a copy."""
        import tracemalloc

        rng = np.random.default_rng(9)
        t = random_sparse((200, 300), 5, 20_000, rng)
        subsets = all_subsets(2)
        groups = pooling_groups(t)
        pooled = [groups[S] for S in subsets[1:]]
        f32 = np.float32
        x64 = rng.normal(size=(t.n_observed, 64)).astype(f32)
        x5 = t.values.astype(f32)
        blocks = [rng.normal(size=(5, 64)).astype(f32) for _ in subsets]
        means = autodiff.pooled_means(x5, pooled)  # operators built here
        autodiff.pooled_means(x64, pooled)
        copy_bytes = t.n_observed * 64 * 8
        for run in (lambda: autodiff.pooled_means(x64, pooled),
                    lambda: autodiff._equivariant_layer_grads(
                        x64, x5, blocks, pooled, means)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < copy_bytes / 4


@pytest.mark.parametrize("context", [False, True])
def test_layer_backward_holds_little_beyond_its_dx(context):
    """A float64 64->64 layer over 40k cells: the cell product is dx,
    and the pooled terms go over it a row block at a time, so the
    traced peak stays within 2 MiB of dx's 19.5 MiB."""
    import tracemalloc

    rng = np.random.default_rng(0)
    t = random_sparse((200, 400), 64, 40_000, rng)
    by_subset = pooling_groups(t, out_of_context(t) if context else None)
    groups = [by_subset[S] for S in all_subsets(2)[1:]]
    blocks = [rng.normal(size=(64, 64)) for _ in range(4)]
    means = autodiff.pooled_means(t.values, groups)
    dY = rng.normal(size=t.values.shape)
    autodiff._grouped_sums(dY, groups, context=False)  # operators built here
    tracemalloc.start()
    try:
        dx, _, _ = autodiff._equivariant_layer_grads(dY, t.values, blocks,
                                                     groups, means)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= dx.nbytes + 2 * 2**20


def test_only_add_terms_reads_block_bytes():
    """One row-block rule: ``add_terms`` writes every blocked pass over a
    layer's cells, forward and backward, and is the one reader of
    ``BLOCK_BYTES`` in the package.  A second reader would be a copy of
    its blocking rule."""
    readers = set()
    for path in sorted(Path(autodiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> its innermost function; ast.walk goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, fn.name) for node in ast.walk(fn))
        readers |= {
            f"{path.name}:{scope.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and "BLOCK_BYTES" in (getattr(node, "id", None),
                                  getattr(node, "attr", None))
        }
    assert readers == {"autodiff.py:add_terms"}


class TestFusedLayerPass:
    """A tape's layer applies its leaky ReLU and its dropout mask in the
    pass that sums its terms, and records the sign of the sum there for
    its backward.  It equals the layer's sum, its nonlinearity and its
    mask as separate whole-array passes (``helpers.separate_layer_passes``)
    bit for bit, values and gradients alike."""

    @staticmethod
    def tape_and_separate(dims, n_obs, tied, dtype, context, masked, slope):
        """(layer outputs, gradients) of a two-layer stack, leaky ReLU
        then identity, under a loss, for the tape and for the separate
        passes.  The first layer's first output channel has zero weights
        and bias, so its sum is exactly 0 at every cell."""
        rng = np.random.default_rng(sum(dims) + n_obs)
        t = random_sparse(dims, 3, n_obs, rng)
        groups = pooling_groups(t, out_of_context(t) if context else None)
        ndim = len(dims)
        stack = [random_layer_params(ndim, 3, 4, rng, "leaky_relu", tied),
                 random_layer_params(ndim, 4, 2, rng, tied=tied)]
        stack[0].slope = slope
        for w in stack[0].blocks.values():
            w[:, 0] = 0.0
        stack = [cast_layer(lp, f"a{k}", dtype)
                 for k, lp in enumerate(stack, start=1)]
        for lp in stack:
            lp.bias[...] = rng.normal(size=lp.bias.shape)
        stack[0].bias[0] = 0.0
        masks = {k: dropout_channel_mask(lp.channels_out, 0.3, rng)
                 for k, lp in enumerate(stack, start=1)} if masked else None
        x = t.values.astype(dtype)
        target = rng.normal(size=(n_obs, 2)).astype(dtype)
        return [run(x, groups, stack, "a", target, masks)
                for run in (tape_stack, separate_layer_passes)]

    @pytest.mark.parametrize("dims, n_obs, tied",
                             TestEquivariantLayerOp.CASES
                             + TestEquivariantLayerOp.MULTI_BLOCK_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("context", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("slope", [0.0, 0.01])
    def test_equals_the_separate_passes_bit_for_bit(
            self, monkeypatch, dims, n_obs, tied, dtype, context, masked,
            slope):
        monkeypatch.setattr(autodiff, "BLOCK_BYTES", 256)
        (tape_outs, tape_grads), (ref_outs, ref_grads) = \
            self.tape_and_separate(dims, n_obs, tied, dtype, context,
                                   masked, slope)
        assert list(tape_grads) == list(ref_grads)
        for got, want in zip([*tape_outs, *tape_grads.values()],
                             [*ref_outs, *ref_grads.values()]):
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("slope", [0.0, 0.01])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_match_finite_differences(self, slope, masked):
        """float64, one layer whose first output channel has zero weights
        and bias, so its sum is exactly 0 at every cell.  There the
        backward takes the leaky ReLU's derivative as 1 (x >= 0), which
        the difference quotient from above gives, at a slope of 0 too;
        every other entry matches central differences."""
        rng = np.random.default_rng(11)
        t = random_sparse((5, 6), 2, 17, rng)
        lp = random_layer_params(2, 2, 3, rng, "leaky_relu")
        lp.slope = slope
        for w in lp.blocks.values():
            w[:, 0] = 0.0
        lp.bias[...] = [0.0, *rng.normal(size=2)]
        masks = {1: np.array([[1 / 0.7, 1 / 0.7, 0.0]])} if masked else None
        groups = pooling_groups(t)
        arrays = {"x": t.values, "target": rng.normal(size=(17, 3)),
                  **lp.bindings("L1")}

        def run(a):
            return tape_stack(a["x"], groups, [lp.from_bindings("L1", a)],
                              "L", a["target"], masks)

        def loss_of(a):
            (y,), _ = run(a)
            return np.mean((y - a["target"]) ** 2)

        (y,), grads = run(arrays)
        assert (y[:, 0] == 0).all()
        numeric = numeric_grads(loss_of, arrays, grads)
        # channel 0's own arrays meet the kink at 0; x does not move it
        assert_grads_close({p: a if p == "x" else a[..., 1:]
                            for p, a in grads.items()},
                           {p: n if p == "x" else n[..., 1:]
                            for p, n in numeric.items()}, rtol=1e-7)
        eps = 1e-7
        up = dict(arrays, **{"L1.bias": lp.bias + [eps, 0.0, 0.0]})
        above = (loss_of(up) - loss_of(arrays)) / eps
        assert grads["L1.bias"][0] != 0
        assert abs(above - grads["L1.bias"][0]) < 1e-5 * abs(above)

    def test_a_softmax_layer_takes_no_mask(self):
        t, *_ = three_cell_groups()
        lp = random_layer_params(2, 1, 2, np.random.default_rng(0),
                                 "softmax")
        with pytest.raises(ValueError, match="softmax layer takes no"):
            train_stack(t.values, pooling_groups(t), [lp],
                        {1: np.ones((1, 2))})


class TestDataLeaves:
    def test_the_tape_forms_no_gradient_for_its_data(self, monkeypatch):
        """``stack_grads`` forms no dx at a stack's input unless asked,
        and the training loss no gradient for its targets.  Every array's
        gradient is the same as with dx formed, bit for bit."""
        from exchtensor import models

        rng = np.random.default_rng(4)
        t = random_sparse((12, 15), 5, 101, rng)
        stack = [random_layer_params(2, 5, 4, rng, "leaky_relu"),
                 random_layer_params(2, 4, 3, rng, "softmax")]
        hit = rng.random(101) < 0.3
        formed = {"dx": [], "dtargets": []}

        def spy(module, key, i):
            real = getattr(module, f"_{key}")

            def grads(*args, **kwargs):
                out = real(*args, **kwargs)
                formed["dx" if i == 0 else "dtargets"].append(
                    out[i] is not None)
                return out
            monkeypatch.setattr(module, f"_{key}", grads)

        spy(layers, "equivariant_layer_grads", 0)
        spy(models, "cross_entropy_grads", 1)
        x = t.with_values(np.where(hit[:, None], 0.0, t.values))
        targets = np.eye(3)[rng.integers(0, 3, size=101)]
        _, grads = build_ss_loss_graph(x, stack, targets, hit.astype(float),
                                       {1: np.array([[2.0, 0.0, 2.0, 2.0]])},
                                       context=~hit)
        grads = grads()
        # the loss first, then the layers last to first
        assert formed == {"dx": [True, False], "dtargets": [False]}
        groups = pooling_groups(x, ~hit)
        tape = train_stack(x.values, groups, stack)
        dY = rng.normal(size=(101, 3))
        without, none = stack_grads(tape, groups, dY, "layer")
        with_dx, dx = stack_grads(tape, groups, dY, "layer", dx=True)
        assert none is None and dx.shape == x.values.shape
        assert list(without) == list(with_dx)
        for p in without:
            assert_bitwise_equal(without[p], with_dx[p])
