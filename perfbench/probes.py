"""Per-op probes: single-op graphs built with the public ``Graph`` API.

Each probe times ``forward`` and ``backward`` of one op kind at a given
index set and channel shape K x O, in float32 as training runs, and
checks the outputs and gradients against a float64 recomputation from
first principles (``np.add.at`` pools, plain matmuls).  ``backward``
needs a scalar loss, so every op except the loss itself gets a
mean-square head; the reported backward time subtracts the backward time
of the head alone.  The pool and broadcast probes sum the row, column
and global terms, as one layer runs them.

Flop and byte counts are computed from array sizes, not measured: a
flop is one float add, multiply, divide, compare, exp or log; bytes are
the minimum traffic of ``op_cost``.
"""

from __future__ import annotations

import time

import numpy as np

from exchtensor.autodiff import Graph, backward, forward
from exchtensor.layers import pooling_groups
from exchtensor.sparse import SparseExchangeableTensor

OPS = ("segment_pool", "gather_broadcast", "channel_mix", "leaky_relu",
       "softmax_cross_entropy")
SLOPE = 0.01
# agreement bar for float32 results, relative to the largest reference value
RTOL = 1e-4
# the row, column and global pooling terms of a matrix layer
TERMS = (frozenset({0}), frozenset({1}), frozenset())


def _median_s(fn, reps: int, target_s: float = 0.05) -> float:
    """Median call time; fast calls repeat until about target_s."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    reps = max(reps, min(200, int(target_s / max(first, 1e-9))))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _ref_groups(indices: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(group id per cell, group count) per term, from the coordinates."""
    out = []
    for S in TERMS:
        if S:
            _, gid = np.unique(indices[:, sorted(S)], axis=0, return_inverse=True)
            gid = gid.ravel()
            out.append((gid, int(gid.max()) + 1))
        else:
            out.append((np.zeros(indices.shape[0], dtype=np.int64), 1))
    return out


def _inputs(op, n, K, O, ref_groups, rng) -> dict[str, np.ndarray]:
    f32 = np.float32
    if op == "segment_pool":
        return {"x": rng.standard_normal((n, K)).astype(f32)}
    if op == "gather_broadcast":
        return {f"gv{k}": rng.standard_normal((ng, K)).astype(f32)
                for k, (_, ng) in enumerate(ref_groups)}
    if op == "channel_mix":
        return {"x": rng.standard_normal((n, K)).astype(f32),
                "w": (rng.standard_normal((K, O)) / np.sqrt(K)).astype(f32),
                "b": rng.standard_normal(O).astype(f32)}
    if op == "leaky_relu":
        return {"x": rng.standard_normal((n, O)).astype(f32)}
    if op == "softmax_cross_entropy":
        return {"logits": rng.standard_normal((n, O)).astype(f32),
                "targets": np.eye(O, dtype=f32)[rng.integers(0, O, size=n)]}
    raise ValueError(f"unknown probe op {op!r}")


def _build(op, g: Graph, groups) -> list[str]:
    """The op's nodes in g; returns its output node names."""
    if op == "segment_pool":
        x = g.parameter("x")
        return [g.segment_pool(x, gr, "mean") for gr in groups]
    if op == "gather_broadcast":
        return [g.gather_broadcast(g.parameter(f"gv{k}"), gr)
                for k, gr in enumerate(groups)]
    if op == "channel_mix":
        return [g.channel_mix(g.parameter("x"), g.parameter("w"), g.parameter("b"))]
    if op == "leaky_relu":
        return [g.nonlinearity(g.parameter("x"), "leaky_relu", SLOPE)]
    return [g.softmax_cross_entropy(g.parameter("logits"), g.input("targets"))]


def _reference(op, a: dict, ref_groups):
    """float64 op outputs, and the gradients of the probe's scalar loss
    (sum over outputs of mean(y^2), or the loss op itself)."""
    a64 = {k: v.astype(np.float64) for k, v in a.items()}
    if op == "segment_pool":
        outs, dx = [], np.zeros_like(a64["x"])
        for gid, ng in ref_groups:
            sums = np.zeros((ng, a64["x"].shape[1]))
            np.add.at(sums, gid, a64["x"])
            counts = np.bincount(gid, minlength=ng).astype(np.float64)
            y = sums / counts[:, None]
            outs.append(y)
            dx += (2.0 * y / y.size)[gid] / counts[gid][:, None]
        return outs, {"x": dx}
    if op == "gather_broadcast":
        outs, grads = [], {}
        for k, (gid, ng) in enumerate(ref_groups):
            y = a64[f"gv{k}"][gid]
            outs.append(y)
            d = np.zeros((ng, y.shape[1]))
            np.add.at(d, gid, 2.0 * y / y.size)
            grads[f"gv{k}"] = d
        return outs, grads
    if op == "channel_mix":
        x, w = a64["x"], a64["w"]
        y = x @ w + a64["b"]
        dy = 2.0 * y / y.size
        return [y], {"x": dy @ w.T, "w": x.T @ dy, "b": dy.sum(axis=0)}
    if op == "leaky_relu":
        x = a64["x"]
        y = np.where(x >= 0, x, SLOPE * x)
        return [y], {"x": 2.0 * y / y.size * np.where(x >= 0, 1.0, SLOPE)}
    logits, t = a64["logits"], a64["targets"]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    lse = np.log(e.sum(axis=1)) + m[:, 0]
    p = e / e.sum(axis=1, keepdims=True)
    loss = np.asarray((lse - (t * logits).sum(axis=1)).mean())
    return [loss], {"logits": (p - t) / logits.shape[0]}


def _with_head(g: Graph, outs, bindings, values) -> str:
    """Append sum of mean(y^2) over the outputs; returns the loss node."""
    terms = []
    for k, o in enumerate(outs):
        bindings[f"zero{k}"] = np.zeros_like(values[o])
        terms.append(g.mean_square_error(o, g.input(f"zero{k}")))
    return g.add(*terms) if len(terms) > 1 else terms[0]


def _rel_err(got, ref) -> float:
    scale = max(float(np.abs(ref).max()), 1e-30)
    return float(np.abs(np.asarray(got, dtype=np.float64) - ref).max()) / scale


def probe_op(op, indices, dims, K, O, seed, reps) -> dict:
    """Time one op's forward and backward and check both against float64."""
    rng = np.random.default_rng(seed)
    n = indices.shape[0]
    t = SparseExchangeableTensor(dims, indices, np.zeros((n, 1)))
    pg = pooling_groups(t)
    groups = [pg[S] for S in TERMS]
    ref_groups = _ref_groups(indices)
    arrays = _inputs(op, n, K, O, ref_groups, rng)

    op_graph = Graph()
    outs = _build(op, op_graph, groups)
    fwd_s = _median_s(lambda: forward(op_graph, arrays), reps)
    values = forward(op_graph, arrays)

    full = Graph()
    full_outs = _build(op, full, groups)
    bindings = dict(arrays)
    head_s = 0.0
    if op == "softmax_cross_entropy":
        loss = full_outs[0]
    else:
        loss = _with_head(full, full_outs, bindings, values)
        head = Graph()
        head_b = {}
        head_outs = []
        for k, o in enumerate(outs):
            head_b[f"y{k}"] = values[o]
            head_outs.append(head.parameter(f"y{k}"))
        head_loss = _with_head(head, head_outs, head_b, head_b)
        head_values = forward(head, head_b)
        head_s = _median_s(lambda: backward(head, head_values, head_loss), reps)
    full_values = forward(full, bindings)
    bwd_s = _median_s(lambda: backward(full, full_values, loss), reps) - head_s
    grads = backward(full, full_values, loss)

    ref_outs, ref_grads = _reference(op, arrays, ref_groups)
    errs = [_rel_err(values[o], r) for o, r in zip(outs, ref_outs)]
    errs += [_rel_err(grads[name], r) for name, r in ref_grads.items()]
    worst = max(errs)
    return {"ok": worst <= RTOL, "max_rel_err": worst,
            "fwd_ms": 1e3 * fwd_s, "bwd_ms": 1e3 * bwd_s,
            **op_cost(op, n, K, O, tuple(ng for _, ng in ref_groups))}


def op_cost(op: str, n: int, K: int, O: int, n_groups: tuple[int, ...]) -> dict:
    """Computed flops and bytes for forward and backward of one probe.

    ``n_groups`` holds the group count of each pooling term; bytes are
    the minimum traffic: each operand read once, each result written
    once (float32), plus one int64 index per cell and term.
    """
    G = sum(n_groups)
    T = len(n_groups)
    idx = 8 * T * n
    if op == "segment_pool":
        # sums over members, then one divide per group value
        fwd = (T * n * K + G * K, 4 * (T * n * K + G * K) + idx)
        # divide each broadcast gradient, add the terms' gradients
        bwd = (T * n * K + (T - 1) * n * K, 4 * (G * K + n * K) + idx)
    elif op == "gather_broadcast":
        fwd = (0, 4 * (G * K + T * n * K) + idx)
        bwd = (T * n * K, 4 * (T * n * K + G * K) + idx)
    elif op == "channel_mix":
        fwd = (2 * n * K * O + n * O, 4 * (n * K + K * O + O + n * O))
        bwd = (4 * n * K * O + n * O, 4 * (n * O + K * O + n * K + n * K + K * O + O))
    elif op == "leaky_relu":
        fwd = (2 * n * O, 4 * 2 * n * O)
        bwd = (2 * n * O, 4 * 3 * n * O)
    elif op == "softmax_cross_entropy":
        fwd = (6 * n * O, 4 * 2 * n * O)
        bwd = (7 * n * O, 4 * 4 * n * O)
    else:
        raise ValueError(f"unknown probe op {op!r}")
    return {"fwd_flops": fwd[0], "fwd_bytes": fwd[1],
            "bwd_flops": bwd[0], "bwd_bytes": bwd[1]}


def probe_shape(indices, dims, K: int, O: int, seed: int, reps: int) -> dict[str, dict]:
    """Every op at one index set and K x O."""
    return {op: probe_op(op, indices, dims, K, O, seed, reps) for op in OPS}
