"""A minimal reverse-mode differentiation engine over static graphs.

The graph vocabulary is deliberately small: exactly the primitives the
exchangeable layers and their losses need (one fused op for a layer's
pooled sum, segment pooling over observed cells, broadcasting group
values back, per-row channel mixing, a few element-wise nonlinearities,
and two fused losses).  There is no control
flow, no general broadcasting, and no in-graph randomness: dropout enters
as a precomputed mask attribute so that forward passes are deterministic
functions of the bindings.

Graphs are built once and never mutated.  Operands must already exist
when a node is added, so graphs are acyclic and stored in topological
order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .sparse import AxisGroups

__all__ = [
    "Node",
    "Graph",
    "NONLINEARITIES",
    "apply_nonlinearity",
    "equivariant_layer",
    "pooled_means",
    "forward",
    "backward",
]

NONLINEARITIES = ("identity", "leaky_relu", "softmax")
# Bytes of output per row block of ``equivariant_layer``'s pass over its
# output.  A block, its gathered term and its activation temporary fit in
# a 2 MiB L2 cache; 256 KiB to 1 MiB blocks timed within 10% of each other.
BLOCK_BYTES = 1 << 19
# Widest row that softmax and the fused loss reduce on a contiguous
# (K, n) copy.  NumPy adds a row of fewer than 8 values in channel order,
# and a longer one pairwise, so only up to 7 channels does summing the
# copy down its first axis equal the row-wise sum bit for bit.  The copy
# turns n tiny row loops into K contiguous vector passes.
CHANNEL_MAJOR_MAX = 7


@dataclass(frozen=True)
class Node:
    """One operation: a kind, operand node names, and static attributes."""

    name: str
    op: str
    operands: tuple[str, ...]
    attrs: dict[str, Any] = field(default_factory=dict)


class Graph:
    """Append-only operation graph; node names double as value keys."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._index: dict[str, Node] = {}

    @property
    def parameters(self) -> list[str]:
        return [n.name for n in self.nodes if n.op == "parameter"]

    def _add(self, op: str, operands=(), name=None, **attrs) -> str:
        if name is None:
            name = f"{op}_{len(self.nodes)}"
        if name in self._index:
            raise ValueError(f"node name '{name}' already in graph")
        for o in operands:
            if o not in self._index:
                raise ValueError(f"node '{name}': unknown operand '{o}'")
        node = Node(name, op, tuple(operands), attrs)
        self.nodes.append(node)
        self._index[name] = node
        return name

    # leaves

    def input(self, name: str) -> str:
        """Data leaf: bound at forward time, receives no reported gradient."""
        return self._add("input", name=name)

    def parameter(self, name: str) -> str:
        """Trainable leaf: bound at forward time, gradient reported."""
        return self._add("parameter", name=name)

    # structure ops

    def equivariant_layer(self, x: str, bias: str, blocks, groups,
                          name=None) -> str:
        """One layer's pre-activation, as the module-level
        ``equivariant_layer``; a tied layer names its shared block twice."""
        return self._add("equivariant_layer", (x, bias, *blocks), name,
                         groups=tuple(groups))

    def segment_pool(self, x: str, groups: AxisGroups, mode: str = "mean",
                     name=None) -> str:
        """(n, K) cell values -> (n_groups, K) per-group means.

        The forward pass is ``groups.group_means``, a product with the
        pool operator that accumulates in float64 and returns the
        operand's dtype; the backward pass hands each context cell its
        group's gradient over the group's context count.  Pooling is
        always a mean.  ``mode`` admits only "mean"; it stays so that
        callers which pass it keep working.
        """
        if mode != "mean":
            raise ValueError(f"pool mode must be 'mean', got {mode!r}")
        if (groups.sizes == 0).any():
            raise ValueError("segment_pool: empty group")
        return self._add("segment_pool", (x,), name, groups=groups)

    def gather_broadcast(self, g: str, groups: AxisGroups, name=None) -> str:
        """(n_groups, K) group values -> (n, K), each cell gets its group's row.

        The backward pass sums each group's cell gradients with
        ``groups.group_sums``.
        """
        return self._add("gather_broadcast", (g,), name, groups=groups)

    def channel_mix(self, x: str, weights: str, bias: str | None = None,
                    name=None) -> str:
        """Per-row affine map: (n, K) @ (K, O) [+ (O,)] -> (n, O)."""
        ops = (x, weights) if bias is None else (x, weights, bias)
        return self._add("channel_mix", ops, name)

    def nonlinearity(self, x: str, kind: str, slope: float = 0.01,
                     name=None) -> str:
        if kind not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}, got {kind!r}")
        if kind == "leaky_relu" and not 0.0 <= slope <= 1.0:
            raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
        return self._add("nonlinearity", (x,), name, kind=kind, slope=float(slope))

    def add(self, *xs: str, name=None) -> str:
        if len(xs) < 1:
            raise ValueError("add needs at least one operand")
        return self._add("add", xs, name)

    def dropout_mask(self, x: str, mask: np.ndarray, name=None) -> str:
        """Multiply by a fixed mask (survivor scaling baked into the mask).

        The product keeps the values' dtype whatever the mask's dtype.
        """
        mask = np.asarray(mask)
        return self._add("dropout_mask", (x,), name, mask=mask)

    def concat_channels(self, *xs: str, name=None) -> str:
        if len(xs) < 1:
            raise ValueError("concat_channels needs at least one operand")
        return self._add("concat_channels", xs, name)

    # losses

    def softmax_cross_entropy(self, logits: str, targets: str,
                              row_weights: np.ndarray | None = None,
                              name=None) -> str:
        """Fused scalar loss: weighted mean over rows of logsumexp(l) − Σ t·l.

        ``row_weights`` selects which rows count (masked-target training);
        None means every row with weight 1.  The loss and its gradients
        keep the logits' dtype.
        """
        if row_weights is not None:
            row_weights = np.asarray(row_weights, dtype=np.float64)
            if (row_weights < 0).any() or row_weights.sum() <= 0:
                raise ValueError("row_weights must be nonnegative with positive sum")
        return self._add("softmax_cross_entropy", (logits, targets), name,
                         row_weights=row_weights)

    def mean_square_error(self, pred: str, target: str, name=None) -> str:
        """Scalar: mean over all entries of (pred − target)^2."""
        return self._add("mean_square_error", (pred, target), name)


def _by_channel(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(n, K) x as (its contiguous (K, n) copy, 0) when K is at most
    ``CHANNEL_MAJOR_MAX``, else (x, 1): reducing the first over the
    second gives the row-wise reduction of x bit for bit."""
    if x.shape[1] <= CHANNEL_MAJOR_MAX:
        return np.ascontiguousarray(x.T), 0
    return x, 1


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the channels of (n, K) x, reduced channel-major up to
    ``CHANNEL_MAJOR_MAX`` channels; C-contiguous like x."""
    xc, axis = _by_channel(x)
    e = np.exp(xc - xc.max(axis=axis, keepdims=True))
    e /= e.sum(axis=axis, keepdims=True)
    return np.ascontiguousarray(e.T) if axis == 0 else e


def apply_nonlinearity(x: np.ndarray, kind: str, slope: float = 0.01) -> np.ndarray:
    """Element-wise activation; softmax normalizes over the channel axis."""
    if kind == "identity":
        return x
    if kind == "leaky_relu":
        # equals where(x >= 0, x, slope * x) because 0 <= slope <= 1
        return np.maximum(x, slope * x)
    if kind == "softmax":
        return _softmax(x)
    raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}, got {kind!r}")


def _add_into(total, term, g: AxisGroups | None = None):
    """total + term, with term's rows spread to g's cells when g is
    given (a single group's row broadcasts when every cell is context);
    in place when total, a temporary or None, keeps the sum's shape and
    dtype."""
    if g is not None and (g.context is not None or g.n_groups > 1):
        term = g.spread(term)
    if total is None:
        return term
    if total.shape[0] < term.shape[0] or np.result_type(total, term) != total.dtype:
        return total + term
    total += term
    return total


def pooled_means(x, groups) -> list[np.ndarray]:
    """Each grouping's group means of x, which is upcast to float64 once
    for all of them; the means take x's floating dtype."""
    x64 = np.asarray(x, dtype=np.float64)
    return [g.group_means(x64).astype(np.result_type(x, np.float32), copy=False)
            for g in groups]


def equivariant_layer(x, bias, blocks, groups, nonlinearity="identity",
                      slope=0.01):
    """One layer's output, and each pooled term's group means.

    ``blocks`` are the 2^D (K, O) weights in ``all_subsets`` order, the
    cell block first, and ``groups`` the grouping of each later subset.
    ``x @ blocks[0] + bias`` adds each term's mixed group means, gathered
    to the cells, in that order.  Each pool reads only its grouping's
    context cells, and its term reaches every cell.  The means are
    ``pooled_means``.

    The cell term is one whole product, written once into the output.
    The bias, the pooled terms and then ``nonlinearity`` (an activation
    applied in place; the graph op asks for none, since its backward
    reads the pre-activation) go over that buffer in row blocks of about
    ``BLOCK_BYTES``, so each block stays in cache.  Each addition keeps
    the whole-array order and dtype promotion, so the values are those
    of summing whole arrays, bit for bit.
    """
    means = pooled_means(x, groups)
    # (term, its row per cell or None to broadcast), bias first
    terms = [(bias, None)] + [(m @ w, g.group_of if g.n_groups > 1 else None)
                              for g, m, w in zip(groups, means, blocks[1:])]
    cell = x @ blocks[0]
    dtype = np.result_type(cell, *(term for term, _ in terms))
    # a term of a wider dtype promotes each block on the way: sum in
    # the cell buffer, then copy into an output of the final dtype
    out = cell if dtype == cell.dtype else np.empty(cell.shape, dtype)
    rows = max(1, BLOCK_BYTES // (dtype.itemsize * max(1, cell.shape[1])))
    for a in range(0, cell.shape[0], rows):
        y = cell[a : a + rows]
        for term, group_of in terms:
            if group_of is not None:
                term = np.take(term, group_of[a : a + rows], axis=0)
            if np.result_type(y, term) == y.dtype:
                y += term
            else:
                y = y + term
        if nonlinearity == "leaky_relu":
            np.maximum(y, slope * y, out=y)
        elif nonlinearity != "identity":
            y[...] = apply_nonlinearity(y, nonlinearity, slope)
        if out is not cell:
            out[a : a + rows] = y
    return out, means


def _equivariant_layer_grads(dY, x, blocks, groups, means):
    """(dx, dbias, dblocks) of ``equivariant_layer``.  dx adds the pooled
    terms in reverse subset order and the cell term last, the order in
    which separate pool, mix and broadcast nodes accumulated them."""
    dtype = np.result_type(dY, np.float32)
    dY64 = np.asarray(dY, dtype=np.float64)
    dx = None
    dblocks = [x.T @ dY]
    for g, m, w in zip(groups[::-1], means[::-1], blocks[:0:-1]):
        d_mixed = g.group_sums(dY64).astype(dtype, copy=False)
        dblocks.insert(1, m.T @ d_mixed)
        d_means = d_mixed @ w.T
        dx = _add_into(dx, (d_means / g.divisor[:, None]).astype(d_means.dtype), g)
    return _add_into(dx, dY @ blocks[0].T), dY.sum(axis=0), dblocks


def _check_2d(name: str, label: str, v: np.ndarray):
    if v.ndim != 2:
        raise ValueError(f"node '{name}': {label} must be 2-d, got shape {v.shape}")


def forward(graph: Graph, bindings: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate every node in topological order; returns name -> value.

    All input and parameter nodes must be bound; shape errors name the
    offending node.  A layer node also keeps its pooled group means under
    (name, "means") for the backward pass.
    """
    values: dict[str, np.ndarray] = {}
    for node in graph.nodes:
        op = node.op
        name = node.name
        if op in ("input", "parameter"):
            if name not in bindings:
                raise ValueError(f"unbound {op} node '{name}'")
            values[name] = np.asarray(bindings[name])
            continue
        args = [values[o] for o in node.operands]
        if op == "equivariant_layer":
            x, b, blocks, groups = args[0], args[1], args[2:], node.attrs["groups"]
            _check_2d(name, "values", x)
            if {w.shape for w in blocks} != {(x.shape[1], *b.shape)} \
                    or len(blocks) != len(groups) + 1 \
                    or any(g.n_members != x.shape[0] for g in groups):
                raise ValueError(
                    f"node '{name}': values {x.shape}, bias {b.shape}, "
                    f"blocks {[w.shape for w in blocks]} and groups of "
                    f"{[g.n_members for g in groups]} cells do not fit"
                )
            values[name], values[name, "means"] = equivariant_layer(
                x, b, blocks, groups)
        elif op == "segment_pool":
            (x,) = args
            g: AxisGroups = node.attrs["groups"]
            _check_2d(name, "values", x)
            if x.shape[0] != g.n_members:
                raise ValueError(
                    f"node '{name}': groups cover {g.n_members} rows, "
                    f"values have {x.shape[0]}"
                )
            values[name] = g.group_means(x)
        elif op == "gather_broadcast":
            (gv,) = args
            g = node.attrs["groups"]
            _check_2d(name, "group values", gv)
            if gv.shape[0] != g.n_groups:
                raise ValueError(
                    f"node '{name}': {g.n_groups} groups but {gv.shape[0]} "
                    f"group vectors"
                )
            values[name] = gv[g.group_of]
        elif op == "channel_mix":
            x, w = args[0], args[1]
            _check_2d(name, "values", x)
            _check_2d(name, "weights", w)
            if x.shape[1] != w.shape[0]:
                raise ValueError(
                    f"node '{name}': {x.shape[1]} channels vs weight rows "
                    f"{w.shape[0]}"
                )
            out = x @ w
            if len(args) == 3:
                b = args[2]
                if b.shape != (w.shape[1],):
                    raise ValueError(
                        f"node '{name}': bias shape {b.shape}, expected "
                        f"({w.shape[1]},)"
                    )
                out = out + b
            values[name] = out
        elif op == "nonlinearity":
            (x,) = args
            kind = node.attrs["kind"]
            if kind == "softmax":
                _check_2d(name, "softmax input", x)
            values[name] = apply_nonlinearity(x, kind, node.attrs["slope"])
        elif op == "add":
            out = args[0]
            for a in args[1:]:
                if a.shape != out.shape:
                    raise ValueError(
                        f"node '{name}': add shapes differ: {out.shape} vs {a.shape}"
                    )
                out = out + a
            values[name] = out
        elif op == "dropout_mask":
            (x,) = args
            mask = node.attrs["mask"]
            if np.broadcast_shapes(x.shape, mask.shape) != x.shape:
                raise ValueError(
                    f"node '{name}': mask shape {mask.shape} does not fit "
                    f"values {x.shape}"
                )
            values[name] = x * mask.astype(np.result_type(x, np.float32))
        elif op == "concat_channels":
            for a in args:
                _check_2d(name, "operand", a)
            rows = {a.shape[0] for a in args}
            if len(rows) != 1:
                raise ValueError(f"node '{name}': row counts differ: {sorted(rows)}")
            values[name] = np.concatenate(args, axis=1)
        elif op == "softmax_cross_entropy":
            logits, targets = args
            _check_2d(name, "logits", logits)
            if targets.shape != logits.shape:
                raise ValueError(
                    f"node '{name}': targets {targets.shape} vs logits "
                    f"{logits.shape}"
                )
            w = node.attrs["row_weights"]
            if w is not None and w.shape != (logits.shape[0],):
                raise ValueError(
                    f"node '{name}': row_weights shape {w.shape}, expected "
                    f"({logits.shape[0]},)"
                )
            lc, axis = _by_channel(logits)
            m = lc.max(axis=axis, keepdims=True)
            lse = (m + np.log(np.exp(lc - m).sum(axis=axis, keepdims=True))).ravel()
            ce = lse - (_by_channel(targets)[0] * lc).sum(axis=axis)
            loss = ce.mean() if w is None else (w * ce).sum() / w.sum()
            values[name] = np.asarray(loss, np.result_type(logits, np.float32))
        elif op == "mean_square_error":
            pred, target = args
            if pred.shape != target.shape:
                raise ValueError(
                    f"node '{name}': target {target.shape} vs prediction "
                    f"{pred.shape}"
                )
            values[name] = np.asarray(np.mean((pred - target) ** 2))
        else:
            raise ValueError(f"node '{name}': unknown op '{op}'")
    return values


def backward(graph: Graph, values: Mapping[str, np.ndarray],
             loss: str) -> dict[str, np.ndarray]:
    """Reverse accumulation from a scalar loss node.

    Returns a gradient for every parameter node; parameters the loss never
    touches get zeros.  Loss targets (second operand of the fused losses)
    do receive gradient flow, so parameters are differentiable wherever
    they enter the graph.
    """
    lv = np.asarray(values[loss])
    if lv.size != 1:
        raise ValueError(f"loss node '{loss}' is not scalar: shape {lv.shape}")
    grads: dict[str, np.ndarray] = {loss: np.ones_like(lv)}

    def accumulate(name, g):
        if name in grads:
            grads[name] = grads[name] + g
        else:
            grads[name] = g

    for node in reversed(graph.nodes):
        if node.name not in grads or node.op in ("input", "parameter"):
            continue
        dY = grads[node.name]
        args = [values[o] for o in node.operands]
        op = node.op
        if op == "equivariant_layer":
            dx, dbias, dblocks = _equivariant_layer_grads(
                dY, args[0], args[2:], node.attrs["groups"],
                values[node.name, "means"])
            accumulate(node.operands[0], dx)
            accumulate(node.operands[1], dbias)
            # a tied block takes the later subset's gradient first
            for o, d in reversed(list(zip(node.operands[2:], dblocks))):
                accumulate(o, d)
        elif op == "segment_pool":
            g = node.attrs["groups"]
            dg = (dY / g.divisor[:, None]).astype(dY.dtype)
            accumulate(node.operands[0], g.spread(dg))
        elif op == "gather_broadcast":
            g = node.attrs["groups"]
            accumulate(node.operands[0], g.group_sums(dY))
        elif op == "channel_mix":
            x, w = args[0], args[1]
            accumulate(node.operands[0], dY @ w.T)
            accumulate(node.operands[1], x.T @ dY)
            if len(args) == 3:
                accumulate(node.operands[2], dY.sum(axis=0))
        elif op == "nonlinearity":
            (x,) = args
            kind = node.attrs["kind"]
            y = values[node.name]
            if kind == "identity":
                dx = dY
            elif kind == "leaky_relu":
                # derivative 1 where x >= 0, else slope: max(x >= 0, slope)
                # because 0 <= slope <= 1
                dx = dY * np.maximum(x >= 0, node.attrs["slope"], dtype=dY.dtype)
            else:
                dx = y * (dY - (dY * y).sum(axis=1, keepdims=True))
            accumulate(node.operands[0], dx)
        elif op == "add":
            for o in node.operands:
                accumulate(o, dY)
        elif op == "dropout_mask":
            mask = node.attrs["mask"]
            accumulate(node.operands[0], dY * mask.astype(dY.dtype))
        elif op == "concat_channels":
            off = 0
            for o, a in zip(node.operands, args):
                accumulate(o, dY[:, off : off + a.shape[1]])
                off += a.shape[1]
        elif op == "softmax_cross_entropy":
            logits, targets = args
            w = node.attrs["row_weights"]
            dtype = np.result_type(logits, np.float32)
            if w is None:
                coef = np.full(logits.shape[0], 1.0 / logits.shape[0], dtype)
            else:
                coef = (w / w.sum()).astype(dtype)
            p = _softmax(logits)
            accumulate(node.operands[0], dY * coef[:, None] * (p - targets))
            accumulate(node.operands[1], -dY * coef[:, None] * logits)
        elif op == "mean_square_error":
            pred, target = args
            d = dY * 2.0 * (pred - target) / pred.size
            accumulate(node.operands[0], d)
            accumulate(node.operands[1], -d)

    return {p: grads[p] if p in grads else np.zeros_like(values[p])
            for p in graph.parameters}
