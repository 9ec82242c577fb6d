"""A minimal reverse-mode differentiation engine over static graphs.

The graph vocabulary is deliberately small: exactly the primitives the
exchangeable layers and their losses need (segment pooling over observed
cells, broadcasting group values back, per-row channel mixing, a few
element-wise nonlinearities, and two fused losses).  There is no control
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
    "forward",
    "backward",
]

NONLINEARITIES = ("identity", "sigmoid", "leaky_relu", "softmax")


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

    def node(self, name: str) -> Node:
        return self._index[name]

    @property
    def parameters(self) -> list[str]:
        return [n.name for n in self.nodes if n.op == "parameter"]

    @property
    def inputs(self) -> list[str]:
        return [n.name for n in self.nodes if n.op == "input"]

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

    def segment_pool(self, x: str, groups: AxisGroups, mode: str = "mean",
                     name=None) -> str:
        """(n, K) cell values -> (n_groups, K) per-group means.

        The forward pass is ``groups.group_means``, a product with the
        group-sum operator that accumulates in float64 and returns the
        operand's dtype; the backward pass hands each cell its group's
        gradient over the group size.  Pooling is always a mean.  ``mode``
        admits only "mean"; it stays so that callers which pass it keep
        working.
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # two-branch form avoids overflow in exp for large |x|
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def apply_nonlinearity(x: np.ndarray, kind: str, slope: float = 0.01) -> np.ndarray:
    """Element-wise activation; softmax normalizes over the channel axis."""
    if kind == "identity":
        return x
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "leaky_relu":
        # equals where(x >= 0, x, slope * x) because 0 <= slope <= 1
        return np.maximum(x, slope * x)
    if kind == "softmax":
        return _softmax(x)
    raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}, got {kind!r}")


def _check_2d(name: str, label: str, v: np.ndarray):
    if v.ndim != 2:
        raise ValueError(f"node '{name}': {label} must be 2-d, got shape {v.shape}")


def forward(graph: Graph, bindings: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate every node in topological order; returns name -> value.

    All input and parameter nodes must be bound; shape errors name the
    offending node.
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
        if op == "segment_pool":
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
            m = logits.max(axis=1, keepdims=True)
            lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]
            ce = lse - (targets * logits).sum(axis=1)
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
        if op == "segment_pool":
            g = node.attrs["groups"]
            dg = (dY / g.sizes[:, None]).astype(dY.dtype)
            accumulate(node.operands[0], dg[g.group_of])
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
            elif kind == "sigmoid":
                dx = dY * y * (1.0 - y)
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

    out = {}
    for p in graph.parameters:
        out[p] = grads.get(p, np.zeros_like(np.asarray(values[p])))
    return out
