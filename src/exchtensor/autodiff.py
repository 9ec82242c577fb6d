"""A minimal reverse-mode differentiation engine over static graphs.

The graph vocabulary is deliberately small.  The models use one fused
op per layer, which sums the layer's terms and applies its activation
and dropout mask in the same pass, plus segment pooling, broadcasting
group values back, channel concat and a fused loss; ``channel_mix``,
``add``, ``nonlinearity``, ``dropout_mask`` and ``mean_square_error``
run only in the fused op's test references and the benchmark's probes.
There is no control flow, no general broadcasting, and no in-graph
randomness: dropout enters as a precomputed mask attribute of the layer
node, so forward passes are deterministic functions of the bindings.
The backward pass forms no gradient for a data leaf.

Graphs are built once and never mutated.  Operands must already exist
when a node is added, so graphs are acyclic and stored in topological
order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .sparse import AxisGroups, with_zero_row

__all__ = [
    "Node",
    "Graph",
    "NONLINEARITIES",
    "apply_nonlinearity",
    "add_terms",
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
                          nonlinearity: str = "identity", slope: float = 0.01,
                          mask: np.ndarray | None = None) -> str:
        """One layer's output, as the module-level ``equivariant_layer``:
        the activation and the dropout ``mask`` (survivor scaling baked
        in) are applied in the same pass as the sum.  A tied layer names
        its shared block twice.  A softmax layer takes no mask, since its
        backward reads the activation the mask would hide."""
        _check_activation(nonlinearity, slope)
        if mask is not None:
            if nonlinearity == "softmax":
                raise ValueError("a softmax layer takes no dropout mask")
            mask = np.asarray(mask)
        return self._add("equivariant_layer", (x, bias, *blocks),
                         groups=tuple(groups), nonlinearity=nonlinearity,
                         slope=float(slope), mask=mask)

    def segment_pool(self, x: str, groups: AxisGroups, mode: str = "mean") -> str:
        """(n, K) cell values -> (n_groups, K) per-group means.

        The forward pass is ``pooled_means`` over this one grouping, a
        product with the pool operator that accumulates in the operand's
        dtype over several groups and in float64 over one, and returns
        the operand's dtype; the backward pass hands each context cell
        its group's gradient over the group's context count.  Pooling is
        always a mean.  ``mode`` admits only "mean"; it stays so that
        callers which pass it keep working.
        """
        if mode != "mean":
            raise ValueError(f"pool mode must be 'mean', got {mode!r}")
        if (groups.sizes == 0).any():
            raise ValueError("segment_pool: empty group")
        return self._add("segment_pool", (x,), groups=groups)

    def gather_broadcast(self, g: str, groups: AxisGroups) -> str:
        """(n_groups, K) group values -> (n, K), each cell gets its group's row.

        The backward pass sums each group's cell gradients over every
        member, as the layer op's backward sums them (``_grouped_sums``).
        """
        return self._add("gather_broadcast", (g,), groups=groups)

    def channel_mix(self, x: str, weights: str, bias: str | None = None) -> str:
        """Per-row affine map: (n, K) @ (K, O) [+ (O,)] -> (n, O)."""
        ops = (x, weights) if bias is None else (x, weights, bias)
        return self._add("channel_mix", ops)

    def nonlinearity(self, x: str, kind: str, slope: float = 0.01) -> str:
        _check_activation(kind, slope)
        return self._add("nonlinearity", (x,), kind=kind, slope=float(slope))

    def add(self, *xs: str) -> str:
        if len(xs) < 1:
            raise ValueError("add needs at least one operand")
        return self._add("add", xs)

    def dropout_mask(self, x: str, mask: np.ndarray) -> str:
        """Multiply by a fixed mask (survivor scaling baked into the mask).

        The product keeps the values' dtype whatever the mask's dtype.
        """
        mask = np.asarray(mask)
        return self._add("dropout_mask", (x,), mask=mask)

    def concat_channels(self, *xs: str) -> str:
        if len(xs) < 1:
            raise ValueError("concat_channels needs at least one operand")
        return self._add("concat_channels", xs)

    # losses

    def softmax_cross_entropy(self, logits: str, targets: str,
                              row_weights: np.ndarray | None = None) -> str:
        """Fused scalar loss: weighted mean over rows of logsumexp(l) − Σ t·l.

        ``row_weights`` selects which rows count (masked-target training);
        None means every row with weight 1.  The loss and its gradients
        keep the logits' dtype.
        """
        if row_weights is not None:
            row_weights = np.asarray(row_weights, dtype=np.float64)
            if (row_weights < 0).any() or row_weights.sum() <= 0:
                raise ValueError("row_weights must be nonnegative with positive sum")
        return self._add("softmax_cross_entropy", (logits, targets),
                         row_weights=row_weights)

    def mean_square_error(self, pred: str, target: str) -> str:
        """Scalar: mean over all entries of (pred − target)^2."""
        return self._add("mean_square_error", (pred, target))


def _check_activation(kind: str, slope: float) -> None:
    if kind not in NONLINEARITIES:
        raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}, got {kind!r}")
    if kind == "leaky_relu" and not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")


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


def _softmax_grad(y: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """The gradient at softmax's input, from its output y and dY."""
    return y * (dY - (dY * y).sum(axis=1, keepdims=True))


def apply_nonlinearity(x: np.ndarray, kind: str, slope: float = 0.01) -> np.ndarray:
    """Element-wise activation; softmax normalizes over the channel axis."""
    if kind == "identity":
        return x
    if kind == "leaky_relu":
        # equals where(x >= 0, x, slope * x) for finite x because
        # 0 <= slope <= 1
        return np.maximum(x, slope * x)
    if kind == "softmax":
        return _softmax(x)
    raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}, got {kind!r}")


def _grouped_sums(x, groups, context=True) -> list[np.ndarray]:
    """Each grouping's sums of x over its context cells (every member
    when ``context`` is False), each in the dtype its grouping
    accumulates in.  A one-group (global) grouping after one of the same
    context takes the float64 sum of that grouping's sums, which saves a
    pass over x and any float64 copy of it."""
    sums = []
    for i, g in enumerate(groups):
        if g.n_groups == 1 and i and groups[i - 1].context is g.context:
            sums.append(sums[-1].sum(axis=0, dtype=np.float64, keepdims=True))
        else:
            sums.append(g.operator(x.dtype, context) @ x)
    return sums


def pooled_means(x, groups) -> list[np.ndarray]:
    """Each grouping's group means of x over its context cells, in x's
    floating dtype, summed as ``AxisGroups.operator`` sums them: in x's
    dtype over several groups, in float64 over one.  The global means,
    after the row grouping ({0} comes just before {} in ``all_subsets``
    order), are the float64 sum of its sums over the count."""
    return [g.means(s, x.dtype) for g, s in zip(groups, _grouped_sums(x, groups))]


def add_terms(cell, terms, nonlinearity="identity", slope=0.01, mask=None,
              sign=None, grad=False):
    """``cell`` (n, O) plus each term, then ``nonlinearity``, then times
    the dropout ``mask``, a (1, O) row: a layer's output or its dx, each
    from its cell product.  A term is (rows, at), as ``AxisGroups.term``
    gives a pooled one: cell i adds ``rows[at[i]]``, or the single row
    ``rows`` when at is None.  A leaky ReLU writes into ``sign``, an
    (n, O) bool array when given, whether each sum is at least 0: its
    derivative's input, which at a slope of 0 the output cannot tell
    from x < 0.

    With ``grad`` the pass is that map's backward at an output gradient
    ``cell``, with no terms and a leaky ReLU or a mask: a new array of
    ``cell`` times the mask, then times the leaky ReLU's derivative as
    ``sign`` recorded it.

    Each pass goes over the rows in blocks of about ``BLOCK_BYTES``, so
    each block stays in cache.  Each step keeps the whole-array order
    and dtype promotion, so the values are those of whole-array passes,
    bit for bit; a term of a wider dtype promotes each block on the way,
    which is then copied into an output of the final dtype.
    """
    dtype = np.result_type(cell, *(rows for rows, _ in terms))
    out = cell if dtype == cell.dtype and not grad \
        else np.empty(cell.shape, dtype)
    if mask is not None:
        mask = mask.astype(np.result_type(dtype, np.float32))
    step = max(1, BLOCK_BYTES // (dtype.itemsize * max(1, cell.shape[1])))
    for a in range(0, cell.shape[0], step):
        y = cell[a : a + step]
        if grad:
            if mask is not None:
                y = np.multiply(y, mask, out=out[a : a + step])
            if nonlinearity == "leaky_relu":
                np.multiply(y, np.maximum(sign[a : a + step], slope,
                                          dtype=dtype), out=out[a : a + step])
            continue
        for rows, at in terms:
            if at is not None:
                rows = np.take(rows, at[a : a + step], axis=0)
            if np.result_type(y, rows) == y.dtype:
                y += rows
            else:
                y = y + rows
        rows = None  # free the last gathered block before the activation
        if nonlinearity == "leaky_relu":
            if sign is not None:
                np.greater_equal(y, 0, out=sign[a : a + step])
            np.maximum(y, slope * y, out=y)
        elif nonlinearity != "identity":
            y[...] = apply_nonlinearity(y, nonlinearity, slope)
        if mask is not None:
            y *= mask
        if out is not cell:
            out[a : a + step] = y
    return out


def fold_rows(table, rows):
    """``table`` plus each single row of ``rows`` in turn, in place
    unless a row's dtype is wider: a layer adds its bias and its global
    term to every cell, so adding them once to a table every cell
    gathers a row of saves two adds per cell."""
    for row in rows:
        table = np.add(table, row, out=table if np.result_type(
            table, row) == table.dtype else None)
    return table


def equivariant_layer(x, bias, blocks, groups, nonlinearity="identity",
                      slope=0.01, mask=None, sign=None, levels=None,
                      means=None):
    """One layer's output, and each pooled term's group means.

    ``blocks`` are the 2^D (K, O) weights in ``all_subsets`` order, the
    cell block first, and ``groups`` the grouping of each later subset.
    ``x @ blocks[0] + bias`` adds each term's mixed group means, gathered
    to the cells.  Each pool reads only its grouping's context cells,
    and its term reaches every cell.  The means are ``pooled_means``,
    or ``means`` when the caller already has them.  The bias and every
    single-group term (the global one) are folded into the first table
    of several groups (``fold_rows``), so a cell adds one term per
    pooled subset of several groups.

    ``levels``, when x is one-hot or zero in each row, gives each row's
    level (K for a zero row).  The cell term is then the cell block's
    rows gathered by level, which equals ``x @ blocks[0]`` bit for bit
    while the block is finite, without the product.

    The cell term is written once into the output; ``add_terms`` then
    adds the other terms, applies ``nonlinearity``, records ``sign`` and
    multiplies by the dropout ``mask`` in place, one row block at a time.
    """
    if means is None:
        means = pooled_means(x, groups)
    single, tables = [bias], []
    for g, m, w in zip(groups, means, blocks[1:]):
        rows, at = g.term(m @ w)
        if at is None:
            single.append(rows)
        else:
            tables.append((rows, at))
    if tables:
        tables[0] = (fold_rows(tables[0][0], single), tables[0][1])
    else:  # every pool is one group, as over one axis: one summed row
        tables = [(sum(single[1:], bias), None)]
    if levels is None:
        cell = x @ blocks[0]
    else:
        # cast the few rows, not the gathered (n, O) cells
        rows = with_zero_row(blocks[0]).astype(np.result_type(x, blocks[0]),
                                               copy=False)
        cell = np.take(rows, levels, axis=0)
    return add_terms(cell, tables, nonlinearity, slope, mask, sign), means


def _equivariant_layer_grads(dY, x, blocks, groups, means, dx=True):
    """(dx, dbias, dblocks) of ``equivariant_layer`` before its
    activation, dx None unless asked for.  The gradient pools are dY's
    group sums over every member, summed as the forward pools sum.  dx
    is the layer's sum run backwards, written as the forward writes its
    output: the cell product ``dY @ blocks[0].T`` is the buffer, and
    ``add_terms`` adds each pooled term, its gradient over the group's
    context count spread to the context cells, in ``all_subsets``
    order."""
    dtype = np.result_type(dY, np.float32)
    dblocks, terms = [x.T @ dY], []
    for g, s, m, w in zip(groups, _grouped_sums(dY, groups, context=False),
                          means, blocks[1:]):
        d_mixed = s.astype(dtype, copy=False)
        dblocks.append(m.T @ d_mixed)
        if dx:
            d_means = d_mixed @ w.T
            terms.append(g.term((d_means / g.divisor[:, None]).astype(
                d_means.dtype), context=True))
    dx = add_terms(dY @ blocks[0].T, terms) if dx else None
    return dx, dY.sum(axis=0), dblocks


def _cross_entropy_grads(dY, logits, targets, row_weights, dtargets=True):
    """(dlogits, dtargets) of the fused softmax cross entropy, dtargets
    None unless asked for."""
    dtype = np.result_type(logits, np.float32)
    if row_weights is None:
        coef = np.full(logits.shape[0], 1.0 / logits.shape[0], dtype)
    else:
        coef = (row_weights / row_weights.sum()).astype(dtype)
    dlogits = dY * coef[:, None] * (_softmax(logits) - targets)
    return dlogits, -dY * coef[:, None] * logits if dtargets else None


def _check_2d(name: str, label: str, v: np.ndarray):
    if v.ndim != 2:
        raise ValueError(f"node '{name}': {label} must be 2-d, got shape {v.shape}")


def _check_mask(name: str, mask: np.ndarray, shape: tuple):
    if np.broadcast_shapes(shape, mask.shape) != shape:
        raise ValueError(f"node '{name}': mask shape {mask.shape} does not "
                         f"fit values {shape}")


def forward(graph: Graph, bindings: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate every node in topological order; returns name -> value.

    All input and parameter nodes must be bound; shape errors name the
    offending node.  A layer node also keeps, for the backward pass, its
    pooled group means under (name, "means") and, for a leaky ReLU, the
    sign of its sum (``add_terms``) under (name, "sign").
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
            x, b, blocks, a = args[0], args[1], args[2:], node.attrs
            groups, mask = a["groups"], a["mask"]
            _check_2d(name, "values", x)
            if {w.shape for w in blocks} != {(x.shape[1], *b.shape)} \
                    or len(blocks) != len(groups) + 1 \
                    or any(g.n_members != x.shape[0] for g in groups):
                raise ValueError(
                    f"node '{name}': values {x.shape}, bias {b.shape}, "
                    f"blocks {[w.shape for w in blocks]} and groups of "
                    f"{[g.n_members for g in groups]} cells do not fit"
                )
            shape = (x.shape[0], *b.shape)
            if mask is not None:
                _check_mask(name, mask, shape)
            sign = np.empty(shape, bool) \
                if a["nonlinearity"] == "leaky_relu" else None
            values[name], values[name, "means"] = equivariant_layer(
                x, b, blocks, groups, a["nonlinearity"], a["slope"], mask, sign)
            values[name, "sign"] = sign
        elif op == "segment_pool":
            (x,) = args
            g: AxisGroups = node.attrs["groups"]
            _check_2d(name, "values", x)
            if x.shape[0] != g.n_members:
                raise ValueError(
                    f"node '{name}': groups cover {g.n_members} rows, "
                    f"values have {x.shape[0]}"
                )
            (values[name],) = pooled_means(x, [g])
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
            _check_mask(name, mask, x.shape)
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
    they enter the graph.  No gradient is formed for a data leaf
    (``Graph.input``): not a layer's dx over its input data, nor a loss's
    gradient for its targets.
    """
    lv = np.asarray(values[loss])
    if lv.size != 1:
        raise ValueError(f"loss node '{loss}' is not scalar: shape {lv.shape}")
    grads: dict[str, np.ndarray] = {loss: np.ones_like(lv)}
    leaves = {n.name for n in graph.nodes if n.op == "input"}

    def accumulate(name, g):
        if name in leaves:
            return
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
            a = node.attrs
            if a["nonlinearity"] == "softmax":
                dY = _softmax_grad(values[node.name], dY)
            elif a["nonlinearity"] == "leaky_relu" or a["mask"] is not None:
                dY = add_terms(dY, [], a["nonlinearity"], a["slope"], a["mask"],
                               values[node.name, "sign"], grad=True)
            dx, dbias, dblocks = _equivariant_layer_grads(
                dY, args[0], args[2:], a["groups"], values[node.name, "means"],
                dx=node.operands[0] not in leaves)
            accumulate(node.operands[0], dx)
            accumulate(node.operands[1], dbias)
            for o, d in zip(node.operands[2:], dblocks):
                accumulate(o, d)
        elif op == "segment_pool":
            g = node.attrs["groups"]
            dg = (dY / g.divisor[:, None]).astype(dY.dtype)
            accumulate(node.operands[0], g.spread(dg))
        elif op == "gather_broadcast":
            g = node.attrs["groups"]
            (sums,) = _grouped_sums(dY, [g], context=False)
            accumulate(node.operands[0], sums.astype(
                np.result_type(dY, np.float32), copy=False))
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
                dx = _softmax_grad(y, dY)
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
            for o, d in zip(node.operands, _cross_entropy_grads(
                    dY, *args, node.attrs["row_weights"],
                    dtargets=node.operands[1] not in leaves)):
                accumulate(o, d)
        elif op == "mean_square_error":
            pred, target = args
            d = dY * 2.0 * (pred - target) / pred.size
            accumulate(node.operands[0], d)
            accumulate(node.operands[1], -d)

    return {p: grads[p] if p in grads else np.zeros_like(values[p])
            for p in graph.parameters}
