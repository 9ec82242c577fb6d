"""Permutation-equivariant layers over sparse exchangeable arrays.

A layer ties its weights so that relabeling the objects along any axis
commutes with the layer.  For a D-dimensional array the tying admits one
channel-mixing block per subset S of the axes: the term for S pools the
input over the axes outside S (so the result depends only on the
coordinates in S), mixes the pooled channels with the block's weights,
and broadcasts the mixed group values back to every observed cell.
Summing the 2^D terms, adding a bias, and applying an element-wise
nonlinearity preserves equivariance.

The paper states each term as broadcast, then mix.  Mean pooling,
broadcasting and channel mixing are all linear, and broadcasting copies
whole rows, so broadcast(pool(x)) @ W equals broadcast(pool(x) @ W): the
order is free and the layer mixes the few group rows instead of all n
cells.  Pool -> mix -> broadcast leaves one (n, K) @ (K, O) product per
layer, for the cell term, instead of 2^D.  The whole sum is one op,
``autodiff.equivariant_layer``: training graphs hold it as one node per
layer, and inference calls it once per layer from ``apply_stack``, the
one eval-mode loop over a stack, which builds no graph, checks every
layer before the first runs, and reads the pooling groups and a one-hot
input once per stack.  The cell term writes a layer's output once; the
pooled terms, the bias, the activation and, in training, the dropout
mask are then added or applied in place, one cache-sized row block at a
time.  The bias and the global term are
single rows, so they are added once into the first pooled table instead
of into every cell.  The graph op records the sign of each sum in that
pass, which its backward reads for the leaky ReLU's derivative.  A
one-hot input, as the ratings enter the first layer, is read by level:
its cell term is a row gather of the cell block.

For matrices (D=2) the four subsets are: both axes (the cell itself), the
column axis (mean over the cell's column), the row axis (mean over the
cell's row), and neither (mean over everything observed).  All pooling is
over observed cells only, so the same code serves dense and sparse inputs.
A pool may read only a context of those cells (``pooling_groups(t,
context)``) while its term still reaches every cell: the self-supervised
model leaves masked and query cells out of its pools.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cache
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .autodiff import NONLINEARITIES, Graph, equivariant_layer, pooled_means
from .sparse import AxisGroups, SparseExchangeableTensor

__all__ = [
    "ExchLayerParams",
    "FactorPair",
    "all_subsets",
    "block_key",
    "block_name",
    "random_layer_params",
    "pooling_groups",
    "add_layer_nodes",
    "add_stack_nodes",
    "apply_stack",
    "one_hot_input",
    "exchangeable_tensor_layer",
    "dropout_channel_mask",
    "pool_to_factors",
    "broadcast_factors",
]


@cache
def all_subsets(ndim: int) -> tuple[frozenset[int], ...]:
    """All subsets of {0..ndim-1}, full set first, empty set last; cached."""
    out = []
    for mask in range(2**ndim - 1, -1, -1):
        out.append(frozenset(i for i in range(ndim) if mask >> i & 1))
    return tuple(out)


def block_key(S: frozenset[int]) -> str:
    """Stable name for a weight block: 'w01' fixes axes 0 and 1, 'wg' none."""
    return "w" + ("".join(str(a) for a in sorted(S)) or "g")


@cache
def block_name(prefix: str, S: frozenset[int], tied: bool) -> str:
    """Array name of block S in the layer named prefix, e.g. 'layer1.w01'.

    This is the one naming rule for a layer's arrays: graph parameter
    nodes, optimizer state and checkpoints all use it.  A tied layer's
    column-pool block is its row-pool block, so it takes the name 'w0'.
    Cached: every training epoch names each of a model's arrays.
    """
    if tied and S == frozenset({1}):
        S = frozenset({0})
    return f"{prefix}.{block_key(S)}"


@dataclass
class ExchLayerParams:
    """Weights of one equivariant layer: 2^D channel-mix blocks plus bias.

    ``blocks`` maps each subset of axes (the axes a term does NOT pool
    over) to a (K, O) matrix.  ``tied`` marks the jointly-exchangeable
    variant for square matrices, where the row-pool and column-pool blocks
    are one shared array.  ``slope`` is the leaky-ReLU slope for negative
    inputs and must lie in [0, 1], where leaky ReLU is max(x, slope * x).
    """

    blocks: dict[frozenset[int], np.ndarray]
    bias: np.ndarray
    nonlinearity: str = "identity"
    slope: float = 0.01
    tied: bool = False

    def __post_init__(self):
        axes = frozenset().union(*self.blocks) if self.blocks else frozenset()
        ndim = (max(axes) + 1) if axes else 0
        if ndim == 0 or set(self.blocks) != set(all_subsets(ndim)):
            raise ValueError(
                f"blocks must cover all 2^D subsets of the axes, got "
                f"{sorted(tuple(sorted(s)) for s in self.blocks)}"
            )
        self.blocks = {S: np.asarray(w) for S, w in self.blocks.items()}
        shapes = {w.shape for w in self.blocks.values()}
        if len(shapes) != 1 or any(len(s) != 2 for s in shapes):
            raise ValueError(f"weight blocks must share one (K, O) shape, got {shapes}")
        self.bias = np.asarray(self.bias)
        (K, O) = next(iter(shapes))
        if self.bias.shape != (O,):
            raise ValueError(f"bias shape {self.bias.shape}, expected ({O},)")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not isinstance(self.slope, Real) or not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"slope must be a number in [0, 1], got {self.slope!r}")
        # a Python float, as graph nodes hold it, keeps float32 values float32
        self.slope = float(self.slope)
        if self.tied:
            if ndim != 2:
                raise ValueError("tied (jointly exchangeable) requires 2 axes")
            if self.blocks[frozenset({0})] is not self.blocks[frozenset({1})]:
                raise ValueError(
                    "tied layers must share one array between the row-pool "
                    "and column-pool blocks"
                )

    @property
    def ndim(self) -> int:
        return max(len(S) for S in self.blocks)

    @property
    def channels_in(self) -> int:
        return next(iter(self.blocks.values())).shape[0]

    @property
    def channels_out(self) -> int:
        return self.bias.shape[0]

    def bindings(self, prefix: str) -> dict[str, np.ndarray]:
        """Array name -> array, names per ``block_name``; a tied layer's
        shared block appears once."""
        out = {block_name(prefix, S, self.tied): w
               for S, w in self.blocks.items()}
        out[f"{prefix}.bias"] = self.bias
        return out

    def from_bindings(self, prefix: str, bindings: Mapping[str, np.ndarray]
                      ) -> "ExchLayerParams":
        """The same layer with its arrays looked up by name in bindings.

        Only the arrays change, each to one of the same shape, so the
        layer is copied rather than checked again: a fit rebuilds its
        layers this way every epoch."""
        new = copy(self)
        new.blocks = {S: np.asarray(bindings[block_name(prefix, S, self.tied)])
                      for S in self.blocks}
        new.bias = np.asarray(bindings[f"{prefix}.bias"])
        if self.tied:  # one array, however the mapping hands it out
            new.blocks[frozenset({1})] = new.blocks[frozenset({0})]
        if [w.shape for w in (*new.blocks.values(), new.bias)] != \
                [w.shape for w in (*self.blocks.values(), self.bias)]:
            raise ValueError(f"{prefix}: arrays of other shapes than the layer's")
        return new


def random_layer_params(
    ndim: int,
    channels_in: int,
    channels_out: int,
    rng: np.random.Generator,
    nonlinearity: str = "identity",
    tied: bool = False,
) -> ExchLayerParams:
    """Glorot-style initialization; the 2^D summed terms count as fan-in."""
    scale = np.sqrt(2.0 / (2**ndim * channels_in + channels_out))
    blocks = {
        S: rng.normal(0.0, scale, size=(channels_in, channels_out))
        for S in all_subsets(ndim)
    }
    if tied:
        blocks[frozenset({1})] = blocks[frozenset({0})]
    return ExchLayerParams(
        blocks=blocks,
        bias=np.zeros(channels_out),
        nonlinearity=nonlinearity,
        tied=tied,
    )


def pooling_groups(
    t: SparseExchangeableTensor,
    context: np.ndarray | None = None,
) -> dict[frozenset[int], AxisGroups]:
    """Axis groups for every pooled term of a layer over t's index set.

    They depend on the index set alone, so they come from ``t.groups``:
    computed once per index set, shared by every layer and pass.  The
    full subset needs no groups: its term is the identity.  ``context``,
    a boolean mask over t's cells, restricts every pool to the cells it
    marks (``AxisGroups.with_context``); the terms still reach every cell.
    """
    return {
        S: t.groups(S).with_context(context)
        for S in all_subsets(t.ndim)
        if len(S) < t.ndim
    }


def add_layer_nodes(
    g: Graph,
    x: str,
    groups: Mapping[frozenset[int], AxisGroups],
    params: ExchLayerParams,
    prefix: str,
    dropout_mask: np.ndarray | None = None,
) -> str:
    """Append one equivariant layer to a graph; returns the output node.

    The layer is one ``equivariant_layer`` node, which applies its
    nonlinearity and, when given, its dropout mask in the pass that sums
    its terms.  Parameter nodes are named per ``block_name``, as in
    ``params.bindings(prefix)``.  A tied layer contributes a single
    parameter node for its shared block, so the backward pass
    accumulates both terms' gradients into it.
    """
    # the pooled subsets of a D-axis tensor run up to D - 1 axes
    _check_axes(params, max(map(len, groups)) + 1)
    subsets = all_subsets(params.ndim)
    bias = g.parameter(f"{prefix}.bias")
    blocks = [block_name(prefix, S, params.tied) for S in subsets]
    for nm in dict.fromkeys(blocks):
        g.parameter(nm)
    return g.equivariant_layer(x, bias, blocks,
                               [groups[S] for S in subsets[1:]],
                               params.nonlinearity, params.slope, dropout_mask)


def add_stack_nodes(
    g: Graph,
    x: str,
    groups: Mapping[frozenset[int], AxisGroups],
    stack: Sequence[ExchLayerParams],
    prefix: str,
    dropout_masks: Mapping[int, np.ndarray] | None = None,
) -> str:
    """Append a stack of layers that all pool with ``groups``.

    Layer k (1-based) names its parameters ``params.bindings(prefix + k)``
    and multiplies its output by ``dropout_masks[k]`` when one is given.
    Returns the last layer's output node.
    """
    dropout_masks = dropout_masks or {}
    for k, lp in enumerate(stack, start=1):
        x = add_layer_nodes(
            g, x, groups, lp, f"{prefix}{k}", dropout_masks.get(k)
        )
    return x


def _check_axes(params: ExchLayerParams, ndim: int) -> None:
    """ValueError unless the layer's blocks are those of an ndim-axis
    tensor: a matrix layer would pool a tensor over the wrong axes."""
    if params.ndim != ndim:
        raise ValueError(f"params cover {params.ndim} axes, tensor has {ndim}")


def _one_hot_levels(x: np.ndarray) -> np.ndarray | None:
    """Each row's level when every row of (n, K) x is one-hot or zero (K
    for a zero row), else None."""
    hot = x != 0
    if (hot.sum(axis=1) > 1).any() or (x[hot] != 1).any():
        return None
    return np.where(hot.any(axis=1), hot.argmax(axis=1), x.shape[1])


def one_hot_input(t: SparseExchangeableTensor):
    """(levels, means) of t's values as a layer over t reads them when
    they are one-hot (``_one_hot_levels``): each row's level, and their
    group means over t's pooling groups, in ``all_subsets`` order after
    the full subset.  (None, None) for other values.  The first row is
    checked alone first, so most other values cost one row.

    Kept on t's index set for these values (``for_values``), so a fit
    that reads its fixed one-hot context every epoch levels and pools it
    once; ``training.train`` computes it before a worker thread reads it.
    The arrays are read-only: every later pass shares them."""
    def levels_and_means(t):
        levels = _one_hot_levels(t.values)
        if levels is None:
            return None, None
        groups = pooling_groups(t)
        means = pooled_means(t.values,
                             [groups[S] for S in all_subsets(t.ndim)[1:]])
        for a in (levels, *means):
            a.setflags(write=False)
        return levels, means

    if _one_hot_levels(t.values[:1]) is None:
        return None, None
    return t.for_values("one-hot", levels_and_means)


def exchangeable_tensor_layer(
    t: SparseExchangeableTensor, params: ExchLayerParams
) -> SparseExchangeableTensor:
    """Apply one equivariant layer; output lives on the same index set.

    A stack of one layer (``apply_stack``): the output is written once
    by the cell term, and the bias, the pooled terms and the activation
    are then added or applied in place, one row block at a time
    (``equivariant_layer``)."""
    return apply_stack(t, (params,))


def apply_stack(t: SparseExchangeableTensor,
                stack: Sequence[ExchLayerParams], read=None):
    """Eval-mode forward of a layer stack over t's index set: the one
    loop that runs layers outside a graph.

    Before the first layer runs, every layer's axes are checked against
    t's, and its input width against the previous layer's output (t's
    channels for the first).  t's pooling groups and its one-hot levels
    and means (``one_hot_input``) are read once: every layer's output
    shares t's index set and so its groups, and a one-hot t, such as a
    context's encoded ratings, is read by level.  No graph is built:
    each layer is one ``equivariant_layer`` call, and only the current
    layer's input and output are held.  Returns the last layer's output.

    With ``read``, returns what ``read(layer, group means)`` returns for
    each layer instead.  The group means are those the layer's pooled
    terms read, in ``all_subsets`` order after the full subset, so a
    caller keeps what the pools of t hold without pooling again.  The
    last layer's output, which no pool reads, is not computed, and t is
    not held.
    """
    width = t.channels
    for k, lp in enumerate(stack, start=1):
        _check_axes(lp, t.ndim)
        if lp.channels_in != width:
            raise ValueError(f"layer {k} expects {lp.channels_in} channels, "
                             f"its input has {width}")
        width = lp.channels_out
    groups, subsets = pooling_groups(t), all_subsets(t.ndim)
    pooled = [groups[S] for S in subsets[1:]]
    levels, means = one_hot_input(t)
    x, kept, run = t.values, [], stack
    if read is not None:  # t's values then go once the first layer reads them
        run, t = stack[:-1], None
    for lp in run:  # the blocks in ``all_subsets`` order, the cell block first
        x, means = equivariant_layer(x, lp.bias, [lp.blocks[S] for S in subsets],
                                     pooled, lp.nonlinearity, lp.slope,
                                     levels=levels, means=means)
        if read is not None:
            kept.append(read(lp, means))
        levels = means = None
    if read is None:
        return t.with_values(x)
    kept.append(read(stack[-1], pooled_means(x, pooled)
                     if means is None else means))
    return kept


def dropout_channel_mask(
    channels: int, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """(1, K) multiplicative mask for channel dropout.

    Survivors are scaled by 1/(1-rate) so expected activations match eval
    mode.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    kept = rng.random(channels) >= rate
    return kept[None, :] / (1.0 - rate)


@dataclass(frozen=True)
class FactorPair:
    """Per-row and per-column latent factors of a matrix.

    ``row_observed``/``col_observed`` flag which factor rows were backed by
    at least one observed cell; cold rows hold zeros and must be imputed
    (or rejected) before use.
    """

    z_rows: np.ndarray
    z_cols: np.ndarray
    row_observed: np.ndarray = None
    col_observed: np.ndarray = None

    def __post_init__(self):
        zr = np.atleast_2d(np.asarray(self.z_rows))
        zc = np.atleast_2d(np.asarray(self.z_cols))
        object.__setattr__(self, "z_rows", zr)
        object.__setattr__(self, "z_cols", zc)
        ro = self.row_observed
        co = self.col_observed
        ro = np.ones(zr.shape[0], bool) if ro is None else np.asarray(ro, bool)
        co = np.ones(zc.shape[0], bool) if co is None else np.asarray(co, bool)
        if ro.shape != (zr.shape[0],) or co.shape != (zc.shape[0],):
            raise ValueError("observed flags must match factor row counts")
        object.__setattr__(self, "row_observed", ro)
        object.__setattr__(self, "col_observed", co)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.z_rows.shape[0], self.z_cols.shape[0])

    def imputed(self) -> "FactorPair":
        """Replace cold factor rows with the mean of the warm ones."""
        zr, zc = self.z_rows.copy(), self.z_cols.copy()
        if not self.row_observed.all():
            zr[~self.row_observed] = zr[self.row_observed].mean(axis=0)
        if not self.col_observed.all():
            zc[~self.col_observed] = zc[self.col_observed].mean(axis=0)
        return FactorPair(zr, zc)


def pool_to_factors(t: SparseExchangeableTensor) -> FactorPair:
    """Mean-pool a matrix into per-row and per-column factor tables.

    Row n's factor is the mean over that row's observed cells, likewise
    for columns; rows and columns with no observations are flagged cold.
    """
    if t.ndim != 2:
        raise ValueError("factor pooling applies to matrices only")
    out = []
    flags = []
    for axis in (0, 1):
        g = t.groups([axis])
        (means,) = pooled_means(t.values, [g])
        table = np.zeros((t.dims[axis], t.channels), dtype=t.values.dtype)
        seen = np.zeros(t.dims[axis], dtype=bool)
        # over one axis, a group's flat key is its coordinate
        table[g.flat_keys] = means
        seen[g.flat_keys] = True
        out.append(table)
        flags.append(seen)
    return FactorPair(out[0], out[1], flags[0], flags[1])


def broadcast_factors(
    f: FactorPair,
    indices: np.ndarray | Sequence[Sequence[int]] | SparseExchangeableTensor,
) -> SparseExchangeableTensor:
    """Build a matrix over ``indices`` whose cell (n, m) carries
    [row factor n ; column factor m]; a cold row or column raises.

    Given a tensor, the matrix takes its index set and cached groupings,
    so a decode set built once is grouped once."""
    cells = indices if isinstance(indices, SparseExchangeableTensor) else None
    idx = np.asarray(indices if cells is None else cells.indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError(f"indices must be (n, 2), got {idx.shape}")
    N, M = f.dims
    if cells is not None and cells.dims != (N, M):
        raise ValueError(f"index set dims {cells.dims} differ from factors {(N, M)}")
    if idx.min() < 0 or idx[:, 0].max() >= N or idx[:, 1].max() >= M:
        raise ValueError(f"index outside the {N}x{M} factor tables")
    cold_r = ~f.row_observed[idx[:, 0]]
    cold_c = ~f.col_observed[idx[:, 1]]
    if cold_r.any() or cold_c.any():
        which = ("row", int(idx[cold_r.argmax(), 0])) if cold_r.any() \
            else ("column", int(idx[cold_c.argmax(), 1]))
        raise ValueError(f"cold {which[0]} {which[1]} has no factor; impute first")
    values = np.concatenate(
        [f.z_rows[idx[:, 0]], f.z_cols[idx[:, 1]]], axis=1
    )
    if cells is not None:
        return cells.with_values(values)
    return SparseExchangeableTensor((N, M), idx, values)
