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
layer, for the cell term, instead of 2^D.

For matrices (D=2) the four subsets are: both axes (the cell itself), the
column axis (mean over the cell's column), the row axis (mean over the
cell's row), and neither (mean over everything observed).  All pooling is
over observed cells only, so the same code serves dense and sparse inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .autodiff import NONLINEARITIES, Graph, forward
from .sparse import AxisGroups, SparseExchangeableTensor, axis_groups

__all__ = [
    "ExchLayerParams",
    "FactorPair",
    "all_subsets",
    "block_key",
    "random_layer_params",
    "pooling_groups",
    "add_layer_nodes",
    "add_stack_nodes",
    "apply_stack",
    "exchangeable_tensor_layer",
    "broadcast_side_features",
    "dropout_channel_mask",
    "pool_to_factors",
    "broadcast_factors",
]


def all_subsets(ndim: int) -> tuple[frozenset[int], ...]:
    """All subsets of {0..ndim-1}, full set first, empty set last."""
    out = []
    for mask in range(2**ndim - 1, -1, -1):
        out.append(frozenset(i for i in range(ndim) if mask >> i & 1))
    return tuple(out)


def block_key(S: frozenset[int]) -> str:
    """Stable name for a weight block: 'w01' fixes axes 0 and 1, 'wg' none."""
    return "w" + ("".join(str(a) for a in sorted(S)) or "g")


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

    def block_node_names(self, prefix: str) -> dict[frozenset[int], str]:
        """Subset -> graph node name; shared arrays collapse to one node."""
        names: dict[frozenset[int], str] = {}
        seen: dict[int, str] = {}
        for S in all_subsets(self.ndim):
            arr = self.blocks[S]
            if id(arr) not in seen:
                seen[id(arr)] = f"{prefix}.{block_key(S)}"
            names[S] = seen[id(arr)]
        return names

    def bindings(self, prefix: str) -> dict[str, np.ndarray]:
        """Value bindings for the parameter nodes of add_layer_nodes."""
        names = self.block_node_names(prefix)
        out = {names[S]: self.blocks[S] for S in all_subsets(self.ndim)}
        out[f"{prefix}.bias"] = self.bias
        return out

    def from_bindings(self, prefix: str, bindings: Mapping[str, np.ndarray]
                      ) -> "ExchLayerParams":
        """Rebuild with updated arrays (same structure and sharing)."""
        names = self.block_node_names(prefix)
        shared: dict[str, np.ndarray] = {}
        blocks = {}
        for S in all_subsets(self.ndim):
            nm = names[S]
            if nm not in shared:
                shared[nm] = np.asarray(bindings[nm])
            blocks[S] = shared[nm]
        return ExchLayerParams(
            blocks=blocks,
            bias=np.asarray(bindings[f"{prefix}.bias"]),
            nonlinearity=self.nonlinearity,
            slope=self.slope,
            tied=self.tied,
        )

    @property
    def n_params(self) -> int:
        seen = set()
        total = self.bias.size
        for w in self.blocks.values():
            if id(w) not in seen:
                seen.add(id(w))
                total += w.size
        return total


def random_layer_params(
    ndim: int,
    channels_in: int,
    channels_out: int,
    rng: np.random.Generator,
    nonlinearity: str = "identity",
    slope: float = 0.01,
    tied: bool = False,
    scale: float | None = None,
) -> ExchLayerParams:
    """Glorot-style initialization; the 2^D summed terms count as fan-in."""
    if scale is None:
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
        slope=slope,
        tied=tied,
    )


def pooling_groups(
    t: SparseExchangeableTensor,
) -> dict[frozenset[int], AxisGroups]:
    """Axis groups for every pooled term of a layer over t's index set.

    They depend on the index set alone, not on the layer, so a stack
    computes them once and every layer pools with them (``apply_stack``
    and the training graphs).  The full subset needs no groups: its term
    is the identity.
    """
    return {
        S: axis_groups(t, sorted(S))
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

    Each pooled term is pool -> mix -> broadcast (see the module
    docstring); the cell term carries the bias.  Parameter nodes are named
    per ``params.bindings(prefix)``.  A tied layer contributes a single
    parameter node for its shared block, so the backward pass accumulates
    both terms' gradients into it.
    """
    ndim = params.ndim
    names = params.block_node_names(prefix)
    added: dict[str, str] = {}
    bias_node = g.parameter(f"{prefix}.bias")
    terms = []
    for S in all_subsets(ndim):
        nm = names[S]
        if nm not in added:
            added[nm] = g.parameter(nm)
        w_node = added[nm]
        if len(S) == ndim:
            terms.append(g.channel_mix(x, w_node, bias_node))
        else:
            gr = groups[S]
            mixed = g.channel_mix(g.segment_pool(x, gr), w_node)
            terms.append(g.gather_broadcast(mixed, gr))
    summed = g.add(*terms) if len(terms) > 1 else terms[0]
    out = g.nonlinearity(summed, params.nonlinearity, params.slope)
    if dropout_mask is not None:
        out = g.dropout_mask(out, dropout_mask)
    return out


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


def exchangeable_tensor_layer(
    t: SparseExchangeableTensor,
    params: ExchLayerParams,
    groups: Mapping[frozenset[int], AxisGroups] | None = None,
) -> SparseExchangeableTensor:
    """Apply one equivariant layer; output lives on the same index set.

    ``groups`` must be ``pooling_groups(t)``; it is computed when omitted.
    """
    if params.ndim != t.ndim:
        raise ValueError(
            f"params cover {params.ndim} axes, tensor has {t.ndim}"
        )
    if params.channels_in != t.channels:
        raise ValueError(
            f"params expect {params.channels_in} channels, tensor has "
            f"{t.channels}"
        )
    if groups is None:
        groups = pooling_groups(t)
    g = Graph()
    out = add_stack_nodes(g, g.input("x"), groups, (params,), "layer")
    bindings = {"x": t.values, **params.bindings("layer1")}
    return t.with_values(forward(g, bindings)[out])


def apply_stack(
    t: SparseExchangeableTensor, stack: Sequence[ExchLayerParams]
) -> SparseExchangeableTensor:
    """Eval-mode forward of a layer stack over t's index set.

    The pooling groups are computed once for the whole stack.  Each layer
    runs as its own one-layer graph: ``forward`` keeps every node's value,
    so a whole-stack graph would hold all layers' intermediates at once.
    """
    groups = pooling_groups(t)
    for lp in stack:
        t = exchangeable_tensor_layer(t, lp, groups)
    return t


def broadcast_side_features(
    t: SparseExchangeableTensor,
    row_features: np.ndarray | None = None,
    col_features: np.ndarray | None = None,
) -> SparseExchangeableTensor:
    """Attach per-row/per-column feature vectors as extra channels.

    Cell (n, m) gains row n's features then column m's; the index set is
    unchanged, so equivariance is preserved when features are permuted
    together with the tensor.
    """
    if t.ndim != 2:
        raise ValueError("side features apply to matrices only")
    parts = [t.values]
    if row_features is not None:
        row_features = np.atleast_2d(np.asarray(row_features))
        if row_features.shape[0] != t.dims[0]:
            raise ValueError(
                f"row features have {row_features.shape[0]} rows, axis has "
                f"{t.dims[0]}"
            )
        parts.append(row_features[t.indices[:, 0]])
    if col_features is not None:
        col_features = np.atleast_2d(np.asarray(col_features))
        if col_features.shape[0] != t.dims[1]:
            raise ValueError(
                f"column features have {col_features.shape[0]} rows, axis "
                f"has {t.dims[1]}"
            )
        parts.append(col_features[t.indices[:, 1]])
    if len(parts) == 1:
        return t
    return t.with_values(np.concatenate(parts, axis=1))


def dropout_channel_mask(
    channels: int, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(1, K) multiplicative mask and (K,) keep flags for channel dropout.

    Survivors are scaled by 1/(1-rate) so expected activations match eval
    mode.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    kept = rng.random(channels) >= rate
    mask = kept[None, :] / (1.0 - rate)
    return mask, kept


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

    @property
    def channels(self) -> tuple[int, int]:
        return (self.z_rows.shape[1], self.z_cols.shape[1])

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
        g = axis_groups(t, [axis])
        means = g.group_means(t.values)
        table = np.zeros((t.dims[axis], t.channels), dtype=t.values.dtype)
        seen = np.zeros(t.dims[axis], dtype=bool)
        table[g.keys[:, 0]] = means
        seen[g.keys[:, 0]] = True
        out.append(table)
        flags.append(seen)
    return FactorPair(out[0], out[1], flags[0], flags[1])


def broadcast_factors(
    f: FactorPair,
    indices: np.ndarray | Sequence[Sequence[int]],
    allow_cold: bool = False,
) -> SparseExchangeableTensor:
    """Build a matrix over ``indices`` whose cell (n, m) carries
    [row factor n ; column factor m]."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError(f"indices must be (n, 2), got {idx.shape}")
    N, M = f.dims
    if idx.min() < 0 or idx[:, 0].max() >= N or idx[:, 1].max() >= M:
        raise ValueError(f"index outside the {N}x{M} factor tables")
    if not allow_cold:
        cold_r = ~f.row_observed[idx[:, 0]]
        cold_c = ~f.col_observed[idx[:, 1]]
        if cold_r.any() or cold_c.any():
            which = ("row", int(idx[cold_r.argmax(), 0])) if cold_r.any() \
                else ("column", int(idx[cold_c.argmax(), 1]))
            raise ValueError(
                f"cold {which[0]} {which[1]} has no factor; impute first or "
                f"pass allow_cold=True"
            )
    values = np.concatenate(
        [f.z_rows[idx[:, 0]], f.z_cols[idx[:, 1]]], axis=1
    )
    return SparseExchangeableTensor((N, M), idx, values)
