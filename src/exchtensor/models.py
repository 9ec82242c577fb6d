"""The two matrix-completion architectures built from exchangeable layers.

One model is a plain stack of exchangeable matrix layers that maps a
one-hot rating matrix to a per-cell distribution over rating levels.
The other is a factorized autoencoder: an exchangeable encoder pooled
into per-row/per-column factors, and an exchangeable decoder that
rebuilds distributions from broadcast factors at any target cells.
Parameters never depend on the matrix shape, so a fitted model
transfers to matrices of any size over unseen ids.

A prediction depends only on the parameters, the observed context and
its own cell.  The self-supervised model's pools read only context
cells: in training the masked cells are not context, and at evaluation
the query cells are not.  The autoencoder's decoder pools each query
cell over the context plus itself, as training pools every target cell
with itself.  So every context-side value at every layer is fixed by
the parameters and the context: ``prepare`` computes them once, and
``predict`` runs a tail pass over the query cells alone.  Training runs
each stack on a ``layers.train_stack`` tape: ``loss_and_grads`` gives a
batch's loss and a call that walks the tapes back for its gradients.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, replace
from numbers import Integral
from typing import ClassVar

import numpy as np

from .autodiff import (
    NONLINEARITIES,
    _cross_entropy_grads,
    _grouped_sums,
    add_terms,
    cross_entropy,
    fold_rows,
    pooled_means,
)
from .data import RatingScale
from .layers import (
    ExchLayerParams,
    FactorPair,
    all_subsets,
    apply_stack,
    broadcast_factors,
    pool_to_factors,
    pooling_groups,
    random_layer_params,
    stack_grads,
    train_stack,
)
from .sparse import (
    SparseExchangeableTensor,
    _integer_array,
    cell_keys,
    lookup,
    with_zero_row,
)

__all__ = [
    "ModelConfig",
    "PreparedContext",
    "SelfSupervisedParams",
    "FeaParams",
    "named_arrays",
    "with_named_arrays",
    "union_with_zeros",
    "PARAMS_CLASSES",
    "init_params",
    "check_params",
    "count_parameters",
    "mask_inputs",
    "build_ss_loss_graph",
    "build_fea_loss_graph",
    "self_supervised_forward",
    "fea_encode",
    "fea_decode",
    "predict_ratings",
]


def _check_integer(name: str, value) -> None:
    """TypeError unless value is an integer: a float count (NaN, 2.5), a
    bool or a None seed would pass the range checks and then change the
    fit."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; widths are per-layer output channels.

    No parameter belongs to a row or column, so the config fixes every
    array's shape; ``stacks`` describes it and ``check_params`` enforces
    it.  ``dropout_placement`` holds 1-based layer indices into the last
    stack: the self-supervised model's only stack, the fea decoder.
    """

    architecture: str
    levels: int = 5
    widths: tuple[int, ...] = ()
    encoder_widths: tuple[int, ...] = ()
    decoder_widths: tuple[int, ...] = ()
    nonlinearity: str = "leaky_relu"
    dropout_rate: float = 0.5
    dropout_placement: frozenset = frozenset()
    mask_prob: float = 0.15
    factor_size: int = 100

    def __post_init__(self):
        if self.architecture not in PARAMS_CLASSES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ValueError(f"mask probability {self.mask_prob} not in [0, 1)")
        if self.architecture == "self-supervised" and self.mask_prob == 0.0:
            # its loss reads only masked cells, so no epoch could train
            raise ValueError("the self-supervised model needs a mask "
                             "probability above 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate {self.dropout_rate} not in [0, 1)")
        _check_integer("levels", self.levels)
        _check_integer("factor size", self.factor_size)
        if self.levels < 2:
            raise ValueError("need at least two rating levels")
        object.__setattr__(self, "widths", tuple(self.widths))
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        object.__setattr__(self, "decoder_widths", tuple(self.decoder_widths))
        object.__setattr__(
            self, "dropout_placement", frozenset(self.dropout_placement)
        )
        for field, (_, outs, _) in self.stacks.items():
            if not outs:
                raise ValueError(f"the {field} stack needs widths")
        for field in ("widths", "encoder_widths", "decoder_widths"):
            for w in getattr(self, field):
                _check_integer(f"{field} entry", w)
            if any(w < 1 for w in getattr(self, field)):
                raise ValueError(f"{field} must be at least 1, got "
                                 f"{getattr(self, field)}")
        if self.factor_size < 1:
            raise ValueError(f"factor size must be at least 1, got "
                             f"{self.factor_size}")
        if self.architecture == "fea" \
                and self.encoder_widths[-1] != self.factor_size:
            raise ValueError(
                f"encoder must end at the factor size "
                f"({self.encoder_widths[-1]} vs {self.factor_size})"
            )
        outs = self.dropout_widths
        if outs[-1] != self.levels:
            raise ValueError(
                f"final width {outs[-1]} must equal the level count {self.levels}"
            )
        depth = len(outs)
        bad = [k for k in self.dropout_placement if not 1 <= k <= depth]
        if bad:
            raise ValueError(
                f"dropout placement {sorted(bad)} outside layers 1..{depth}"
            )
        # a softmax layer takes no mask; the last trains as logits
        if self.nonlinearity == "softmax" and self.dropout_rate > 0 \
                and any(k < depth for k in self.dropout_placement):
            raise ValueError("a hidden softmax layer takes no dropout mask")

    @property
    def stacks(self) -> dict[str, tuple[int, tuple[int, ...], str]]:
        """(input channels, per-layer widths, last layer's nonlinearity)
        of each layer stack, by params field in the params' STACKS order."""
        if self.architecture == "self-supervised":
            return {"layers": (self.levels, self.widths, "softmax")}
        return {
            "encoder": (self.levels, self.encoder_widths, "identity"),
            "decoder": (2 * self.factor_size, self.decoder_widths, "softmax"),
        }

    @property
    def dropout_widths(self) -> tuple[int, ...]:
        """Widths of the last stack, which ``dropout_placement`` indexes."""
        *_, (_, outs, _) = self.stacks.values()
        return outs

    @classmethod
    def self_supervised_default(cls, levels: int = 5) -> "ModelConfig":
        """Nine 256-channel layers, dropout 0.5 after layers 1 through 7."""
        return cls(
            architecture="self-supervised",
            levels=levels,
            widths=(256,) * 8 + (levels,),
            nonlinearity="leaky_relu",
            dropout_rate=0.5,
            dropout_placement=frozenset(range(1, 8)),
            mask_prob=0.15,
        )

    @classmethod
    def fea_default(cls, levels: int = 5) -> "ModelConfig":
        """220/220/100 encoder, five-layer decoder, dropout after 3 and 4."""
        return cls(
            architecture="fea",
            levels=levels,
            encoder_widths=(220, 220, 100),
            decoder_widths=(220, 220, 220, 220, levels),
            nonlinearity="leaky_relu",
            dropout_rate=0.5,
            dropout_placement=frozenset({3, 4}),
            mask_prob=0.0,
            factor_size=100,
        )


def union_with_zeros(
    t: SparseExchangeableTensor, extra_indices: np.ndarray
) -> SparseExchangeableTensor:
    """Extend the index set with extra cells carrying zero channels;
    t itself, cached groupings and all, when it holds every extra cell.
    Extra cells that are not an integer array raise ``TypeError``, and
    one outside t's dims ``ValueError``."""
    extra = _integer_array("extra indices", extra_indices)
    if extra.ndim != 2 or extra.shape[1] != t.ndim:
        raise ValueError(f"extra indices must be (n, {t.ndim})")
    # drop the cells t already holds and duplicates among the extras
    extra = np.unique(extra[lookup(t.keys, cell_keys(extra, t.dims)) < 0],
                      axis=0)
    if extra.shape[0] == 0:
        return t
    indices = np.concatenate([t.indices, extra])
    values = np.concatenate(
        [t.values, np.zeros((extra.shape[0], t.channels), t.values.dtype)]
    )
    return SparseExchangeableTensor(t.dims, indices, values)


@dataclass(frozen=True)
class PreparedContext:
    """What every request against one observed context reads, computed
    once per (parameters, context) by ``params.prepare``.

    ``groups`` holds, for each pooled subset in ``all_subsets`` order
    after the full subset, the subset, its group map and the context
    cells in each group.  The map is indexed by a cell's ``cell_keys``
    on the subset's axes, as the context's groupings key theirs, and
    holds the context's group there, -1 where the context has none; so
    ``group_at`` reads a query cell's group with one ``np.take``.
    ``layers`` holds what each layer reads of the context, as the
    model's ``prepare`` says, in the parameters' dtype.  Each table, and
    each count array, has a zero last entry for a cell whose group the
    context lacks.  ``factors`` are the autoencoder's imputed factors.
    The largest array here is a map or a table over one axis: for a
    matrix, one entry or row per user and per item.  Which cells the
    context holds is ``RatingsTable.keys``.
    """

    dims: tuple[int, ...]
    groups: tuple[tuple[frozenset[int], np.ndarray, np.ndarray], ...]
    layers: tuple[tuple, ...]
    factors: FactorPair | None = None

    @classmethod
    def of(cls, x: SparseExchangeableTensor, layers,
           factors: FactorPair | None = None) -> "PreparedContext":
        groups = []
        for S, g in pooling_groups(x).items():  # all_subsets order
            at = np.full(math.prod(x.dims[a] for a in S), -1, dtype=np.intp)
            at[g.flat_keys] = np.arange(g.n_groups)
            groups.append((S, at, with_zero_row(g.counts)))
        return cls(x.dims, tuple(groups), tuple(layers), factors)

    def group_at(self, cells: np.ndarray) -> list[np.ndarray]:
        """Per pooled subset, each cell's context group, -1 if none.
        ``cells`` other than an (m, D) integer array raise ``ValueError``
        naming their shape and dtype, as a cell outside the dims raises
        one naming it (``cell_keys``)."""
        cells = np.asarray(cells)
        if cells.shape[1:] != (len(self.dims),) or cells.dtype.kind not in "iu":
            raise ValueError(f"query cells must be an (m, {len(self.dims)}) "
                             f"integer array, got shape {cells.shape} and "
                             f"dtype {cells.dtype}")
        return [np.take(at, cell_keys(cells, self.dims, sorted(S)))
                for S, at, _ in self.groups]


@dataclass(frozen=True)
class SelfSupervisedParams:
    layers: tuple[ExchLayerParams, ...]

    # stack field -> array name prefix; layer k of a stack is prefix + k
    STACKS: ClassVar[dict[str, str]] = {"layers": "layer"}

    def prepare(self, config: ModelConfig, x_obs: SparseExchangeableTensor
                ) -> PreparedContext:
        """Each layer's pooled terms over the context, mixed: the query
        cells are not context, so these tables are all a request reads
        of it.  The global term, which every cell reads, and the bias
        are folded into the first table (``fold_rows``), zero row and
        all, so its zero row is their sum."""
        x_obs = _check_forward(config, self, SelfSupervisedParams, "prepare", x_obs)
        subsets = all_subsets(x_obs.ndim)[1:]

        def mixed(lp, means):
            *tables, whole = (with_zero_row(m @ lp.blocks[S])
                              for S, m in zip(subsets, means))
            if not tables:
                return (fold_rows(whole, [lp.bias]),)
            return (fold_rows(tables[0], [lp.bias, whole[:1]]), *tables[1:])

        return PreparedContext.of(x_obs, apply_stack(x_obs, self.layers, mixed))

    def predict(self, config: ModelConfig, prepared: PreparedContext,
                query: np.ndarray) -> np.ndarray:
        """(m, levels) distributions at the query cells, whose inputs are
        zero: per layer, their cell term plus the context's table rows at
        their groups (id -1 picks a table's zero row), the first holding
        the bias and the global term, summed and activated by
        ``add_terms`` as every layer is."""
        at = prepared.group_at(query)
        h = np.zeros((query.shape[0], config.levels), prepared.layers[0][0].dtype)
        for lp, tables in zip(self.layers, prepared.layers):
            h = add_terms(h @ lp.blocks[all_subsets(lp.ndim)[0]],
                          list(zip(tables, at)), lp.nonlinearity, lp.slope)
        return h

    def loss_and_grads(self, config: ModelConfig,
                       batch: SparseExchangeableTensor, masks: dict, seed: int):
        """Cross-entropy on a random subset of the batch's cells, whose
        inputs are zeroed and which the pools do not read, and its
        gradients (``build_ss_loss_graph``); another seed is tried while
        none is masked."""
        for attempt in range(10):
            x_in, hit = mask_inputs(batch, config.mask_prob,
                                    seed=seed + attempt)
            if hit.any():
                break
        else:
            raise ValueError(f"mask probability {config.mask_prob} masked "
                             f"no cell of the batch in 10 tries")
        return build_ss_loss_graph(x_in, self.layers, batch.values,
                                   hit.astype(np.float64), masks, context=~hit)


@dataclass(frozen=True)
class FeaParams:
    encoder: tuple[ExchLayerParams, ...]
    decoder: tuple[ExchLayerParams, ...]

    STACKS: ClassVar[dict[str, str]] = {"encoder": "enc", "decoder": "dec"}

    def prepare(self, config: ModelConfig, x_obs: SparseExchangeableTensor
                ) -> PreparedContext:
        """The context's imputed factors, and per decoder layer the
        context's input sums per column group and per row group, each
        multiplied by its block once.  A query cell's pool joins its
        group's context cells, so its term is the group's mixed sum plus
        its own input's product, over the joined count: each table holds
        its mixed sums over that count already.  The global subset is
        one group, which every query cell joins to N + 1 cells, so it
        folds away: its block over N + 1 goes into the cell block, and
        its mixed sum over N + 1, with the bias, into the first table
        (``fold_rows``), zero row and all.  Per layer, in the
        parameters' dtype: [cell block | column block | row block], in
        ``all_subsets`` order, and the two tables."""
        factors = fea_encode(x_obs, config, self).imputed()
        groups = pooling_groups(x_obs)
        full, *pooled, whole = all_subsets(x_obs.ndim)
        counts = [groups[S].counts[:, None] for S in (*pooled, whole)]
        dtype = factors.z_rows.dtype

        def mixed(lp, means):
            *tables, total = (
                with_zero_row(m * n @ lp.blocks[S] / (n + 1.0))
                for S, m, n in zip((*pooled, whole), means, counts))
            cell = lp.blocks[full] + lp.blocks[whole] / (counts[-1][0] + 1.0)
            w = np.concatenate([cell, *(lp.blocks[S] for S in pooled)], axis=1)
            tables[0] = fold_rows(tables[0], [lp.bias, total[:1]])
            return w.astype(dtype), *(t.astype(dtype) for t in tables)

        return PreparedContext.of(x_obs, apply_stack(
            broadcast_factors(factors, x_obs), self.decoder, mixed), factors)

    def predict(self, config: ModelConfig, prepared: PreparedContext,
                query: np.ndarray) -> np.ndarray:
        """(m, levels) distributions at the query cells.  Each decodes
        from its row's and column's factors (cold ones were imputed), and
        each pool reads the context's cells plus the query cell itself.
        Per layer, one product of the inputs with all three blocks gives
        the cell term and the cell's own products for its column and row
        terms, each over its joined count; the tables add the context's
        share at the cell's groups (id -1 picks a zero row), and
        ``add_terms`` sums and activates them as every layer's terms."""
        at = prepared.group_at(query)
        f = prepared.factors
        h = np.concatenate([f.z_rows[query[:, 0]], f.z_cols[query[:, 1]]], axis=1)
        # each query cell joins its column's and row's context cells; the
        # global subset, last, is folded into the blocks and tables
        shares = [(1.0 / (counts[g] + 1.0)).astype(h.dtype)[:, None]
                  for (_, _, counts), g in zip(prepared.groups[:-1], at)]
        for lp, (w, *tables) in zip(self.decoder, prepared.layers):
            cell, *own = np.split(h @ w, len(tables) + 1, axis=1)
            h = cell.copy()
            for y, share in zip(own, shares):
                h += y * share
            h = add_terms(h, list(zip(tables, at)), lp.nonlinearity, lp.slope)
        return h

    def loss_and_grads(self, config: ModelConfig,
                       batch: SparseExchangeableTensor, masks: dict, seed: int):
        """Reconstruct every cell of the batch; nothing is masked
        (``build_fea_loss_graph``)."""
        return build_fea_loss_graph(batch, self.encoder, self.decoder,
                                    batch.values, masks)


def named_arrays(params) -> dict[str, np.ndarray]:
    """Every array of a model by name, e.g. 'layer1.w01' or 'enc2.bias'.

    Names follow ``STACKS`` and ``layers.block_name``, so a tied layer's
    shared block appears once.  The trainer, the optimizer and the
    checkpoint all address a model's arrays through these names.
    """
    out: dict[str, np.ndarray] = {}
    for field, prefix in params.STACKS.items():
        for k, lp in enumerate(getattr(params, field), start=1):
            out.update(lp.bindings(f"{prefix}{k}"))
    return out


def with_named_arrays(params, arrays):
    """The same model with each array replaced by ``arrays[name]``, which
    must have its shape; each layer is rebuilt by ``from_bindings``."""
    return replace(params, **{
        field: tuple(lp.from_bindings(f"{prefix}{k}", arrays)
                     for k, lp in enumerate(getattr(params, field), start=1))
        for field, prefix in params.STACKS.items()
    })


# architecture -> params class; its STACKS name the fields of config.stacks
PARAMS_CLASSES = {"self-supervised": SelfSupervisedParams, "fea": FeaParams}


def init_params(config: ModelConfig, seed: int = 0):
    """Fresh parameters for a config; data shape plays no part."""
    rng = np.random.default_rng(seed)
    stacks = {}
    for field, (k, outs, final_nl) in config.stacks.items():
        nls = [config.nonlinearity] * (len(outs) - 1) + [final_nl]
        stacks[field] = tuple(
            random_layer_params(2, k_in, o, rng, nonlinearity=nl)
            for k_in, o, nl in zip((k, *outs[:-1]), outs, nls)
        )
    return PARAMS_CLASSES[config.architecture](**stacks)


def check_params(config: ModelConfig, params) -> None:
    """Refuse params that are not the model ``config.stacks`` describes:
    TypeError for another params class, ValueError for a stack of another
    depth or a layer of another (channels in, channels out)."""
    cls = PARAMS_CLASSES[config.architecture]
    if not isinstance(params, cls):
        raise TypeError(f"{config.architecture} model takes {cls.__name__}, "
                        f"not {type(params).__name__}")
    for field, (k, outs, _) in config.stacks.items():
        layers = getattr(params, field)
        prefix = cls.STACKS[field]
        if len(layers) != len(outs):
            raise ValueError(
                f"{len(layers)} '{prefix}' layers, but model_config gives "
                f"{len(outs)} widths"
            )
        for i, (lp, o) in enumerate(zip(layers, outs), start=1):
            if (lp.channels_in, lp.channels_out) != (k, o):
                raise ValueError(
                    f"{prefix}{i} is {lp.channels_in} -> {lp.channels_out}, "
                    f"but model_config says {k} -> {o}"
                )
            k = o


def count_parameters(params) -> int:
    return sum(a.size for a in named_arrays(params).values())


def _check_forward(config: ModelConfig, params, cls: type, forward: str,
                   x: SparseExchangeableTensor | None = None):
    """Refuse a forward's params or input; return the input in the params' dtype."""
    check_params(config, params)
    if not isinstance(params, cls):  # the other model's matching pair
        raise TypeError(f"{forward} takes {cls.__name__}, not {type(params).__name__}")
    if x is not None and x.channels != config.levels:
        raise ValueError(
            f"input has {x.channels} channels, expected {config.levels}"
        )
    dtype = np.result_type(*named_arrays(params).values())
    return x if x is None else x.with_values(x.values.astype(dtype, copy=False))


def mask_inputs(
    t: SparseExchangeableTensor, probability: float, seed: int = 0
) -> tuple[SparseExchangeableTensor, np.ndarray]:
    """Zero whole cells independently; returns (masked tensor, boolean
    mask over ``t``'s cells, True where masked).

    Masked cells stay in the index set so the model still produces
    outputs there; only their channel vectors become zero.
    """
    if not 0.0 <= probability < 1.0:
        raise ValueError(f"mask probability must be in [0, 1), got {probability}")
    rng = np.random.default_rng(seed)
    hit = rng.random(t.indices.shape[0]) < probability
    values = t.values.copy()
    values[hit] = 0.0
    return t.with_values(values), hit


def _logits_stack(stack):
    """Training ends a stack at logits; softmax lives in the fused loss."""
    last = stack[-1]
    if last.nonlinearity != "softmax":
        raise ValueError(
            "training expects a softmax on the final layer, got "
            f"{last.nonlinearity!r}"
        )
    logits = copy(last)  # the same checked arrays; rerun no check per epoch
    logits.nonlinearity = "identity"
    return (*stack[:-1], logits)


def _factor_grad(g, d):
    """The factor step backwards over one grouping: the gradient at x of
    its group means of x gathered to the cells, from their gradient d.
    d's group sums over every member, over the group's count, reach
    each of its context cells."""
    (sums,) = _grouped_sums(d, [g], context=False)
    sums = sums.astype(np.result_type(d, np.float32), copy=False)
    return g.spread((sums / g.divisor[:, None]).astype(sums.dtype))


def build_ss_loss_graph(
    x: SparseExchangeableTensor,
    layer_stack,
    targets: np.ndarray,
    target_weights: np.ndarray | None,
    dropout_masks: dict | None = None,
    context: np.ndarray | None = None,
):
    """Cross-entropy of the plain exchangeable stack, and its gradients.

    ``context`` masks the cells every pool reads; None reads them all.
    ``target_weights`` weigh each cell's term (``cross_entropy``).  The
    forward runs here, on a ``layers.train_stack`` tape.  Returns (loss,
    grads): the loss as a 0-d array, and ``grads()``, which walks the
    tape back and returns each array's gradient by its name in
    ``named_arrays(SelfSupervisedParams(layer_stack))``.  The name
    predates the tape; the benchmark harness traces it by this name.
    """
    groups = pooling_groups(x, context)
    tape = train_stack(x.values, groups, _logits_stack(layer_stack),
                       dropout_masks)
    logits = tape[-1][2]
    loss = cross_entropy(logits, targets, target_weights)

    def grads():
        dlogits, _ = _cross_entropy_grads(np.ones_like(loss), logits, targets,
                                          target_weights, dtargets=False)
        return stack_grads(tape, groups, dlogits,
                           SelfSupervisedParams.STACKS["layers"])[0]

    return loss, grads


def build_fea_loss_graph(
    x: SparseExchangeableTensor,
    encoder_stack,
    decoder_stack,
    targets: np.ndarray,
    dropout_masks: dict | None = None,
):
    """Reconstruction loss and its gradients: encode, pool to factors,
    broadcast them back over the same cells, decode, cross-entropy
    against the input's one-hots.  Returns (loss, grads) as
    ``build_ss_loss_graph`` does, the arrays named as in
    ``named_arrays(FeaParams(...))``."""
    prefixes = FeaParams.STACKS
    groups = pooling_groups(x)
    encoded = train_stack(x.values, groups, encoder_stack)
    hidden = encoded[-1][2]
    # the factor step: each cell's row means, then its column means
    by_axis = (groups[frozenset({0})], groups[frozenset({1})])
    factors = np.concatenate([pooled_means(hidden, [g])[0][g.group_of]
                              for g in by_axis], axis=1)
    decoded = train_stack(factors, groups, _logits_stack(decoder_stack),
                          dropout_masks)
    logits = decoded[-1][2]
    loss = cross_entropy(logits, targets)

    def grads():
        dlogits, _ = _cross_entropy_grads(np.ones_like(loss), logits, targets,
                                          dtargets=False)
        out, dfactors = stack_grads(decoded, groups, dlogits,
                                    prefixes["decoder"], dx=True)
        d_rows, d_cols = map(_factor_grad, by_axis,
                             np.split(dfactors, 2, axis=1))
        return {**stack_grads(encoded, groups, d_rows + d_cols,
                              prefixes["encoder"])[0], **out}

    return loss, grads


def self_supervised_forward(
    x_in: SparseExchangeableTensor,
    config: ModelConfig,
    params: SelfSupervisedParams,
) -> SparseExchangeableTensor:
    """Distribution over rating levels at every cell of x_in's index set.

    Eval mode: no dropout.  Every cell is context, so every pool reads
    every cell, as in training a batch with nothing masked.  Predictions
    at unobserved cells leave them out of the pools:
    ``SelfSupervisedParams.prepare`` and ``predict``.
    """
    x_in = _check_forward(config, params, SelfSupervisedParams,
                          "self_supervised_forward", x_in)
    return apply_stack(x_in, params.layers)


def fea_encode(
    x: SparseExchangeableTensor,
    config: ModelConfig,
    params: FeaParams,
) -> FactorPair:
    """Pool an exchangeable stack into per-row and per-column factors."""
    x = _check_forward(config, params, FeaParams, "fea_encode", x)
    return pool_to_factors(apply_stack(x, params.encoder))


def fea_decode(
    factors: FactorPair,
    target_indices: np.ndarray | SparseExchangeableTensor,
    config: ModelConfig,
    params: FeaParams,
    imputation: bool = False,
) -> SparseExchangeableTensor:
    """Rebuild rating distributions at target cells from the factors.

    ``target_indices`` is an (n, 2) array of cells, or a tensor whose
    index set (with its cached groupings) is the decode set.  Eval mode:
    no dropout.  Cold rows or columns (ids the encoder never saw) raise unless
    imputation fills them with the warm-factor mean first.  The decoder's
    pools read the whole decode set, as in training; predictions against
    an observed context pool each query cell over the context plus
    itself: ``FeaParams.prepare`` and ``predict``.
    """
    _check_forward(config, params, FeaParams, "fea_decode")
    if imputation:
        factors = factors.imputed()
    base = broadcast_factors(factors, target_indices)
    return apply_stack(base, params.decoder)


def predict_ratings(distributions, scale: RatingScale) -> np.ndarray:
    """Collapse per-cell level distributions to their expected ratings."""
    p = np.asarray(distributions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != scale.n_levels:
        raise ValueError(
            f"distributions must be (n, {scale.n_levels}), got {p.shape}"
        )
    worst = np.abs(p.sum(axis=1) - 1.0).max()
    if worst > 1e-4:
        raise ValueError(
            f"distributions are not normalized (max deviation {worst:.2e})"
        )
    return p @ np.asarray(scale.levels)
