"""Optimizers, the training loop, and evaluation.

Training builds one computation graph per epoch (cheap next to the
forward pass) so channel-dropout masks and minibatch index sets can
change freely, then runs one optimizer step on the flat parameter
bindings.  The graph is the models' own layer stack (``add_stack_nodes``
over pooling groups computed once for the batch) ending in logits and a
fused cross-entropy; dropout exists only here, as masks drawn per epoch.
Validation runs the models' eval-mode forward on the full training
matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Graph, backward, forward
from .data import RatingScale, RatingsTable, encode_onehot, rmse
from .layers import add_stack_nodes, dropout_channel_mask, pooling_groups
from .models import (
    FeaParams,
    ModelConfig,
    SelfSupervisedParams,
    fea_decode,
    fea_encode,
    init_params,
    predict_ratings,
    self_supervised_forward,
    union_with_zeros,
)
from .sampling import (
    DEFAULT_CELL_BUDGET,
    budget_targets,
    conditional_subsample,
    subset_tensor,
    uniform_subsample,
)
from .sparse import SparseExchangeableTensor

__all__ = [
    "TrainConfig",
    "TrainReport",
    "EvalReport",
    "mask_inputs",
    "OptimizerState",
    "init_optimizer_state",
    "optimizer_step",
    "build_ss_loss_graph",
    "build_fea_loss_graph",
    "train",
    "evaluate",
]


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; model shape lives in ModelConfig.

    ``precision`` ("float32" or "float64") is the dtype training runs in:
    the parameters (cast on entry, so the returned parameters have it
    too), the one-hot inputs and targets, every value and gradient of the
    training graph, the Adam moments, and the validation forward.  Only
    the group sums of pooling accumulate in float64 before they are cast
    back.
    """

    epochs: int = 100
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    cell_budget: int = DEFAULT_CELL_BUDGET
    sampler: str = "uniform"
    mask_prob: float | None = None
    seed: int = 0
    patience: int = 20
    precision: str = "float32"

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.sampler not in ("uniform", "conditional"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.cell_budget < 1:
            raise ValueError("cell budget must be at least 1")
        if self.mask_prob is not None and not 0.0 <= self.mask_prob < 1.0:
            raise ValueError("mask probability must be in [0, 1)")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch series plus the best-checkpoint bookkeeping."""

    train_loss: tuple[float, ...]
    val_rmse: tuple[float, ...]
    best_epoch: int
    best_val_rmse: float
    wall_clock_seconds: float
    stopped_early: bool = False
    diverged: bool = False

    def __post_init__(self):
        if len(self.train_loss) != len(self.val_rmse):
            raise ValueError("loss and validation series must align")

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def records(self) -> list[dict]:
        """One structured record per epoch, ready for line-delimited output."""
        return [
            {"epoch": k + 1, "loss": float(l), "val_rmse": float(r)}
            for k, (l, r) in enumerate(zip(self.train_loss, self.val_rmse))
        ]


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    predictions: np.ndarray
    indices: np.ndarray


def mask_inputs(
    t: SparseExchangeableTensor, probability: float, seed: int = 0
) -> tuple[SparseExchangeableTensor, np.ndarray]:
    """Zero whole cells independently; returns (masked tensor, masked set).

    Masked cells stay in the index set so the model still produces
    outputs there; only their channel vectors become zero.
    """
    if not 0.0 <= probability < 1.0:
        raise ValueError(f"mask probability must be in [0, 1), got {probability}")
    rng = np.random.default_rng(seed)
    hit = rng.random(t.indices.shape[0]) < probability
    values = t.values.copy()
    values[hit] = 0.0
    return t.with_values(values), t.indices[hit]


@dataclass(frozen=True)
class OptimizerState:
    step: int
    m: dict
    v: dict


def init_optimizer_state() -> OptimizerState:
    return OptimizerState(0, {}, {})


def optimizer_step(
    params: dict,
    grads: dict,
    state: OptimizerState,
    config: TrainConfig,
) -> tuple[dict, OptimizerState]:
    """One Adam or SGD update over a flat name -> array dict."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(
                f"non-finite gradient in {name!r} "
                f"(max |g| = {np.abs(g[np.isfinite(g)]).max() if np.isfinite(g).any() else 'n/a'})"
            )
    lr = config.learning_rate
    new_params = {}
    if config.optimizer == "sgd":
        for name, p in params.items():
            new_params[name] = p - lr * grads.get(name, 0.0)
        return new_params, state
    t = state.step + 1
    m, v = {}, {}
    b1, b2, eps = config.beta1, config.beta2, config.epsilon
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m[name] = b1 * state.m.get(name, 0.0) + (1 - b1) * g
        v[name] = b2 * state.v.get(name, 0.0) + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1**t)
        v_hat = v[name] / (1 - b2**t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, OptimizerState(t, m, v)


def _stack_bindings(stack, prefix: str) -> dict:
    out = {}
    for k, lp in enumerate(stack, start=1):
        out.update(lp.bindings(f"{prefix}{k}"))
    return out


def _rebuild_stack(stack, prefix: str, bindings: dict):
    return tuple(
        lp.from_bindings(f"{prefix}{k}", bindings)
        for k, lp in enumerate(stack, start=1)
    )


def _logits_stack(stack):
    """The training graph ends at logits; softmax lives in the fused loss."""
    last = stack[-1]
    if last.nonlinearity != "softmax":
        raise ValueError(
            "training expects a softmax on the final layer, got "
            f"{last.nonlinearity!r}"
        )
    return (*stack[:-1], replace(last, nonlinearity="identity"))


def build_ss_loss_graph(
    x: SparseExchangeableTensor,
    layer_stack,
    targets: np.ndarray,
    target_weights: np.ndarray | None,
    dropout_masks: dict | None = None,
):
    """Cross-entropy training graph for the plain exchangeable stack.

    Returns (graph, loss node, bindings); parameter bindings use the
    prefixes layer1..layerN so gradients map back onto the stack.
    """
    g = Graph()
    logits = add_stack_nodes(
        g, g.input("x"), pooling_groups(x), _logits_stack(layer_stack),
        "layer", dropout_masks,
    )
    loss = g.softmax_cross_entropy(
        logits, g.input("targets"), row_weights=target_weights
    )
    bindings = {"x": x.values, "targets": targets,
                **_stack_bindings(layer_stack, "layer")}
    return g, loss, bindings


def build_fea_loss_graph(
    x: SparseExchangeableTensor,
    encoder_stack,
    decoder_stack,
    targets: np.ndarray,
    dropout_masks: dict | None = None,
):
    """Reconstruction graph: encode, pool to factors, broadcast back over
    the same cells, decode, cross-entropy against the input's one-hots."""
    g = Graph()
    groups = pooling_groups(x)
    hidden = add_stack_nodes(g, g.input("x"), groups, encoder_stack, "enc")
    by_row = groups[frozenset({0})]
    by_col = groups[frozenset({1})]
    factors = g.concat_channels(
        g.gather_broadcast(g.segment_pool(hidden, by_row), by_row),
        g.gather_broadcast(g.segment_pool(hidden, by_col), by_col),
    )
    logits = add_stack_nodes(
        g, factors, groups, _logits_stack(decoder_stack), "dec", dropout_masks
    )
    loss = g.softmax_cross_entropy(logits, g.input("targets"))
    bindings = {"x": x.values, "targets": targets,
                **_stack_bindings(encoder_stack, "enc"),
                **_stack_bindings(decoder_stack, "dec")}
    return g, loss, bindings


def _cast_stack(stack, dtype):
    out = []
    for lp in stack:
        # cast each distinct array once so tied blocks stay shared
        cast: dict[int, np.ndarray] = {}
        blocks = {}
        for S, B in lp.blocks.items():
            if id(B) not in cast:
                cast[id(B)] = B.astype(dtype)
            blocks[S] = cast[id(B)]
        out.append(replace(lp, blocks=blocks, bias=lp.bias.astype(dtype)))
    return tuple(out)


def _cast_params(params, dtype):
    if isinstance(params, SelfSupervisedParams):
        return SelfSupervisedParams(_cast_stack(params.layers, dtype))
    return FeaParams(
        _cast_stack(params.encoder, dtype), _cast_stack(params.decoder, dtype)
    )


def _extract_at(out: SparseExchangeableTensor, query: np.ndarray) -> np.ndarray:
    """Rows of out.values at the query cells, in query order."""
    keys = np.ravel_multi_index(tuple(out.indices.T), out.dims)
    want = np.ravel_multi_index(tuple(query.T), out.dims)
    pos = np.searchsorted(keys, want)
    if (keys[np.minimum(pos, keys.size - 1)] != want).any():
        raise ValueError("query cell missing from the model output")
    return out.values[pos]


def _predict_at(
    config: ModelConfig,
    params,
    x_obs: SparseExchangeableTensor,
    query: np.ndarray,
    scale: RatingScale,
    mode: str = "expectation",
    imputation: bool = True,
) -> np.ndarray:
    """Eval-mode ratings at query cells, given the observed x_obs."""
    if config.architecture == "self-supervised":
        x_eval = union_with_zeros(x_obs, query)
        out = self_supervised_forward(x_eval, config, params)
        dist = _extract_at(out, query)
    else:
        factors = fea_encode(x_obs, config, params)
        out = fea_decode(
            factors, query, config, params, imputation=imputation
        )
        dist = _extract_at(out, query)
    # renormalize away float32 rounding before the strict decode check
    dist = dist / dist.sum(axis=1, keepdims=True)
    return predict_ratings(dist, scale, mode=mode)


def _epoch_dropout_masks(config: ModelConfig, depth_widths, rng) -> dict:
    masks = {}
    if config.dropout_rate <= 0.0:
        return masks
    for k in sorted(config.dropout_placement):
        mask, _ = dropout_channel_mask(
            depth_widths[k - 1], config.dropout_rate, rng
        )
        masks[k] = mask
    return masks


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_table: RatingsTable,
    val_table: RatingsTable,
    initial_params=None,
):
    """Fit either architecture; returns (TrainReport, best parameters).

    Full-batch when the training cells fit the budget, otherwise one
    sampled minibatch per epoch.  The self-supervised model re-masks its
    input every epoch and takes its loss only on the masked cells; the
    autoencoder reconstructs every observed cell.
    """
    t0 = time.perf_counter()
    dtype = train_config.dtype
    scale = train_table.scale
    x_full = encode_onehot(train_table)
    x_full = x_full.with_values(x_full.values.astype(dtype))
    val_query = val_table.indices()
    val_truth = val_table.ratings

    params = initial_params if initial_params is not None else init_params(
        model_config, seed=train_config.seed
    )
    params = _cast_params(params, dtype)
    is_ss = model_config.architecture == "self-supervised"
    mask_prob = (
        train_config.mask_prob
        if train_config.mask_prob is not None
        else model_config.mask_prob
    )
    if is_ss and mask_prob <= 0.0:
        raise ValueError(
            "self-supervised training needs a positive mask probability"
        )

    full_batch = x_full.indices.shape[0] <= train_config.cell_budget
    rng = np.random.default_rng(train_config.seed)
    state = init_optimizer_state()
    losses: list[float] = []
    val_curve: list[float] = []
    best_rmse = np.inf
    best_params = params
    best_epoch = 0
    since_best = 0
    stopped_early = False
    diverged = False

    for epoch in range(1, train_config.epochs + 1):
        epoch_seed = int(rng.integers(2**62))
        epoch_rng = np.random.default_rng(epoch_seed)
        if full_batch:
            x_batch = x_full
        elif train_config.sampler == "uniform":
            batch = uniform_subsample(
                x_full, train_config.cell_budget, seed=epoch_seed
            )
            x_batch = subset_tensor(x_full, batch)
        else:
            rows, cols = budget_targets(x_full, train_config.cell_budget)
            batch = conditional_subsample(x_full, rows, cols, seed=epoch_seed)
            x_batch = subset_tensor(x_full, batch)

        if is_ss:
            x_in, masked = x_batch, np.zeros((0, 2), dtype=np.int64)
            for attempt in range(10):
                x_in, masked = mask_inputs(
                    x_batch, mask_prob, seed=epoch_seed + attempt
                )
                if masked.shape[0] > 0:
                    break
            if masked.shape[0] == 0:
                raise RuntimeError("masking produced no prediction targets")
            keys = np.ravel_multi_index(tuple(x_batch.indices.T), x_batch.dims)
            hit = np.isin(
                keys, np.ravel_multi_index(tuple(masked.T), x_batch.dims)
            )
            weights = hit.astype(np.float64)
            masks = _epoch_dropout_masks(
                model_config, model_config.widths, epoch_rng
            )
            g, loss_node, bindings = build_ss_loss_graph(
                x_in, params.layers, x_batch.values, weights, masks
            )
            stacks = {"layer": params.layers}
        else:
            masks = _epoch_dropout_masks(
                model_config, model_config.decoder_widths, epoch_rng
            )
            g, loss_node, bindings = build_fea_loss_graph(
                x_batch, params.encoder, params.decoder, x_batch.values, masks
            )
            stacks = {"enc": params.encoder, "dec": params.decoder}

        values = forward(g, bindings)
        loss = float(np.asarray(values[loss_node]).reshape(()))
        diverged = not np.isfinite(loss)
        if not diverged:
            grads = backward(g, values, loss_node)
            flat = {
                name: bindings[name]
                for prefix, stack in stacks.items()
                for name in _stack_bindings(stack, prefix)
            }
            try:
                flat, state = optimizer_step(flat, grads, state, train_config)
            except FloatingPointError:
                # a non-finite gradient ends the run like a non-finite loss
                diverged = True
        if diverged:
            losses.append(loss)
            val_curve.append(float("nan"))
            break
        if is_ss:
            params = SelfSupervisedParams(
                _rebuild_stack(params.layers, "layer", flat)
            )
        else:
            params = FeaParams(
                _rebuild_stack(params.encoder, "enc", flat),
                _rebuild_stack(params.decoder, "dec", flat),
            )

        val = rmse(
            _predict_at(model_config, params, x_full, val_query, scale),
            val_truth,
        )
        losses.append(loss)
        val_curve.append(val)
        if val < best_rmse:
            best_rmse = val
            best_params = params
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_config.patience:
                stopped_early = True
                break

    report = TrainReport(
        train_loss=tuple(losses),
        val_rmse=tuple(val_curve),
        best_epoch=best_epoch,
        best_val_rmse=float(best_rmse),
        wall_clock_seconds=time.perf_counter() - t0,
        stopped_early=stopped_early,
        diverged=diverged,
    )
    return report, best_params


def evaluate(
    model_config: ModelConfig,
    params,
    observed_table: RatingsTable,
    query_table: RatingsTable,
    mode: str = "expectation",
    imputation: bool = True,
    cell_budget: int | None = None,
) -> EvalReport:
    """Eval-mode RMSE and predictions at the query cells.

    Works on the training matrix (interpolation) or on an entirely fresh
    matrix with its own id space (extrapolation), since no parameter
    depends on the matrix shape.  Never mutates the parameters.

    A prediction currently depends on the other query cells of the same
    request, not only on the observed table: the self-supervised model's
    pools include the zero-filled query cells, and the autoencoder's
    decoder pools over the query set.  So ``cell_budget`` chunking changes
    the predictions and the RMSE.
    """
    x_obs = encode_onehot(observed_table)
    query = query_table.indices()
    obs_keys = np.ravel_multi_index(tuple(x_obs.indices.T), x_obs.dims)
    q_keys = np.ravel_multi_index(tuple(query.T), x_obs.dims)
    both = np.isin(q_keys, obs_keys)
    if both.any():
        raise ValueError(
            f"{int(both.sum())} query cells are already observed"
        )
    if cell_budget is not None and query.shape[0] > cell_budget:
        chunks = np.array_split(
            np.arange(query.shape[0]),
            int(np.ceil(query.shape[0] / cell_budget)),
        )
    else:
        chunks = [np.arange(query.shape[0])]
    preds = np.empty(query.shape[0], dtype=np.float64)
    for chunk in chunks:
        preds[chunk] = _predict_at(
            model_config, params, x_obs, query[chunk],
            observed_table.scale, mode=mode, imputation=imputation,
        )
    return EvalReport(
        rmse=rmse(preds, query_table.ratings),
        predictions=preds,
        indices=query,
    )
