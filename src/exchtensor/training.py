"""The Adam optimizer, the training loop, and evaluation.

Nothing here depends on the architecture: each params class of
``models`` reads a context (``prepare``), predicts (``predict``) and
builds its training graph (``loss_graph``), and this module only calls
those.  Training builds one computation graph per epoch (cheap next to
the forward pass) so channel-dropout masks, input masks and minibatch
index sets can change freely, then runs one optimizer step on the flat
parameter bindings; dropout exists only here, as masks drawn per epoch.
Validation runs the model's eval-mode prediction against the full
training matrix.  Groupings are cached on their index set, so a
full-batch fit groups the training matrix once, and the validation set
is prepared and grouped once per fit.  A minibatch fit validates each
epoch on one worker thread while the next epoch's step runs, with
results bit for bit those of the sequential loop; a multithreaded BLAS
then serves two callers at once, so set its thread count with that in
mind.  ``mask_inputs`` and the two loss-graph builders live in
``models`` and are re-exported here.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import backward, forward
from .data import RatingScale, RatingsTable, encode_onehot, rmse
from .layers import dropout_channel_mask
from .models import (
    ModelConfig,
    build_fea_loss_graph,
    build_ss_loss_graph,
    check_params,
    init_params,
    mask_inputs,
    named_arrays,
    predict_ratings,
    with_named_arrays,
)
from .sampling import (
    DEFAULT_CELL_BUDGET,
    budget_targets,
    conditional_subsample,
    subset_tensor,
    uniform_subsample,
)

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


# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; model shape lives in ModelConfig.

    ``precision`` ("float32" or "float64") is the dtype training runs in:
    the parameters (cast on entry, so the returned parameters have it
    too), the one-hot inputs and targets, every value and gradient of the
    training graph, the Adam moments, and the validation forward.  Only
    the group sums of pooling accumulate in float64 before they are cast
    back.  The two precisions agree on short runs: over 3 epochs of the
    50x60 benchmark the per-epoch ``val_rmse`` differs by about 2e-8, and
    the tests assert 1e-5.  Fits run to their early-stopping point can
    stop at different epochs, because last-digit differences decide
    which validation RMSE is best, so their final RMSEs need not agree.
    """

    epochs: int = 100
    learning_rate: float = 1e-3
    cell_budget: int = DEFAULT_CELL_BUDGET
    sampler: str = "uniform"
    seed: int = 0
    patience: int = 20
    precision: str = "float32"

    def __post_init__(self):
        if self.sampler not in ("uniform", "conditional"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.cell_budget < 1:
            raise ValueError("cell budget must be at least 1")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be finite and nonnegative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")

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
    """One Adam update over a flat name -> array dict."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(
                f"non-finite gradient in {name!r} "
                f"(max |g| = {np.abs(g[np.isfinite(g)]).max() if np.isfinite(g).any() else 'n/a'})"
            )
    lr = config.learning_rate
    new_params = {}
    t = state.step + 1
    m, v = {}, {}
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
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


def _predict_at(
    config: ModelConfig,
    params,
    prepared,
    query: np.ndarray,
    scale: RatingScale,
) -> np.ndarray:
    """Expected ratings at query cells, from ``params.prepare``'s reading
    of the observed context and these query cells."""
    out = params.predict(config, prepared)
    dist = out.values[out.find(query)]
    # renormalize away float32 rounding before the strict decode check
    dist = dist / dist.sum(axis=1, keepdims=True)
    return predict_ratings(dist, scale)


def _epoch_dropout_masks(config: ModelConfig, rng) -> dict:
    masks = {}
    if config.dropout_rate <= 0.0:
        return masks
    for k in sorted(config.dropout_placement):
        masks[k] = dropout_channel_mask(
            config.dropout_widths[k - 1], config.dropout_rate, rng
        )
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
    sampled minibatch per epoch.  ``params.loss_graph`` builds each
    epoch's loss: the self-supervised model re-masks its input and takes
    its loss only on the masked cells; the autoencoder reconstructs every
    observed cell.
    """
    if val_table.n_ratings == 0:
        raise ValueError("the validation table is empty")
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
    check_params(model_config, params)
    # one cast per named array, so a tied block stays one shared array
    params = with_named_arrays(params, {
        name: a.astype(dtype) for name, a in named_arrays(params).items()
    })
    # the validation set never changes: prepare it once, before a worker
    # thread reads it
    prepared = params.prepare(x_full, val_query)

    def validate(p) -> float:
        return rmse(_predict_at(model_config, p, prepared, val_query, scale),
                    val_truth)

    budget = train_config.cell_budget
    full_batch = x_full.indices.shape[0] <= budget
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
    pending = None  # (epoch, loss, params, call giving their validation RMSE)

    # Epoch e validates while e+1 steps from the same params: on the worker
    # for a minibatch, on this thread after the step for a full batch (a
    # worker slowed those short steps).  e is recorded first, and a stop at
    # e discards e+1 with its errors; the pass after the last epoch only
    # records it.
    with ThreadPoolExecutor(max_workers=1) as pool:
        for epoch in range(1, train_config.epochs + 2):
            err = None
            if epoch <= train_config.epochs:
                try:
                    epoch_seed = int(rng.integers(2**62))
                    epoch_rng = np.random.default_rng(epoch_seed)
                    if full_batch:
                        x_batch = x_full
                    elif train_config.sampler == "uniform":
                        batch = uniform_subsample(x_full, budget, seed=epoch_seed)
                        x_batch = subset_tensor(x_full, batch)
                    else:
                        rows, cols = budget_targets(x_full, budget)
                        batch = conditional_subsample(x_full, rows, cols,
                                                      seed=epoch_seed)
                        x_batch = subset_tensor(x_full, batch)

                    masks = _epoch_dropout_masks(model_config, epoch_rng)
                    g, loss_node, bindings = params.loss_graph(
                        model_config, x_batch, masks, epoch_seed
                    )

                    values = forward(g, bindings)
                    loss = float(np.asarray(values[loss_node]).reshape(()))
                    step_diverged = not np.isfinite(loss)
                    if not step_diverged:
                        grads = backward(g, values, loss_node)
                        try:
                            flat, state = optimizer_step(
                                named_arrays(params), grads, state, train_config
                            )
                        except FloatingPointError:
                            # a non-finite gradient ends the run, as a loss does
                            step_diverged = True
                except Exception as e:
                    err = e  # surfaces only if the last validation goes on

            if pending is not None:
                done, done_loss, done_params, val_of = pending
                val = val_of()
                losses.append(done_loss)
                val_curve.append(val)
                if val < best_rmse:
                    best_rmse, best_params, best_epoch = val, done_params, done
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= train_config.patience:
                        stopped_early = True
                        break
            if epoch > train_config.epochs:
                break
            if err is not None:
                raise err
            if step_diverged:
                diverged = True
                losses.append(loss)
                val_curve.append(float("nan"))
                break
            params = with_named_arrays(params, flat)
            val_of = (partial(validate, params) if full_batch
                      else pool.submit(validate, params).result)
            pending = (epoch, loss, params, val_of)

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
    cell_budget: int | None = None,
) -> EvalReport:
    """Eval-mode RMSE and expected-rating predictions at the query cells.

    Works on the training matrix (interpolation) or on an entirely fresh
    matrix with its own id space (extrapolation), since no parameter
    depends on the matrix shape.  Never mutates the parameters.

    The query is split into chunks of at most ``cell_budget`` cells, and
    ``params.prepare`` reads the observed table with each chunk.  A
    prediction currently depends on the other query cells of its chunk,
    not only on the observed table: the self-supervised model's pools
    include the zero-filled query cells, and the autoencoder's decoder
    pools over the query set.  So chunking changes the predictions and
    the RMSE.
    """
    check_params(model_config, params)
    if query_table.n_ratings == 0:
        raise ValueError("the query table is empty")
    x_obs = encode_onehot(observed_table)
    query = query_table.indices()
    both = x_obs.find(query) >= 0
    if both.any():
        raise ValueError(
            f"{int(both.sum())} query cells are already observed"
        )
    n = query.shape[0]
    n_chunks = 1 if cell_budget is None else int(np.ceil(n / cell_budget))
    preds = np.empty(n, dtype=np.float64)
    for chunk in np.array_split(np.arange(n), n_chunks):
        preds[chunk] = _predict_at(
            model_config, params, params.prepare(x_obs, query[chunk]),
            query[chunk], observed_table.scale,
        )
    return EvalReport(
        rmse=rmse(preds, query_table.ratings),
        predictions=preds,
    )
