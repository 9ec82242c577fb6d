"""The Adam optimizer, the training loop, and evaluation.

Nothing here depends on the architecture: each params class of
``models`` reads a context (``prepare``), predicts (``predict``) and
builds its training graph (``loss_graph``), and this module only calls
those.  Training builds one computation graph per epoch (cheap next to
the forward pass) so channel-dropout masks, input masks and minibatch
index sets can change freely; dropout exists only here, as masks drawn
per epoch.  A fit keeps its parameters in one flat buffer of the
training dtype (``FlatArrays``), one slot per array in ``named_arrays``
order; each epoch's model, and so its graph bindings, are views into it,
rebuilt without rederiving a name or rerunning a layer's checks.  Each
Adam step runs as a few vector ops over the whole buffer and builds a
fresh one.  No buffer is updated in place: the previous epoch's
parameters may still be validating on the worker thread, and the best
epoch's are kept to be returned.  Validation and ``evaluate`` take one
path: ``_query_cells`` checks the request from the two tables alone,
before anything is encoded; ``params.prepare`` reads the observed
context alone, in the parameters' dtype; and ``params.predict`` runs a
tail pass over the query cells, whose predictions depend on no other
query cell.  So ``evaluate`` at a fit's validation cells gives its
validation RMSE bit for bit.  Validation prepares the training matrix
with each epoch's parameters; groupings are cached on their index set,
so a fit groups the training matrix once and the validation cells not
at all.  ``evaluate`` keeps its last few prepared contexts, each with
what it depends on: the config, a copy of the named arrays and the
observed table (whose arrays are read-only).  A request matches one by
exact content, with no hash: a table by identity or by its dims, scale,
cells and ratings bit for bit, the config with ``==``, each array by
name, dtype, shape and bits.  So repeated calls with an equal model and
observed table run the context pass once, and a refused request leaves
the memo as it was.  A minibatch fit validates each epoch on one worker
thread while the next epoch's step runs, with results bit for bit those
of the sequential loop; a multithreaded BLAS then serves two callers
at once, so set its thread count with that in mind.  ``mask_inputs``
and the two loss-graph builders live in ``models`` and are re-exported
here.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from numbers import Real

import numpy as np

from .autodiff import backward, forward
from .data import (
    RatingScale, RatingsTable, encode_onehot, rmse,
)
from .layers import dropout_channel_mask, one_hot_input
from .models import (
    ModelConfig,
    PreparedContext,
    _check_integer,
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
from .sparse import lookup

__all__ = [
    "TrainConfig",
    "TrainReport",
    "EvalReport",
    "mask_inputs",
    "FlatArrays",
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
    training graph, the Adam moments, and the validation forward.  The
    row and column pools accumulate in it too; only the global pool,
    taken as the float64 sum of the row sums, accumulates in float64
    before it is cast back.  The returned model keeps it: ``evaluate``
    runs a model in its parameters' dtype, so at the validation cells it
    gives ``best_val_rmse`` bit for bit.  The two precisions agree on
    short runs: over 3 epochs of the 50x60 benchmark the per-epoch
    ``val_rmse`` differs by up to about 3e-8, and the tests assert 1e-5.
    Fits run to their early-stopping point can stop at different epochs,
    because last-digit differences decide which validation RMSE is best,
    so their final RMSEs need not agree.
    """

    epochs: int = 100
    learning_rate: float = 1e-3
    cell_budget: int = DEFAULT_CELL_BUDGET
    sampler: str = "uniform"
    seed: int = 0
    patience: int = 20
    precision: str = "float32"

    def __post_init__(self):
        for name in ("epochs", "cell_budget", "seed", "patience"):
            _check_integer(name, getattr(self, name))
        if not isinstance(self.learning_rate, Real):
            raise TypeError(f"learning rate must be a number, got "
                            f"{self.learning_rate!r}")
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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

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


class FlatArrays(dict):
    """Named arrays held as views into one flat 1-D buffer, ``flat``.

    Slot i holds the i-th name's array, in the order of the mapping that
    ``of`` packed, so ``FlatArrays.of(named_arrays(params))`` follows
    ``named_arrays`` and a tied block takes one slot.  ``layout`` fixes
    each slot's (name, shape, start, stop) there, and
    ``FlatArrays(layout, flat)`` puts another buffer of the same length
    under it at the cost of one view per slot.
    """

    def __init__(self, layout: tuple, flat: np.ndarray):
        super().__init__((name, flat[a:b].reshape(shape))
                         for name, shape, a, b in layout)
        self.layout, self.flat = layout, flat

    @classmethod
    def of(cls, arrays: Mapping[str, np.ndarray], dtype=None) -> "FlatArrays":
        """``arrays`` packed into a new buffer of ``dtype``, by default
        their common dtype; a FlatArrays already of it is returned as is."""
        if isinstance(arrays, cls) and dtype in (None, arrays.flat.dtype):
            return arrays
        shapes = [np.shape(a) for a in arrays.values()]
        bounds = [0, *accumulate(map(math.prod, shapes))]
        return cls(tuple(zip(arrays, shapes, bounds, bounds[1:])),
                   np.concatenate([np.ravel(a) for a in arrays.values()],
                                  dtype=dtype))


@dataclass(frozen=True)
class OptimizerState:
    """Adam's step count and moment estimates.

    ``m`` and ``v`` are the first and second moments: flat arrays with
    one entry per element of the parameter buffer, in its slot order
    and dtype, or the scalar 0.0 before the first step.
    """

    step: int
    m: np.ndarray | float
    v: np.ndarray | float


def init_optimizer_state() -> OptimizerState:
    return OptimizerState(0, 0.0, 0.0)


def optimizer_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: OptimizerState,
    config: TrainConfig,
) -> tuple[FlatArrays, OptimizerState]:
    """One Adam update of every array in ``params`` (name -> array);
    ``grads`` holds each name's gradient.

    Adam runs as a few vector ops over one flat buffer: a fit's
    ``FlatArrays`` as it is, any other mapping packed into one.  Each
    element's arithmetic is that of a per-array update.  Returns a
    FlatArrays over a new buffer; none is updated in place, since a
    validation on another thread or a fit's best parameters may still
    read the old one.  A non-finite gradient raises FloatingPointError
    naming the first array, in slot order, that holds one.
    """
    params = FlatArrays.of(params)
    g = np.concatenate([np.ravel(grads[name]) for name in params],
                       dtype=params.flat.dtype)
    finite = np.isfinite(g)
    if not finite.all():
        i = finite.argmin()
        name, _, a, b = next(slot for slot in params.layout if slot[3] > i)
        seen = g[a:b][finite[a:b]]
        raise FloatingPointError(
            f"non-finite gradient in {name!r} "
            f"(max |g| = {np.abs(seen).max() if seen.size else 'n/a'})"
        )
    t = state.step + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    m = b1 * state.m + (1 - b1) * g
    v = b2 * state.v + (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    new = params.flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return FlatArrays(params.layout, new), OptimizerState(t, m, v)


def _predict_at(
    config: ModelConfig,
    params,
    prepared: PreparedContext,
    query: np.ndarray,
    scale: RatingScale,
) -> np.ndarray:
    """Expected ratings at query cells, against the observed context
    that ``params.prepare`` read."""
    dist = params.predict(config, prepared, query)
    # renormalize away float32 rounding before the strict decode check
    dist = dist / dist.sum(axis=1, keepdims=True)
    return predict_ratings(dist, scale)


def _query_cells(observed: RatingsTable, query: RatingsTable,
                 what: str = "query", source: str = "observed") -> np.ndarray:
    """The (m, 2) cells of ``query``, after checking from the two tables
    alone that ``observed``, the ``source`` table, holds a cell and that
    ``query`` is a nonempty table over its users, items and rating scale
    that holds none of its cells.  ``train`` and ``evaluate`` check here
    first, before any encoding or context pass: both predict on the
    observed table's scale and score against the query table's
    ratings."""
    if observed.n_ratings == 0:
        raise ValueError(f"the {source} table is empty")
    if query.n_ratings == 0:
        raise ValueError(f"the {what} table is empty")
    if (query.users, query.items) != (observed.users, observed.items):
        raise ValueError(
            f"the {what} table ({query.n_users}x{query.n_items}) is not "
            f"over the observed table's users and items "
            f"({observed.n_users}x{observed.n_items})"
        )
    if query.scale != observed.scale:
        raise ValueError(
            f"the {what} table's rating scale {query.scale.levels} is not "
            f"the observed table's {observed.scale.levels}"
        )
    # both tables' sorted keys, over the same dims
    both = np.count_nonzero(lookup(observed.keys, query.keys) >= 0)
    if both:
        raise ValueError(f"{both} {what} cells are already observed")
    return query.indices()


@dataclass(eq=False)
class _MemoEntry:
    """A prepared context and all it depends on: the model config, a copy
    of each named array, and the observed table.  ``table`` is the last
    equal table object asked for, so the memo holds no table that every
    caller has dropped."""

    config: ModelConfig
    arrays: dict
    table: RatingsTable
    prepared: PreparedContext


# prepared contexts ``evaluate`` keeps, least recently used first
MEMO_ENTRIES = 4
_memo: list[_MemoEntry] = []
_memo_lock = threading.Lock()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes, so -0.0 is not 0.0 and two NaN
    payloads differ, as under a hash of the bytes."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.itemsize not in (1, 2, 4, 8):
        return a.tobytes() == b.tobytes()
    word = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a.view(word), b.view(word))


def _same_table(a: RatingsTable, b: RatingsTable) -> bool:
    """Equal for ``prepare``: the dims, the scale, and the cells and
    ratings bit for bit; the ids enter only through the dims."""
    return (
        (a.n_users, a.n_items, a.scale) == (b.n_users, b.n_items, b.scale)
        and np.array_equal(a.u_index, b.u_index)
        and np.array_equal(a.i_index, b.i_index)
        and _same_bits(a.ratings, b.ratings))


def _memo_find(config: ModelConfig, arrays: dict, table: RatingsTable
               ) -> _MemoEntry | None:
    """The entry for this content, moved to the most recent end; call
    under ``_memo_lock``.  Every entry whose table equals ``table`` takes
    ``table`` as its own, so an older equal table can be freed."""
    found = None
    equal = {id(table): True}  # verdicts on the table objects held
    for entry in _memo:
        key = id(entry.table)
        if key not in equal:
            equal[key] = _same_table(entry.table, table)
        if not equal[key]:
            continue
        entry.table = table
        if found is None and entry.config == config \
                and entry.arrays.keys() == arrays.keys() \
                and all(_same_bits(entry.arrays[k], a)
                        for k, a in arrays.items()):
            found = entry
    if found is not None:
        _memo.remove(found)
        _memo.append(found)
    return found


def _prepare_context(config: ModelConfig, params, table: RatingsTable
                     ) -> PreparedContext:
    """The context pass over an observed table, which ``evaluate`` runs
    once per (model, table) content that its memo holds."""
    return params.prepare(config, encode_onehot(table))


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
    observed cell.  The validation table is checked as ``evaluate``
    checks a query table: cells of the training table's users and items
    that it does not hold.
    """
    t0 = time.perf_counter()
    dtype = train_config.dtype
    scale = train_table.scale
    val_query = _query_cells(train_table, val_table, "validation",
                             "training")
    val_truth = val_table.ratings
    x_full = encode_onehot(train_table)
    x_full = x_full.with_values(x_full.values.astype(dtype))

    params = initial_params if initial_params is not None else init_params(
        model_config, seed=train_config.seed
    )
    check_params(model_config, params)
    # one buffer per fit, cast once; a tied block is one slot, one array
    arrays = FlatArrays.of(named_arrays(params), dtype)
    params = with_named_arrays(params, arrays)
    # the context never changes: group it, level its one-hot rows and
    # pool them once, which builds the operators its pools sum with,
    # before a worker thread reads them
    one_hot_input(x_full)

    def validate(p) -> float:
        prepared = p.prepare(model_config, x_full)
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
                            arrays, state = optimizer_step(
                                arrays, grads, state, train_config
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
            params = with_named_arrays(params, arrays)
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
    depends on the matrix shape.  The query table must share the observed
    table's ``users``, ``items`` and ``scale``, as two splits of one table
    do, be nonempty and hold none of its cells; these checks come first,
    from the two tables alone, so a refused request raises ``ValueError``
    before any encoding or context pass and leaves the memo as it was.
    The model runs in its parameters' dtype.  Never mutates the
    parameters.

    A prediction depends only on the parameters, the observed table and
    its own cell, so the query may be split into chunks of at most
    ``cell_budget`` cells without changing one (beyond the last bits of
    the chunk's matrix products).  ``params.prepare`` reads the observed
    table once; each chunk then runs a tail pass over its own cells.
    The prepared context is kept for the next call, the last
    ``MEMO_ENTRIES`` of them, so repeated calls with an equal model and
    context skip the context pass.  A call matches a kept context by
    exact content, not by a hash: the observed table by identity, or by
    equal dims and scale and bitwise equal cells and ratings; the config
    with ``==``; each named array by name, dtype, shape and bits, so
    -0.0 and 0.0 differ.  Every kept context whose table equals
    ``observed_table`` then holds ``observed_table`` itself, so the memo
    keeps alive no table that its callers have dropped.
    """
    check_params(model_config, params)
    if cell_budget is not None:
        _check_integer("cell budget", cell_budget)
        if cell_budget < 1:
            raise ValueError("cell budget must be at least 1")
    query = _query_cells(observed_table, query_table)
    arrays = named_arrays(params)
    with _memo_lock:
        entry = _memo_find(model_config, arrays, observed_table)
    if entry is None:
        prepared = _prepare_context(model_config, params, observed_table)
        with _memo_lock:
            # another thread may have prepared equal content meanwhile
            entry = _memo_find(model_config, arrays, observed_table)
            if entry is None:
                entry = _MemoEntry(
                    model_config, {k: a.copy() for k, a in arrays.items()},
                    observed_table, prepared)
                _memo.append(entry)
                del _memo[:-MEMO_ENTRIES]
    prepared = entry.prepared
    n = query.shape[0]
    n_chunks = 1 if cell_budget is None else int(np.ceil(n / cell_budget))
    preds = np.empty(n, dtype=np.float64)
    for chunk in np.array_split(np.arange(n), n_chunks):
        preds[chunk] = _predict_at(model_config, params, prepared,
                                   query[chunk], observed_table.scale)
    return EvalReport(
        rmse=rmse(preds, query_table.ratings),
        predictions=preds,
    )
