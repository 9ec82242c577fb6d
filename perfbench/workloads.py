"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with a single caller: it sends its next
step only after the previous one returns.  A workload sets up its inputs
from the seed (``setup``), runs one step of its loop (``step``), and
finishes with checks that need the whole run (``finish``).  Every call
goes through the public API of ``exchtensor``.

- ``ml100k-train``: the criterion-09 reduced self-supervised model on a
  synthetic table shaped like ML-100k (943 x 1682, ~100k ratings).  The
  large-n regime, where kernels set the cost and the full-matrix
  validation forward dominates each epoch.
- ``synthetic50-fit``: the criterion-07 task (50 x 60, 630 training
  cells, full batch), both acceptance configs trained to their stopping
  point.  The small-n regime, where Python overhead sets the cost.  The
  seed relabels the task's users and items, an exchangeable relabeling
  that leaves the task itself unchanged.
- ``ml100k-eval``: inference only.  One client sends 2,000-cell requests
  of held-out cells to ``evaluate`` against a ~75k-cell observed
  context, alternating the two architectures.  Work that depends only
  on the context is redone on every request, so caching it shows here.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from exchtensor.checkpoint import load_checkpoint, save_checkpoint
from exchtensor.data import (
    FIVE_STAR,
    canonical_split,
    encode_onehot,
    rmse,
    synthetic_lowrank_table,
)
from exchtensor.models import (
    ModelConfig,
    fea_decode,
    fea_encode,
    init_params,
    self_supervised_forward,
    union_with_zeros,
)
from exchtensor.sampling import uniform_subsample
from exchtensor.training import TrainConfig, evaluate, train

# criterion 07 (tests/test_acceptance.py): configs, loop and RMSE bars
SS_CONFIG = ModelConfig(
    architecture="self-supervised", levels=5, widths=(32, 32, 5),
    nonlinearity="leaky_relu", dropout_rate=0.5,
    dropout_placement=frozenset({1}), mask_prob=0.5,
)
FEA_CONFIG = ModelConfig(
    architecture="fea", levels=5, encoder_widths=(32, 32, 16),
    decoder_widths=(32, 32, 5), nonlinearity="leaky_relu", dropout_rate=0.5,
    dropout_placement=frozenset({1, 2}), mask_prob=0.0, factor_size=16,
)
COMPLETION_TRAIN = TrainConfig(epochs=500, seed=0, patience=80, learning_rate=3e-3)
RMSE_BARS = {"ss": 0.80, "fea": 0.75}

# criterion 09: the reduced 3-layer 64-channel self-supervised model
SS64_CONFIG = ModelConfig(
    architecture="self-supervised", levels=5, widths=(64, 64, 5),
    nonlinearity="leaky_relu", dropout_rate=0.5,
    dropout_placement=frozenset({1, 2}), mask_prob=0.15,
)

CONFIGS = {"ss": SS_CONFIG, "fea": FEA_CONFIG}
# units of the per-workload metrics printed besides the end-to-end ones
UNITS = {"epoch_s": "s", "fit_s.ss": "s", "fit_s.fea": "s", "epochs.ss": "count",
         "epochs.fea": "count", "request_p50_s.ss": "s",
         "request_p50_s.fea": "s", "eval_cells_per_s": "cells/s",
         "heldout_rmse.ss": "rating", "heldout_rmse.fea": "rating"}
# a distribution row may miss 1 by float32 rounding over a few levels
DIST_TOL = 1e-4


@dataclasses.dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the self-test."""

    ml100k_dims: tuple[int, int]
    ml100k_fraction: float
    cell_budget: int
    request_cells: int
    epoch_nominal_s: float
    completion: TrainConfig
    setup_reps: int
    setup_min_s: float
    probe_reps: int
    dist_cells: int
    # the criterion-07 bars hold only for the full 500-epoch fits
    rmse_bars: bool


SIZES = {
    "full": Size(ml100k_dims=(943, 1682), ml100k_fraction=0.063, cell_budget=20_000,
                 request_cells=2_000, epoch_nominal_s=2.0, completion=COMPLETION_TRAIN,
                 setup_reps=5, setup_min_s=1.0, probe_reps=5, dist_cells=200,
                 rmse_bars=True),
    "tiny": Size(ml100k_dims=(40, 50), ml100k_fraction=0.3, cell_budget=200,
                 request_cells=50, epoch_nominal_s=60.0,
                 completion=dataclasses.replace(COMPLETION_TRAIN, epochs=3),
                 setup_reps=2, setup_min_s=0.0, probe_reps=1, dist_cells=20,
                 rmse_bars=False),
}


class Record:
    """Samples and check outcomes of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check FAILED: {what}", flush=True)
        return ok


def check_predictions(rec: Record, preds: np.ndarray, what: str) -> None:
    ok = bool(np.isfinite(preds).all()) and bool(
        ((preds >= FIVE_STAR.lo - 1e-9) & (preds <= FIVE_STAR.hi + 1e-9)).all())
    rec.check(ok, f"{what}: predictions finite and on the rating scale")


def check_epochs(rec: Record, report, what: str) -> None:
    for k, (loss, val) in enumerate(zip(report.train_loss, report.val_rmse), 1):
        rec.check(bool(np.isfinite(loss) and np.isfinite(val)),
                  f"{what}: epoch {k} finite (loss {loss}, val RMSE {val})")
    rec.check(not report.diverged, f"{what}: training did not diverge")


def _rows_at(out, query: np.ndarray) -> np.ndarray:
    keys = np.ravel_multi_index(tuple(out.indices.T), out.dims)
    pos = np.searchsorted(keys, np.ravel_multi_index(tuple(query.T), out.dims))
    return out.values[pos]


def check_distributions(rec: Record, config, params, observed, query, what) -> None:
    """Model distributions at the query cells are on the simplex."""
    x_obs = encode_onehot(observed)
    if config.architecture == "self-supervised":
        out = self_supervised_forward(union_with_zeros(x_obs, query), config, params)
        p = _rows_at(out, query)
    else:
        out = fea_decode(fea_encode(x_obs, config, params), query, config, params,
                         imputation=True)
        p = _rows_at(out, query)
    ok = bool(np.isfinite(p).all()) and bool((p >= 0).all()) and \
        float(np.abs(p.sum(axis=1) - 1.0).max()) <= DIST_TOL
    rec.check(ok, f"{what}: distributions sum to 1")


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def ml100k_split(seed: int, size: Size):
    rows, cols = size.ml100k_dims
    table = synthetic_lowrank_table(rows, cols, observed_fraction=size.ml100k_fraction,
                                    seed=seed)
    return canonical_split(table, "random", fraction=0.2, seed=seed, val_fraction=0.05)


def loop(wl, rec, seconds: float, between=None) -> tuple[int, float]:
    """Closed loop: steps until the next would end past ``seconds``;
    ``between(step seconds)`` runs after each step, outside the step."""
    steps, busy = 0, 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.step(rec)
        dt = time.perf_counter() - t0
        steps += 1
        busy += dt
        if between is not None:
            between(dt)
        if steps >= wl.min_steps and time.perf_counter() - start + dt > seconds:
            return steps, busy


def sample_setup(wl, rec, budget_s: float, min_reps: int) -> None:
    """Repeat the set-up for ``budget_s`` (at least ``min_reps`` times)."""
    start = time.perf_counter()
    reps = 0
    while reps < min_reps or (time.perf_counter() - start < budget_s and reps < 500):
        t0 = time.perf_counter()
        wl.setup()
        rec.add("setup_s", time.perf_counter() - t0)
        reps += 1


class Workload:
    name = ""
    # the workload's own metrics, printed besides the end-to-end ones
    reported: tuple[str, ...] = ()

    def __init__(self, seed: int, size: Size, out_dir: Path):
        self.seed, self.size, self.out_dir = seed, size, out_dir

    def setup(self) -> None:
        """Build the inputs from the seed; repeatable at any point of a run."""
        raise NotImplementedError

    def plan(self, seconds: float) -> None:
        """Fix the work of one step from the run length (before setup)."""

    min_steps = 1

    def step(self, rec: Record) -> None:
        raise NotImplementedError

    def rewind(self) -> None:
        """Make the next steps repeat the work of the steps already run."""

    def finish(self, rec: Record) -> dict[str, tuple[float, int]]:
        """End-of-run checks; returns metric -> (value, sample count)."""
        return {}

    def probe_cases(self) -> list[tuple[np.ndarray, tuple, int, int]]:
        """(indices, dims, K, O) per probed shape; the first is the main one."""
        raise NotImplementedError


class ML100KTrain(Workload):
    name = "ml100k-train"
    reported = ("epoch_s", "eval_cells_per_s", "heldout_rmse.ss")

    def plan(self, seconds):
        self.epochs = max(2, int(round(seconds / self.size.epoch_nominal_s)))

    def setup(self):
        self.train_t, self.test_t, self.val_t = ml100k_split(self.seed, self.size)
        self.x = encode_onehot(self.train_t)

    def step(self, rec):
        tc = TrainConfig(epochs=self.epochs, seed=self.seed, patience=self.epochs + 1,
                         learning_rate=1e-3, cell_budget=self.size.cell_budget,
                         sampler="uniform")
        (report, params), wall = timed(train, SS64_CONFIG, tc, self.train_t, self.val_t)
        check_epochs(rec, report, "ss train")
        rec.add("epoch_s", wall / self.epochs)
        rec.add("step_s", wall / self.epochs)
        ev, dt = timed(evaluate, SS64_CONFIG, params, self.train_t, self.test_t,
                       cell_budget=self.size.cell_budget)
        check_predictions(rec, ev.predictions, "ss evaluate")
        rec.add("eval_s", dt)
        rec.add("eval_cells", ev.predictions.size)
        rec.add("heldout_rmse.ss", ev.rmse)
        self.params = params

    def finish(self, rec):
        q = self.test_t.indices()[: self.size.dist_cells]
        check_distributions(rec, SS64_CONFIG, self.params, self.train_t, q, "ss")
        return {}

    def probe_cases(self):
        dims = self.x.dims
        val = union_with_zeros(self.x, self.val_t.indices()).indices
        batch = uniform_subsample(self.x, min(self.size.cell_budget, self.x.n_observed),
                                  seed=self.seed).indices
        return [(val, dims, 64, 64), (val, dims, 5, 64),
                (batch, dims, 64, 64), (batch, dims, 5, 64)]


class Synthetic50Fit(Workload):
    name = "synthetic50-fit"
    reported = ("fit_s.ss", "fit_s.fea", "epochs.ss", "epochs.fea", "eval_cells_per_s",
                "heldout_rmse.ss", "heldout_rmse.fea")
    # evaluate on 180 cells takes milliseconds; repeat it for a steady time
    eval_repeats = 10

    def setup(self):
        table = synthetic_lowrank_table(seed=7)
        rng = np.random.default_rng(self.seed)
        table = dataclasses.replace(
            table,
            u_index=rng.permutation(table.n_users)[table.u_index],
            i_index=rng.permutation(table.n_items)[table.i_index],
        )
        self.train_t, self.test_t, self.val_t = canonical_split(
            table, "random", fraction=0.2, seed=0, val_fraction=0.1)
        self.x = encode_onehot(self.train_t)

    def step(self, rec):
        fit_total = 0.0
        self.params = {}
        for arch, config in CONFIGS.items():
            (report, params), wall = timed(train, config, self.size.completion,
                                           self.train_t, self.val_t)
            fit_total += wall
            rec.add(f"fit_s.{arch}", wall)
            rec.add(f"epochs.{arch}", report.epochs_run)
            check_epochs(rec, report, f"{arch} fit")
            for _ in range(self.eval_repeats):
                ev, dt = timed(evaluate, config, params, self.train_t, self.test_t)
                rec.add("eval_s", dt)
                rec.add("eval_cells", ev.predictions.size)
            check_predictions(rec, ev.predictions, f"{arch} evaluate")
            rec.add(f"heldout_rmse.{arch}", ev.rmse)
            if self.size.rmse_bars:
                rec.check(ev.rmse <= RMSE_BARS[arch],
                          f"{arch} held-out RMSE {ev.rmse:.4f} within the "
                          f"criterion-07 bar {RMSE_BARS[arch]}")
            self.params[arch] = params
        rec.add("step_s", fit_total)

    def finish(self, rec):
        q = self.test_t.indices()
        for arch, config in CONFIGS.items():
            check_distributions(rec, config, self.params[arch], self.train_t, q, arch)
        return {}

    def probe_cases(self):
        return [(self.x.indices, self.x.dims, 32, 32), (self.x.indices, self.x.dims, 5, 32)]


class ML100KEval(Workload):
    name = "ml100k-eval"
    reported = ("eval_cells_per_s", "request_p50_s.ss", "request_p50_s.fea",
                "heldout_rmse.ss", "heldout_rmse.fea")
    # held-out RMSE covers the first requests, so it does not depend on
    # how many steps fit in the run
    min_steps = 4

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.cursor = 0
        self.preds = {arch: {} for arch in CONFIGS}

    def setup(self):
        self.train_t, self.test_t, _ = ml100k_split(self.seed, self.size)
        self.params = {}
        for arch, config in CONFIGS.items():
            path = self.out_dir / f"{arch}-seed{self.seed}.exchk"
            save_checkpoint(path, config, init_params(config, seed=self.seed), FIVE_STAR,
                            metadata={"seed": self.seed})
            self.params[arch] = load_checkpoint(path).params
        n = self.test_t.n_ratings
        cuts = np.arange(0, n - self.size.request_cells + 1, self.size.request_cells)
        self.requests = [self.test_t.subset(np.arange(c, c + self.size.request_cells))
                         for c in cuts]

    def rewind(self):
        self.cursor = 0

    def step(self, rec):
        k = self.cursor % len(self.requests)
        self.cursor += 1
        req = self.requests[k]
        round_s = 0.0
        for arch, config in CONFIGS.items():
            ev, dt = timed(evaluate, config, self.params[arch], self.train_t, req)
            round_s += dt
            rec.add(f"request_s.{arch}", dt)
            rec.add("eval_s", dt)
            rec.add("eval_cells", ev.predictions.size)
            check_predictions(rec, ev.predictions, f"{arch} request {k}")
            self.preds[arch][k] = ev.predictions
        rec.add("step_s", round_s)

    def finish(self, rec):
        out = {}
        first = range(min(self.min_steps, len(self.requests)))
        truth = np.concatenate([self.requests[k].ratings for k in first])
        for arch, config in CONFIGS.items():
            preds = np.concatenate([self.preds[arch][k] for k in first])
            out[f"heldout_rmse.{arch}"] = (rmse(preds, truth), truth.size)
            q = self.requests[0].indices()[: self.size.dist_cells]
            check_distributions(rec, config, self.params[arch], self.train_t, q, arch)
        return out

    def probe_cases(self):
        x = encode_onehot(self.train_t)
        ctx = union_with_zeros(x, self.requests[0].indices())
        return [(ctx.indices, ctx.dims, 32, 32), (ctx.indices, ctx.dims, 5, 32)]


WORKLOADS = {w.name: w for w in (ML100KTrain, Synthetic50Fit, ML100KEval)}
