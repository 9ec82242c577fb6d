"""Acceptance suite: ten numbered criteria with pinned tolerances and
runtime budgets.  Each test prints one verdict line (run with -s to see
them all); every threshold is asserted, none is advisory."""

import os
import time

import numpy as np
import pytest

from helpers import max_rel_error, numeric_grads, random_dense, random_sparse

from exchtensor.checkpoint import load_checkpoint, save_checkpoint
from exchtensor.data import (
    FIVE_STAR,
    canonical_split,
    encode_onehot,
    rmse,
    synthetic_lowrank_table,
)
from exchtensor.layers import (
    ExchLayerParams,
    all_subsets,
    exchangeable_tensor_layer,
    random_layer_params,
)
from exchtensor.models import (
    ModelConfig,
    count_parameters,
    init_params,
    named_arrays,
    with_named_arrays,
)
from exchtensor.sampling import conditional_subsample, uniform_subsample
from exchtensor.sparse import (
    PermutationSpec,
    SparseExchangeableTensor,
    apply_permutation,
)
from exchtensor.training import (
    TrainConfig,
    build_ss_loss_graph,
    evaluate,
    mask_inputs,
    train,
)
from exchtensor.verify import (
    constant_scalar_blocks,
    count_orbits,
    dense_oracle_layer,
    dense_to_pooled_blocks,
    enumerate_flat_permutations,
    find_witness,
    generic_scalar_blocks,
    is_legal_permutation,
)

import dataclasses


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


EQUIVARIANCE_SHAPES = [
    ((3, 4), False),
    ((6, 7), False),
    ((5, 5), True),  # jointly exchangeable: row and column pools tied
    ((3, 4, 2), False),
    ((2, 2, 2, 2), False),
]


@pytest.fixture(scope="module")
def completion_task():
    """Seed-fixed rank-2 benchmark: 50x60, 30% observed, 630/90/180 split."""
    table = synthetic_lowrank_table(seed=7)
    train_t, test_t, val_t = canonical_split(
        table, "random", fraction=0.2, seed=0, val_fraction=0.1
    )
    return train_t, val_t, test_t


FEA_CONFIG = ModelConfig(
    architecture="fea",
    levels=5,
    encoder_widths=(32, 32, 16),
    decoder_widths=(32, 32, 5),
    nonlinearity="leaky_relu",
    dropout_rate=0.5,
    dropout_placement=frozenset({1, 2}),
    mask_prob=0.0,
    factor_size=16,
)
SS_CONFIG = ModelConfig(
    architecture="self-supervised",
    levels=5,
    widths=(32, 32, 5),
    nonlinearity="leaky_relu",
    dropout_rate=0.5,
    dropout_placement=frozenset({1}),
    mask_prob=0.5,
)
COMPLETION_TRAIN = TrainConfig(
    epochs=500, seed=0, patience=80, learning_rate=3e-3
)


@pytest.fixture(scope="module")
def trained_fea(completion_task):
    train_t, val_t, test_t = completion_task
    start = time.time()
    report, params = train(FEA_CONFIG, COMPLETION_TRAIN, train_t, val_t)
    wall = time.time() - start
    test_rmse = evaluate(FEA_CONFIG, params, train_t, test_t).rmse
    return params, test_rmse, wall


@pytest.fixture(scope="module")
def trained_ss(completion_task):
    train_t, val_t, test_t = completion_task
    start = time.time()
    report, params = train(SS_CONFIG, COMPLETION_TRAIN, train_t, val_t)
    wall = time.time() - start
    test_rmse = evaluate(SS_CONFIG, params, train_t, test_t).rmse
    return params, test_rmse, wall


def test_01_equivariance_suite():
    """Legal per-axis permutations commute with the layer to 1e-10 at
    64-bit: 200 (input, permutation) pairs per shape, 1 and 3 channels."""
    start = time.time()
    worst = 0.0
    for dims, tied in EQUIVARIANCE_SHAPES:
        rng = np.random.default_rng(11)
        for channels in (1, 3):
            layer = random_layer_params(
                len(dims), channels, 2, rng,
                nonlinearity="leaky_relu", tied=tied,
            )
            for trial in range(100):
                total = int(np.prod(dims))
                if trial % 2 == 0:
                    t = random_dense(dims, channels, rng)
                else:
                    n_obs = rng.integers(1, total + 1)
                    t = random_sparse(dims, channels, n_obs, rng)
                perm = PermutationSpec.random(dims, rng)
                left = exchangeable_tensor_layer(
                    apply_permutation(t, perm), layer
                )
                right = apply_permutation(
                    exchangeable_tensor_layer(t, layer), perm
                )
                assert np.array_equal(left.indices, right.indices)
                worst = max(
                    worst, float(np.abs(left.values - right.values).max())
                )
    elapsed = time.time() - start
    verdict(
        1, "equivariance", worst <= 1e-10 and elapsed < 60,
        f"max deviation {worst:.3e} over 5 shapes x 2 widths x 100 pairs, "
        f"{elapsed:.1f}s",
    )


def test_02_dense_oracle_equivalence():
    """The pooled layer equals the full flat weight-matrix layer after
    reparameterization: 100 random draws per shape, within 1e-10."""
    start = time.time()
    worst = 0.0
    for dims, _ in EQUIVARIANCE_SHAPES:
        rng = np.random.default_rng(13)
        ndim = len(dims)
        for _ in range(100):
            K, O = rng.integers(1, 4, size=2)
            dense_blocks = {
                S: rng.normal(size=(K, O)) for S in all_subsets(ndim)
            }
            bias = rng.normal(size=O)
            t = random_dense(dims, K, rng)
            oracle = dense_oracle_layer(
                t, ExchLayerParams(blocks=dense_blocks, bias=bias)
            )
            pooled = exchangeable_tensor_layer(
                t,
                ExchLayerParams(
                    blocks=dense_to_pooled_blocks(dense_blocks, dims),
                    bias=bias,
                ),
            )
            worst = max(
                worst, float(np.abs(oracle.values - pooled.values).max())
            )
    elapsed = time.time() - start
    verdict(
        2, "dense oracle", worst <= 1e-10 and elapsed < 60,
        f"max deviation {worst:.3e} over 5 shapes x 100 draws, {elapsed:.1f}s",
    )


def test_03_non_equivariance_witnesses():
    """On a 2x2 grid exactly 4 of the 24 flat permutations factor per
    axis; each illegal one is witnessed by a single-1 input under generic
    weights and by none under constant weights."""
    start = time.time()
    dims = (2, 2)
    rng = np.random.default_rng(17)
    perms = list(enumerate_flat_permutations(dims))
    legal = [p for p in perms if is_legal_permutation(p, dims)[0]]
    illegal = [p for p in perms if not is_legal_permutation(p, dims)[0]]

    generic = ExchLayerParams(
        blocks=generic_scalar_blocks(2, rng), bias=np.zeros(1)
    )
    generic_layer = lambda t: exchangeable_tensor_layer(t, generic)
    witnessed = [
        find_witness(generic_layer, dims, p).found for p in illegal
    ]

    constant = ExchLayerParams(
        blocks=dense_to_pooled_blocks(constant_scalar_blocks(2), dims),
        bias=np.zeros(1),
    )
    constant_layer = lambda t: exchangeable_tensor_layer(t, constant)
    constant_hits = [
        find_witness(constant_layer, dims, p).found for p in illegal
    ]
    elapsed = time.time() - start
    verdict(
        3, "witnesses",
        len(perms) == 24 and len(legal) == 4 and all(witnessed)
        and not any(constant_hits) and elapsed < 10,
        f"{len(legal)}/24 legal, {sum(witnessed)}/20 illegal witnessed, "
        f"{sum(constant_hits)} false hits under constant weights, "
        f"{elapsed:.1f}s",
    )


def test_04_orbit_counts():
    """Brute-force orbit enumeration matches 2^(number of axes)."""
    start = time.time()
    counts = [count_orbits([3]), count_orbits([2, 3]), count_orbits([2, 2, 2])]
    elapsed = time.time() - start
    verdict(
        4, "orbit counts", counts == [2, 4, 8] and elapsed < 10,
        f"got {counts} for dims [3], [2,3], [2,2,2], {elapsed:.1f}s",
    )


def test_05_end_to_end_gradient_check():
    """Backward pass of a 2-layer 4-channel model over 3x3 sparse data
    matches central finite differences to 1e-4 at 64-bit."""
    start = time.time()
    rng = np.random.default_rng(5)
    config = ModelConfig(
        architecture="self-supervised", levels=3, widths=(4, 3),
        mask_prob=0.4,
    )
    params = init_params(config, seed=0)
    picks = rng.choice(9, size=7, replace=False)
    idx = np.stack(np.unravel_index(picks, (3, 3)), axis=1)
    levels = rng.integers(0, 3, size=7)
    values = np.eye(3)[levels]
    x = SparseExchangeableTensor((3, 3), idx, values)
    masked, hit = mask_inputs(x, 0.5, seed=1)
    weights = hit.astype(np.float64)
    _, grads = build_ss_loss_graph(masked, params.layers, x.values, weights)
    analytic = grads()
    names = list(named_arrays(params))
    numeric = numeric_grads(
        lambda arrays: build_ss_loss_graph(
            masked, with_named_arrays(params, arrays).layers, x.values,
            weights)[0],
        named_arrays(params), names)
    err = max_rel_error({n: analytic[n] for n in names}, numeric)
    elapsed = time.time() - start
    verdict(
        5, "gradient check", err < 1e-4 and elapsed < 10,
        f"max relative error {err:.3e} over {len(names)} parameter nodes, "
        f"{elapsed:.1f}s",
    )


def test_06_sampling_unbiasedness():
    """Uniform batches include each of 100 cells at the binomial rate
    (3 sigma over 10^4 trials); conditional row picks track row counts."""
    start = time.time()
    trials = 10_000

    # 100-cell toy: full 10x10 grid, batches of 25
    grid = np.stack(
        np.unravel_index(np.arange(100), (10, 10)), axis=1
    )
    toy = SparseExchangeableTensor((10, 10), grid, np.zeros((100, 1)))
    counts = np.zeros(100)
    all_keys = np.ravel_multi_index(tuple(toy.indices.T), toy.dims)
    for k in range(trials):
        batch = uniform_subsample(toy, 25, seed=10_000 + k)
        keys = np.ravel_multi_index(tuple(batch.indices.T), toy.dims)
        counts += np.isin(all_keys, keys)
    expected = 0.25
    sigma = np.sqrt(expected * (1 - expected) / trials)
    uniform_dev = float(np.abs(counts / trials - expected).max() / sigma)

    # uneven rows: |R_n| = 1, 2, 3, 4 over a 4x10 matrix
    rows = np.repeat(np.arange(4), [1, 2, 3, 4])
    cols = np.concatenate([np.arange(k + 1) for k in range(4)])
    uneven = SparseExchangeableTensor(
        (4, 10), np.stack([rows, cols], axis=1), np.zeros((10, 1))
    )
    row_counts = np.zeros(4)
    for k in range(trials):
        batch = conditional_subsample(uneven, 1, 1, seed=k)
        row_counts[batch.indices[0, 0]] += 1
    marginal = np.array([1, 2, 3, 4]) / 10
    sigma_rows = np.sqrt(marginal * (1 - marginal) / trials)
    cond_dev = float(
        (np.abs(row_counts / trials - marginal) / sigma_rows).max()
    )
    elapsed = time.time() - start
    verdict(
        6, "sampling", uniform_dev <= 3.0 and cond_dev <= 3.0
        and elapsed < 60,
        f"uniform max dev {uniform_dev:.2f} sigma, conditional row dev "
        f"{cond_dev:.2f} sigma, {elapsed:.1f}s",
    )


def test_07_synthetic_completion(trained_fea, trained_ss):
    """Both architectures clear the held-out RMSE bars on the seed-fixed
    rank-2 task within 500 epochs and the shared wall-clock budget."""
    fea_params, fea_rmse, fea_wall = trained_fea
    ss_params, ss_rmse, ss_wall = trained_ss
    wall = fea_wall + ss_wall
    verdict(
        7, "synthetic completion",
        fea_rmse <= 0.75 and ss_rmse <= 0.80 and wall < 300,
        f"fea RMSE {fea_rmse:.3f} (bar 0.75), self-supervised RMSE "
        f"{ss_rmse:.3f} (bar 0.80), {wall:.0f}s",
    )


def test_08_inductive_extrapolation(trained_fea):
    """The model trained on matrix A transfers to a disjoint matrix B
    from the same process within 20% relative RMSE, and more observed
    context never hurts (non-increasing within 0.02)."""
    params, interp_rmse, _ = trained_fea
    start = time.time()
    B = synthetic_lowrank_table(seed=8)
    B_train, B_test = canonical_split(B, "random", fraction=0.2, seed=0)
    extrap_rmse = evaluate(FEA_CONFIG, params, B_train, B_test).rmse
    ratio = extrap_rmse / interp_rmse

    order = np.random.default_rng(123).permutation(B_train.n_ratings)
    sweep = []
    for p in (0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95):
        n_ctx = max(1, int(round(p * B_train.n_ratings)))
        context = B_train.subset(order[:n_ctx])
        sweep.append(evaluate(FEA_CONFIG, params, context, B_test).rmse)
    monotone = all(b <= a + 0.02 for a, b in zip(sweep, sweep[1:]))
    elapsed = time.time() - start
    verdict(
        8, "extrapolation", ratio <= 1.20 and monotone,
        f"extrapolation {extrap_rmse:.3f} vs interpolation "
        f"{interp_rmse:.3f} (ratio {ratio:.3f}, bar 1.20), sweep "
        + "->".join(f"{r:.2f}" for r in sweep) + f", {elapsed:.1f}s",
    )


ML100K_DIR = os.environ.get("EXCHTENSOR_ML100K", "")


@pytest.mark.skipif(
    not (ML100K_DIR and os.path.exists(os.path.join(ML100K_DIR, "u1.base"))),
    reason="ML-100k not available; set EXCHTENSOR_ML100K to the directory "
    "containing u1.base/u1.test",
)
def test_09_ml100k_reduced_run():
    """A reduced 3-layer 64-channel self-supervised model reaches test
    RMSE 1.00 on the canonical u1 split within the 30-minute budget."""
    start = time.time()
    base, test = canonical_split(
        None, "file-pair",
        base_path=os.path.join(ML100K_DIR, "u1.base"),
        test_path=os.path.join(ML100K_DIR, "u1.test"),
        fmt="movielens-tab",
    )
    train_t, val_t = canonical_split(base, "random", fraction=0.05, seed=0)
    config = ModelConfig(
        architecture="self-supervised", levels=5, widths=(64, 64, 5),
        nonlinearity="leaky_relu", dropout_rate=0.5,
        dropout_placement=frozenset({1, 2}), mask_prob=0.15,
    )
    train_config = TrainConfig(
        epochs=50, seed=0, patience=10, learning_rate=1e-3,
        cell_budget=20_000, sampler="uniform",
    )
    report, params = train(config, train_config, train_t, val_t)
    test_rmse = evaluate(
        config, params, train_t, test, cell_budget=20_000
    ).rmse
    elapsed = time.time() - start
    verdict(
        9, "ml-100k", test_rmse <= 1.00 and elapsed < 1800,
        f"u1 test RMSE {test_rmse:.3f} (bar 1.00), {elapsed:.0f}s",
    )


def test_10_inductivity_property(trained_fea, tmp_path):
    """Parameter count is shape-independent, and a trained checkpoint
    evaluates on a disjoint id space without retraining or error."""
    params, _, _ = trained_fea
    start = time.time()
    small = synthetic_lowrank_table(10, 10, observed_fraction=0.6, seed=1)
    big = synthetic_lowrank_table(943, 1682, observed_fraction=0.002, seed=2)
    quick = TrainConfig(epochs=1, seed=0, patience=1, learning_rate=1e-3)
    counts = []
    for table in (small, big):
        tr, te = canonical_split(table, "random", fraction=0.2, seed=0)
        _, fitted = train(FEA_CONFIG, quick, tr, te)
        counts.append(count_parameters(fitted))
    counts.append(count_parameters(params))

    path = tmp_path / "fea.exchk"
    save_checkpoint(path, FEA_CONFIG, params, FIVE_STAR)
    ck = load_checkpoint(path)
    B = synthetic_lowrank_table(seed=8)
    B = dataclasses.replace(
        B,
        users=tuple(f"fresh-u{n}" for n in range(len(B.users))),
        items=tuple(f"fresh-i{m}" for m in range(len(B.items))),
    )
    B_train, B_test = canonical_split(B, "random", fraction=0.2, seed=0)
    report = evaluate(ck.config, ck.params, B_train, B_test)
    elapsed = time.time() - start
    verdict(
        10, "inductivity",
        len(set(counts)) == 1 and np.isfinite(report.rmse)
        and len(report.predictions) == B_test.n_ratings,
        f"parameter count {counts[0]} for 10x10, 943x1682, and 50x60; "
        f"disjoint-id RMSE {report.rmse:.3f} over {B_test.n_ratings} "
        f"cells, {elapsed:.1f}s",
    )
