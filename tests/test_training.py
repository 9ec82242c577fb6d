"""Losses, optimizers, the training loop, and evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exchtensor import training
from exchtensor.autodiff import apply_nonlinearity, forward
from exchtensor.data import (
    FIVE_STAR,
    RatingScale,
    RatingsTable,
    canonical_split,
    synthetic_lowrank_table,
)
from exchtensor.models import (
    FeaParams,
    ModelConfig,
    SelfSupervisedParams,
    fea_decode,
    fea_encode,
    init_params,
    self_supervised_forward,
)
from exchtensor.training import (
    EvalReport,
    TrainConfig,
    TrainReport,
    build_fea_loss_graph,
    build_ss_loss_graph,
    evaluate,
    init_optimizer_state,
    mask_inputs,
    optimizer_step,
    train,
)

from helpers import random_sparse


def tiny_ss_config(levels=3, widths=(4, 3)):
    return ModelConfig(
        architecture="self-supervised",
        levels=levels,
        widths=widths,
        nonlinearity="leaky_relu",
        dropout_rate=0.0,
        dropout_placement=frozenset(),
        mask_prob=0.5,
    )


def tiny_fea_config(levels=3):
    return ModelConfig(
        architecture="fea",
        levels=levels,
        encoder_widths=(3, 2),
        decoder_widths=(4, 3),
        nonlinearity="leaky_relu",
        dropout_rate=0.0,
        dropout_placement=frozenset(),
        mask_prob=0.0,
        factor_size=2,
    )


def onehot_input(dims, levels, n_obs, rng):
    t = random_sparse(dims, levels, n_obs, rng)
    values = np.zeros((n_obs, levels))
    values[np.arange(n_obs), rng.integers(0, levels, n_obs)] = 1.0
    return t.with_values(values)


def numeric_grads(g, bindings, loss_node, names, eps=1e-5):
    """Central finite differences of the loss for the named bindings."""
    out = {}
    for name in names:
        arr = np.asarray(bindings[name], dtype=np.float64)
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        for i in range(flat.size):
            probe = dict(bindings)
            bumped = arr.copy().ravel()
            bumped[i] = flat[i] + eps
            probe[name] = bumped.reshape(arr.shape)
            hi = float(np.asarray(forward(g, probe)[loss_node]).reshape(()))
            bumped[i] = flat[i] - eps
            probe[name] = bumped.reshape(arr.shape)
            lo = float(np.asarray(forward(g, probe)[loss_node]).reshape(()))
            grad.ravel()[i] = (hi - lo) / (2 * eps)
        out[name] = grad
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(1.0, np.abs(a) + np.abs(n))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestTrainConfig:
    def test_field_validation(self):
        for bad in (
            dict(optimizer="rmsprop"),
            dict(sampler="importance"),
            dict(cell_budget=0),
            dict(mask_prob=1.0),
            dict(epochs=0),
            dict(precision="float16"),
            dict(learning_rate=-1.0),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_dtype_follows_precision(self):
        assert TrainConfig(precision="float32").dtype == np.float32
        assert TrainConfig(precision="float64").dtype == np.float64


class TestTrainReport:
    def test_series_must_align(self):
        with pytest.raises(ValueError, match="align"):
            TrainReport((1.0,), (), 1, 1.0, 0.0)

    def test_records_are_per_epoch(self):
        r = TrainReport((0.5, 0.4), (1.1, 1.0), 2, 1.0, 3.0)
        assert r.epochs_run == 2
        assert r.records() == [
            {"epoch": 1, "loss": 0.5, "val_rmse": 1.1},
            {"epoch": 2, "loss": 0.4, "val_rmse": 1.0},
        ]


class TestMaskInputs:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        t = onehot_input((5, 5), 3, 10, rng)
        masked, hit = mask_inputs(t, 0.0, seed=1)
        assert masked.allclose(t)
        assert hit.shape == (0, 2)

    def test_masked_cells_have_all_zero_channels(self):
        rng = np.random.default_rng(1)
        t = onehot_input((8, 8), 3, 30, rng)
        masked, hit = mask_inputs(t, 0.5, seed=2)
        assert_array_equal(masked.indices, t.indices)
        hits = {tuple(ix) for ix in hit.tolist()}
        for ix, v in zip(masked.indices.tolist(), masked.values):
            if tuple(ix) in hits:
                assert_array_equal(v, np.zeros(3))

    def test_masked_count_concentrates(self):
        """10^4 cells at probability 0.15 mask 1500 within 3 sigma."""
        rng = np.random.default_rng(2)
        t = onehot_input((120, 120), 3, 10_000, rng)
        _, hit = mask_inputs(t, 0.15, seed=3)
        sigma = math.sqrt(10_000 * 0.15 * 0.85)
        assert abs(hit.shape[0] - 1500) <= 3 * sigma

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        t = onehot_input((6, 6), 3, 20, rng)
        a = mask_inputs(t, 0.3, seed=7)
        b = mask_inputs(t, 0.3, seed=7)
        assert a[0].allclose(b[0])
        assert_array_equal(a[1], b[1])

    def test_probability_range_checked(self):
        rng = np.random.default_rng(4)
        t = onehot_input((3, 3), 3, 5, rng)
        with pytest.raises(ValueError, match="probability"):
            mask_inputs(t, 1.0)


class TestOptimizerStep:
    def test_zero_gradients_leave_parameters_alone(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        for opt in ("adam", "sgd"):
            cfg = TrainConfig(optimizer=opt)
            new, _ = optimizer_step(params, grads, init_optimizer_state(), cfg)
            for k in params:
                assert_allclose(new[k], params[k])

    def test_sgd_step_is_lr_times_grad(self):
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        new, _ = optimizer_step(params, grads, init_optimizer_state(), cfg)
        assert_allclose(new["w"], [-0.1])

    def test_adam_first_step_moves_by_lr_in_grad_sign(self):
        cfg = TrainConfig(optimizer="adam", learning_rate=1e-3)
        params = {"w": np.array([0.2, -0.4])}
        grads = {"w": np.array([3.0, -0.7])}
        new, state = optimizer_step(
            params, grads, init_optimizer_state(), cfg
        )
        step = new["w"] - params["w"]
        assert_allclose(step, [-1e-3, 1e-3], rtol=1e-4)
        assert state.step == 1

    def test_adam_state_accumulates(self):
        cfg = TrainConfig(optimizer="adam", learning_rate=1e-2)
        params = {"w": np.array([0.0])}
        state = init_optimizer_state()
        for _ in range(3):
            params, state = optimizer_step(
                params, {"w": np.array([1.0])}, state, cfg
            )
        assert state.step == 3
        assert params["w"][0] < -2e-2

    def test_non_finite_gradient_aborts(self):
        cfg = TrainConfig()
        with pytest.raises(FloatingPointError, match="w"):
            optimizer_step(
                {"w": np.zeros(2)},
                {"w": np.array([1.0, np.nan])},
                init_optimizer_state(),
                cfg,
            )


class TestGradientCheck:
    def test_self_supervised_end_to_end(self):
        """Analytic gradients of a 2-layer 4-channel model over a 3x3
        matrix match central differences."""
        rng = np.random.default_rng(5)
        cfg = tiny_ss_config(levels=3, widths=(4, 3))
        params = init_params(cfg, seed=0)
        x = onehot_input((3, 3), 3, 9, rng)
        masked, hit = mask_inputs(x, 0.5, seed=1)
        keys = np.ravel_multi_index(tuple(x.indices.T), x.dims)
        weights = np.isin(
            keys, np.ravel_multi_index(tuple(hit.T), x.dims)
        ).astype(np.float64)
        drop = {1: np.array([[2.0, 0.0, 2.0, 2.0]])}
        g, loss_node, bindings = build_ss_loss_graph(
            masked, params.layers, x.values, weights, dropout_masks=drop
        )
        from exchtensor.autodiff import backward

        values = forward(g, bindings)
        analytic = backward(g, values, loss_node)
        names = [n for n in analytic if n.startswith("layer")]
        numeric = numeric_grads(g, bindings, loss_node, names)
        assert max_rel_error(
            {n: analytic[n] for n in names}, numeric
        ) < 1e-4

    def test_fea_end_to_end(self):
        rng = np.random.default_rng(6)
        cfg = tiny_fea_config(levels=3)
        params = init_params(cfg, seed=1)
        x = onehot_input((3, 4), 3, 8, rng)
        g, loss_node, bindings = build_fea_loss_graph(
            x, params.encoder, params.decoder, x.values
        )
        from exchtensor.autodiff import backward

        values = forward(g, bindings)
        analytic = backward(g, values, loss_node)
        names = [
            n for n in analytic if n.startswith(("enc", "dec"))
        ]
        numeric = numeric_grads(g, bindings, loss_node, names)
        assert max_rel_error(
            {n: analytic[n] for n in names}, numeric
        ) < 1e-4

    def test_loss_ignores_targets_at_unweighted_cells(self):
        """Sentinel targets on visible cells leave the loss untouched;
        only masked cells feed the objective."""
        rng = np.random.default_rng(7)
        cfg = tiny_ss_config()
        params = init_params(cfg, seed=2)
        x = onehot_input((4, 4), 3, 12, rng)
        masked, hit = mask_inputs(x, 0.4, seed=3)
        keys = np.ravel_multi_index(tuple(x.indices.T), x.dims)
        weights = np.isin(
            keys, np.ravel_multi_index(tuple(hit.T), x.dims)
        ).astype(np.float64)
        clean = x.values
        sentinel = clean.copy()
        sentinel[weights == 0] = 999.0
        losses = []
        for targets in (clean, sentinel):
            g, loss_node, bindings = build_ss_loss_graph(
                masked, params.layers, targets, weights
            )
            losses.append(
                float(np.asarray(forward(g, bindings)[loss_node]).reshape(()))
            )
        assert losses[0] == losses[1]


class TestOneForwardPath:
    """With dropout off, the training graphs compute the models' own
    eval-mode forward; only the final softmax moves into the loss."""

    @staticmethod
    def graph_distributions(g, loss_node, bindings):
        logits = g.node(loss_node).operands[0]
        return apply_nonlinearity(forward(g, bindings)[logits], "softmax")

    def test_ss_graph_matches_self_supervised_forward(self):
        rng = np.random.default_rng(11)
        cfg = tiny_ss_config(levels=3, widths=(6, 4, 3))
        params = init_params(cfg, seed=3)
        x = onehot_input((5, 6), 3, 17, rng)
        g, loss_node, bindings = build_ss_loss_graph(
            x, params.layers, x.values, None
        )
        want = self_supervised_forward(x, cfg, params).values
        assert want.dtype == np.float64
        assert_allclose(self.graph_distributions(g, loss_node, bindings),
                        want, rtol=0, atol=1e-12)

    def test_fea_graph_matches_encode_then_decode(self):
        rng = np.random.default_rng(12)
        cfg = tiny_fea_config(levels=3)
        params = init_params(cfg, seed=4)
        x = onehot_input((5, 6), 3, 17, rng)
        g, loss_node, bindings = build_fea_loss_graph(
            x, params.encoder, params.decoder, x.values
        )
        want = fea_decode(fea_encode(x, cfg, params), x.indices, cfg, params)
        assert_allclose(self.graph_distributions(g, loss_node, bindings),
                        want.values, rtol=0, atol=1e-12)


def split_synthetic(seed=0, n_rows=12, n_cols=10, frac=0.5):
    scale = RatingScale.integer(1, 3)
    table = synthetic_lowrank_table(
        n_rows, n_cols, rank=2, observed_fraction=frac, seed=seed,
        scale=scale,
    )
    return canonical_split(table, "random", fraction=0.25, seed=1)


class TestTrain:
    def test_zero_learning_rate_keeps_the_untrained_rmse(self):
        """One no-op epoch reports exactly the untrained model's score."""
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        tc = TrainConfig(
            epochs=1, learning_rate=0.0, seed=4, precision="float64"
        )
        params0 = init_params(mc, seed=4)
        report, params1 = train(mc, tc, tr, val, initial_params=params0)
        baseline = evaluate(mc, params0, tr, val)
        assert_allclose(report.val_rmse[0], baseline.rmse, rtol=1e-12)

    def test_identical_seeds_reproduce_the_run(self):
        tr, val = split_synthetic()
        mc = tiny_fea_config()
        tc = TrainConfig(epochs=4, seed=9, precision="float64")
        ra, pa = train(mc, tc, tr, val)
        rb, pb = train(mc, tc, tr, val)
        assert ra.train_loss == rb.train_loss
        assert ra.val_rmse == rb.val_rmse
        for la, lb in zip(pa.encoder + pa.decoder, pb.encoder + pb.decoder):
            for S in la.blocks:
                assert_array_equal(la.blocks[S], lb.blocks[S])

    def test_loss_decreases_over_early_epochs(self):
        """Smoothed (window 3) loss is non-increasing over the first 10
        epochs of the synthetic task at the default learning rate."""
        tr, val = split_synthetic(seed=2, n_rows=20, n_cols=16)
        mc = tiny_fea_config()
        tc = TrainConfig(
            epochs=12, learning_rate=1e-3, seed=0, precision="float64",
        )
        report, _ = train(mc, tc, tr, val)
        losses = np.asarray(report.train_loss[:10])
        smooth = np.convolve(losses, np.ones(3) / 3, mode="valid")
        assert (np.diff(smooth) <= 1e-9).all()

    def test_early_stopping_honours_patience(self):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        tc = TrainConfig(
            epochs=50, learning_rate=0.0, patience=1, seed=5,
            precision="float64",
        )
        report, _ = train(mc, tc, tr, val)
        assert report.stopped_early
        assert report.epochs_run == 2
        assert report.best_epoch == 1

    def test_divergence_is_reported_not_raised(self):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        params = init_params(mc, seed=0)
        poisoned = SelfSupervisedParams(
            (params.layers[0],)
            + (type(params.layers[1])(
                blocks={S: B * np.nan for S, B in params.layers[1].blocks.items()},
                bias=params.layers[1].bias,
                nonlinearity=params.layers[1].nonlinearity,
                slope=params.layers[1].slope,
                tied=params.layers[1].tied,
            ),)
        )
        tc = TrainConfig(epochs=5, seed=6, precision="float64")
        report, _ = train(mc, tc, tr, val, initial_params=poisoned)
        assert report.diverged
        assert report.epochs_run == 1

    def test_non_finite_gradient_is_reported_not_raised(self, monkeypatch):
        real_backward = training.backward

        def nan_backward(*args):
            grads = real_backward(*args)
            name = next(iter(grads))
            grads[name] = np.full_like(grads[name], np.nan)
            return grads

        monkeypatch.setattr(training, "backward", nan_backward)
        tr, val = split_synthetic()
        tc = TrainConfig(epochs=5, seed=6, precision="float64")
        report, _ = train(tiny_ss_config(), tc, tr, val)
        assert report.diverged
        assert report.epochs_run == 1

    def test_minibatch_paths_run(self):
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        mc = tiny_fea_config()
        for sampler in ("uniform", "conditional"):
            tc = TrainConfig(
                epochs=3, seed=7, cell_budget=25, sampler=sampler,
                precision="float64",
            )
            report, _ = train(mc, tc, tr, val)
            assert report.epochs_run == 3
            assert all(np.isfinite(report.train_loss))

    def test_self_supervised_requires_masking(self):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        tc = TrainConfig(epochs=1, mask_prob=0.0)
        with pytest.raises(ValueError, match="mask probability"):
            train(mc, tc, tr, val)

    def test_float32_default_still_learns(self):
        tr, val = split_synthetic(seed=4)
        mc = tiny_fea_config()
        tc = TrainConfig(epochs=6, seed=8)
        report, params = train(mc, tc, tr, val)
        assert report.train_loss[-1] < report.train_loss[0]


class TestPrecision:
    @pytest.mark.parametrize("config", [
        replace(tiny_ss_config(), dropout_rate=0.5,
                dropout_placement=frozenset({1})),
        replace(tiny_fea_config(), dropout_rate=0.5,
                dropout_placement=frozenset({1})),
    ], ids=["self-supervised", "fea"])
    def test_parameters_keep_the_training_dtype(self, config):
        """Training runs in the configured precision end to end, and the
        float32 and float64 runs agree."""
        tr, val = split_synthetic(seed=5)
        reports = {}
        for precision, dtype in (("float32", np.float32),
                                 ("float64", np.float64)):
            tc = TrainConfig(epochs=3, seed=2, precision=precision)
            report, params = train(config, tc, tr, val)
            assert report.best_epoch >= 1
            layers = (params.layers if isinstance(params, SelfSupervisedParams)
                      else params.encoder + params.decoder)
            for lp in layers:
                for arr in (*lp.blocks.values(), lp.bias):
                    assert arr.dtype == dtype, precision
            reports[precision] = report
        assert_allclose(reports["float32"].val_rmse,
                        reports["float64"].val_rmse, rtol=0, atol=1e-5)


class TestEvaluate:
    def test_overlapping_query_rejected(self):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        params = init_params(mc, seed=0)
        with pytest.raises(ValueError, match="already observed"):
            evaluate(mc, params, tr, tr)

    def test_leave_one_out_toy_is_deterministic(self):
        scale = RatingScale.integer(1, 3)
        table = RatingsTable(
            [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 2.0], scale,
            ("a", "b"), ("x", "y"),
        )
        mc = tiny_ss_config()
        params = init_params(mc, seed=1)
        obs = table.subset(np.array([0, 1, 2]))
        query = table.subset(np.array([3]))
        a = evaluate(mc, params, obs, query)
        b = evaluate(mc, params, obs, query)
        assert np.isfinite(a.rmse)
        assert_array_equal(a.predictions, b.predictions)

    def test_parameters_survive_evaluation_untouched(self):
        tr, val = split_synthetic()
        mc = tiny_fea_config()
        params = init_params(mc, seed=2)
        before = {
            f"{i}.{sorted(S)}": B.copy()
            for i, lp in enumerate(params.encoder + params.decoder)
            for S, B in lp.blocks.items()
        }
        evaluate(mc, params, tr, val)
        for i, lp in enumerate(params.encoder + params.decoder):
            for S, B in lp.blocks.items():
                assert_array_equal(before[f"{i}.{sorted(S)}"], B)

    def test_chunked_evaluation_covers_every_query_cell(self):
        tr, val = split_synthetic(seed=5)
        mc = tiny_fea_config()
        params = init_params(mc, seed=3)
        report = evaluate(mc, params, tr, val, cell_budget=4)
        assert isinstance(report, EvalReport)
        assert report.predictions.shape == (val.n_ratings,)
        assert np.isfinite(report.predictions).all()

    def test_extrapolation_to_a_fresh_matrix_runs(self):
        """Parameters fitted on one matrix score an unrelated one."""
        scale = RatingScale.integer(1, 3)
        tr_a, val_a = split_synthetic(seed=6)
        mc = tiny_fea_config()
        tc = TrainConfig(epochs=3, seed=10, precision="float64")
        _, params = train(mc, tc, tr_a, val_a)
        table_b = synthetic_lowrank_table(
            9, 11, rank=2, observed_fraction=0.6, seed=99, scale=scale
        )
        obs_b, query_b = canonical_split(table_b, "random", fraction=0.3,
                                         seed=0)
        report = evaluate(mc, params, obs_b, query_b)
        assert np.isfinite(report.rmse)
