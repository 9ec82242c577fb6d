"""Losses, optimizers, the training loop, and evaluation."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exchtensor import models, sparse, training
from exchtensor.autodiff import apply_nonlinearity
from exchtensor.data import (
    FIVE_STAR,
    RatingScale,
    RatingsTable,
    canonical_split,
    encode_onehot,
    synthetic_lowrank_table,
)
from exchtensor.layers import (
    random_layer_params,
)
from exchtensor.models import (
    FeaParams,
    ModelConfig,
    SelfSupervisedParams,
    count_parameters,
    fea_decode,
    fea_encode,
    init_params,
    named_arrays,
    self_supervised_forward,
    with_named_arrays,
)
from exchtensor.training import (
    EvalReport,
    FlatArrays,
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

from helpers import (
    assert_bitwise_equal, max_rel_error, numeric_grads, per_array_adam,
    random_sparse, sequential_train,
)


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


class TestTrainConfig:
    def test_field_validation(self):
        for bad in (
            dict(sampler="importance"),
            dict(cell_budget=0),
            dict(epochs=0),
            dict(precision="float16"),
            dict(learning_rate=-1.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(patience=0),
            dict(patience=-3),
            dict(seed=-1),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [
        # a NaN patience never stopped a fit, and a None seed drew a
        # different fit each run
        dict(patience=float("nan")), dict(patience=2.5), dict(seed=None),
        dict(seed=1.0), dict(epochs=float("inf")), dict(cell_budget=1e30),
        dict(learning_rate=None), dict(learning_rate="3"),
        # a bool is an int to Python, but no count or seed means one
        dict(epochs=True), dict(seed=False), dict(cell_budget=True),
        dict(patience=True),
    ])
    def test_non_integer_counts_and_seeds_refused(self, bad):
        with pytest.raises(TypeError):
            TrainConfig(**bad)

    def test_numpy_integers_accepted(self):
        assert TrainConfig(epochs=np.int64(3), seed=np.uint8(2)).epochs == 3

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
        assert_array_equal(masked.indices, t.indices)
        assert_array_equal(masked.values, t.values)
        assert hit.shape == (t.n_observed,) and not hit.any()

    def test_masked_cells_have_all_zero_channels(self):
        rng = np.random.default_rng(1)
        t = onehot_input((8, 8), 3, 30, rng)
        masked, hit = mask_inputs(t, 0.5, seed=2)
        assert_array_equal(masked.indices, t.indices)
        assert hit.any() and not hit.all()
        assert_array_equal(masked.values[hit], 0.0)
        assert_array_equal(masked.values[~hit], t.values[~hit])

    def test_masked_count_concentrates(self):
        """10^4 cells at probability 0.15 mask 1500 within 3 sigma."""
        rng = np.random.default_rng(2)
        t = onehot_input((120, 120), 3, 10_000, rng)
        _, hit = mask_inputs(t, 0.15, seed=3)
        sigma = math.sqrt(10_000 * 0.15 * 0.85)
        assert abs(hit.sum() - 1500) <= 3 * sigma

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        t = onehot_input((6, 6), 3, 20, rng)
        a = mask_inputs(t, 0.3, seed=7)
        b = mask_inputs(t, 0.3, seed=7)
        assert_array_equal(a[0].indices, b[0].indices)
        assert_array_equal(a[0].values, b[0].values)
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
        new, _ = optimizer_step(params, grads, init_optimizer_state(),
                                TrainConfig())
        for k in params:
            assert_allclose(new[k], params[k])

    def test_adam_first_step_moves_by_lr_in_grad_sign(self):
        cfg = TrainConfig(learning_rate=1e-3)
        params = {"w": np.array([0.2, -0.4])}
        grads = {"w": np.array([3.0, -0.7])}
        new, state = optimizer_step(
            params, grads, init_optimizer_state(), cfg
        )
        step = new["w"] - params["w"]
        assert_allclose(step, [-1e-3, 1e-3], rtol=1e-4)
        assert state.step == 1

    def test_adam_state_accumulates(self):
        cfg = TrainConfig(learning_rate=1e-2)
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

    def test_non_finite_gradient_names_the_first_bad_array_in_slot_order(self):
        params = {"a": np.zeros(2), "b": np.zeros((2, 2)), "c": np.zeros(3)}
        grads = {"a": np.ones(2), "b": np.array([[1.0, np.nan], [2.0, -5.0]]),
                 "c": np.full(3, np.inf)}
        with pytest.raises(FloatingPointError,
                           match=r"in 'b' \(max \|g\| = 5\.0\)"):
            optimizer_step(params, grads, init_optimizer_state(), TrainConfig())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_matches_the_per_array_reference_bit_for_bit(
            self, dtype):
        """20 steps over arrays of mixed shapes, the first from a plain
        dict, the rest from the flat buffer the previous step returned."""
        rng = np.random.default_rng(11)
        shapes = {"enc1.w01": (3, 4), "enc1.bias": (4,), "dec1.wg": (1, 1),
                  "scalar": (), "cube": (2, 3, 2)}
        params = {n: rng.normal(size=s).astype(dtype)
                  for n, s in shapes.items()}
        cfg = TrainConfig(learning_rate=0.05)
        flat, state = params, init_optimizer_state()
        ref, ref_state = params, (0, {}, {})
        for _ in range(20):
            grads = {n: (rng.normal(size=s) * 10.0 ** rng.integers(-4, 3))
                     .astype(dtype) for n, s in shapes.items()}
            flat, state = optimizer_step(flat, grads, state, cfg)
            ref, ref_state = per_array_adam(ref, grads, ref_state, cfg)
            assert list(flat) == list(ref)
            for name in ref:
                assert_bitwise_equal(flat[name], ref[name])
        assert state.step == 20
        assert state.m.dtype == state.v.dtype == flat.flat.dtype == dtype

    @pytest.mark.parametrize("packed", [False, True], ids=["dict", "flat"])
    def test_the_update_shares_no_memory_with_its_input(self, packed):
        params = {"w": np.ones((2, 3)), "b": np.zeros(3)}
        if packed:
            params = FlatArrays.of(params)
        before = {n: a.copy() for n, a in params.items()}
        grads = {"w": np.full((2, 3), 0.5), "b": np.ones(3)}
        new, _ = optimizer_step(params, grads, init_optimizer_state(),
                                TrainConfig())
        for name, a in params.items():
            assert not np.shares_memory(new[name], a)
            assert_array_equal(a, before[name])
        assert not np.shares_memory(new.flat, grads["w"])

    def test_a_tied_layer_stays_one_array_in_one_slot_after_a_fit(self):
        tr, val = split_synthetic(seed=5)
        mc = tiny_ss_config()
        rng = np.random.default_rng(3)
        init = init_params(mc, seed=0)
        init = SelfSupervisedParams((
            random_layer_params(2, 3, 4, rng, nonlinearity="leaky_relu",
                                tied=True),
            init.layers[1],
        ))
        report, params = train(mc, TrainConfig(epochs=3, seed=1), tr, val,
                               initial_params=init)
        assert report.best_epoch >= 1
        tied = params.layers[0]
        assert tied.tied
        assert tied.blocks[frozenset({0})] is tied.blocks[frozenset({1})]
        arrays = named_arrays(params)
        assert [n for n in arrays if n.startswith("layer1.")] == \
            ["layer1.w01", "layer1.w0", "layer1.wg", "layer1.bias"]
        # every array is a view of one buffer, the tied block one slot of it
        buffer = arrays["layer1.w01"].base
        assert buffer.ndim == 1 and buffer.size == count_parameters(params)
        assert all(a.base is buffer for a in arrays.values())
        assert not np.array_equal(tied.blocks[frozenset({0})],
                                  init.layers[0].blocks[frozenset({0})])


def ss_loss_of(masked, params, targets, weights, masks=None):
    """The self-supervised loss at the named arrays it is called with."""
    def loss_of(arrays):
        layers_ = with_named_arrays(params, arrays).layers
        return build_ss_loss_graph(masked, layers_, targets, weights,
                                   masks)[0]
    return loss_of


class TestGradientCheck:
    def test_self_supervised_end_to_end(self):
        """Analytic gradients of a 2-layer 4-channel model over a 3x3
        matrix match central differences."""
        rng = np.random.default_rng(5)
        cfg = tiny_ss_config(levels=3, widths=(4, 3))
        params = init_params(cfg, seed=0)
        x = onehot_input((3, 3), 3, 9, rng)
        masked, hit = mask_inputs(x, 0.5, seed=1)
        weights = hit.astype(np.float64)
        drop = {1: np.array([[2.0, 0.0, 2.0, 2.0]])}
        _, grads = build_ss_loss_graph(
            masked, params.layers, x.values, weights, dropout_masks=drop
        )
        analytic = grads()
        arrays = named_arrays(params)
        assert analytic.keys() == arrays.keys()
        numeric = numeric_grads(
            ss_loss_of(masked, params, x.values, weights, drop), arrays,
            arrays)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_fea_end_to_end(self):
        rng = np.random.default_rng(6)
        cfg = tiny_fea_config(levels=3)
        params = init_params(cfg, seed=1)
        x = onehot_input((3, 4), 3, 8, rng)
        drop = {1: np.array([[2.0, 0.0, 2.0, 2.0]])}
        _, grads = build_fea_loss_graph(
            x, params.encoder, params.decoder, x.values, drop
        )
        analytic = grads()
        arrays = named_arrays(params)
        assert analytic.keys() == arrays.keys()

        def loss_of(a):
            p = with_named_arrays(params, a)
            return build_fea_loss_graph(x, p.encoder, p.decoder, x.values,
                                        drop)[0]

        numeric = numeric_grads(loss_of, arrays, arrays)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_loss_ignores_targets_at_unweighted_cells(self):
        """Sentinel targets on visible cells leave the loss untouched;
        only masked cells feed the objective."""
        rng = np.random.default_rng(7)
        cfg = tiny_ss_config()
        params = init_params(cfg, seed=2)
        x = onehot_input((4, 4), 3, 12, rng)
        masked, hit = mask_inputs(x, 0.4, seed=3)
        weights = hit.astype(np.float64)
        clean = x.values
        sentinel = clean.copy()
        sentinel[weights == 0] = 999.0
        losses = [float(build_ss_loss_graph(masked, params.layers, targets,
                                            weights)[0])
                  for targets in (clean, sentinel)]
        assert losses[0] == losses[1]


class TestOneForwardPath:
    """With dropout off, the training losses read the models' own
    eval-mode forward; only the final softmax moves into the loss."""

    @staticmethod
    def distributions(monkeypatch, build, *args):
        """The softmax of the logits ``build(*args)`` hands its loss."""
        seen, real = [], models.cross_entropy

        def loss(logits, targets, row_weights=None):
            seen.append(logits)
            return real(logits, targets, row_weights)

        monkeypatch.setattr(models, "cross_entropy", loss)
        build(*args)
        monkeypatch.undo()
        (logits,) = seen
        return apply_nonlinearity(logits, "softmax")

    def test_ss_loss_reads_self_supervised_forward(self, monkeypatch):
        rng = np.random.default_rng(11)
        cfg = tiny_ss_config(levels=3, widths=(6, 4, 3))
        params = init_params(cfg, seed=3)
        x = onehot_input((5, 6), 3, 17, rng)
        got = self.distributions(monkeypatch, build_ss_loss_graph, x,
                                 params.layers, x.values, None)
        want = self_supervised_forward(x, cfg, params).values
        assert want.dtype == np.float64
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_fea_loss_reads_encode_then_decode(self, monkeypatch):
        rng = np.random.default_rng(12)
        cfg = tiny_fea_config(levels=3)
        params = init_params(cfg, seed=4)
        x = onehot_input((5, 6), 3, 17, rng)
        got = self.distributions(monkeypatch, build_fea_loss_graph, x,
                                 params.encoder, params.decoder, x.values)
        want = fea_decode(fea_encode(x, cfg, params), x.indices, cfg, params)
        assert_allclose(got, want.values, rtol=0, atol=1e-12)


def split_synthetic(seed=0, n_rows=12, n_cols=10, frac=0.5):
    scale = RatingScale.integer(1, 3)
    table = synthetic_lowrank_table(
        n_rows, n_cols, observed_fraction=frac, seed=seed,
        scale=scale,
    )
    return canonical_split(table, "random", fraction=0.25, seed=1)


class TestTrain:
    @pytest.mark.parametrize("config", [tiny_ss_config(), tiny_fea_config()],
                             ids=["ss", "fea"])
    def test_empty_validation_table_rejected(self, config):
        tr, val = split_synthetic()
        with pytest.raises(ValueError, match="validation table is empty"):
            train(config, TrainConfig(epochs=1), tr, val.subset([]))

    @pytest.mark.parametrize("config", [tiny_ss_config(), tiny_fea_config()],
                             ids=["ss", "fea"])
    def test_empty_training_table_rejected(self, config):
        """Named before any encoding, which would refuse a tensor of no
        cells."""
        tr, val = split_synthetic()
        with pytest.raises(ValueError, match="training table is empty"):
            train(config, TrainConfig(epochs=1), tr.subset([]), val)

    def test_validation_table_with_other_user_ids_rejected(self):
        """Same dims, other ids: the cells would be scored at the
        training table's users of the same index."""
        tr, val = split_synthetic()
        relabeled = replace(val, users=tuple(f"other-{u}" for u in val.users))
        with pytest.raises(ValueError, match=(
                r"validation table \(12x10\) is not over the observed "
                r"table's users and items \(12x10\)")):
            train(tiny_ss_config(), TrainConfig(epochs=1), tr, relabeled)

    def test_validation_table_with_more_users_rejected(self):
        tr, _ = split_synthetic()
        _, val = split_synthetic(n_rows=20)
        with pytest.raises(ValueError, match=(
                r"validation table \(20x10\) is not over .* \(12x10\)")):
            train(tiny_ss_config(), TrainConfig(epochs=1), tr, val)

    def test_validation_table_on_another_scale_rejected(self):
        """The fit predicts on the training table's scale, so ratings on
        another would be scored against the wrong levels."""
        tr, val = split_synthetic()
        doubled = replace(val, ratings=2 * val.ratings,
                          scale=RatingScale((2, 4, 6)))
        with pytest.raises(ValueError, match=(
                r"validation table's rating scale \(2.0, 4.0, 6.0\) is not "
                r"the observed table's \(1.0, 2.0, 3.0\)")):
            train(tiny_ss_config(), TrainConfig(epochs=1), tr, doubled)

    def test_validation_cells_already_in_training_rejected(self):
        tr, val = split_synthetic()
        seen = tr.subset(np.arange(30))
        both = replace(val, **{
            f: np.concatenate([getattr(val, f), getattr(seen, f)])
            for f in ("u_index", "i_index", "ratings")})
        with pytest.raises(ValueError,
                           match="30 validation cells are already observed"):
            train(tiny_ss_config(), TrainConfig(epochs=1), tr, both)

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
        real = SelfSupervisedParams.loss_and_grads

        def nan_grads(*args):
            loss, grads = real(*args)

            def poisoned():
                out = grads()
                name = next(iter(out))
                out[name] = np.full_like(out[name], np.nan)
                return out
            return loss, poisoned

        monkeypatch.setattr(SelfSupervisedParams, "loss_and_grads", nan_grads)
        tr, val = split_synthetic()
        tc = TrainConfig(epochs=5, seed=6, precision="float64")
        report, _ = train(tiny_ss_config(), tc, tr, val)
        assert report.diverged
        assert report.epochs_run == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_no_backward_runs_for_a_non_finite_loss(self, monkeypatch, bad):
        real = SelfSupervisedParams.loss_and_grads
        calls = {"loss": 0, "grads": 0}

        def spoiled(*args):
            loss, grads = real(*args)
            calls["loss"] += 1

            def counted():
                calls["grads"] += 1
                return grads()
            return (np.full_like(loss, bad) if calls["loss"] == 2 else loss,
                    counted)

        monkeypatch.setattr(SelfSupervisedParams, "loss_and_grads", spoiled)
        tr, val = split_synthetic()
        tc = TrainConfig(epochs=5, seed=6, precision="float64")
        report, _ = train(tiny_ss_config(), tc, tr, val)
        assert report.diverged and report.epochs_run == 2
        assert np.isnan(report.val_rmse[-1])
        assert_array_equal(report.train_loss[-1], bad)
        assert calls == {"loss": 2, "grads": 1}

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
        with pytest.raises(ValueError, match="mask probability"):
            replace(tiny_ss_config(), mask_prob=0.0)

    @pytest.mark.parametrize("arch", ["self-supervised", "fea"])
    def test_full_batch_fit_groups_each_fixed_index_set_once(
            self, arch, monkeypatch):
        """The training matrix stays fixed over the epochs, and
        validation reads it as the context and groups no set of its own
        cells; each grouping of the matrix is computed once per fit, not
        once per epoch."""
        tr, val = split_synthetic()
        mc = tiny_ss_config() if arch == "self-supervised" \
            else tiny_fea_config()
        x = encode_onehot(tr)
        fixed_sets = {x.indices.tobytes()}
        calls = []
        real = sparse.axis_groups

        def counted(t, fixed_axes):
            calls.append((t.indices.tobytes(), tuple(fixed_axes)))
            return real(t, fixed_axes)

        monkeypatch.setattr(sparse, "axis_groups", counted)
        train(mc, TrainConfig(epochs=3, patience=5), tr, val)
        assert sorted(calls) == sorted(
            (cells, axes) for cells in fixed_sets
            for axes in [(), (0,), (1,)]
        )

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

    def test_tied_model_keeps_one_shared_float32_array(self):
        """The cast and every optimizer step go through the array names,
        under which a tied layer's row and column blocks are one array."""
        tr, val = split_synthetic(seed=5)
        rng = np.random.default_rng(3)
        tied = SelfSupervisedParams(tuple(
            random_layer_params(2, k, o, rng, nonlinearity=nl, tied=True)
            for k, o, nl in ((3, 4, "leaky_relu"), (4, 3, "softmax"))
        ))
        report, params = train(tiny_ss_config(), TrainConfig(epochs=2, seed=1),
                               tr, val, initial_params=tied)
        assert report.epochs_run == 2 and report.best_epoch >= 1
        for before, after in zip(tied.layers, params.layers):
            row, col = after.blocks[frozenset({0})], after.blocks[frozenset({1})]
            assert after.tied and row is col
            assert row.dtype == np.float32
            assert not np.array_equal(row, before.blocks[frozenset({0})])


class TestEvaluate:
    @pytest.mark.parametrize("config", [tiny_ss_config(), tiny_fea_config()],
                             ids=["ss", "fea"])
    def test_empty_query_table_rejected(self, config):
        tr, val = split_synthetic()
        with pytest.raises(ValueError, match="query table is empty"):
            evaluate(config, init_params(config), tr, val.subset([]))

    @pytest.mark.parametrize("config", [tiny_ss_config(), tiny_fea_config()],
                             ids=["ss", "fea"])
    def test_empty_observed_table_rejected(self, config):
        tr, val = split_synthetic()
        with pytest.raises(ValueError, match="observed table is empty"):
            evaluate(config, init_params(config), tr.subset([]), val)

    @pytest.mark.parametrize("config", [tiny_ss_config(), tiny_fea_config()],
                             ids=["ss", "fea"])
    def test_query_table_on_another_scale_rejected(self, config):
        """Predictions are on the observed table's scale; the same cells
        doubled onto (2, 4, 6) would be scored against other levels."""
        tr, val = split_synthetic()
        doubled = replace(val, ratings=2 * val.ratings,
                          scale=RatingScale((2, 4, 6)))
        with pytest.raises(ValueError, match=(
                r"query table's rating scale \(2.0, 4.0, 6.0\) is not the "
                r"observed table's \(1.0, 2.0, 3.0\)")):
            evaluate(config, init_params(config), tr, doubled)

    def test_overlapping_query_rejected(self):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        params = init_params(mc, seed=0)
        with pytest.raises(ValueError, match="already observed"):
            evaluate(mc, params, tr, tr)

    @pytest.mark.parametrize("obs_dims, query_dims",
                             [((50, 60), (20, 30)), ((20, 30), (50, 60))])
    def test_query_table_of_another_matrix_rejected(self, obs_dims,
                                                    query_dims):
        obs, _ = split_synthetic(n_rows=obs_dims[0], n_cols=obs_dims[1])
        _, query = split_synthetic(n_rows=query_dims[0], n_cols=query_dims[1])
        mc = tiny_ss_config()
        with pytest.raises(ValueError, match=(
                rf"query table \({query_dims[0]}x{query_dims[1]}\) .* "
                rf"\({obs_dims[0]}x{obs_dims[1]}\)")):
            evaluate(mc, init_params(mc, seed=0), obs, query)

    def test_query_table_with_other_item_ids_rejected(self):
        tr, val = split_synthetic()
        relabeled = replace(val, items=tuple(f"other-{i}" for i in val.items))
        mc = tiny_ss_config()
        with pytest.raises(ValueError, match=r"\(12x10\) is not over"):
            evaluate(mc, init_params(mc, seed=0), tr, relabeled)

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

    @pytest.mark.parametrize("budget", [2.5, float("nan"), float("inf"), "3",
                                        True])
    def test_non_integer_cell_budget_rejected(self, budget):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        with pytest.raises(TypeError, match="cell budget must be an integer"):
            evaluate(mc, init_params(mc), tr, val, cell_budget=budget)

    @pytest.mark.parametrize("budget", [0, -2])
    def test_cell_budget_below_one_rejected(self, budget):
        tr, val = split_synthetic()
        mc = tiny_ss_config()
        with pytest.raises(ValueError, match="cell budget must be at least 1"):
            evaluate(mc, init_params(mc), tr, val, cell_budget=budget)

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
            9, 11, observed_fraction=0.6, seed=99, scale=scale
        )
        obs_b, query_b = canonical_split(table_b, "random", fraction=0.3,
                                         seed=0)
        report = evaluate(mc, params, obs_b, query_b)
        assert np.isfinite(report.rmse)


def dropout_config(config):
    """The tiny config with channel dropout after layer 1, so each epoch
    also draws a dropout mask from the loop's generator."""
    return replace(config, dropout_rate=0.5, dropout_placement=frozenset({1}))


class TestOverlappedValidation:
    """A fit validates epoch e while epoch e+1 steps, on a worker thread
    for a minibatch, and keeps its parameters in one flat buffer; the fit
    must equal the sequential per-array loop of ``helpers`` bit for bit."""

    @staticmethod
    def minibatch(**kw):
        base = dict(epochs=8, learning_rate=0.1, seed=7, patience=50,
                    cell_budget=25, precision="float64")
        return TrainConfig(**{**base, **kw})

    @pytest.mark.parametrize("early", [True, False],
                             ids=["early-stopped", "full-length"])
    @pytest.mark.parametrize("sampler", ["full-batch", "uniform", "conditional"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ["self-supervised", "fea"])
    def test_matches_the_sequential_loop_bit_for_bit(
            self, arch, precision, sampler, early):
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        mc = dropout_config(tiny_ss_config() if arch == "self-supervised"
                            else tiny_fea_config())
        full = sampler == "full-batch"
        tc = self.minibatch(sampler="uniform" if full else sampler,
                            cell_budget=10**6 if full else 25,
                            precision=precision, patience=1 if early else 50)
        report, params = train(mc, tc, tr, val)
        want, want_params = sequential_train(mc, tc, tr, val)
        assert report.stopped_early == early == want["stopped_early"]
        for name, value in want.items():
            assert getattr(report, name) == value, name
        got, ref = named_arrays(params), named_arrays(want_params)
        assert got.keys() == ref.keys()
        for name in ref:
            assert_bitwise_equal(got[name], ref[name])
        ev, ev_ref = evaluate(mc, params, tr, val), evaluate(mc, want_params, tr, val)
        assert_bitwise_equal(ev.predictions, ev_ref.predictions)

    @pytest.mark.parametrize("arch", ["self-supervised", "fea"])
    def test_matches_the_sequential_loop_under_rapid_thread_switching(
            self, arch):
        """With the interpreter switching threads every microsecond, the
        step and the validation interleave finely; a cache filled by both
        threads, or parameters changed under the worker, would show."""
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        mc = tiny_ss_config() if arch == "self-supervised" \
            else tiny_fea_config()
        tc = self.minibatch(epochs=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report, params = train(mc, tc, tr, val)
        finally:
            sys.setswitchinterval(interval)
        want, want_params = sequential_train(mc, tc, tr, val)
        assert (report.train_loss, report.val_rmse) == \
            (want["train_loss"], want["val_rmse"])
        for name, ref in named_arrays(want_params).items():
            assert_bitwise_equal(named_arrays(params)[name], ref)

    def stop_at_epoch_2(self, monkeypatch, spoil, full_batch=False):
        """A fit whose validation stops it at epoch 2 (zero learning rate,
        patience 1), with ``spoil(call, loss)`` applied to each step's
        loss."""
        real = SelfSupervisedParams.loss_and_grads
        calls = []

        def spoiled(*args):
            calls.append(None)
            loss, grads = real(*args)
            return spoil(len(calls), loss), grads

        monkeypatch.setattr(SelfSupervisedParams, "loss_and_grads", spoiled)
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        tc = self.minibatch(learning_rate=0.0, patience=1,
                            cell_budget=10**6 if full_batch else 25)
        return train(tiny_ss_config(), tc, tr, val)[0], len(calls)

    @pytest.mark.parametrize("full_batch", [False, True])
    def test_a_step_after_the_stopping_epoch_does_not_surface(
            self, monkeypatch, full_batch):
        def raise_at_3(call, loss):
            if call == 3:
                raise RuntimeError("step 3 failed")
            return loss

        def diverge_at_3(call, loss):
            return np.full_like(loss, np.nan) if call == 3 else loss

        for spoil in (raise_at_3, diverge_at_3):
            report, steps = self.stop_at_epoch_2(monkeypatch, spoil,
                                                 full_batch)
            assert steps == 3
            assert report.epochs_run == 2
            assert report.stopped_early and not report.diverged
            assert all(np.isfinite(report.train_loss + report.val_rmse))

    def test_a_step_before_the_stopping_epoch_surfaces(self, monkeypatch):
        def raise_at_2(call, loss):
            if call == 2:
                raise RuntimeError("step 2 failed")
            return loss

        with pytest.raises(RuntimeError, match="step 2 failed"):
            self.stop_at_epoch_2(monkeypatch, raise_at_2)

    def test_a_failing_validation_surfaces(self, monkeypatch):
        real = training._predict_at
        calls = []

        def fail_second(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("validation 2 failed")
            return real(*args)

        monkeypatch.setattr(training, "_predict_at", fail_second)
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        before = threading.active_count()
        with pytest.raises(ValueError, match="validation 2 failed"):
            train(tiny_fea_config(), self.minibatch(), tr, val)
        assert threading.active_count() == before

    @pytest.mark.parametrize("full_batch", [False, True])
    def test_only_a_minibatch_fit_validates_off_the_main_thread(
            self, full_batch, monkeypatch):
        real = training._predict_at
        threads = []

        def recorded(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(training, "_predict_at", recorded)
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        tc = self.minibatch(epochs=4, cell_budget=10**6 if full_batch else 25)
        before = threading.active_count()
        report, _ = train(tiny_ss_config(), tc, tr, val)
        assert threading.active_count() == before
        assert len(threads) == report.epochs_run == 4
        main = threading.get_ident()
        assert all((t == main) == full_batch for t in threads)

    @pytest.mark.parametrize("arch", ["self-supervised", "fea"])
    def test_the_worker_builds_no_pool_operator(self, arch, monkeypatch):
        """The training matrix's pool operators are built before the
        worker thread validates on them, so the worker only reads them."""
        real = sparse.sp.csr_array
        threads = []

        def recorded(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(sparse.sp, "csr_array", recorded)
        tr, val = split_synthetic(seed=3, n_rows=16, n_cols=14)
        mc = tiny_ss_config() if arch == "self-supervised" \
            else tiny_fea_config()
        train(mc, self.minibatch(epochs=4, cell_budget=25), tr, val)
        assert threads and set(threads) == {threading.get_ident()}
