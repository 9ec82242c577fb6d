"""Self-supervised stack and factorized autoencoder behaviour."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exchtensor import autodiff, layers, models, sparse, training
from exchtensor.data import (
    FIVE_STAR, RatingScale, canonical_split, synthetic_lowrank_table,
)
from exchtensor.layers import (
    ExchLayerParams, FactorPair, pooling_groups, train_stack,
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
    predict_ratings,
    self_supervised_forward,
    union_with_zeros,
    with_named_arrays,
)
from exchtensor.sparse import PermutationSpec, apply_permutation
from exchtensor.training import TrainConfig, evaluate, train

from helpers import assert_bitwise_equal, random_dense, random_sparse


def small_ss_config(**overrides):
    base = dict(
        architecture="self-supervised",
        levels=5,
        widths=(6, 5),
        nonlinearity="leaky_relu",
        dropout_rate=0.5,
        dropout_placement=frozenset({1}),
        mask_prob=0.15,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_fea_config(**overrides):
    base = dict(
        architecture="fea",
        levels=5,
        encoder_widths=(4, 3),
        decoder_widths=(4, 5),
        nonlinearity="leaky_relu",
        dropout_rate=0.5,
        dropout_placement=frozenset({1}),
        mask_prob=0.0,
        factor_size=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def zero_stack(stack, bias_value=0.0):
    """Same shapes and nonlinearities, all weights zeroed."""
    out = []
    for lp in stack:
        out.append(
            ExchLayerParams(
                blocks={S: np.zeros_like(B) for S, B in lp.blocks.items()},
                bias=np.full_like(lp.bias, bias_value),
                nonlinearity=lp.nonlinearity,
                slope=lp.slope,
                tied=lp.tied,
            )
        )
    return tuple(out)


class TestModelConfig:
    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelConfig(architecture="transformer", widths=(5,))

    def test_final_width_must_match_levels(self):
        with pytest.raises(ValueError, match="level count"):
            small_ss_config(widths=(6, 4))

    def test_encoder_must_end_at_factor_size(self):
        with pytest.raises(ValueError, match="factor size"):
            small_fea_config(encoder_widths=(4, 7))

    def test_dropout_placement_bounded_by_depth(self):
        with pytest.raises(ValueError, match="placement"):
            small_ss_config(dropout_placement=frozenset({3}))

    def test_hidden_softmax_layers_refuse_dropout(self):
        """A softmax layer takes no dropout mask, so a hidden one with
        dropout is refused here, not in a fit's first epoch.  The last
        layer trains as logits and keeps its dropout; no rate, no mask."""
        with pytest.raises(ValueError, match="hidden softmax layer"):
            small_ss_config(widths=(8, 8, 5), nonlinearity="softmax",
                            dropout_placement=frozenset({1}), mask_prob=0.5)
        with pytest.raises(ValueError, match="hidden softmax layer"):
            small_fea_config(nonlinearity="softmax")
        for config in (
                small_ss_config(widths=(8, 8, 5), nonlinearity="softmax",
                                dropout_placement=frozenset({3})),
                small_ss_config(widths=(8, 8, 5), nonlinearity="softmax",
                                dropout_rate=0.0,
                                dropout_placement=frozenset({1, 2})),
                small_fea_config(nonlinearity="softmax",
                                 dropout_placement=frozenset({2}))):
            table = synthetic_lowrank_table(6, 7, observed_fraction=0.6, seed=1)
            tr, val = canonical_split(table, "random", fraction=0.2, seed=0)
            report, _ = train(config, TrainConfig(epochs=2, seed=0), tr, val)
            assert np.isfinite(report.train_loss).all()

    def test_mask_probability_bounds(self):
        with pytest.raises(ValueError, match="mask probability"):
            small_ss_config(mask_prob=1.0)

    def test_self_supervised_refuses_no_masking(self):
        """Its loss reads only masked cells: refused before any fit."""
        with pytest.raises(ValueError, match="mask probability above 0"):
            small_ss_config(mask_prob=0.0)
        assert small_fea_config(mask_prob=0.0).mask_prob == 0.0

    @pytest.mark.parametrize("field, value", [
        ("widths", (0, 5)), ("widths", (6, -1, 5)),
        ("encoder_widths", (-1, 3)), ("decoder_widths", (0, 5)),
        ("factor_size", 0), ("factor_size", -2),
    ])
    def test_refuses_widths_below_one(self, field, value):
        make = small_ss_config if field == "widths" else small_fea_config
        with pytest.raises(ValueError, match="at least 1"):
            make(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("levels", 5.0), ("factor_size", 2.5), ("factor_size", float("nan")),
        ("factor_size", None), ("widths", (4.5, 5)), ("widths", (6, "5")),
        ("encoder_widths", (4, 3.0)), ("decoder_widths", (float("inf"), 5)),
        ("levels", True), ("factor_size", True), ("widths", (6, True)),
        ("encoder_widths", (True, 3)), ("decoder_widths", (4, False)),
    ])
    def test_refuses_non_integer_counts(self, field, value):
        """A float count would construct, train and then fail to save
        (NaN) or save as a float (2.5); both models refuse it."""
        make = small_ss_config if field in ("widths", "levels") \
            else small_fea_config
        with pytest.raises(TypeError, match="must be an integer"):
            make(**{field: value})
        if field == "factor_size":
            with pytest.raises(TypeError, match="must be an integer"):
                small_ss_config(factor_size=value)

    def test_numpy_integer_counts_pass(self):
        cfg = small_fea_config(levels=np.int64(5), factor_size=np.int32(3),
                               encoder_widths=(np.int64(4), 3),
                               decoder_widths=(4, np.uint8(5)))
        assert cfg.stacks["decoder"][0] == 6
        assert small_ss_config(widths=(np.int16(6), 5)).widths == (6, 5)

    def test_self_supervised_default_shape(self):
        """Nine layers at 256 channels, dropout after the first seven."""
        cfg = ModelConfig.self_supervised_default()
        assert len(cfg.widths) == 9
        assert cfg.widths[:8] == (256,) * 8
        assert cfg.widths[-1] == 5
        assert cfg.dropout_placement == frozenset(range(1, 8))
        assert cfg.mask_prob == 0.15

    def test_fea_default_shape(self):
        cfg = ModelConfig.fea_default()
        assert cfg.encoder_widths == (220, 220, 100)
        assert len(cfg.decoder_widths) == 5
        assert cfg.decoder_widths[-1] == 5
        assert cfg.factor_size == 100
        assert cfg.dropout_placement == frozenset({3, 4})


class TestUnionWithZeros:
    def test_new_cells_carry_zero_channels(self):
        rng = np.random.default_rng(5)
        t = random_sparse((4, 4), 2, 5, rng)
        extra = np.array([[3, 3], [0, 0]])
        grown = union_with_zeros(t, extra)
        seen = {tuple(ix): v for ix, v in
                zip(grown.indices.tolist(), grown.values)}
        assert len(seen) >= 6
        for cell in [(3, 3), (0, 0)]:
            if cell not in {tuple(ix) for ix in t.indices.tolist()}:
                assert_array_equal(seen[cell], np.zeros(2))

    def test_existing_cells_keep_their_values(self):
        rng = np.random.default_rng(6)
        t = random_sparse((4, 4), 2, 6, rng)
        grown = union_with_zeros(t, t.indices)
        assert_array_equal(grown.indices, t.indices)
        assert_array_equal(grown.values, t.values)

    def test_float_cells_refused(self):
        """Float cells are refused, not truncated: (1.2, 0.0) would
        otherwise add cell (1, 0)."""
        t = random_sparse((3, 4), 2, 5, np.random.default_rng(7))
        with pytest.raises(TypeError, match="extra indices must be an "
                                            "integer array, got dtype float64"):
            union_with_zeros(t, [[0.5, 1.9], [1.2, 0.0]])

    def test_cells_of_another_rank_refused(self):
        t = random_sparse((3, 4), 2, 5, np.random.default_rng(7))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            union_with_zeros(t, np.zeros((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("cell", [(3, 0), (0, 4), (-1, 2)])
    def test_cells_outside_the_dims_refused(self, cell):
        t = random_sparse((3, 4), 2, 5, np.random.default_rng(7))
        cells = np.array([[0, 0], cell, [5, 5]])
        with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) "
                           r"out of bounds for dims \(3, 4\)"):
            union_with_zeros(t, cells)


class TestInitParams:
    def test_self_supervised_layer_chain(self):
        cfg = small_ss_config()
        params = init_params(cfg, seed=0)
        assert isinstance(params, SelfSupervisedParams)
        assert [lp.channels_in for lp in params.layers] == [5, 6]
        assert [lp.channels_out for lp in params.layers] == [6, 5]
        assert params.layers[0].nonlinearity == "leaky_relu"
        assert params.layers[-1].nonlinearity == "softmax"

    def test_fea_layer_chain(self):
        cfg = small_fea_config()
        params = init_params(cfg, seed=0)
        assert isinstance(params, FeaParams)
        assert [lp.channels_in for lp in params.encoder] == [5, 4]
        assert params.encoder[-1].nonlinearity == "identity"
        # decoder consumes [row factor ; column factor]
        assert params.decoder[0].channels_in == 2 * cfg.factor_size
        assert params.decoder[-1].nonlinearity == "softmax"

    def test_parameter_count_is_a_function_of_config_alone(self):
        cfg = small_fea_config()
        a = count_parameters(init_params(cfg, seed=0))
        b = count_parameters(init_params(cfg, seed=99))
        assert a == b

    def test_parameter_count_formula(self):
        """Each matrix layer carries 4 K x O blocks plus an O bias."""
        cfg = small_ss_config()
        params = init_params(cfg, seed=1)
        want = (4 * 5 * 6 + 6) + (4 * 6 * 5 + 5)
        assert count_parameters(params) == want


class TestSelfSupervisedForward:
    def test_zero_weights_give_the_uniform_distribution(self):
        cfg = small_ss_config()
        params = SelfSupervisedParams(
            zero_stack(init_params(cfg, 0).layers)
        )
        rng = np.random.default_rng(7)
        x = random_sparse((5, 5), 5, 12, rng)
        out = self_supervised_forward(x, cfg, params)
        assert_allclose(out.values, np.full((12, 5), 0.2))

    def test_outputs_are_distributions(self):
        cfg = small_ss_config()
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(8)
        x = random_sparse((5, 5), 5, 14, rng)
        out = self_supervised_forward(x, cfg, params)
        assert_allclose(out.values.sum(axis=1), np.ones(14), atol=1e-6)
        assert (out.values >= 0).all()

    def test_eval_mode_is_deterministic(self):
        cfg = small_ss_config()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(9)
        x = random_sparse((6, 4), 5, 10, rng)
        a = self_supervised_forward(x, cfg, params)
        b = self_supervised_forward(x, cfg, params)
        assert_array_equal(a.indices, b.indices)
        assert_array_equal(a.values, b.values)

    def test_pooling_groups_computed_once_per_forward(self, monkeypatch):
        """Every layer pools over the same index set, so a 3-layer stack
        computes each of its three groupings once, not once per layer."""
        calls = []
        real = sparse.axis_groups

        def counted(t, fixed_axes):
            calls.append((t.n_observed, tuple(fixed_axes)))
            return real(t, fixed_axes)

        monkeypatch.setattr(sparse, "axis_groups", counted)
        cfg = small_ss_config(widths=(6, 6, 5))
        params = init_params(cfg, seed=3)
        x = random_sparse((6, 4), 5, 10, np.random.default_rng(9))
        self_supervised_forward(x, cfg, params)
        assert sorted(calls) == [(10, ()), (10, (0,)), (10, (1,))]

    def test_permuting_the_input_permutes_the_output(self):
        """Row/column relabeling commutes with the model in eval mode."""
        cfg = small_ss_config()
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(12)
        x = random_sparse((4, 6), 5, 15, rng)
        spec = PermutationSpec.random(x.dims, rng)
        before = self_supervised_forward(x, cfg, params)
        after = self_supervised_forward(apply_permutation(x, spec), cfg, params)
        want = apply_permutation(before, spec)
        assert_array_equal(after.indices, want.indices)
        assert_allclose(after.values, want.values, rtol=0, atol=1e-10)

    def test_wrong_channel_count_rejected(self):
        cfg = small_ss_config()
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(13)
        x = random_sparse((4, 4), 3, 6, rng)
        with pytest.raises(ValueError, match="channels"):
            self_supervised_forward(x, cfg, params)

    def test_mismatched_params_rejected(self):
        cfg = small_ss_config()
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(14)
        x = random_sparse((4, 4), 5, 6, rng)
        deeper = small_ss_config(widths=(6, 6, 5))
        with pytest.raises(ValueError, match="layers"):
            self_supervised_forward(x, deeper, params)


class TestFeaEncode:
    def test_factor_table_shapes_cover_every_row_and_column(self):
        """A ratings-matrix-shaped input yields 943 x K and 1682 x K."""
        cfg = small_fea_config()
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(15)
        x = random_sparse((943, 1682), 5, 300, rng)
        f = fea_encode(x, cfg, params)
        assert f.z_rows.shape == (943, 3)
        assert f.z_cols.shape == (1682, 3)

    def test_zero_weights_give_identical_factors_everywhere(self):
        """With no weights the encoder sees only biases, which cannot
        distinguish one row from another."""
        cfg = small_fea_config()
        params = FeaParams(
            zero_stack(init_params(cfg, 0).encoder, bias_value=0.3),
            init_params(cfg, 0).decoder,
        )
        rng = np.random.default_rng(16)
        x = random_dense((4, 5), 5, rng)
        f = fea_encode(x, cfg, params)
        assert_allclose(f.z_rows, np.tile(f.z_rows[0], (4, 1)))
        assert_allclose(f.z_cols, np.tile(f.z_cols[0], (5, 1)))

    def test_row_permutation_moves_row_factors_only(self):
        cfg = small_fea_config()
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(17)
        x = random_dense((5, 4), 5, rng)
        row_perm = rng.permutation(5)
        spec = PermutationSpec((row_perm, np.arange(4)))
        f = fea_encode(x, cfg, params)
        g = fea_encode(apply_permutation(x, spec), cfg, params)
        assert_allclose(g.z_rows[row_perm], f.z_rows, atol=1e-10)
        assert_allclose(g.z_cols, f.z_cols, atol=1e-10)


class TestFeaDecode:
    def test_outputs_are_distributions(self):
        cfg = small_fea_config()
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(18)
        x = random_dense((4, 5), 5, rng)
        out = fea_decode(fea_encode(x, cfg, params), x.indices, cfg, params)
        assert_allclose(out.values.sum(axis=1), np.ones(20), atol=1e-6)

    def test_single_cell_decode_is_deterministic(self):
        cfg = small_fea_config()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(19)
        x = random_dense((4, 5), 5, rng)
        f = fea_encode(x, cfg, params)
        one = np.array([[2, 3]])
        a = fea_decode(f, one, cfg, params)
        b = fea_decode(f, one, cfg, params)
        assert_array_equal(a.indices, b.indices)
        assert_array_equal(a.values, b.values)
        assert a.indices.shape == (1, 2)

    def test_cold_target_rejected_without_imputation(self):
        cfg = small_fea_config()
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(20)
        # row 3 of a 4-row matrix never observed
        t = random_sparse((4, 4), 5, 8, rng)
        keep = t.indices[:, 0] != 3
        from exchtensor.sparse import SparseExchangeableTensor
        x = SparseExchangeableTensor(
            (4, 4), t.indices[keep], t.values[keep]
        )
        f = fea_encode(x, cfg, params)
        target = np.array([[3, 0]])
        with pytest.raises(ValueError, match="cold"):
            fea_decode(f, target, cfg, params)
        out = fea_decode(f, target, cfg, params, imputation=True)
        assert_allclose(out.values.sum(axis=1), [1.0], atol=1e-6)

    def test_joint_permutation_of_factors_and_targets(self):
        """Relabeling factor rows/cols and the target cells the same way
        relabels the decoded distributions."""
        cfg = small_fea_config()
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(21)
        x = random_dense((4, 5), 5, rng)
        f = fea_encode(x, cfg, params)
        spec = PermutationSpec.random((4, 5), rng)
        rp, cp = spec.maps
        inv_r, inv_c = np.argsort(rp), np.argsort(cp)
        g = FactorPair(
            f.z_rows[inv_r], f.z_cols[inv_c],
            f.row_observed[inv_r], f.col_observed[inv_c],
        )
        before = fea_decode(f, x.indices, cfg, params)
        after = fea_decode(
            g, apply_permutation(x, spec).indices, cfg, params
        )
        want = apply_permutation(before, spec)
        assert_array_equal(after.indices, want.indices)
        assert_allclose(after.values, want.values, rtol=0, atol=1e-10)


class TestPredictRatings:
    def test_point_mass_returns_its_level(self):
        p = np.array([[0.0, 0.0, 0.0, 1.0, 0.0]])
        assert_allclose(predict_ratings(p, FIVE_STAR), [4.0])

    def test_uniform_returns_the_midpoint(self):
        p = np.full((1, 5), 0.2)
        assert_allclose(predict_ratings(p, FIVE_STAR), [3.0])

    def test_split_mass_averages(self):
        """Half the mass on 1 and half on 5 averages to 3."""
        p = np.array([[0.5, 0.0, 0.0, 0.0, 0.5]])
        assert_allclose(predict_ratings(p, FIVE_STAR), [3.0])

    def test_non_normalized_rejected(self):
        p = np.array([[0.5, 0.0, 0.0, 0.0, 0.3]])
        with pytest.raises(ValueError, match="not normalized"):
            predict_ratings(p, FIVE_STAR)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="distributions must be"):
            predict_ratings(np.ones((2, 3)) / 3, FIVE_STAR)


class TestInductivity:
    def test_one_parameter_set_serves_any_matrix_shape(self):
        """Factors for a 30 x 40 matrix come from parameters fitted with
        nothing larger than 4 x 5 in sight."""
        cfg = small_fea_config()
        params = init_params(cfg, seed=8)
        rng = np.random.default_rng(23)
        small = random_dense((4, 5), 5, rng)
        large = random_sparse((30, 40), 5, 100, rng)
        fea_decode(fea_encode(small, cfg, params), small.indices, cfg, params)
        f = fea_encode(large, cfg, params)
        out = fea_decode(f, large.indices, cfg, params, imputation=True)
        assert out.values.shape == (100, 5)


class TestMatrixModelsRefuseTensors:
    """A model's layers are matrix layers: a 3-axis tensor is refused
    with the layer's own message, not pooled over the wrong axes."""

    @staticmethod
    def tensor():
        rng = np.random.default_rng(4)
        idx = np.argwhere(np.ones((4, 3, 2), dtype=bool))
        return sparse.SparseExchangeableTensor(
            (4, 3, 2), idx, np.eye(5)[rng.integers(0, 5, size=len(idx))])

    @pytest.mark.parametrize("cfg", [small_ss_config(), small_fea_config()],
                             ids=["ss", "fea"])
    def test_loss_and_grads_and_prepare(self, cfg):
        params = init_params(cfg, seed=0)
        t = self.tensor()
        with pytest.raises(ValueError,
                           match="params cover 2 axes, tensor has 3"):
            params.loss_and_grads(cfg, t, {}, seed=0)
        with pytest.raises(ValueError,
                           match="params cover 2 axes, tensor has 3"):
            params.prepare(cfg, t)

    def test_train_stack_and_apply_stack(self):
        t = self.tensor()
        lp = layers.random_layer_params(2, 5, 4, np.random.default_rng(0))
        with pytest.raises(ValueError,
                           match="params cover 2 axes, tensor has 3"):
            train_stack(t.values, pooling_groups(t), [lp])
        for read in (None, lambda lp, means: means):
            with pytest.raises(ValueError,
                               match="params cover 2 axes, tensor has 3"):
                layers.apply_stack(t, [lp], read)


def tape_layer(t, params):
    """A layer run on its own training tape, with no one-hot read and no
    kept means, as inference ran each layer as a one-node graph before it
    called the layer op directly."""
    (entry,) = train_stack(t.values, pooling_groups(t), [params])
    return t.with_values(entry[2])


def tape_stack_by_layer(t, stack, read=None):
    """``layers.apply_stack`` run as one tape per layer (``tape_layer``);
    with ``read``, what it returns for each layer and the group means of
    the layer's input, pooled afresh."""
    groups = pooling_groups(t)
    pooled = [groups[S] for S in layers.all_subsets(t.ndim)[1:]]
    kept = []
    for lp in stack:
        if read is not None:
            kept.append(read(lp, autodiff.pooled_means(t.values, pooled)))
        t = tape_layer(t, lp)
    return t if read is None else kept


class TestInferenceBuildsNoGraph:
    """The eval-mode forwards build no Graph and no tape, and give the
    values of one-layer training tapes bit for bit."""

    @staticmethod
    def outputs(dtype):
        table = synthetic_lowrank_table(12, 10, 0.5, seed=4)
        context, query = canonical_split(table, "random", fraction=0.3, seed=1)
        x = union_with_zeros(
            random_sparse((12, 10), 5, 40, np.random.default_rng(2)),
            query.indices())
        out = []
        for cfg in (small_ss_config(widths=(6, 6, 5)), small_fea_config()):
            params = init_params(cfg, seed=3)
            params = with_named_arrays(params, {
                k: v.astype(dtype) for k, v in named_arrays(params).items()})
            if cfg.architecture == "self-supervised":
                out.append(self_supervised_forward(x, cfg, params).values)
            else:
                factors = fea_encode(x, cfg, params)
                out += [factors.z_rows, factors.z_cols,
                        fea_decode(factors, query.indices(), cfg, params).values]
            out.append(evaluate(cfg, params, context, query).predictions)
            out.append(evaluate(cfg, params, context, query,
                                cell_budget=7).predictions)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_of_per_layer_tapes_without_a_graph(self, monkeypatch,
                                                       dtype):
        # the reference runs every eval-mode forward and context pass of
        # ``models`` as one-layer tapes; an empty memo skips none of them
        monkeypatch.setattr(models, "apply_stack", tape_stack_by_layer)
        monkeypatch.setattr(training, "_memo", [])
        want = self.outputs(dtype)
        monkeypatch.undo()

        def no_graph(*args):
            raise AssertionError("inference built a Graph or a tape")

        monkeypatch.setattr(autodiff.Graph, "__init__", no_graph)
        monkeypatch.setattr(models, "train_stack", no_graph)
        monkeypatch.setattr(training, "_memo", [])
        got = self.outputs(dtype)
        assert len(got) == len(want) == 8
        for a, b in zip(got, want):
            assert_bitwise_equal(a, b)
