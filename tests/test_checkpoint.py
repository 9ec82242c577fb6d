"""Checkpoint container: layout, round trips, failure modes."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from exchtensor.checkpoint import (
    MAGIC,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from exchtensor.data import FIVE_STAR, RatingScale, encode_onehot, synthetic_lowrank_table
from exchtensor.layers import ExchLayerParams, random_layer_params
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
from exchtensor.training import build_fea_loss_graph, build_ss_loss_graph

from helpers import fill_array, rewrite_header


def header_of(path):
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:16 + header_len])


def tie(layer):
    """The layer with its column-pool block replaced by its row-pool one."""
    row = layer.blocks[frozenset({0})]
    return replace(layer, blocks={**layer.blocks, frozenset({1}): row},
                   tied=True)


def small_ss():
    config = ModelConfig(architecture="self-supervised", levels=5,
                         widths=(8, 5), mask_prob=0.2)
    params = init_params(config, seed=0)
    return config, params


def small_fea():
    config = ModelConfig(architecture="fea", levels=5,
                         encoder_widths=(8, 4), decoder_widths=(8, 5),
                         factor_size=4, mask_prob=0.0)
    params = init_params(config, seed=0)
    return config, params


class TestRoundTrip:
    def test_self_supervised_arrays_bit_identical(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR, {"note": "t"})
        ck = load_checkpoint(path)
        assert ck.config == config
        assert ck.scale == FIVE_STAR
        assert ck.metadata == {"note": "t"}
        for a, b in zip(params.layers, ck.params.layers):
            for S in a.blocks:
                assert a.blocks[S].tobytes() == b.blocks[S].tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
            assert (a.nonlinearity, a.slope, a.tied) == (
                b.nonlinearity, b.slope, b.tied)

    def test_fea_round_trip_preserves_both_stacks(self, tmp_path):
        config, params = small_fea()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        ck = load_checkpoint(path)
        assert isinstance(ck.params, FeaParams)
        assert len(ck.params.encoder) == 2 and len(ck.params.decoder) == 2
        for a, b in zip(params.encoder + params.decoder,
                        ck.params.encoder + ck.params.decoder):
            for S in a.blocks:
                assert_array_equal(a.blocks[S], b.blocks[S])

    def test_save_load_save_gives_identical_bytes(self, tmp_path):
        config, params = small_fea()
        p1, p2 = tmp_path / "a.exchk", tmp_path / "b.exchk"
        save_checkpoint(p1, config, params, FIVE_STAR, {"k": 1})
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.config, ck.params, ck.scale, ck.metadata)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        config, params = small_ss()
        t = encode_onehot(synthetic_lowrank_table(6, 7, observed_fraction=0.5,
                                                  seed=3))
        before = self_supervised_forward(t, config, params)
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        ck = load_checkpoint(path)
        after = self_supervised_forward(t, ck.config, ck.params)
        assert_array_equal(before.values, after.values)

    def test_fea_decode_identical_after_reload(self, tmp_path):
        config, params = small_fea()
        t = encode_onehot(synthetic_lowrank_table(6, 7, observed_fraction=0.5,
                                                  seed=4))
        factors = fea_encode(t, config, params)
        before = fea_decode(factors, t.indices, config, params)
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        ck = load_checkpoint(path)
        after = fea_decode(fea_encode(t, ck.config, ck.params), t.indices,
                           ck.config, ck.params)
        assert_array_equal(before.values, after.values)

    def test_non_integer_scale_round_trips(self, tmp_path):
        scale = RatingScale((0.5, 1.0, 1.5, 2.0, 2.5))
        config = ModelConfig(architecture="self-supervised",
                             levels=scale.n_levels,
                             widths=(6, scale.n_levels), mask_prob=0.2)
        params = init_params(config, seed=1)
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, scale)
        assert load_checkpoint(path).scale.levels == scale.levels


class TestTiedLayers:
    def test_tied_blocks_stay_one_shared_array(self, tmp_path):
        """The square-matrix variant keeps row/col pools as one array."""
        layer = random_layer_params(2, 4, 4, np.random.default_rng(0),
                                    nonlinearity="softmax", tied=True)
        config = ModelConfig(architecture="self-supervised", levels=4,
                             widths=(4,), mask_prob=0.2)
        params = SelfSupervisedParams(layers=(layer,))
        path = tmp_path / "tied.exchk"
        save_checkpoint(path, config, params, RatingScale.integer(1, 4))
        loaded = load_checkpoint(path).params.layers[0]
        assert loaded.tied
        assert loaded.blocks[frozenset({0})] is loaded.blocks[frozenset({1})]

    def test_tied_array_stored_once(self, tmp_path):
        layer = random_layer_params(2, 4, 4, np.random.default_rng(0),
                                    nonlinearity="softmax", tied=True)
        config = ModelConfig(architecture="self-supervised", levels=4,
                             widths=(4,), mask_prob=0.2)
        path = tmp_path / "tied.exchk"
        save_checkpoint(path, config, SelfSupervisedParams(layers=(layer,)),
                        RatingScale.integer(1, 4))
        names = {e["name"] for e in header_of(path)["arrays"]}
        # w01, one shared pool block, wg, bias
        assert len(names) == 4


class TestArrayNames:
    @pytest.mark.parametrize("arch", ["self-supervised", "fea"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_gradients_are_the_checkpoint_arrays(self, tmp_path, arch,
                                                  tied):
        config, params = small_ss() if arch == "self-supervised" \
            else small_fea()
        if tied:
            params = type(params)(**{
                field: tuple(tie(lp) for lp in getattr(params, field))
                for field in params.STACKS
            })
        x = encode_onehot(synthetic_lowrank_table(6, 7, observed_fraction=0.5,
                                                  seed=3))
        if arch == "self-supervised":
            _, grads = build_ss_loss_graph(x, params.layers, x.values,
                                           np.ones(x.n_observed))
        else:
            _, grads = build_fea_loss_graph(x, params.encoder, params.decoder,
                                            x.values)
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        stored = {e["name"] for e in header_of(path)["arrays"]}
        assert set(grads()) == stored == set(named_arrays(params))

    def test_untied_layer_with_one_array_twice_round_trips(self, tmp_path):
        """Sharing is read from ``tied`` alone: an untied layer stores
        both blocks, even when they are the same array object."""
        config, params = small_ss()
        first = params.layers[0]
        row = first.blocks[frozenset({0})]
        aliased = replace(first, blocks={**first.blocks, frozenset({1}): row})
        params = SelfSupervisedParams((aliased, *params.layers[1:]))
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        loaded = load_checkpoint(path).params
        for a, b in zip(params.layers, loaded.layers):
            for S in a.blocks:
                assert_array_equal(a.blocks[S], b.blocks[S])
        assert count_parameters(loaded) == count_parameters(params)


class TestHeader:
    def test_header_is_self_describing_json(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        header_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + header_len])
        assert header["byte_order"] == "little"
        assert header["format_version"] == 1
        for entry in header["arrays"]:
            assert entry["dtype"].startswith("<")
            assert set(entry) == {"name", "dtype", "shape", "offset", "nbytes"}

    def test_payload_offsets_cover_payload_exactly(self, tmp_path):
        config, params = small_fea()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + header_len])
        payload_len = len(raw) - 16 - header_len
        assert sum(e["nbytes"] for e in header["arrays"]) == payload_len


class TestFailureModes:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.exchk"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not an EXCHK001"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.exchk"
        clipped.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(clipped)

    def test_unsupported_version_rejected(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        bad = rewrite_header(path, tmp_path / "bad.exchk",
                             lambda header: header.update(format_version=99))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(bad)

    def test_header_with_mean_pool_mode_loads(self, tmp_path):
        """Older headers name each layer's pool mode; "mean" loads."""
        config, params = small_fea()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)

        def add_pool_mode(header):
            for descriptors in header["stacks"].values():
                for desc in descriptors:
                    desc["pool_mode"] = "mean"

        old = rewrite_header(path, tmp_path / "old.exchk", add_pool_mode)
        a, b = load_checkpoint(path), load_checkpoint(old)
        for la, lb in zip(a.params.encoder + a.params.decoder,
                          b.params.encoder + b.params.decoder):
            for S in la.blocks:
                assert_array_equal(la.blocks[S], lb.blocks[S])
            assert (la.nonlinearity, la.slope, la.tied) == (
                lb.nonlinearity, lb.slope, lb.tied)

    def test_other_pool_mode_rejected(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)

        def max_pool(header):
            header["stacks"]["layers"][1]["pool_mode"] = "max"

        bad = rewrite_header(path, tmp_path / "bad.exchk", max_pool)
        with pytest.raises(ValueError, match="layer2: unsupported pool mode 'max'"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("key", ["stacks", "model_config", "scale", "arrays"])
    def test_missing_header_key_names_it(self, tmp_path, key):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        bad = rewrite_header(path, tmp_path / "bad.exchk",
                             lambda header: header.pop(key))
        with pytest.raises(ValueError, match=f"no '{key}' entry"):
            load_checkpoint(bad)

    def test_missing_model_config_field_names_it(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        bad = rewrite_header(path, tmp_path / "bad.exchk",
                             lambda header: header["model_config"].pop(
                                 "factor_size"))
        with pytest.raises(ValueError, match="no 'factor_size' entry"):
            load_checkpoint(bad)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.exchk"
        path.write_bytes(MAGIC + (2).to_bytes(8, "little") + b"[]")
        with pytest.raises(ValueError, match="header is not a JSON object"):
            load_checkpoint(path)

    def test_byte_count_disagreeing_with_shape_rejected(self, tmp_path):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)

        def shrink(header):
            # one row fewer: the read would stop short of the declared bytes
            entry = next(e for e in header["arrays"]
                         if e["name"] == "layer1.w0")
            entry["shape"][0] -= 1

        bad = rewrite_header(path, tmp_path / "bad.exchk", shrink)
        with pytest.raises(ValueError, match="'layer1.w0' declares"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, message", [
        # a bool is an int to Python and JSON; true would read as byte 1
        (lambda a: a[0].update(offset=True), "malformed array entry"),
        (lambda a: a[0].update(nbytes=float(a[0]["nbytes"])),
         "malformed array entry"),
        (lambda a: a[1].update(offset=a[1]["offset"] - 4), "starts at byte"),
        (lambda a: a[1].update(offset=a[1]["offset"] + 4), "starts at byte"),
    ], ids=["bool-offset", "float-nbytes", "overlap", "gap"])
    def test_array_ranges_must_tile_the_payload(self, tmp_path, edit,
                                                message):
        config, params = small_ss()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        bad = rewrite_header(path, tmp_path / "bad.exchk",
                             lambda header: edit(header["arrays"]))
        with pytest.raises(ValueError, match=message) as caught:
            load_checkpoint(bad)
        assert header_of(path)["arrays"][message == "starts at byte"]["name"] \
            in str(caught.value)

    def test_trailing_payload_bytes_rejected(self, tmp_path):
        config, params = small_fea()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        padded = tmp_path / "padded.exchk"
        padded.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="8 payload bytes after"):
            load_checkpoint(padded)

    def test_nonfinite_metadata_refused(self, tmp_path):
        config, params = small_ss()
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.exchk", config, params, FIVE_STAR,
                            metadata={"best_val_rmse": float("inf")})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_weight_refused_on_save(self, tmp_path, value):
        config, params = small_ss()
        arrays = named_arrays(params)
        arrays["layer1.w01"] = np.full_like(arrays["layer1.w01"], value)
        path = tmp_path / "x.exchk"
        with pytest.raises(ValueError, match="array 'layer1.w01' is not finite"):
            save_checkpoint(path, config, with_named_arrays(params, arrays),
                            FIVE_STAR)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_nonfinite_weight_refused_on_load(self, tmp_path, value):
        config, params = small_fea()
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, params, FIVE_STAR)
        bad = fill_array(path, tmp_path / "bad.exchk", "dec2.bias", value)
        with pytest.raises(ValueError, match="array 'dec2.bias' is not finite"):
            load_checkpoint(bad)

    def test_unknown_params_type_rejected(self, tmp_path):
        config, _ = small_ss()
        with pytest.raises(TypeError, match="cannot checkpoint"):
            save_checkpoint(tmp_path / "x.exchk", config, object(), FIVE_STAR)
