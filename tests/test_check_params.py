"""One check of params against a model config.

``models.check_params`` holds params to the stacks ``ModelConfig``
describes.  Saving, loading, training and the three forwards all apply
it, so params that do not fit their config fail the same way at each,
and every file ``save_checkpoint`` writes loads.
"""

import ast
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

import exchtensor
from exchtensor.checkpoint import load_checkpoint, save_checkpoint
from exchtensor.data import (
    FIVE_STAR, canonical_split, encode_onehot, synthetic_lowrank_table,
)
from exchtensor.models import (
    ModelConfig,
    check_params,
    fea_decode,
    fea_encode,
    init_params,
    self_supervised_forward,
)
from exchtensor.training import TrainConfig, train

from helpers import rewrite_header
from test_acceptance import FEA_CONFIG, SS_CONFIG

CONFIGS = {
    "ss-default": ModelConfig.self_supervised_default(),
    "fea-default": ModelConfig.fea_default(),
    "ss-07": SS_CONFIG,
    "fea-07": FEA_CONFIG,
    "ss-one-layer": ModelConfig("self-supervised", widths=(5,)),
    "fea-one-layer": ModelConfig("fea", encoder_widths=(4,),
                                 decoder_widths=(5,), factor_size=4,
                                 mask_prob=0.0),
}
WIDTH_FIELDS = ("widths", "encoder_widths", "decoder_widths")


@cache
def params_of(name):
    return init_params(CONFIGS[name], seed=1)


def one_width_changes():
    """(config name, changed fields) for each width of each config, one at
    a time.  The encoder's last width moves with factor_size; the last
    stack's last width is the level count, which stays."""
    cases = []
    for name, config in CONFIGS.items():
        for field in WIDTH_FIELDS:
            widths = getattr(config, field)
            for i in range(len(widths)):
                change = {field: widths[:i] + (widths[i] + 1,) + widths[i + 1:]}
                if i == len(widths) - 1:
                    if field != "encoder_widths":
                        continue
                    change["factor_size"] = widths[i] + 1
                cases.append(pytest.param(name, change,
                                          id=f"{name}-{field}{i + 1}"))
    return cases


def small_tables():
    table = synthetic_lowrank_table(6, 7, observed_fraction=0.6, seed=4)
    return canonical_split(table, "random", fraction=0.3, seed=0)


@pytest.mark.parametrize("name", CONFIGS)
def test_fresh_params_pass_and_round_trip(name, tmp_path):
    config, params = CONFIGS[name], params_of(name)
    check_params(config, params)
    save_checkpoint(tmp_path / "m.exchk", config, params, FIVE_STAR)
    assert load_checkpoint(tmp_path / "m.exchk").config == config


@pytest.mark.parametrize("name, change", one_width_changes())
class TestOneWidthChanged:
    def test_save_refuses(self, name, change, tmp_path):
        changed = replace(CONFIGS[name], **change)
        with pytest.raises(ValueError,
                           match="cannot checkpoint.*but model_config says"):
            save_checkpoint(tmp_path / "m.exchk", changed, params_of(name),
                            FIVE_STAR)
        assert not (tmp_path / "m.exchk").exists()

    def test_load_refuses_a_header_with_that_width(self, name, change,
                                                   tmp_path):
        path = tmp_path / "m.exchk"
        save_checkpoint(path, CONFIGS[name], params_of(name), FIVE_STAR)
        bad = rewrite_header(path, tmp_path / "bad.exchk",
                             lambda h: h["model_config"].update(change))
        with pytest.raises(ValueError,
                           match="bad.exchk: .*but model_config says"):
            load_checkpoint(bad)

    def test_forwards_refuse(self, name, change):
        config, params = CONFIGS[name], params_of(name)
        changed = replace(config, **change)
        x = encode_onehot(small_tables()[0])
        if config.architecture == "self-supervised":
            with pytest.raises(ValueError, match="but model_config says"):
                self_supervised_forward(x, changed, params)
            return
        with pytest.raises(ValueError, match="but model_config says"):
            fea_encode(x, changed, params)
        factors = fea_encode(x, config, params)
        with pytest.raises(ValueError, match="but model_config says"):
            fea_decode(factors, x.indices, changed, params)

    def test_train_refuses_initial_params(self, name, change):
        train_table, val_table = small_tables()
        with pytest.raises(ValueError, match="but model_config says"):
            train(replace(CONFIGS[name], **change), TrainConfig(epochs=1),
                  train_table, val_table, initial_params=params_of(name))


@pytest.mark.parametrize("name, other", [("ss-07", "fea-07"),
                                         ("fea-07", "ss-07")])
def test_params_of_the_other_architecture_refused(name, other, tmp_path):
    config, params = CONFIGS[name], params_of(other)
    with pytest.raises(TypeError, match="cannot checkpoint"):
        save_checkpoint(tmp_path / "m.exchk", config, params, FIVE_STAR)
    train_table, val_table = small_tables()
    with pytest.raises(TypeError, match="takes"):
        train(config, TrainConfig(epochs=1), train_table, val_table,
              initial_params=params)
    x = encode_onehot(train_table)
    forwards = [lambda c, p: self_supervised_forward(x, c, p)] \
        if config.architecture == "self-supervised" else [
            lambda c, p: fea_encode(x, c, p),
            lambda c, p: fea_decode(None, x.indices, c, p)]
    # the other model's params, with this config or with their own
    for call in forwards:
        for pair in ((config, params), (CONFIGS[other], params)):
            with pytest.raises(TypeError, match="takes"):
                call(*pair)


def test_only_models_reads_the_width_fields():
    """The shape of a model is one decision, and models.py makes it."""
    src = Path(exchtensor.__file__).parent
    readers = sorted(
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in src.glob("*.py") if path.name != "models.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in (*WIDTH_FIELDS, "factor_size")
    )
    assert not readers, f"width fields read outside models.py: {readers}"


def test_only_models_branches_on_the_architecture():
    """Which model runs is one decision, and models.py makes it: other
    modules call the params' own methods.  A lookup keyed by the
    architecture, as in checkpoint loading, is not a branch."""
    src = Path(exchtensor.__file__).parent
    branches = sorted(
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py") if path.name != "models.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        and any(isinstance(e, ast.Attribute) and e.attr == "architecture"
                for e in (node.left, *node.comparators))
    )
    assert not branches, f"architecture compared outside models.py: {branches}"
