"""Seeded, bounded fuzzing of the Python API's settings.

Each field of ``TrainConfig`` and ``ModelConfig``, and ``evaluate``'s
``cell_budget``, takes each edge value alone, and then seeded draws of
two or three fields take edge values at once.  Every case must keep the
contract: either it raises ``ValueError`` or ``TypeError``, or it runs,
and two runs give the same fit (or predictions) bit for bit.  Only a
learning rate of 1e30, which overflows the weights on purpose, may warn.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from exchtensor.data import canonical_split, synthetic_lowrank_table
from exchtensor.models import ModelConfig, init_params, named_arrays
from exchtensor.training import TrainConfig, evaluate, train

SEED = 2026
EDGE_VALUES = [0, -1, math.nan, math.inf, 1e30, 2.5, None, "3"]
DRAWS = 20
MODELS = {
    "ss": ModelConfig("self-supervised", widths=(4, 5)),
    "fea": ModelConfig("fea", encoder_widths=(4, 3), decoder_widths=(4, 5),
                       factor_size=3, mask_prob=0.0),
}
TRAIN = TrainConfig(epochs=2, seed=0, patience=20)


def tables():
    table = synthetic_lowrank_table(8, 9, observed_fraction=0.6, seed=4)
    train_table, test, val = canonical_split(table, "random", fraction=0.2,
                                             seed=0, val_fraction=0.2)
    return train_table, val, test


def cases(config):
    """Each field of ``config`` at each edge value alone, then seeded
    draws of two or three fields at once."""
    names = [f.name for f in dataclasses.fields(config)]
    yield from ({name: value} for name in names for value in EDGE_VALUES)
    rng = np.random.default_rng([SEED, len(names)])
    for _ in range(DRAWS):
        picked = rng.choice(names, size=int(rng.integers(2, 4)), replace=False)
        yield {str(name): EDGE_VALUES[int(rng.integers(len(EDGE_VALUES)))]
               for name in picked}


def outcome(run, diverges=False):
    """('refused', exception type) when run raises ValueError or
    TypeError, else ('ran', a digest of the arrays it returns)."""
    try:
        if diverges:
            with pytest.warns(RuntimeWarning):
                arrays = run()
        else:
            arrays = run()
    except (ValueError, TypeError) as exc:
        return "refused", type(exc)
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return "ran", h.hexdigest()


def fit(model_config, train_config):
    train_table, val, _ = tables()
    report, params = train(model_config, train_config, train_table, val)
    return [report.train_loss, report.val_rmse, report.best_epoch,
            report.stopped_early, report.diverged,
            *named_arrays(params).values()]


def breach(config, case, run):
    """None if ``config`` with the case's values refuses them, or if
    ``run`` on the result twice gives one outcome; else what broke."""
    try:
        made = dataclasses.replace(config, **case)
    except (ValueError, TypeError):
        return None
    diverges = case.get("learning_rate") == 1e30
    first, second = (outcome(lambda: run(made), diverges) for _ in range(2))
    return None if first == second else f"two runs differ: {first} vs {second}"


@pytest.mark.parametrize("arch", sorted(MODELS))
def test_train_config_values_refuse_or_repeat(arch):
    broken = [(case, b) for case in cases(TRAIN)
              if (b := breach(TRAIN, case, lambda tc: fit(MODELS[arch], tc)))]
    assert not broken, broken


@pytest.mark.parametrize("arch", sorted(MODELS))
def test_model_config_values_refuse_or_repeat(arch):
    broken = [(case, b) for case in cases(MODELS[arch])
              if (b := breach(MODELS[arch], case, lambda mc: fit(mc, TRAIN)))]
    assert not broken, broken


@pytest.mark.parametrize("arch", sorted(MODELS))
def test_evaluate_cell_budget_refuses_or_repeats(arch):
    config = MODELS[arch]
    params = init_params(config, seed=1)
    observed, _, query = tables()
    runs = [outcome(lambda: [evaluate(config, params, observed, query,
                                      cell_budget=value).predictions])
            for value in EDGE_VALUES for _ in range(2)]
    broken = [(value, first, second) for value, first, second
              in zip(EDGE_VALUES, runs[::2], runs[1::2]) if first != second]
    assert not broken, broken


@pytest.mark.parametrize("arch", sorted(MODELS))
def test_an_empty_observed_table_is_refused(arch):
    """A fit or a request with no observed cell raises ValueError, as
    the contract above asks, not an IndexError from a lookup in it."""
    config = MODELS[arch]
    train_table, val, test = tables()
    empty = train_table.subset(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        train(config, TRAIN, empty, val)
    with pytest.raises(ValueError):
        evaluate(config, init_params(config, seed=1), empty, test)
