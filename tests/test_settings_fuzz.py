"""Seeded, bounded fuzzing of the CLI's settings and table shapes.

Each case runs one command in-process through ``cli.main``: with the
settings that command reads set to edge values (zero, negatives, NaN,
1e30, empty width lists, unparsable numbers, one-level scales), each
alone and then seeded draws of two or three at once; or on a degenerate
ratings table.  The edge values go in a config file, and again as
command-line flags for every setting the command takes a flag for.
Every case must keep the contract: exit 0, 1 or 2 and no traceback.
Exit 2 prints one ``error:`` line on stderr, nothing on stdout and
leaves no JSONL file in ``--out``.  Exit 0 or 1 prints strict JSON
records, which the JSONL file repeats, and exits 1 exactly when a record
holds ``"passed": false``.  A warning counts as a stderr line, except
the ``RuntimeWarning``s of a run that diverges on purpose.
"""

import argparse
import json
import warnings

import numpy as np
import pytest

from exchtensor.checkpoint import save_checkpoint
from exchtensor.cli import SETTINGS, build_parser, main
from exchtensor.data import FIVE_STAR
from exchtensor.models import ModelConfig, init_params

SEED = 2026
EDGE_VALUES = ["0", "-1", "-2.5", "nan", "1e30", "", ",", "abc", "1", "0.5",
               "3-3", "2-2:1", "1-5:0"]
# a learning rate this large overflows the weights on purpose
DIVERGES = ("learning_rate", "1e30")
SMALL_MODELS = {"widths": "4,5", "encoder_widths": "4,3",
                "decoder_widths": "4,5"}
DATA_KEYS = {"data", "format", "observed_fraction", "seed"}

# label: (argv before the settings, the settings fuzzed, the settings
# that keep a run small, seeded draws of several settings)
RUNS = {
    "train": (["train"], SETTINGS - {"out", "trials"},
              dict(SMALL_MODELS, data="synthetic", epochs="1"), 50),
    "train-fea": (["train", "--arch", "fea"], SETTINGS - {"arch", "out",
                                                          "trials"},
                  dict(SMALL_MODELS, data="synthetic", epochs="1"), 30),
    "evaluate": (["evaluate", "ss.exchk"],
                 DATA_KEYS | {"rebin_from", "rebin_to"},
                 {"data": "synthetic"}, 30),
    "factorize": (["factorize", "fea.exchk"], DATA_KEYS,
                  {"data": "synthetic"}, 15),
    "sample-check": (["sample-check"],
                     DATA_KEYS | {"budget", "sampler", "trials"},
                     {"data": "synthetic", "budget": "20", "trials": "3"}, 30),
    "verify": (["verify", "--dims", "2,3"], {"seed", "trials"},
               {"trials": "3"}, 5),
}


def strict(line):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(line, parse_constant=refuse)


def contract_breach(capsys, argv, out, diverges=False):
    """None if one in-process run keeps the contract, else what broke."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # a traceback breaks the contract
            return f"raised {type(exc).__name__}: {exc}"
    captured = capsys.readouterr()
    err = captured.err.splitlines() + [
        f"{w.category.__name__}: {w.message}" for w in caught
        if not (diverges and issubclass(w.category, RuntimeWarning))]
    jsonl = sorted(out.glob("*.jsonl"))
    if code == 2:
        if len(err) != 1 or not err[0].startswith("error: "):
            return f"exit 2 with stderr {err}"
        if captured.out or jsonl:
            return f"exit 2 with output {captured.out!r} {jsonl}"
        return None
    if code not in (0, 1):
        return f"exit {code!r}"
    if err:
        return f"exit {code} with stderr {err}"
    lines = captured.out.splitlines()
    try:
        records = [strict(line) for line in lines]
    except ValueError as exc:
        return f"exit {code} with output that is not strict JSON: {exc}"
    if code != int(any(r.get("passed") is False for r in records)):
        return f"exit {code} with records {records}"
    if jsonl and jsonl[0].read_text().splitlines() != lines:
        return f"{jsonl[0].name} differs from stdout"
    return None


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    for name, config in (
        ("ss", ModelConfig("self-supervised", widths=(4, 5))),
        ("fea", ModelConfig("fea", encoder_widths=(4, 3),
                            decoder_widths=(4, 5), factor_size=3)),
    ):
        save_checkpoint(root / f"{name}.exchk", config,
                        init_params(config, seed=0), FIVE_STAR)
    return root


def command_argv(label, checkpoint_dir):
    return [str(checkpoint_dir / a) if a.endswith(".exchk") else a
            for a in RUNS[label][0]]


def settings_cases(label):
    """Each fuzzed setting at each edge value alone, then seeded draws
    of two or three of them at once."""
    _, fuzzed, _, draws = RUNS[label]
    keys = sorted(fuzzed)
    yield from ({key: value} for key in keys for value in EDGE_VALUES)
    rng = np.random.default_rng([SEED, len(label)])
    for _ in range(draws):
        size = min(len(keys), int(rng.integers(2, 4)))
        yield {str(key): str(rng.choice(EDGE_VALUES))
               for key in rng.choice(keys, size=size, replace=False)}


def command_flags(command):
    """Setting -> the flag that sets it, for each setting ``command``
    takes a flag for."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.dest in SETTINGS}


def broken_cases(label, flags, checkpoint_dir, tmp_path, capsys):
    """The settings cases of ``label`` that break the contract, each
    setting in ``flags`` passed as its flag and the rest in the config
    file; only cases that set a flag run when ``flags`` is given."""
    broken = []
    for k, case in enumerate(settings_cases(label)):
        given = [arg for key, value in case.items() if key in flags
                 for arg in (flags[key], value)]
        if flags and not given:
            continue
        in_file = {key: v for key, v in case.items() if key not in flags}
        cfg = tmp_path / f"{k}.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                               dict(RUNS[label][2], **in_file).items()))
        out = tmp_path / f"out{k}"
        argv = command_argv(label, checkpoint_dir) + given + [
            "--config", str(cfg), "--out", str(out)]
        breach = contract_breach(capsys, argv, out, DIVERGES in case.items())
        if breach:
            broken.append((case, breach))
    return broken


@pytest.mark.parametrize("label", sorted(RUNS))
def test_edge_settings_keep_the_contract(label, checkpoint_dir, tmp_path,
                                         capsys):
    broken = broken_cases(label, {}, checkpoint_dir, tmp_path, capsys)
    assert not broken, broken


@pytest.mark.parametrize("label", sorted(RUNS))
def test_edge_flag_values_keep_the_contract(label, checkpoint_dir, tmp_path,
                                            capsys):
    flags = command_flags(RUNS[label][0][0])
    assert flags.keys() & RUNS[label][1]
    broken = broken_cases(label, flags, checkpoint_dir, tmp_path, capsys)
    assert not broken, broken


DEGENERATE = {
    "one-user": [("u", f"i{j}", 1 + j % 5) for j in range(12)],
    "one-item": [(f"u{j}", "i", 1 + j % 5) for j in range(12)],
    "one-cell": [("u", "i", 3)],
    "one-level": [(f"u{j % 4}", f"i{j // 4}", 4) for j in range(12)],
    # a user with one cell, which some evaluate splits put in the query
    "lone-cell-user": [(f"u{j % 3}", f"i{j // 3}", 1 + j % 5)
                       for j in range(12)] + [("solo", "i0", 2)],
}
DEGENERATE_RUNS = [
    (label, ["--seed", str(seed)] + extra)
    for seed in range(3)
    for label, extra in (
        ("train", []), ("train-fea", []), ("factorize", []),
        ("evaluate", ["--observed-fraction", "0.2,0.5,0.8"]),
        ("sample-check", []), ("sample-check", ["--sampler", "conditional"]),
    )
] + [("train", ["--rebin-from", "1-5", "--rebin-to", "3-3"])]


@pytest.mark.parametrize("table", sorted(DEGENERATE))
def test_degenerate_tables_keep_the_contract(table, checkpoint_dir, tmp_path,
                                             capsys):
    data = tmp_path / f"{table}.csv"
    data.write_text("".join(f"{u},{i},{r}\n" for u, i, r in DEGENERATE[table]))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                           dict(SMALL_MODELS, epochs="1", trials="3",
                                budget="1").items()))
    broken = []
    for k, (label, extra) in enumerate(DEGENERATE_RUNS):
        out = tmp_path / f"out{k}"
        argv = command_argv(label, checkpoint_dir) + extra + [
            "--data", str(data), "--format", "csv-triples",
            "--config", str(cfg), "--out", str(out)]
        breach = contract_breach(capsys, argv, out)
        if breach:
            broken.append((label, extra, breach))
    assert not broken, broken
