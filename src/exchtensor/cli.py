"""Command-line surface: train, evaluate, factorize, verify, sample-check.

Configuration comes from an optional flat ``key = value`` file plus
command-line flags; flags win.  Every command is deterministic given
``--seed``.  Each command checks the settings it reads, then yields its
records; ``main`` alone prints them as line-delimited strict JSON (a
non-finite number becomes null), writes them to the command's file in
``--out`` (opened at the first record) and picks the exit code:
0 success, 1 a record with ``"passed": false``, 2 usage or configuration
error, raised before the first record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import norm

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    FIVE_STAR,
    RatingScale,
    RatingsTable,
    ScaleError,
    canonical_split,
    encode_onehot,
    parse_ratings,
    rebin_scale,
    synthetic_lowrank_table,
)
from .models import ModelConfig, fea_encode, init_params
from .sampling import (
    DEFAULT_CELL_BUDGET,
    conditional_subsample,
    row_marginal,
    uniform_subsample,
)
from .training import TrainConfig, evaluate, train
from .verify import run_verifier_suite

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags, paths, or configuration; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``UsageError``, so that ``main``
    reports them on its one stderr line; ``--help`` still prints and
    exits 0.  Its subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_scale(text: str) -> RatingScale:
    """'1-5' integer scale, 'lo-hi:step' arange, or a comma level list."""
    text = text.strip()
    try:
        if "," in text:
            return RatingScale(tuple(float(x) for x in text.split(",")))
        if ":" in text:
            span, step = text.rsplit(":", 1)
            lo, hi = span.split("-")
            if not float(step) > 0:
                raise ValueError(f"step {step} is not positive")
            return RatingScale(
                tuple(np.arange(float(lo), float(hi) + float(step) / 2,
                                float(step)))
            )
        lo, hi = text.split("-")
        return RatingScale.integer(int(lo), int(hi))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse scale {text!r}: {exc}") from exc


def _parse_widths(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _trials(settings: Settings, default: int) -> int:
    trials = settings.get("trials", default, int)
    if trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {trials}")
    return trials


# every key the commands read; a config file may set only these
SETTINGS = frozenset("""
    arch budget data decoder_widths dropout_rate encoder_widths epochs format
    fraction learning_rate mask_prob observed_fraction out patience precision
    rebin_from rebin_to sampler seed split trials val_fraction widths
""".split())


def _load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' comments; keys use - or _ freely."""
    out: dict[str, str] = {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file {path} does not exist")
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        name = key.strip().replace("-", "_")
        if name not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown setting {key.strip()!r}")
        out[name] = value.strip()
    return out


class Settings:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _load_config_file(args.config) if args.config else {}

    def get(self, key: str, default=None, cast=str):
        if key not in SETTINGS:
            raise KeyError(f"{key!r} is not listed in SETTINGS")
        flag = getattr(self.args, key, None)
        if flag is not None:
            return cast(flag) if isinstance(flag, str) and cast is not str \
                else flag
        if key in self.file:
            return cast(self.file[key])
        return default


def _finite(record: dict) -> dict:
    """Copy of a flat record with every non-finite float as None."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()}


def _provenance(train_fields: dict, train_table: RatingsTable) -> dict:
    """Where a trained checkpoint came from: the package, NumPy and SciPy
    versions, the loop settings, and the training table's fingerprint,
    its ``RatingsTable.digest`` (dims, cells, ratings and scale)."""
    return {
        "exchtensor": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "train_config": train_fields,
        "train_table_sha256": train_table.digest.hex(),
    }


def _out_dir(settings: Settings) -> Path | None:
    out = settings.get("out")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_rebinned(settings: Settings, scale: RatingScale, read):
    """The tables ``read(file_scale)`` parses, on the model scale.

    With --rebin-from/--rebin-to the files are parsed on the source scale
    and their ratings rebinned onto the destination, which must be the
    model scale; otherwise they are parsed on the model scale itself.
    """
    rebin_from = settings.get("rebin_from")
    rebin_to = settings.get("rebin_to")
    if (rebin_from is None) != (rebin_to is None):
        raise UsageError("--rebin-from and --rebin-to must be given together")
    if rebin_from is None:
        try:
            return read(scale)
        except ScaleError as exc:
            raise UsageError(
                f"{exc}; the model scale is {scale.levels} -- if the data "
                f"lives on a different scale pass --rebin-from/--rebin-to"
            ) from exc
    src = _parse_scale(rebin_from)
    dst = _parse_scale(rebin_to)
    if dst.levels != scale.levels:
        raise UsageError(
            f"--rebin-to {dst.levels} must match the model scale "
            f"{scale.levels}"
        )
    return [
        dataclasses.replace(
            table, ratings=rebin_scale(table.ratings, src, dst), scale=dst
        )
        for table in read(src)
    ]


def _load_data_table(
    settings: Settings, scale: RatingScale, density: float | None = None
) -> RatingsTable:
    """One ratings table from --data; 'synthetic' builds the benchmark.

    ``density`` pins the synthetic table's observed fraction for commands
    where --observed-fraction means something else (the evaluate split).
    """
    data = settings.get("data")
    if data is None:
        raise UsageError("--data is required")
    seed = settings.get("seed", 0, int)
    if data == "synthetic":
        if settings.get("rebin_from") is not None:
            raise UsageError("--rebin-from applies to a ratings file, "
                             "not --data synthetic")
        p = density if density is not None \
            else settings.get("observed_fraction", 0.3, float)
        return synthetic_lowrank_table(observed_fraction=p, seed=seed,
                                       scale=scale)
    path = Path(data)
    if not path.exists():
        raise UsageError(f"data path {data} does not exist")
    fmt = settings.get("format", "movielens-tab")
    (table,) = _read_rebinned(
        settings, scale, lambda s: [parse_ratings(path, fmt, scale=s)]
    )
    return table


def _split_for_training(settings: Settings, scale: RatingScale):
    """(train, val, test) tables for cmd_train from --data/--split."""
    data = settings.get("data")
    seed = settings.get("seed", 0, int)
    split = settings.get("split", "random")
    fraction = settings.get("fraction", 0.2, float)
    val_fraction = settings.get("val_fraction", 0.1, float)
    if not val_fraction > 0:
        raise UsageError(f"val_fraction must be positive, got {val_fraction}")
    if data not in (None, "synthetic") and Path(data).is_dir():
        base = Path(data) / f"{split}.base"
        test_file = Path(data) / f"{split}.test"
        for p in (base, test_file):
            if not p.exists():
                raise UsageError(f"split file {p} does not exist")
        fmt = settings.get("format", "movielens-tab")
        base_table, test = _read_rebinned(
            settings, scale, lambda s: canonical_split(
                None, "file-pair", base_path=base, test_path=test_file,
                fmt=fmt, scale=s,
            ),
        )
        train_table, val = canonical_split(
            base_table, "random", fraction=val_fraction, seed=seed
        )
        return train_table, val, test
    if split != "random":
        raise UsageError(f"--split {split} needs a split directory as --data")
    table = _load_data_table(settings, scale)
    train_table, test, val = canonical_split(
        table, "random", fraction=fraction, seed=seed,
        val_fraction=val_fraction,
    )
    return train_table, val, test


def _model_config(settings: Settings, scale: RatingScale) -> ModelConfig:
    arch = settings.get("arch", "self-supervised")
    if arch in ("ss", "self-supervised"):
        base = ModelConfig.self_supervised_default(levels=scale.n_levels)
        given = {"widths": settings.get("widths", None, _parse_widths)}
    elif arch == "fea":
        base = ModelConfig.fea_default(levels=scale.n_levels)
        enc = settings.get("encoder_widths", None, _parse_widths)
        given = {
            "encoder_widths": enc,
            "factor_size": enc[-1] if enc else None,
            "decoder_widths": settings.get("decoder_widths", None,
                                           _parse_widths),
        }
    else:
        raise UsageError(f"unknown architecture {arch!r}")
    given.update(dropout_rate=settings.get("dropout_rate", None, float),
                 mask_prob=settings.get("mask_prob", None, float))
    config = dataclasses.replace(base, dropout_placement=frozenset(), **{
        key: value for key, value in given.items() if value is not None
    })
    # keep the default dropout layers below the new last stack's output
    depth = len(config.dropout_widths)
    return dataclasses.replace(config, dropout_placement=frozenset(
        k for k in base.dropout_placement if k < depth
    ))


def _train_fields(settings: Settings) -> dict:
    """The TrainConfig fields that flags or the config file set."""
    given = {
        "epochs": settings.get("epochs", None, int),
        "learning_rate": settings.get("learning_rate", None, float),
        "cell_budget": settings.get("budget", None, int),
        "sampler": settings.get("sampler"),
        "seed": settings.get("seed", None, int),
        "patience": settings.get("patience", None, int),
        "precision": settings.get("precision"),
    }
    return {field: value for field, value in given.items() if value is not None}


def cmd_train(settings: Settings, args: argparse.Namespace):
    scale = FIVE_STAR
    rebin_to = settings.get("rebin_to")
    if rebin_to is not None:
        scale = _parse_scale(rebin_to)
    train_table, val, test = _split_for_training(settings, scale)
    scale = train_table.scale
    model_config = _model_config(settings, scale)
    given = _train_fields(settings)
    zero_epochs = given.get("epochs") == 0
    # zero epochs write the initial params; the other loop settings are
    # checked all the same
    train_config = TrainConfig(**dict(given, epochs=1) if zero_epochs
                               else given)
    out = _out_dir(settings)
    seed = train_config.seed
    if zero_epochs:
        params = init_params(model_config, seed=seed)
        metadata = {"seed": seed, "epochs_run": 0, "best_epoch": 0,
                    "best_val_rmse": None}
        final = {"command": "train", "epochs_run": 0}
    else:
        report, params = train(model_config, train_config, train_table, val)
        for rec in report.records():
            yield dict(rec, command="train")
        metadata = {
            "seed": seed,
            "epochs_run": report.epochs_run,
            "best_epoch": report.best_epoch,
            "best_val_rmse": report.best_val_rmse,
        }
        final = {
            "command": "train",
            "epochs_run": report.epochs_run,
            "best_epoch": report.best_epoch,
            "val_rmse": report.best_val_rmse,
            "wall_clock_seconds": round(report.wall_clock_seconds, 3),
            "diverged": report.diverged,
        }
    fields = dataclasses.asdict(train_config)
    if zero_epochs:
        fields["epochs"] = 0
    metadata["provenance"] = _provenance(fields, train_table)
    if test is not None and test.n_ratings:
        final["test_rmse"] = evaluate(model_config, params, train_table,
                                      test).rmse
    if out is not None:
        ckpt = out / "model.exchk"
        save_checkpoint(ckpt, model_config, params, scale, _finite(metadata))
        final["checkpoint"] = str(ckpt)
    yield final


def cmd_evaluate(settings: Settings, args: argparse.Namespace):
    ck = load_checkpoint(args.checkpoint)
    table = _load_data_table(settings, ck.scale, density=0.3)
    fractions_text = settings.get("observed_fraction", "0.8")
    fractions = [float(x) for x in str(fractions_text).split(",")]
    n = table.n_ratings
    sizes = []
    for p in fractions:
        if not 0.0 < p < 1.0:
            raise UsageError(f"observed fraction {p} not inside (0, 1)")
        sizes.append(max(1, round(p * n)))
        if sizes[-1] >= n:
            raise UsageError(f"observed fraction {p} leaves no query cells")
    order = np.random.default_rng(settings.get("seed", 0, int)).permutation(n)
    for p, n_ctx in zip(fractions, sizes):
        context = table.subset(np.sort(order[:n_ctx]))
        query = table.subset(np.sort(order[n_ctx:]))
        yield {
            "command": "evaluate",
            "observed_fraction": p,
            "n_context": context.n_ratings,
            "n_query": query.n_ratings,
            "rmse": evaluate(ck.config, ck.params, context, query).rmse,
        }


def cmd_factorize(settings: Settings, args: argparse.Namespace):
    ck = load_checkpoint(args.checkpoint)
    table = _load_data_table(settings, ck.scale)
    try:
        factors = fea_encode(encode_onehot(table), ck.config, ck.params)
    except TypeError as exc:
        raise UsageError(f"no factors defined for this checkpoint ({exc}); "
                         f"factorize needs an autoencoder (fea) model") from exc
    out = _out_dir(settings) or Path(".")
    rows_file = out / "factors_rows.tsv"
    cols_file = out / "factors_cols.tsv"
    for path, ids, z in (
        (rows_file, table.users, factors.z_rows),
        (cols_file, table.items, factors.z_cols),
    ):
        with open(path, "w") as fh:
            fh.write("id\t" + "\t".join(
                f"z{j}" for j in range(z.shape[1])) + "\n")
            for ext_id, vec in zip(ids, np.asarray(z)):
                fh.write(str(ext_id) + "\t"
                         + "\t".join(repr(float(x)) for x in vec) + "\n")
    yield {
        "command": "factorize",
        "rows": len(table.users),
        "cols": len(table.items),
        "factor_size": int(np.asarray(factors.z_rows).shape[1]),
        "rows_file": str(rows_file),
        "cols_file": str(cols_file),
    }


def cmd_verify(settings: Settings, args: argparse.Namespace):
    dims = tuple(int(x) for x in args.dims.split(","))
    seed = settings.get("seed", 0, int)
    report = run_verifier_suite(dims, trials=_trials(settings, 50), seed=seed)
    yield dict(report, command="verify")


def cmd_sample_check(settings: Settings, args: argparse.Namespace):
    t = encode_onehot(_load_data_table(settings, FIVE_STAR))
    n = t.indices.shape[0]
    sampler = settings.get("sampler", "uniform")
    if sampler not in ("uniform", "conditional"):
        raise UsageError(f"unknown sampler {sampler!r}")
    budget = settings.get("budget", DEFAULT_CELL_BUDGET, int)
    if budget < 1:
        raise UsageError("cell budget must be at least 1")
    trials = _trials(settings, 100)
    seed = settings.get("seed", 0, int)
    if trials == 0:
        yield {"command": "sample-check", "sampler": sampler, "trials": 0,
               "records": 0}
        return
    if sampler == "uniform":
        if budget > n:
            raise UsageError(f"budget {budget} exceeds the {n} observed cells")
        expected = np.full(n, budget / n)
        counts = np.zeros(n)
        for k in range(trials):
            batch = uniform_subsample(t, budget, seed=seed + k)
            counts[batch.positions] += 1
        record = {"budget": budget, "cells": int(n),
                  "expected_frequency": budget / n}
    else:
        expected = row_marginal(t)
        counts = np.zeros(t.dims[0])
        for k in range(trials):
            batch = conditional_subsample(t, 1, 1, seed=seed + k)
            counts[np.unique(batch.indices[:, 0])] += 1
        record = {"rows": int(t.dims[0])}
    sigma = np.sqrt(expected * (1 - expected) / trials)
    dev = np.abs(counts / trials - expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        max_sigma = float(np.where(sigma > 0, dev / sigma, 0.0).max())
    # family-wise bound: max of near-binomial z-scores, one per entry
    threshold = float(norm.ppf(1 - 0.005 / expected.size))
    yield dict(
        record, command="sample-check", sampler=sampler, trials=trials,
        max_deviation_sigma=max_sigma, sigma_threshold=threshold,
        passed=bool(max_sigma <= threshold),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exchtensor",
        description="Permutation-equivariant matrix and tensor completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None,
                       help="output directory for files")

    def data_flags(p, data_help="ratings file or 'synthetic'"):
        p.add_argument("--data", default=None, help=data_help)
        p.add_argument("--format", choices=["movielens-tab", "csv-triples"],
                       default=None)

    p_train = sub.add_parser("train", help="fit a model and write a checkpoint")
    common(p_train)
    p_train.add_argument("--arch", choices=["self-supervised", "ss", "fea"],
                         default=None)
    data_flags(p_train, "ratings file, split directory, or 'synthetic'")
    p_train.add_argument("--split", default=None,
                         help="random, or a file-pair prefix such as u1")
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--budget", type=int, default=None,
                         help="minibatch cell budget")
    p_train.add_argument("--sampler", choices=["uniform", "conditional"],
                         default=None)
    p_train.add_argument("--observed-fraction", dest="observed_fraction",
                         default=None, help="synthetic data density")
    p_train.add_argument("--rebin-from", dest="rebin_from", default=None)
    p_train.add_argument("--rebin-to", dest="rebin_to", default=None)

    p_eval = sub.add_parser("evaluate",
                            help="RMSE of a checkpoint on held-out cells")
    common(p_eval)
    p_eval.add_argument("checkpoint")
    data_flags(p_eval)
    p_eval.add_argument("--observed-fraction", dest="observed_fraction",
                        default=None,
                        help="fraction treated as observed; comma list sweeps")
    p_eval.add_argument("--rebin-from", dest="rebin_from", default=None)
    p_eval.add_argument("--rebin-to", dest="rebin_to", default=None)

    p_fact = sub.add_parser("factorize",
                            help="write row/column factors of an fea model")
    common(p_fact)
    p_fact.add_argument("checkpoint")
    data_flags(p_fact)
    p_fact.add_argument("--observed-fraction", dest="observed_fraction",
                        default=None)

    p_verify = sub.add_parser("verify",
                              help="equivariance and orbit checks for a shape")
    common(p_verify)
    p_verify.add_argument("--dims", required=True,
                          help="comma-separated axis sizes, e.g. 3,4")
    p_verify.add_argument("--trials", type=int, default=None)

    p_sample = sub.add_parser("sample-check",
                              help="empirical sampler frequency report")
    common(p_sample)
    data_flags(p_sample)
    p_sample.add_argument("--sampler", choices=["uniform", "conditional"],
                          default=None)
    p_sample.add_argument("--budget", type=int, default=None,
                          help="cells per draw; only the uniform check "
                               "reads it")
    p_sample.add_argument("--trials", type=int, default=None)
    p_sample.add_argument("--observed-fraction", dest="observed_fraction",
                          default=None)
    return parser


# each command, and the file in --out that its records also go to
COMMANDS = {
    "train": (cmd_train, "report.jsonl"),
    "evaluate": (cmd_evaluate, "metrics.jsonl"),
    "factorize": (cmd_factorize, None),
    "verify": (cmd_verify, "verify.jsonl"),
    "sample-check": (cmd_sample_check, "sample_check.jsonl"),
}


def main(argv=None) -> int:
    """Run one command: print each record it yields as a strict JSON
    line, append it to the command's file in --out (opened at the first
    record), and exit 1 if a record holds ``"passed": false``."""
    out_file = None
    failed = False
    try:
        args = build_parser().parse_args(argv)
        command, name = COMMANDS[args.command]
        settings = Settings(args)
        for record in command(settings, args):
            line = json.dumps(_finite(record), sort_keys=True, allow_nan=False)
            if out_file is None and name and settings.get("out") is not None:
                out_file = open(_out_dir(settings) / name, "w")
            if out_file is not None:
                out_file.write(line + "\n")
            print(line)
            failed = failed or record.get("passed") is False
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out_file is not None:
            out_file.close()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
