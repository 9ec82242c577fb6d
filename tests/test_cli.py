"""Command-line interface: subcommands, config merging, exit codes."""

import argparse
import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import exchtensor

from exchtensor.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from exchtensor import cli
from exchtensor.cli import SETTINGS, Settings, main
from exchtensor.data import (
    FIVE_STAR, RatingScale, canonical_split, parse_ratings,
)
from exchtensor.models import ModelConfig, init_params
from exchtensor.training import TrainConfig

from helpers import fill_array, rewrite_header

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, records, captured.err


SMALL_SS = ["--config-text", "widths = 12,5"]


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestTrain:
    def test_writes_checkpoint_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "widths = 12,5\nmask_prob = 0.3\n")
        code, records, _ = run(
            capsys, "train", "--arch", "ss", "--data", "synthetic",
            "--epochs", "2", "--seed", "0", "--out", str(tmp_path / "run"),
            "--config", cfg,
        )
        assert code == 0
        assert (tmp_path / "run" / "model.exchk").exists()
        report_lines = (tmp_path / "run" / "report.jsonl").read_text()
        assert len(report_lines.splitlines()) == len(records)
        final = records[-1]
        assert final["command"] == "train"
        assert "val_rmse" in final and "test_rmse" in final
        ck = load_checkpoint(tmp_path / "run" / "model.exchk")
        assert ck.config.widths == (12, 5)
        assert ck.metadata["epochs_run"] == 2

    def test_checkpoint_records_its_provenance(self, tmp_path, capsys):
        """A checkpoint names the versions, the loop settings and the
        training split's fingerprint, also after zero epochs: equal data
        give an equal fingerprint, and one changed rating another."""
        rng = np.random.default_rng(0)
        lines = {(u, i): int(rng.integers(1, 6)) for u in range(1, 13)
                 for i in range(1, 11) if rng.random() < 0.6}
        cfg = write_config(tmp_path, "widths = 12,5\n")

        def train_on(name, epochs):
            path = tmp_path / f"{name}.data"
            path.write_text("".join(f"{u}\t{i}\t{r}\t0\n"
                                    for (u, i), r in lines.items()))
            code, _, _ = run(capsys, "train", "--arch", "ss", "--data",
                             str(path), "--epochs", str(epochs), "--seed", "0",
                             "--out", str(tmp_path / name), "--config", cfg)
            assert code == 0
            ck = load_checkpoint(tmp_path / name / "model.exchk")
            return path, ck.metadata["provenance"]

        path, zero = train_on("zero", 0)
        _, one = train_on("one", 1)
        train, _, _ = canonical_split(parse_ratings(path), "random",
                                      fraction=0.2, seed=0, val_fraction=0.1)
        assert zero["train_table_sha256"] == one["train_table_sha256"] \
            == train.digest.hex()
        assert (zero["exchtensor"], zero["numpy"], zero["scipy"]) == (
            exchtensor.__version__, np.__version__, scipy.__version__)
        assert zero["train_config"] == dict(
            dataclasses.asdict(TrainConfig(seed=0)), epochs=0)
        assert one["train_config"] == dataclasses.asdict(
            TrainConfig(seed=0, epochs=1))
        # one rating of a training cell moves to another level
        cell = (int(train.users[train.u_index[0]]),
                int(train.items[train.i_index[0]]))
        lines[cell] = lines[cell] % 5 + 1
        _, changed = train_on("changed", 0)
        assert changed["train_table_sha256"] != zero["train_table_sha256"]

    def test_deterministic_given_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "widths = 10,5\nmask_prob = 0.3\n")
        argv = ["train", "--arch", "ss", "--data", "synthetic",
                "--epochs", "2", "--seed", "3", "--config", cfg]
        code_a, rec_a, _ = run(capsys, *argv, "--out", str(tmp_path / "a"))
        code_b, rec_b, _ = run(capsys, *argv, "--out", str(tmp_path / "b"))
        assert code_a == code_b == 0
        strip = [{k: v for k, v in r.items() if k not in ("wall_clock_seconds", "checkpoint")}
                 for r in rec_a]
        strip_b = [{k: v for k, v in r.items() if k not in ("wall_clock_seconds", "checkpoint")}
                   for r in rec_b]
        assert strip == strip_b
        assert (tmp_path / "a" / "model.exchk").read_bytes() == \
            (tmp_path / "b" / "model.exchk").read_bytes()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           "widths = 10,5\nmask_prob = 0.3\nepochs = 7\n")
        code, records, _ = run(
            capsys, "train", "--arch", "ss", "--data", "synthetic",
            "--epochs", "1", "--seed", "0", "--config", cfg,
        )
        assert code == 0
        assert records[-1]["epochs_run"] == 1

    def test_zero_epochs_checkpoints_initial_params(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "widths = 10,5\n")
        code, records, _ = run(
            capsys, "train", "--arch", "ss", "--data", "synthetic",
            "--epochs", "0", "--seed", "0", "--out", str(tmp_path / "run"),
            "--config", cfg,
        )
        assert code == 0
        final = records[-1]
        assert final["epochs_run"] == 0
        assert "test_rmse" in final
        ck = load_checkpoint(tmp_path / "run" / "model.exchk")
        fresh = init_params(ck.config, seed=0)
        for a, b in zip(ck.params.layers, fresh.layers):
            assert a.bias.dtype == b.bias.dtype

    def test_missing_data_path_exits_2(self, capsys):
        code, _, err = run(capsys, "train", "--arch", "ss",
                      "--data", "/no/such/file.csv", "--epochs", "1")
        assert code == 2

    def test_rebin_flags_apply_to_split_directory(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        cells = rng.choice(100, size=60, replace=False)
        stars = rng.integers(1, 11, size=60) / 2
        lines = [f"{c // 10 + 1}\t{c % 10 + 1}\t{r}\t0"
                 for c, r in zip(cells, stars)]
        split = tmp_path / "split"
        split.mkdir()
        (split / "u1.base").write_text("\n".join(lines[:48]) + "\n")
        (split / "u1.test").write_text("\n".join(lines[48:]) + "\n")
        assert any(r % 1 for r in stars[:48]) and any(r % 1 for r in stars[48:])
        cfg = write_config(tmp_path, "widths = 6,5\n")
        code, records, err = run(
            capsys, "train", "--arch", "ss", "--data", str(split),
            "--split", "u1", "--rebin-from", "0.5-5:0.5", "--rebin-to", "1-5",
            "--epochs", "1", "--out", str(tmp_path / "run"), "--config", cfg,
        )
        assert code == 0, err
        assert isinstance(records[-1]["test_rmse"], float)
        ck = load_checkpoint(tmp_path / "run" / "model.exchk")
        assert ck.scale.levels == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_split_prefix_without_split_directory_exits_2(self, tmp_path,
                                                          capsys):
        cfg = write_config(tmp_path, "widths = 6,5\n")
        code, records, err = run(
            capsys, "train", "--arch", "ss", "--data", "synthetic",
            "--split", "u9", "--epochs", "1", "--config", cfg,
        )
        assert code == 2 and records == []
        assert "--split u9" in err

    @pytest.mark.parametrize("line", ["val_fraction = 0",
                                      "val_fraction = -0.1"])
    def test_no_validation_set_exits_2_naming_the_key(self, tmp_path, capsys,
                                                      line):
        cfg = write_config(tmp_path, f"widths = 6,5\n{line}\n")
        code, records, err = run(capsys, "train", "--data", "synthetic",
                                 "--epochs", "1", "--config", cfg)
        assert code == 2 and records == []
        assert "val_fraction" in err

    @pytest.mark.parametrize("line, named", [
        ("learning_rate = nan", "learning rate"),
        ("patience = -3", "patience"),
    ])
    def test_bad_loop_setting_exits_2(self, tmp_path, capsys, line, named):
        cfg = write_config(tmp_path, f"widths = 6,5\n{line}\n")
        code, records, err = run(capsys, "train", "--data", "synthetic",
                                 "--epochs", "1", "--config", cfg)
        assert code == 2 and records == []
        assert named in err

    @pytest.mark.parametrize("lines", [
        "patience = -3\nprecision = float16",
        "patience = -3",
        "learning_rate = nan",
        "sampler = shuffled",
        "budget = 0",
    ], ids=["patience-and-precision", "patience", "learning-rate", "sampler",
            "budget"])
    def test_zero_epochs_check_the_loop_settings(self, tmp_path, capsys,
                                                  lines):
        cfg = write_config(tmp_path, f"widths = 6,5\n{lines}\n")
        errors = []
        for epochs in ("0", "1"):
            out = tmp_path / f"run{epochs}"
            code, records, err = run(capsys, "train", "--data", "synthetic",
                                     "--epochs", epochs, "--config", cfg,
                                     "--out", str(out))
            assert code == 2 and records == []
            assert not (out / "model.exchk").exists()
            errors.append(err)
        assert errors[0] == errors[1]
        if "float16" in lines:
            assert "unknown precision 'float16'" in errors[0]

    def test_fea_arch_with_width_overrides(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "encoder_widths = 8,4\ndecoder_widths = 8,5\n")
        code, records, _ = run(
            capsys, "train", "--arch", "fea", "--data", "synthetic",
            "--epochs", "2", "--seed", "0", "--out", str(tmp_path / "run"),
            "--config", cfg,
        )
        assert code == 0
        ck = load_checkpoint(tmp_path / "run" / "model.exchk")
        assert ck.config.encoder_widths == (8, 4)
        assert ck.config.factor_size == 4


class TestEvaluate:
    @pytest.fixture()
    def checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "widths = 12,5\nmask_prob = 0.3\n")
        run(capsys, "train", "--arch", "ss", "--data", "synthetic",
            "--epochs", "2", "--seed", "0", "--out", str(tmp_path / "run"),
            "--config", cfg)
        return str(tmp_path / "run" / "model.exchk")

    def test_single_fraction_emits_one_record(self, checkpoint, capsys):
        code, records, _ = run(capsys, "evaluate", checkpoint,
                            "--data", "synthetic",
                            "--observed-fraction", "0.8", "--seed", "1")
        assert code == 0
        assert len(records) == 1
        assert records[0]["n_context"] == 720
        assert isinstance(records[0]["rmse"], float)

    def test_fraction_sweep_emits_one_record_per_p(self, checkpoint,
                                                   capsys, tmp_path):
        code, records, _ = run(
            capsys, "evaluate", checkpoint, "--data", "synthetic",
            "--observed-fraction", "0.2,0.5,0.8",
            "--out", str(tmp_path / "ev"),
        )
        assert code == 0
        assert [r["observed_fraction"] for r in records] == [0.2, 0.5, 0.8]
        lines = (tmp_path / "ev" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_deterministic_given_seed(self, checkpoint, capsys):
        argv = ["evaluate", checkpoint, "--data", "synthetic",
                "--observed-fraction", "0.7", "--seed", "9"]
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b

    def test_nan_scale_level_exits_2(self, checkpoint, capsys, tmp_path):
        bad = rewrite_header(
            Path(checkpoint), tmp_path / "bad.exchk",
            lambda header: header["scale"].update(levels=[1, 2, 3, 4, math.nan]))
        code, _, err = run(capsys, "evaluate", str(bad), "--data",
                           "synthetic")
        assert code == 2
        assert len(err.splitlines()) == 1 and "finite" in err

    def test_synthetic_data_takes_the_rebinned_scale(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "widths = 4,10\n")
        code, _, _ = run(capsys, "train", "--data", "synthetic",
                         "--rebin-to", "1-10", "--epochs", "0",
                         "--config", cfg, "--out", str(tmp_path / "d"))
        assert code == 0
        ckpt = tmp_path / "d" / "model.exchk"
        assert load_checkpoint(ckpt).scale == RatingScale.integer(1, 10)
        code, records, err = run(capsys, "evaluate", str(ckpt), "--data",
                                 "synthetic")
        assert code == 0, err
        assert len(records) == 1

    @pytest.mark.parametrize("flags", [["--rebin-from", "1-10"],
                                       ["--rebin-from", "1-10",
                                        "--rebin-to", "1-5"]])
    def test_rebin_from_with_synthetic_data_exits_2(self, checkpoint, capsys,
                                                    tmp_path, flags):
        """Synthetic data has no source scale to rebin from."""
        for argv in (["train", "--epochs", "0", "--out", str(tmp_path / "d")],
                     ["evaluate", checkpoint]):
            code, records, err = run(capsys, *argv, "--data", "synthetic",
                                     *flags)
            assert (code, records) == (2, [])
            assert "--rebin-from applies to a ratings file" in err
        assert not (tmp_path / "d").exists()

    def test_foreign_scale_without_rebin_exits_2(self, checkpoint, capsys,
                                                 tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("u,i,r\na,x,10\nb,y,90\na,y,55\n")
        code, _, err = run(capsys, "evaluate", checkpoint, "--data", str(data),
                      "--format", "csv-triples")
        assert code == 2
        assert "scale" in err and "rebin" in err

    def test_rebin_flags_map_foreign_scale(self, checkpoint, capsys,
                                           tmp_path):
        data = tmp_path / "wide.csv"
        rows = ["u,i,r"] + [f"u{k},i{k},{10 * (k % 10 + 1)}"
                            for k in range(12)]
        data.write_text("\n".join(rows) + "\n")
        code, records, _ = run(
            capsys, "evaluate", checkpoint, "--data", str(data),
            "--format", "csv-triples", "--rebin-from", "1-100",
            "--rebin-to", "1-5", "--observed-fraction", "0.75",
        )
        assert code == 0
        assert records[0]["n_query"] == 3

    def test_duplicate_rating_names_file_ids_without_rebin_hint(
            self, checkpoint, capsys, tmp_path):
        data = tmp_path / "dup.data"
        data.write_text("1\t1\t4\t0\n2\t1\t3\t0\n1\t1\t5\t0\n")
        code, _, err = run(capsys, "evaluate", checkpoint, "--data", str(data))
        assert code == 2
        assert "duplicate rating for user/item pair (1, 1)" in err
        assert "rebin" not in err

    def test_header_missing_stacks_exits_2(self, checkpoint, capsys,
                                           tmp_path):
        bad = rewrite_header(Path(checkpoint), tmp_path / "bad.exchk",
                             lambda header: header.pop("stacks"))
        code, _, err = run(capsys, "evaluate", str(bad), "--data",
                           "synthetic")
        assert code == 2
        assert "'stacks'" in err

    def test_header_slope_outside_unit_interval_exits_2(self, checkpoint,
                                                       capsys, tmp_path):
        def steep(header):
            header["stacks"]["layers"][0]["slope"] = 1.5

        bad = rewrite_header(Path(checkpoint), tmp_path / "bad.exchk", steep)
        code, _, err = run(capsys, "evaluate", str(bad), "--data",
                           "synthetic")
        assert code == 2
        assert "slope must be a number in [0, 1], got 1.5" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h["arrays"][0].update(dtype="foo"), "array entry"),
        # as many bytes as the float64 bias, but text: not a number
        (lambda h: h["arrays"][0].update(dtype="<U2"), "array entry"),
        (lambda h: h["arrays"][0].update(offset="x"), "array entry"),
        (lambda h: h["arrays"][0].update(nbytes=None), "array entry"),
        (lambda h: h.update(arrays=5), "'arrays' entry"),
        (lambda h: h["scale"].update(levels=3), "'scale' entry"),
    ], ids=["dtype", "text-dtype", "offset", "nbytes", "arrays",
            "scale-levels"])
    def test_malformed_header_entry_exits_2(self, capsys, tmp_path, edit,
                                            named):
        config = ModelConfig(architecture="self-supervised", widths=(6, 5))
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, init_params(config), FIVE_STAR)
        bad = rewrite_header(path, tmp_path / "bad.exchk", edit)
        with pytest.raises(ValueError, match=f"malformed {named}"):
            load_checkpoint(bad)
        code, _, err = run(capsys, "evaluate", str(bad), "--data",
                           "synthetic")
        assert code == 2
        assert f"malformed {named}" in err

    def test_widths_disagreeing_with_arrays_exit_2(self, checkpoint, capsys,
                                                   tmp_path):
        def widen(header):
            header["model_config"]["widths"] = [13, 5]

        bad = rewrite_header(Path(checkpoint), tmp_path / "bad.exchk", widen)
        with pytest.raises(ValueError, match="layer1 is 5 -> 12"):
            load_checkpoint(bad)
        code, _, err = run(capsys, "evaluate", str(bad), "--data",
                           "synthetic")
        assert code == 2
        assert "layer1" in err and "13" in err

    def test_nonfinite_weight_exits_2(self, checkpoint, capsys, tmp_path):
        """A NaN weight would predict NaN for every cell; the checkpoint
        is refused with one error line rather than read as an rmse of
        null."""
        bad = fill_array(Path(checkpoint), tmp_path / "bad.exchk",
                         "layer1.w01", np.nan)
        code, records, err = run(capsys, "evaluate", str(bad), "--data",
                                 "synthetic")
        assert (code, records) == (2, [])
        assert err.splitlines() == [
            f"error: {bad}: array 'layer1.w01' is not finite"]

    def test_header_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "list.exchk"
        bad.write_bytes(MAGIC + (2).to_bytes(8, "little") + b"[]")
        code, _, err = run(capsys, "evaluate", str(bad), "--data",
                           "synthetic")
        assert code == 2
        assert "header is not a JSON object" in err

    def test_bad_timestamp_names_file_and_line(self, checkpoint, capsys,
                                                tmp_path):
        data = tmp_path / "stamps.data"
        data.write_text("1\t1\t4\t881250949\n2\t1\t3\tabc\n1\t2\t5\t\n")
        code, _, err = run(capsys, "evaluate", checkpoint, "--data", str(data))
        assert code == 2
        assert f"{data}:2: bad timestamp field 'abc'" in err

    def test_fraction_outside_unit_interval_exits_2(self, checkpoint,
                                                    capsys):
        code, _, err = run(capsys, "evaluate", checkpoint, "--data", "synthetic",
                      "--observed-fraction", "1.5")
        assert code == 2


class TestStrictJson:
    def test_diverged_run_writes_only_strict_json(self, tmp_path, capsys):
        """NaN and Infinity are not JSON; a diverged run writes null."""
        def strict(text):
            def refuse(token):
                raise ValueError(f"non-standard JSON token {token}")
            return json.loads(text, parse_constant=refuse)

        cfg = write_config(tmp_path, "widths = 8,5\nlearning_rate = 1e30\n")
        out = tmp_path / "run"
        # the diverging weights overflow and make NaNs on purpose
        with pytest.warns(RuntimeWarning):
            code = main(["train", "--arch", "ss", "--data", "synthetic",
                         "--epochs", "3", "--seed", "0", "--out", str(out),
                         "--config", cfg])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        records = [strict(line) for line in lines]
        assert records[-1]["diverged"] is True
        assert None in records[-1].values()
        report = (out / "report.jsonl").read_text().splitlines()
        assert [strict(line) for line in report] == records
        raw = (out / "model.exchk").read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        header = strict(raw[16:16 + header_len].decode())
        assert header["metadata"]["best_val_rmse"] is None


class TestFactorize:
    def test_fea_checkpoint_writes_id_keyed_tables(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "encoder_widths = 8,4\ndecoder_widths = 8,5\n")
        run(capsys, "train", "--arch", "fea", "--data", "synthetic",
            "--epochs", "1", "--seed", "0", "--out", str(tmp_path / "run"),
            "--config", cfg)
        code, records, _ = run(
            capsys, "factorize", str(tmp_path / "run" / "model.exchk"),
            "--data", "synthetic", "--out", str(tmp_path / "fact"),
        )
        assert code == 0
        assert records[0]["factor_size"] == 4
        rows = (tmp_path / "fact" / "factors_rows.tsv").read_text().splitlines()
        assert rows[0] == "id\tz0\tz1\tz2\tz3"
        assert len(rows) == 1 + 50
        cols = (tmp_path / "fact" / "factors_cols.tsv").read_text().splitlines()
        assert len(cols) == 1 + 60

    def test_self_supervised_checkpoint_exits_2(self, tmp_path, capsys):
        config = ModelConfig(architecture="self-supervised", levels=5,
                             widths=(8, 5), mask_prob=0.2)
        path = tmp_path / "ss.exchk"
        save_checkpoint(path, config, init_params(config, seed=0), FIVE_STAR)
        code, _, err = run(capsys, "factorize", str(path), "--data", "synthetic")
        assert code == 2
        assert "no factors" in err


class TestVerify:
    def test_small_shape_passes_with_report(self, capsys):
        code, records, _ = run(capsys, "verify", "--dims", "2,3",
                            "--trials", "10")
        assert code == 0
        assert records[0]["passed"] is True
        assert records[0]["orbit_count"] == 4

    def test_three_axis_orbit_count(self, capsys):
        code, records, _ = run(capsys, "verify", "--dims", "2,2,2",
                            "--trials", "5")
        assert code == 0
        assert records[0]["orbit_count"] == 8

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--dims", "99,99")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("dims", ["10000000000,10000000000",
                                      "4294967296,4294967296"])
    def test_cell_count_beyond_int64_reports_the_true_count(self, capsys, dims):
        """The cap check multiplies exactly: int64 products wrap, to a
        wrong count or to 0 cells that pass the cap."""
        code, records, err = run(capsys, "verify", "--dims", dims)
        assert code == 2 and records == []
        count = math.prod(int(d) for d in dims.split(","))
        assert f"{count} cells exceed the verifier cap" in err

    def test_zero_trials_fail_exit_1(self, capsys):
        code, records, _ = run(capsys, "verify", "--dims", "3,3",
                               "--trials", "0")
        assert code == 1
        assert records[0]["legal_trials"] == 0
        assert records[0]["passed"] is False

    def test_negative_trials_exits_2(self, capsys):
        code, records, err = run(capsys, "verify", "--dims", "3,3",
                                 "--trials", "-2")
        assert code == 2 and records == []
        assert "--trials must be nonnegative, got -2" in err


class TestFlagParsing:
    """A flag value the parser refuses is a usage error like any other:
    exit 2 with one stderr line and nothing on stdout."""

    @pytest.mark.parametrize("argv, named", [
        (["verify", "--dims", "2,3", "--trials", "x"],
         "argument --trials: invalid int value: 'x'"),
        (["train", "--epochs", "1.5"], "invalid int value: '1.5'"),
        (["sample-check", "--sampler", "bogus"], "invalid choice: 'bogus'"),
        (["verify"], "--dims"),
        (["verify", "--dims", "2,3", "--bogus"], "unrecognized arguments"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "command"),
    ], ids=["int", "train-int", "choice", "required", "unknown-flag",
            "unknown-command", "no-command"])
    def test_refused_flag_exits_2_on_one_line(self, capsys, argv, named):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: exchtensor")
        assert named in lines[0]

    def test_help_prints_to_stdout_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--help"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: exchtensor verify")


class TestSampleCheck:
    def test_uniform_report_passes(self, capsys):
        code, records, _ = run(capsys, "sample-check", "--data", "synthetic",
                            "--sampler", "uniform", "--budget", "300",
                            "--trials", "40", "--seed", "0")
        assert code == 0
        rec = records[0]
        assert rec["passed"] is True
        assert rec["cells"] == 900
        assert rec["expected_frequency"] == pytest.approx(1 / 3)

    def test_conditional_report_passes(self, capsys):
        code, records, _ = run(capsys, "sample-check", "--data", "synthetic",
                            "--sampler", "conditional", "--trials", "150",
                            "--seed", "0")
        assert code == 0
        assert records[0]["rows"] == 50

    def test_budget_above_cell_count_exits_2(self, capsys):
        code, _, err = run(capsys, "sample-check", "--data", "synthetic",
                      "--sampler", "uniform", "--budget", "901",
                      "--trials", "5")
        assert code == 2

    @pytest.mark.parametrize("sampler", ["uniform", "conditional"])
    def test_negative_trials_exits_2(self, capsys, sampler):
        code, records, err = run(capsys, "sample-check", "--data", "synthetic",
                                 "--sampler", sampler, "--budget", "50",
                                 "--trials", "-3")
        assert code == 2 and records == []
        assert "--trials must be nonnegative, got -3" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("sampler", ["uniform", "conditional"])
    def test_budget_below_one_exits_2(self, capsys, sampler, budget):
        code, records, err = run(capsys, "sample-check", "--data", "synthetic",
                                 "--sampler", sampler, "--budget", budget,
                                 "--trials", "5")
        assert code == 2 and records == []
        assert "cell budget must be at least 1" in err

    def test_zero_trials_empty_report_exit_0(self, capsys):
        code, records, _ = run(capsys, "sample-check", "--data", "synthetic",
                            "--sampler", "uniform", "--trials", "0")
        assert code == 0
        assert records == [{"command": "sample-check", "sampler": "uniform",
                            "trials": 0, "records": 0}]


class TestConfigFile:
    def test_comments_and_blank_lines_ignored(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "# model shape\nwidths = 10,5\n\nmask_prob = 0.3  # heavy\n")
        code, records, _ = run(capsys, "train", "--arch", "ss",
                            "--data", "synthetic", "--epochs", "1",
                            "--seed", "0", "--config", cfg)
        assert code == 0

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "widths 10,5\n")
        code, _, err = run(capsys, "train", "--arch", "ss", "--data", "synthetic",
                      "--epochs", "1", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("line", ["optimizer = sgd", "learning-rat = 5"])
    def test_unknown_key_exits_2_naming_key_and_file(self, tmp_path, capsys,
                                                     line):
        cfg = write_config(tmp_path, f"widths = 6,5\n{line}\n")
        code, records, err = run(capsys, "train", "--arch", "ss",
                                 "--data", "synthetic", "--epochs", "1",
                                 "--config", cfg)
        assert code == 2 and records == []
        assert cfg in err and repr(line.split(" =")[0]) in err

    def test_reading_an_unlisted_setting_is_refused(self):
        settings = Settings(argparse.Namespace(config=None))
        assert settings.get("epochs", 3, int) == 3
        with pytest.raises(KeyError, match="optimizer"):
            settings.get("optimizer")

    def test_settings_lists_exactly_the_keys_read(self):
        """No listed key goes unread, so none is accepted and ignored."""
        tree = ast.parse(Path(cli.__file__).read_text())
        read = {
            node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "settings"
        }
        assert read == SETTINGS

    def test_missing_config_file_exits_2(self, capsys):
        code, _, err = run(capsys, "train", "--arch", "ss", "--data", "synthetic",
                      "--epochs", "1", "--config", "/no/such.cfg")
        assert code == 2


class TestTrainOutputAfterSettings:
    """A setting that fails to parse exits 2 before any output exists."""

    def test_unparsable_budget_leaves_no_report(self, tmp_path):
        cfg = write_config(tmp_path, "widths = 6,5\nbudget = abc\n")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m",
             "exchtensor.cli", "train", "--data", "synthetic", "--epochs",
             "1", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "abc" in lines[0]
        assert not (out / "report.jsonl").exists()


class TestUsageErrorLeavesNoOutput:
    """A setting any record depends on is checked before the first
    record: exit 2, one stderr line, nothing on stdout and no JSONL file."""

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        config = ModelConfig(architecture="self-supervised", widths=(6, 5))
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, init_params(config, seed=0), FIVE_STAR)
        return str(path)

    @pytest.mark.parametrize("argv, config, named", [
        (["evaluate", "CKPT", "--observed-fraction", "0.5,1.5"], "",
         "observed fraction 1.5"),
        (["evaluate", "CKPT", "--observed-fraction", "1.5"], "",
         "observed fraction 1.5"),
        (["sample-check", "--budget", "999999"], "", "budget 999999"),
        (["sample-check"], "sampler = bogus\n", "unknown sampler 'bogus'"),
    ], ids=["fraction-sweep", "fraction", "budget", "sampler"])
    def test_exits_2_before_any_record(self, tmp_path, capsys, checkpoint,
                                       argv, config, named):
        out = tmp_path / "out"
        argv = [checkpoint if a == "CKPT" else a for a in argv]
        code = main(argv + ["--data", "synthetic", "--out", str(out),
                            "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0]
        assert not list(out.glob("*.jsonl"))

    def test_sample_check_zero_trials_still_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, records, _ = run(capsys, "sample-check", "--data", "synthetic",
                               "--trials", "0", "--budget", "999999",
                               "--out", str(out))
        assert code == 0 and len(records) == 1
        assert len((out / "sample_check.jsonl").read_text().splitlines()) == 1
