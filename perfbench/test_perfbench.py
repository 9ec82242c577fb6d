"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench

Runs every workload untraced and traced at the ``tiny`` size, checks that
each named metric is printed with its unit, and checks that a wrong
prediction trips the correctness checks and the exit code.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import UNITS, WORKLOADS  # noqa: E402


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines, kind, name, unit):
    pattern = rf"^{kind} {re.escape(name)} = -?[0-9.e+-]+ {re.escape(unit)}( |$)"
    return any(re.match(pattern, line) for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_metric(capsys, workload):
    code, lines, result = bench(capsys, workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.metric_units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    wanted = {**units, **{m: UNITS[m] for m in WORKLOADS[workload].reported}}
    for name, unit in wanted.items():
        assert printed(lines, "metric", name, unit), name
        assert any(re.match(rf"^metric {re.escape(name)} = .*\(n=\d+", line)
                   for line in lines), f"{name} without a sample count"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_layer_metric(capsys, workload):
    code, lines, result = bench(capsys, workload, 1)
    assert code == 0 and result["correct"]
    units = run.metric_units("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert printed(lines, "layer", name, unit), name
    assert any(line.startswith("attribution: ") for line in lines)
    assert any(re.match(r"^layer sparse\.groups_reuse = .*\(\d+ distinct .* / \d+ calls",
                        line) for line in lines)
    assert any(re.match(r"^fact autodiff\.channel_mix\.fwd\..* flops, .* bytes", line)
               for line in lines)


def test_wrong_prediction_trips_the_check(capsys, monkeypatch):
    import exchtensor.training as training

    real = training.predict_ratings
    monkeypatch.setattr(training, "predict_ratings",
                        lambda *args, **kwargs: real(*args, **kwargs) + 10.0)
    code, lines, result = bench(capsys, "ml100k-eval", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("check FAILED:") for line in lines)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ml100k-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
