"""exchtensor benchmark: one workload per invocation, from a source checkout.

    python3 perfbench/run.py --workload ml100k-train --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports ``exchtensor`` from its
``src/``.  With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it runs the same steps untraced and then traced, reports
per-layer metrics, tracing overhead and per-op probes, and writes the
spans to ``.perfbench_out/``.  Every metric is printed on its own line
with its unit and sample count; the last line of standard output is one
JSON object with the result.  The exit code is 0 when every correctness
check passed, 1 when one failed, and 2 when the checkout has no
``src/exchtensor``.

End-to-end metrics, reported by every workload:

- ``setup_s``: median over repeated set-ups of the workload's inputs
- ``step_s``: median wall time of one step of the workload's loop: one
  training epoch (ml100k-train), one fit of both criterion-07 configs
  (synthetic50-fit), one request to each architecture (ml100k-eval)
- ``heldout_rmse.ss``: held-out RMSE of the self-supervised model
- ``peak_rss_mb``: peak resident memory of the process
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread: the workloads' matrix products are small, and on a
# shared two-core machine spinning BLAS threads made timings swing far
# more than a second thread saved.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# time spent re-sampling set-up after each step, as a share of that step
SETUP_SHARE = 0.02


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; every run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def limit_blas_threads() -> str:
    """Cap BLAS threads before NumPy loads; returns the count in force."""
    if "numpy" in sys.modules:
        return os.environ.get("OPENBLAS_NUM_THREADS", "default (NumPy loaded first)")
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return str(n)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ml100k-train", "synthetic50-fit", "ml100k-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at toy sizes (harness self-test)")
    return ap.parse_args(argv)


def facts(threads: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "exchtensor").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


def end_to_end_metrics(rec, extra: dict) -> dict[str, tuple[float, int, str]]:
    """Every metric this run measured: name -> (value, samples, statistic)."""
    s = rec.samples
    out = {}
    for name in ("setup_s", "step_s", "epoch_s", "fit_s.ss", "fit_s.fea", "epochs.ss",
                 "epochs.fea", "heldout_rmse.ss", "heldout_rmse.fea"):
        if name in s:
            out[name] = (statistics.median(s[name]), len(s[name]), "median")
    for arch in ("ss", "fea"):
        if f"request_s.{arch}" in s:
            xs = s[f"request_s.{arch}"]
            out[f"request_p50_s.{arch}"] = (statistics.median(xs), len(xs), "median")
    if "eval_s" in s:
        out["eval_cells_per_s"] = (sum(s["eval_cells"]) / sum(s["eval_s"]),
                                   len(s["eval_s"]), "cells over seconds")
    for name, (value, n) in extra.items():
        out[name] = (value, n, "first requests")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1,
                          "peak")
    return out


def run_untraced(wl, rec, seconds: float, size, end_to_end: dict) -> dict:
    from workloads import UNITS, loop, sample_setup

    wl.plan(seconds)
    # set-up is sampled before the loop and again after every step, so its
    # median sees the same machine conditions as the steps
    sample_setup(wl, rec, size.setup_min_s, size.setup_reps)
    loop(wl, rec, seconds,
         between=lambda step_s: sample_setup(wl, rec, SETUP_SHARE * step_s, 1))
    metrics = end_to_end_metrics(rec, wl.finish(rec))
    units = {**end_to_end, **UNITS}
    for name in sorted(metrics):
        value, n, stat = metrics[name]
        print(f"metric {name} = {value:.6g} {units[name]} (n={n}, {stat})")
    return {name: {"value": metrics[name][0], "unit": unit}
            for name, unit in end_to_end.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    if not (ROOT / "src" / "exchtensor" / "__init__.py").is_file():
        print(f"no exchtensor sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import exchtensor

    if not Path(exchtensor.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"exchtensor imported from {exchtensor.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS, Record

    OUT_DIR.mkdir(exist_ok=True)
    size = SIZES[args.size]
    for key, value in facts(threads).items():
        print(f"fact {key} = {value}")
    wl = WORKLOADS[args.workload](args.seed, size, OUT_DIR)
    rec = Record()
    if args.trace:
        from traced import run_traced

        metrics = run_traced(wl, rec, args.seconds, size, metric_units("per_layer"),
                             OUT_DIR)
    else:
        metrics = run_untraced(wl, rec, args.seconds, size, metric_units("end_to_end"))
    correct = rec.failed == 0
    print(f"checks: {rec.attempted - rec.failed} of {rec.attempted} passed")
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
