"""The traced run: per-layer metrics, tracing overhead and per-op probes.

The run sets up once under the tracer, runs the workload's steps
untraced as a reference, repeats the same steps traced, and then runs
the per-op probes untraced.  Per-layer seconds are inclusive times of
the calls into each layer during the traced steps; the printed table
adds each span name's self time.  Which end-to-end metric each per-layer
metric should move, and on which workload, is listed in LAYER_NOTES.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from probes import probe_shape
from tracer import Tracer
from workloads import loop


def _cells(span, args, kwargs, result):
    span.info["cells"] = int(result.n_observed)


def _nodes(span, args, kwargs, result):
    span.info["nodes"] = len(args[0].nodes)


def _grouping(span, args, kwargs, result):
    t = args[0]
    digest = hashlib.blake2b(np.ascontiguousarray(t.indices).tobytes(), digest_size=16)
    span.info["grouping"] = f"{digest.hexdigest()}:{result.fixed_axes}"


# (module, attribute, span name, note); every span name is a layer.name
TARGETS = [
    ("exchtensor.data", "synthetic_lowrank_table", "data.generate", None),
    ("exchtensor.data", "canonical_split", "data.split", None),
    ("exchtensor.data", "encode_onehot", "data.encode", None),
    ("exchtensor.checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("exchtensor.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("exchtensor.sampling", "uniform_subsample", "sampling.uniform_subsample", None),
    ("exchtensor.sampling", "subset_tensor", "sampling.subset_tensor", _cells),
    ("exchtensor.training", "train", "training.train", None),
    ("exchtensor.training", "evaluate", "training.evaluate", None),
    ("exchtensor.training", "mask_inputs", "training.mask_inputs", None),
    ("exchtensor.training", "build_ss_loss_graph", "training.graph_build", None),
    ("exchtensor.training", "build_fea_loss_graph", "training.graph_build", None),
    ("exchtensor.training", "optimizer_step", "training.optimizer_step", None),
    # the eval-mode forward that both train (validation) and evaluate use
    ("exchtensor.training", "_predict_at", "training.predict_at", None),
    ("exchtensor.autodiff", "forward", "autodiff.forward", _nodes),
    ("exchtensor.autodiff", "backward", "autodiff.backward", None),
    ("exchtensor.sparse", "axis_groups", "sparse.axis_groups", _grouping),
    ("exchtensor.layers", "pooling_groups", "layers.pooling_groups", None),
    ("exchtensor.layers", "exchangeable_tensor_layer", "layers.layer_apply", None),
    ("exchtensor.layers", "pool_to_factors", "layers.pool_to_factors", None),
    ("exchtensor.layers", "broadcast_factors", "layers.broadcast_factors", None),
    ("exchtensor.models", "union_with_zeros", "models.union", None),
    ("exchtensor.models", "self_supervised_forward", "models.ss_forward", None),
    ("exchtensor.models", "fea_encode", "models.fea_encode", None),
    ("exchtensor.models", "fea_decode", "models.fea_decode", None),
    ("exchtensor.models", "predict_ratings", "models.predict", None),
]

# per-layer metric -> span names whose inclusive times it sums
LAYER_TIMES = {
    "checkpoint.save_s": ("checkpoint.save",),
    "checkpoint.load_s": ("checkpoint.load",),
    "sampling.sample_s": ("sampling.uniform_subsample", "sampling.subset_tensor"),
    "training.mask_s": ("training.mask_inputs",),
    "training.graph_build_s": ("training.graph_build",),
    "training.optimizer_s": ("training.optimizer_step",),
    "autodiff.forward_s": ("autodiff.forward",),
    "autodiff.backward_s": ("autodiff.backward",),
    "sparse.axis_groups_s": ("sparse.axis_groups",),
    "layers.pooling_groups_s": ("layers.pooling_groups",),
    "layers.layer_apply_s": ("layers.layer_apply",),
    "models.union_s": ("models.union",),
    "models.ss_forward_s": ("models.ss_forward",),
    "models.fea_encode_s": ("models.fea_encode",),
    "models.fea_decode_s": ("models.fea_decode",),
    "models.predict_s": ("models.predict",),
}

# which end-to-end metric each per-layer metric should move, and where
LAYER_NOTES = {
    "data.setup_s": "setup_s on every workload",
    "checkpoint.save_s": "setup_s on ml100k-eval",
    "checkpoint.load_s": "setup_s on ml100k-eval",
    "sampling.sample_s": ("step_s (epoch) on ml100k-train; synthetic50-fit is full batch "
                          "and bypasses it"),
    "sampling.batch_fill": "step_s (epoch) on ml100k-train",
    "training.mask_s": "step_s (fits) on synthetic50-fit",
    "training.graph_build_s": "step_s (fits) on synthetic50-fit",
    "training.optimizer_s": "step_s (fits) on synthetic50-fit",
    "training.validate_s": "step_s on ml100k-train and synthetic50-fit",
    "autodiff.forward_s": "step_s on every workload",
    "autodiff.backward_s": "step_s on ml100k-train and synthetic50-fit",
    "autodiff.graph_calls": "step_s on synthetic50-fit (per-graph overhead)",
    "autodiff.nodes_per_graph": "step_s on synthetic50-fit (per-node overhead)",
    "sparse.axis_groups_s": "step_s on every workload",
    "sparse.axis_groups_calls": "step_s on every workload",
    "sparse.groups_reuse": "step_s on every workload",
    "layers.pooling_groups_s": "step_s on ml100k-eval and the validation in training",
    "layers.pooling_groups_calls": "step_s on ml100k-eval and the validation in training",
    "layers.layer_apply_s": "step_s and eval_cells_per_s on ml100k-eval",
    "models.union_s": "step_s and eval_cells_per_s on ml100k-eval",
    "models.ss_forward_s": "step_s and eval_cells_per_s on ml100k-eval",
    "models.fea_encode_s": "step_s and eval_cells_per_s on ml100k-eval",
    "models.fea_decode_s": "step_s and eval_cells_per_s on ml100k-eval",
    "models.predict_s": "step_s and eval_cells_per_s on ml100k-eval",
}


def layer_metrics(tracer: Tracer, setup_spans, step_spans, n_steps: int,
                  budget: int) -> dict:
    """name -> (value, unit, base): set-up layers over one traced set-up,
    step layers per traced step."""
    spans = tracer.spans
    steps = tracer.table(step_spans)
    setup = tracer.table(setup_spans)
    out = {}

    def per_step(names):
        return sum(steps.get(n, {}).get("total_s", 0.0) for n in names) / n_steps

    out["data.setup_s"] = (sum(spans[i].duration for i in setup_spans
                               if spans[i].name.startswith("data.")
                               and tracer.parent_name(i) == "setup"), "s", "one set-up")
    for name, span_names in LAYER_TIMES.items():
        if name.startswith("checkpoint."):
            out[name] = (sum(setup.get(n, {}).get("total_s", 0.0) for n in span_names),
                         "s", "one set-up")
        else:
            out[name] = (per_step(span_names), "s", "per step")
    out["training.validate_s"] = (sum(
        spans[i].duration for i in step_spans
        if spans[i].name == "training.predict_at"
        and tracer.parent_name(i) == "training.train") / n_steps, "s", "per step")

    batches = [spans[i].info["cells"] for i in step_spans
               if spans[i].name == "sampling.subset_tensor"]
    if batches:
        out["sampling.batch_fill"] = (sum(batches) / (len(batches) * budget), "ratio",
                                      f"{sum(batches)} cells / ({len(batches)} batches"
                                      f" x budget {budget})")
    graphs = [spans[i].info["nodes"] for i in step_spans
              if spans[i].name == "autodiff.forward"]
    out["autodiff.graph_calls"] = (len(graphs) / n_steps, "count", "per step")
    out["autodiff.nodes_per_graph"] = (float(np.mean(graphs)) if graphs else 0.0, "count",
                                       f"{sum(graphs)} nodes / {len(graphs)} graphs")
    groupings = [spans[i].info["grouping"] for i in step_spans
                 if spans[i].name == "sparse.axis_groups"]
    distinct = len(set(groupings))
    out["sparse.axis_groups_calls"] = (len(groupings) / n_steps, "count", "per step")
    out["sparse.groups_reuse"] = (distinct / len(groupings) if groupings else 0.0, "ratio",
                                  f"{distinct} distinct (index set, axes) / "
                                  f"{len(groupings)} calls")
    out["layers.pooling_groups_calls"] = (
        steps.get("layers.pooling_groups", {}).get("calls", 0) / n_steps, "count", "per step")
    return out


def train_breakdown(tracer: Tracer, step_spans) -> None:
    """Split the time inside train() by its direct children: validation,
    the minibatch forward and backward, and the rest."""
    spans = tracer.spans
    trains = [i for i in step_spans if spans[i].name == "training.train"]
    if not trains:
        return
    total = sum(spans[i].duration for i in trains)
    parts = {"train (self)": sum(spans[i].self_s for i in trains)}
    for i in step_spans:
        if tracer.parent_name(i) == "training.train":
            parts[spans[i].name] = parts.get(spans[i].name, 0.0) + spans[i].duration
    shares = ", ".join(f"{name} {t / total:.1%}"
                       for name, t in sorted(parts.items(), key=lambda kv: -kv[1]))
    print(f"train breakdown over {total:.4f} s in {len(trains)} train() calls: {shares}")


def run_traced(wl, rec, seconds, size, per_layer: dict, out_dir) -> dict:
    half = seconds / 2
    wl.plan(half)
    tracer = Tracer()
    with tracer.install(TARGETS):
        with tracer.span("setup"):
            wl.setup()

    n_steps, untraced_s = loop(wl, rec, half)
    wl.rewind()
    with tracer.install(TARGETS):
        t0 = time.perf_counter()
        for _ in range(n_steps):
            with tracer.span("step"):
                wl.step(rec)
        traced_s = time.perf_counter() - t0
    wl.finish(rec)

    setup_root = tracer.roots("setup")[0]
    setup_spans = [setup_root] + tracer.subtree(setup_root)
    step_roots = tracer.roots("step")
    step_spans = [i for r in step_roots for i in tracer.subtree(r)]
    metrics = layer_metrics(tracer, setup_spans, step_spans, n_steps, size.cell_budget)

    overhead_s = traced_s - untraced_s
    unattributed = sum(tracer.spans[r].self_s for r in step_roots)
    named_self = sum(tracer.spans[i].self_s for i in step_spans)
    metrics["trace.overhead_share"] = (overhead_s / untraced_s, "ratio",
                                       f"traced {traced_s:.4f} s / untraced "
                                       f"{untraced_s:.4f} s - 1, {n_steps} steps each")
    metrics["trace.unattributed_s"] = (unattributed / n_steps, "s",
                                       "per step, outside every named layer")
    # traced wall = named self time + unattributed; the named layers
    # account for the run when what they miss is within the overhead
    # (or 1% of the wall, whichever is larger)
    allowed = max(abs(overhead_s), 0.01 * untraced_s)
    print(f"attribution: named-layer self time {named_self:.4f} s of traced wall "
          f"{traced_s:.4f} s; unattributed remainder {unattributed:.4f} s "
          f"({unattributed / traced_s:.2%}); untraced wall {untraced_s:.4f} s; tracing "
          f"overhead {overhead_s:+.4f} s; remainder "
          f"{'within' if unattributed <= allowed else 'NOT within'} {allowed:.4f} s")
    train_breakdown(tracer, step_spans)
    print(f"span table over {n_steps} traced steps (calls, inclusive s, self s):")
    for name, row in sorted(tracer.table(step_spans).items(),
                            key=lambda kv: -kv[1]["self_s"]):
        print(f"  span {name}: {row['calls']} calls, {row['total_s']:.4f} s, "
              f"self {row['self_s']:.4f} s")

    probes = {}
    for k, (indices, dims, K, O) in enumerate(wl.probe_cases()):
        shape = f"{indices.shape[0]}.{K}x{O}"
        result = probe_shape(indices, dims, K, O, seed=wl.seed, reps=size.probe_reps)
        probes[shape] = result
        for op, r in result.items():
            rec.check(r["ok"], f"probe {op} at {shape} agrees with float64 "
                               f"(max rel err {r['max_rel_err']:.2e})")
            for d in ("fwd", "bwd"):
                ms, flops, nbytes = r[f"{d}_ms"], r[f"{d}_flops"], r[f"{d}_bytes"]
                metrics[f"autodiff.{op}.{d}_ms.{shape}"] = (ms, "ms", "median")
                if k == 0:
                    metrics[f"autodiff.{op}.{d}_ms"] = (ms, "ms", f"median at {shape}")
                rate = (f"; {flops / ms / 1e6:.3f} GFLOP/s, {nbytes / ms / 1e6:.3f} GB/s "
                        f"at the measured time" if ms > 0 else "")
                print(f"fact autodiff.{op}.{d}.{shape}: {flops} flops, {nbytes} bytes, "
                      f"{flops / nbytes:.3f} flops/byte (computed from array sizes){rate}")

    for name in sorted(metrics):
        value, unit, base = metrics[name]
        note = LAYER_NOTES.get(name, "")
        extra = "; ".join(x for x in (base, f"moves {note}" if note else "") if x)
        print(f"layer {name} = {value:.6g} {unit}" + (f" ({extra})" if extra else ""))

    path = out_dir / f"trace-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps({"spans": tracer.dump(), "probes": probes}, default=str))
    print(f"spans written to {path}")
    return {name: {"value": metrics[name][0], "unit": unit}
            for name, unit in per_layer.items()}
