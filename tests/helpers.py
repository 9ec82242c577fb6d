"""Shared fixtures-by-hand for the test suite."""

import json
from dataclasses import replace

import numpy as np

from exchtensor.checkpoint import MAGIC
from exchtensor.layers import all_subsets, block_name
from exchtensor.sparse import SparseExchangeableTensor


def build_sparse(dims, entries):
    """Tensor from (index-tuple, channel-vector) entries in any order."""
    indices, values = zip(*entries)
    return SparseExchangeableTensor(
        dims, np.array(indices), np.array(values, dtype=np.float64)
    )


def to_dense(t):
    """(dims..., K) array with zeros at unobserved cells, and the mask."""
    dense = np.zeros(t.dims + (t.channels,), dtype=t.values.dtype)
    mask = np.zeros(t.dims, dtype=bool)
    dense[tuple(t.indices.T)] = t.values
    mask[tuple(t.indices.T)] = True
    return dense, mask


def from_dense(arr, mask=None):
    """Inverse of ``to_dense``; ``mask`` defaults to fully observed."""
    if mask is None:
        mask = np.ones(arr.shape[:-1], dtype=bool)
    idx = np.argwhere(mask)
    return SparseExchangeableTensor(arr.shape[:-1], idx, arr[tuple(idx.T)])


def random_sparse(dims, channels, n_obs, rng):
    """Random tensor with n_obs distinct observed cells."""
    total = int(np.prod(dims))
    assert n_obs <= total
    picks = rng.choice(total, size=n_obs, replace=False)
    idx = np.stack(np.unravel_index(picks, dims), axis=1)
    return SparseExchangeableTensor(dims, idx, rng.normal(size=(n_obs, channels)))


def random_dense(dims, channels, rng):
    """Fully observed tensor."""
    return random_sparse(dims, channels, int(np.prod(dims)), rng)


def transpose_matrix(t):
    """Swap the two axes of a matrix-shaped tensor."""
    assert t.ndim == 2
    return SparseExchangeableTensor(
        (t.dims[1], t.dims[0]), t.indices[:, ::-1], t.values
    )


def rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header passed through edit()."""
    raw = src.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob
                    + raw[16 + header_len:])
    return dst


def composed_layer_nodes(g, x, groups, params, prefix):
    """One layer as separate nodes: per pooled subset pool -> mix ->
    broadcast, the cell term's mix with the bias, one add and the
    nonlinearity.  The fused ``equivariant_layer`` node must match this
    composition bit for bit, values and gradients alike."""
    ndim = params.ndim
    bias = g.parameter(f"{prefix}.bias")
    added, terms = {}, []
    for S in all_subsets(ndim):
        nm = block_name(prefix, S, params.tied)
        if nm not in added:
            added[nm] = g.parameter(nm)
        if len(S) == ndim:
            terms.append(g.channel_mix(x, added[nm], bias))
        else:
            mixed = g.channel_mix(g.segment_pool(x, groups[S]), added[nm])
            terms.append(g.gather_broadcast(mixed, groups[S]))
    return g.nonlinearity(g.add(*terms), params.nonlinearity, params.slope)


def assert_bitwise_equal(got, want):
    """Same dtype, shape and bytes: stricter than equality of values,
    which lets -0.0 pass for 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def unique_then_argsort_groups(t, fixed_axes):
    """(keys, group_of, sizes, order, indptr) of grouping ``t``'s cells on
    ``fixed_axes`` by ``np.unique`` and a second stable int64 argsort, as
    ``axis_groups`` did before it took them all from one sort; ``order``
    and ``indptr`` are the CSR member layout of its ``sum_matrix``."""
    fixed = tuple(fixed_axes)
    n = t.n_observed
    if fixed:
        sub_dims = tuple(t.dims[a] for a in fixed)
        flat = np.ravel_multi_index(tuple(t.indices[:, fixed].T), sub_dims)
        uniq, group_of = np.unique(flat, return_inverse=True)
        keys = np.stack(np.unravel_index(uniq, sub_dims), axis=1)
    else:
        group_of = np.zeros(n, dtype=np.int64)
        keys = np.zeros((1, 0), dtype=np.int64)
    group_of = group_of.astype(np.int64)
    sizes = np.bincount(group_of, minlength=keys.shape[0]).astype(np.int64)
    order = np.argsort(group_of, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return keys.astype(np.int64), group_of, sizes, order, indptr


def row_wise_softmax(x):
    """Softmax over the channels with row-wise reductions, the formula
    ``autodiff`` used before it reduced short rows channel-major."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def row_wise_cross_entropy(logits, targets):
    """(loss, dlogits, dtargets) of the unweighted fused softmax cross
    entropy by its row-wise formulas, for an upstream gradient of one."""
    m = logits.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]
    ce = lse - (targets * logits).sum(axis=1)
    dtype = np.result_type(logits, np.float32)
    loss = np.asarray(ce.mean(), dtype)
    dY = np.ones_like(loss)
    coef = np.full(logits.shape[0], 1.0 / logits.shape[0], dtype)
    dlogits = dY * coef[:, None] * (row_wise_softmax(logits) - targets)
    dtargets = -dY * coef[:, None] * logits
    return loss, dlogits, dtargets


def per_array_adam(params, grads, state, config):
    """Adam one array at a time, as the optimizer ran before it moved to
    one flat buffer; ``training.optimizer_step`` must match it bit for
    bit.  ``state`` is (step, first moments, second moments), the
    moments as name -> array dicts, ``(0, {}, {})`` at the start."""
    from exchtensor.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name!r}")
    step, m_prev, v_prev = state
    t = step + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    new, m, v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m_prev.get(name, 0.0) + (1 - b1) * g
        v[name] = b2 * v_prev.get(name, 0.0) + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1**t)
        v_hat = v[name] / (1 - b2**t)
        new[name] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return new, (t, m, v)


def rebuilt_model(params, arrays):
    """The model with each array replaced by ``arrays[name]``, every
    layer rebuilt through its full constructor check, as each epoch of
    a fit rebuilt them before fits kept one parameter buffer."""
    return replace(params, **{
        field: tuple(
            replace(lp,
                    blocks={S: arrays[block_name(f"{prefix}{k}", S, lp.tied)]
                            for S in lp.blocks},
                    bias=arrays[f"{prefix}{k}.bias"])
            for k, lp in enumerate(getattr(params, field), start=1))
        for field, prefix in params.STACKS.items()
    })


def sequential_train(model_config, train_config, train_table, val_table):
    """The training loop as it ran before validation overlapped the next
    step and before fits kept one parameter buffer: one epoch at a time,
    each validated on the calling thread before the next begins, with
    ``per_array_adam`` and ``rebuilt_model`` in place of the flat update.
    ``training.train`` must match it bit for bit.  Returns (TrainReport
    fields as a dict, best parameters)."""
    from exchtensor import training as tr
    from exchtensor.autodiff import backward, forward
    from exchtensor.data import encode_onehot, rmse
    from exchtensor.models import init_params, named_arrays
    from exchtensor.sampling import (
        budget_targets, conditional_subsample, subset_tensor,
        uniform_subsample,
    )

    mc, tc = model_config, train_config
    x_full = encode_onehot(train_table)
    x_full = x_full.with_values(x_full.values.astype(tc.dtype))
    val_query, val_truth = val_table.indices(), val_table.ratings
    params = init_params(mc, seed=tc.seed)
    params = rebuilt_model(params, {
        name: a.astype(tc.dtype) for name, a in named_arrays(params).items()
    })
    prepared = params.prepare(x_full, val_query)
    full_batch = x_full.n_observed <= tc.cell_budget
    rng = np.random.default_rng(tc.seed)
    state = (0, {}, {})
    losses, vals = [], []
    best = dict(best_val_rmse=np.inf, best_epoch=0)
    best_params, since_best = params, 0
    stopped_early = diverged = False
    for epoch in range(1, tc.epochs + 1):
        epoch_seed = int(rng.integers(2**62))
        epoch_rng = np.random.default_rng(epoch_seed)
        if full_batch:
            x_batch = x_full
        elif tc.sampler == "uniform":
            x_batch = subset_tensor(x_full, uniform_subsample(
                x_full, tc.cell_budget, seed=epoch_seed))
        else:
            rows, cols = budget_targets(x_full, tc.cell_budget)
            x_batch = subset_tensor(x_full, conditional_subsample(
                x_full, rows, cols, seed=epoch_seed))
        masks = tr._epoch_dropout_masks(mc, epoch_rng)
        g, loss_node, bindings = params.loss_graph(mc, x_batch, masks,
                                                   epoch_seed)
        values = forward(g, bindings)
        loss = float(np.asarray(values[loss_node]).reshape(()))
        diverged = not np.isfinite(loss)
        if not diverged:
            try:
                arrays, state = per_array_adam(
                    named_arrays(params), backward(g, values, loss_node),
                    state, tc)
            except FloatingPointError:
                diverged = True
        losses.append(loss)
        if diverged:
            vals.append(float("nan"))
            break
        params = rebuilt_model(params, arrays)
        val = rmse(tr._predict_at(mc, params, prepared, val_query,
                                  train_table.scale), val_truth)
        vals.append(val)
        if val < best["best_val_rmse"]:
            best = dict(best_val_rmse=val, best_epoch=epoch)
            best_params, since_best = params, 0
        else:
            since_best += 1
            if since_best >= tc.patience:
                stopped_early = True
                break
    report = dict(train_loss=tuple(losses), val_rmse=tuple(vals),
                  stopped_early=stopped_early, diverged=diverged, **best)
    return report, best_params
