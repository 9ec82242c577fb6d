"""Shared fixtures-by-hand for the test suite."""

import json
from dataclasses import replace

import numpy as np

from exchtensor.autodiff import apply_nonlinearity
from exchtensor.checkpoint import MAGIC
from exchtensor.layers import (
    all_subsets, apply_stack, block_name, broadcast_factors, pooling_groups,
    stack_grads, train_stack,
)
from exchtensor.models import fea_encode
from exchtensor.sparse import (
    SparseExchangeableTensor, cell_keys, lookup, with_zero_row,
)


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
    nonlinearity.  A layer tape (``tape_stack``) matches this
    composition to rounding, values and gradients alike: within 1e-12 of
    the largest magnitude in float64 and 1e-6 in float32, since the
    fused op takes its global pool from the row pool's sums.
    ``whole_array_layer_grads`` pins the order of its backward's sums bit
    for bit."""
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


def numeric_grads(loss_of, arrays, names, eps=1e-5):
    """Central finite differences of the scalar ``loss_of(arrays)`` for
    each named array, every entry moved by eps both ways in float64."""
    out = {}
    for name in names:
        arr = np.asarray(arrays[name], dtype=np.float64)
        grad = np.zeros_like(arr)
        for i in range(arr.size):
            ends = []
            for step in (eps, -eps):
                bumped = arr.copy()
                bumped.ravel()[i] += step
                ends.append(float(loss_of({**arrays, name: bumped})))
            grad.ravel()[i] = (ends[0] - ends[1]) / (2 * eps)
        out[name] = grad
    return out


def max_rel_error(analytic, numeric):
    """The largest |a - n| / max(1, |a| + |n|) over the named arrays."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(1.0, np.abs(a) + np.abs(n))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def mse_grad(y, target):
    """The gradient at y of mean((y - target)^2), formed as ``Graph``'s
    ``mean_square_error`` backward forms it at a loss gradient of one."""
    one = np.ones_like(np.asarray(np.mean((y - target) ** 2)))
    return one * 2.0 * (y - target) / y.size


def tape_stack(x, groups, stack, prefix, target, masks=None):
    """(layer outputs, gradients) of mean((y - target)^2) at the output y
    of a ``layers.train_stack`` tape over x: each array's gradient by
    its ``block_name`` under ``prefix`` + k, and x's as "x"."""
    tape = train_stack(x, groups, stack, masks)
    grads, dx = stack_grads(tape, groups, mse_grad(tape[-1][2], target),
                            prefix, dx=True)
    return [y for _, _, y, *_ in tape], {**grads, "x": dx}


def separate_layer_passes(x, groups, stack, prefix, target, masks=None):
    """``tape_stack`` with each layer taken apart as separate graph nodes
    ran it before the layer op applied its activation and dropout mask:
    the layer's sum (``equivariant_layer`` with no activation), then its
    nonlinearity and its mask as whole-array passes; backward, the
    mask's and the leaky ReLU's derivatives as whole-array products
    before ``_equivariant_layer_grads``, and a tied block's two
    gradients summed in ``all_subsets`` order.  The tape's fused passes
    must match it bit for bit.  Layers are leaky ReLU or identity."""
    from exchtensor.autodiff import _equivariant_layer_grads, equivariant_layer

    subsets = all_subsets(stack[0].ndim)
    pooled = [groups[S] for S in subsets[1:]]
    masks = masks or {}
    kept, outs = [], []
    for k, lp in enumerate(stack, start=1):
        blocks = [lp.blocks[S] for S in subsets]
        total, means = equivariant_layer(x, lp.bias, blocks, pooled)
        y = apply_nonlinearity(total, lp.nonlinearity, lp.slope)
        if k in masks:
            y = y * masks[k].astype(np.result_type(y, np.float32))
        kept.append((x, total, means, blocks))
        outs.append(y)
        x = y
    dY, grads = mse_grad(outs[-1], target), {}
    for k in range(len(stack), 0, -1):
        lp, (x, total, means, blocks) = stack[k - 1], kept[k - 1]
        if k in masks:
            dY = dY * masks[k].astype(dY.dtype)
        if lp.nonlinearity == "leaky_relu":
            dY = dY * np.maximum(total >= 0, lp.slope, dtype=dY.dtype)
        dY, grads[f"{prefix}{k}.bias"], dblocks = _equivariant_layer_grads(
            dY, x, blocks, pooled, means)
        for S, d in zip(subsets, dblocks):
            name = block_name(f"{prefix}{k}", S, lp.tied)
            grads[name] = grads[name] + d if name in grads else d
    return outs, {**grads, "x": dY}


def whole_array_layer_grads(dY, x, blocks, groups, means, dx=True):
    """(dx, dbias, dblocks) of ``autodiff.equivariant_layer`` summed over
    whole arrays: dx is the cell term ``dY @ blocks[0].T`` plus each
    pooled term gathered to an (n, K) array, 0 off the context, added in
    ``all_subsets`` order, as ``add_terms`` adds them a row block at a
    time.  The layer backward must match it bit for bit.  dx is None
    unless asked for, as there."""
    from exchtensor.autodiff import _grouped_sums

    dtype = np.result_type(dY, np.float32)
    sums = _grouped_sums(dY, groups, context=False)
    acc, dblocks = dY @ blocks[0].T, [x.T @ dY]
    for g, s, m, w in zip(groups, sums, means, blocks[1:]):
        d_mixed = s.astype(dtype, copy=False)
        dblocks.append(m.T @ d_mixed)
        d_means = d_mixed @ w.T
        rows = (d_means / g.divisor[:, None]).astype(d_means.dtype)
        in_context = np.ones(g.n_members, bool) if g.context is None \
            else g.context
        acc = acc + np.where(in_context[:, None], rows[g.group_of],
                             rows.dtype.type(0))
    return acc if dx else None, dY.sum(axis=0), dblocks


def fill_array(src, dst, name, value):
    """Copy a checkpoint with every entry of array ``name`` set to
    ``value`` in its payload, the header untouched."""
    raw = bytearray(src.read_bytes())
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + header_len])
    (entry,) = [e for e in header["arrays"] if e["name"] == name]
    dtype = np.dtype(entry["dtype"])
    start = 16 + header_len + entry["offset"]
    raw[start:start + entry["nbytes"]] = np.full(
        entry["nbytes"] // dtype.itemsize, value, dtype).tobytes()
    dst.write_bytes(bytes(raw))
    return dst


def assert_bitwise_equal(got, want):
    """Same dtype, shape and bytes: stricter than equality of values,
    which lets -0.0 pass for 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def termwise_fea_tail(config, params, x, query):
    """The autoencoder's distributions at ``query`` cells against the
    context ``x``, term by term, as ``FeaParams.predict`` formed them
    before it mixed the context's sums once per context.  Per decoder
    layer and pooled subset S the term is ((s[g] + h) / n) @ W_S: s
    holds the context's input sums per group, g is the cell's group,
    found by a binary search of the groups' keys (-1 picks a zero row),
    and n is the group's context cells plus the query cell itself.  h is
    staged in float64 for the sum and divide, and mixed in its own
    dtype."""
    factors = fea_encode(x, config, params).imputed()
    groups = pooling_groups(x)
    full, *subsets = all_subsets(x.ndim)
    sums = apply_stack(broadcast_factors(factors, x), params.decoder,
                       lambda lp, means: [
                           with_zero_row(m * groups[S].counts[:, None])
                           for S, m in zip(subsets, means)])
    at = [lookup(groups[S].flat_keys, cell_keys(query, x.dims, sorted(S)))
          for S in subsets]
    joined = [(with_zero_row(groups[S].counts)[g] + 1.0)[:, None]
              for S, g in zip(subsets, at)]
    h = np.concatenate([factors.z_rows[query[:, 0]],
                        factors.z_cols[query[:, 1]]], axis=1)
    for lp, layer_sums in zip(params.decoder, sums):
        h64 = h.astype(np.float64)
        out = h @ lp.blocks[full] + lp.bias
        for S, s, g, n in zip(subsets, layer_sums, at, joined):
            out += ((s[g] + h64) / n).astype(h.dtype) @ lp.blocks[S]
        h = apply_nonlinearity(out, lp.nonlinearity, lp.slope)
    return h


def unique_then_argsort_groups(t, fixed_axes):
    """(flat keys, group_of, sizes, order, indptr) of grouping ``t``'s
    cells on ``fixed_axes`` by ``np.unique`` and a second stable int64
    argsort, as ``axis_groups`` did before it took them all from one sort;
    ``order`` and ``indptr`` are the CSR member layout of its group-sum
    operator."""
    fixed = tuple(fixed_axes)
    n = t.n_observed
    if fixed:
        sub_dims = tuple(t.dims[a] for a in fixed)
        flat = np.ravel_multi_index(tuple(t.indices[:, fixed].T), sub_dims)
        keys, group_of = np.unique(flat, return_inverse=True)
    else:
        group_of = np.zeros(n, dtype=np.int64)
        keys = np.zeros(1, dtype=np.int64)
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
        loss, grads = params.loss_and_grads(mc, x_batch, masks, epoch_seed)
        loss = float(loss)
        diverged = not np.isfinite(loss)
        if not diverged:
            try:
                arrays, state = per_array_adam(
                    named_arrays(params), grads(), state, tc)
            except FloatingPointError:
                diverged = True
        losses.append(loss)
        if diverged:
            vals.append(float("nan"))
            break
        params = rebuilt_model(params, arrays)
        val = rmse(tr._predict_at(mc, params, params.prepare(mc, x_full),
                                  val_query, train_table.scale), val_truth)
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
