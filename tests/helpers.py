"""Shared fixtures-by-hand for the test suite."""

import json

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
