"""Brute-force certification of the layer's symmetry claims on small arrays.

Everything here works on fully materialized instances: the tied dense
weight matrix over all pairs of cells, the flat permutation group on cell
ids, and exhaustive or sampled searches.  The point is to certify, with no
cleverness shared with the production path, that

  * the pooled sparse layer computes the same function as an explicit
    cell-by-cell weight matrix whose entries depend only on which axes two
    cells agree on,
  * the layer commutes exactly with per-axis relabelings and provably
    fails to commute with any other permutation of cells (witnessed by a
    concrete input), and
  * the number of weight-tying classes is 2^D, counted by orbit
    enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .layers import (
    ExchLayerParams,
    all_subsets,
    exchangeable_tensor_layer,
)
from .sparse import (
    PermutationSpec,
    SparseExchangeableTensor,
    apply_permutation,
)

__all__ = [
    "FLAT_SIZE_CAP",
    "IllegalWitness",
    "EquivarianceReport",
    "agreement_masks",
    "dense_oracle_layer",
    "dense_to_pooled_blocks",
    "is_legal_permutation",
    "apply_flat_permutation",
    "generic_scalar_blocks",
    "constant_scalar_blocks",
    "check_equivariance",
    "count_orbits",
    "run_verifier_suite",
]

FLAT_SIZE_CAP = 4096


def _check_cap(dims) -> int:
    total = math.prod(dims)
    if total > FLAT_SIZE_CAP:
        raise ValueError(
            f"{total} cells exceed the verifier cap of {FLAT_SIZE_CAP}"
        )
    return total


def agreement_masks(dims) -> np.ndarray:
    """(cells, cells) bitmask: bit i set iff the two cells agree on axis i."""
    total = _check_cap(dims)
    coords = np.stack(np.unravel_index(np.arange(total), dims), axis=1)
    m = np.zeros((total, total), dtype=np.int16)
    for i in range(len(dims)):
        m |= (coords[:, None, i] == coords[None, :, i]).astype(np.int16) << i
    return m


def dense_oracle_layer(
    t: SparseExchangeableTensor, params: ExchLayerParams
) -> SparseExchangeableTensor:
    """Reference layer: multiply the flat cell vector by the full tied
    matrix, one block pattern at a time, summing over input channels.

    The input must be fully observed; block entries are exact-agreement
    coefficients (sum semantics), not pooled-form weights.
    """
    total = _check_cap(t.dims)
    if t.n_observed != total:
        raise ValueError("dense oracle requires a fully observed tensor")
    masks = agreement_masks(t.dims)
    O = params.channels_out
    # canonical lex order of indices equals row-major flat order, so
    # t.values already is the vectorized input
    y = np.zeros((total, O))
    for S, w in params.blocks.items():
        pattern = (masks == sum(1 << a for a in S)).astype(np.float64)
        y += pattern @ (t.values @ w)
    y += params.bias
    return t.with_values(_activation(y, params.nonlinearity, params.slope))


def _activation(y: np.ndarray, kind: str, slope: float) -> np.ndarray:
    """The layer's activation, written out here so that the oracle does
    not share the production path's: softmax row-wise, not channel-major,
    and leaky ReLU as its definition, not as a maximum."""
    if kind == "softmax":
        e = np.exp(y - y.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    if kind == "leaky_relu":
        return np.where(y >= 0, y, slope * y)
    return y


def _pool_size(S: frozenset[int], dims) -> int:
    return math.prod(dims[i] for i in range(len(dims)) if i not in S)


def dense_to_pooled_blocks(blocks: dict, dims) -> dict:
    """Exact-agreement coefficients -> mean-pooled layer blocks.

    Inclusion-exclusion over the subset lattice turns exact-agreement sums
    into at-least-agreement sums, and the pool size converts each sum into
    the mean the pooled layer computes (valid for fully observed input).
    """
    ndim = len(dims)
    out = {}
    for S in all_subsets(ndim):
        acc = None
        for T in all_subsets(ndim):
            if T <= S:
                term = np.asarray(blocks[T]) * (-1.0) ** (len(S) - len(T))
                acc = term if acc is None else acc + term
        out[S] = acc * _pool_size(S, dims)
    return out


def is_legal_permutation(
    perm: np.ndarray, dims
) -> tuple[bool, PermutationSpec | None]:
    """Decide membership in the per-axis product subgroup.

    A flat permutation factors iff, for every axis i, the image coordinate
    on axis i depends only on the source coordinate on axis i (one image
    value per source value).  When it does, the per-axis maps are returned.
    """
    total = _check_cap(dims)
    perm = np.asarray(perm)
    coords = np.stack(np.unravel_index(np.arange(total), dims), axis=1)
    images = np.stack(np.unravel_index(perm, dims), axis=1)
    maps = []
    legal = True
    for i, n in enumerate(dims):
        axis_map = np.full(n, -1, dtype=np.int64)
        for v in range(n):
            targets = np.unique(images[coords[:, i] == v, i])
            if targets.size != 1:
                legal = False
                break
            axis_map[v] = targets[0]
        if not legal:
            break
        maps.append(axis_map)
    spec = None
    if legal:
        spec = PermutationSpec(tuple(maps))
        # the factored form must reproduce the flat permutation exactly
        assert np.array_equal(spec.flatten(), perm)
    return legal, spec


def apply_flat_permutation(
    t: SparseExchangeableTensor, perm: np.ndarray
) -> SparseExchangeableTensor:
    """Relabel cells of a fully observed tensor by a flat permutation."""
    total = math.prod(t.dims)
    if t.n_observed != total:
        raise ValueError("flat permutations act on fully observed tensors")
    out = np.empty_like(t.values)
    out[perm] = t.values
    return t.with_values(out)


def generic_scalar_blocks(
    ndim: int, rng: np.random.Generator, min_gap: float = 1e-3
) -> dict[frozenset[int], np.ndarray]:
    """Scalar blocks with all pairwise gaps >= min_gap, from [0.5, 1.5].

    Distinctness is what makes non-equivariance witnessable; coincident
    blocks degenerate toward the constant matrix, which commutes with
    everything.
    """
    while True:
        vals = rng.uniform(0.5, 1.5, size=2**ndim)
        if np.min(np.diff(np.sort(vals))) >= min_gap:
            break
    return {S: np.array([[v]]) for S, v in zip(all_subsets(ndim), vals)}


def constant_scalar_blocks(ndim: int, value: float = 1.0) -> dict:
    """All blocks equal, in exact-agreement (dense-matrix) terms.

    Feed through dense_to_pooled_blocks before handing to a pooled layer;
    the resulting cell-by-cell matrix is constant, the degenerate case
    that commutes with every permutation, legal or not.
    """
    return {S: np.array([[value]]) for S in all_subsets(ndim)}


@dataclass
class IllegalWitness:
    """Outcome of the witness search against one illegal permutation."""

    perm: np.ndarray
    witness_cell: int | None       # flat position of the single 1, or None
    differing_cell: int | None     # flat output cell where the sides differ
    deviation: float

    @property
    def found(self) -> bool:
        return self.witness_cell is not None


@dataclass
class EquivarianceReport:
    """Outcome of ``check_equivariance``; it passes only when at least one
    legal trial ran, so zero trials certify nothing."""

    dims: tuple[int, ...]
    tolerance: float
    legal_trials: int
    legal_max_deviation: float
    illegal: list[IllegalWitness]
    orbit_count: int
    orbit_expected: int

    @property
    def passed(self) -> bool:
        return (
            self.legal_trials > 0
            and self.legal_max_deviation <= self.tolerance
            and all(w.found for w in self.illegal)
            and self.orbit_count == self.orbit_expected
        )

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "tolerance": self.tolerance,
            "legal_trials": self.legal_trials,
            "legal_max_deviation": self.legal_max_deviation,
            "illegal_tested": len(self.illegal),
            "illegal_witnessed": sum(w.found for w in self.illegal),
            "orbit_count": self.orbit_count,
            "orbit_expected": self.orbit_expected,
            "passed": self.passed,
        }


def _random_input(dims, channels, rng, dense):
    total = math.prod(dims)
    n_obs = total if dense else min(total, max(2, total // 2))
    picks = (np.arange(total) if dense
             else rng.choice(total, size=n_obs, replace=False))
    idx = np.stack(np.unravel_index(picks, dims), axis=1)
    return SparseExchangeableTensor(dims, idx, rng.normal(size=(n_obs, channels)))


def _single_one_input(dims, cell, channels=1):
    total = math.prod(dims)
    values = np.zeros((total, channels))
    values[cell] = 1.0
    idx = np.stack(np.unravel_index(np.arange(total), dims), axis=1)
    return SparseExchangeableTensor(dims, idx, values)


def sample_illegal_permutations(dims, count, rng, max_attempts=1000):
    """Random flat bijections outside the product subgroup, after a fixed
    first-cell/last-cell swap regression case (when that swap is illegal)."""
    total = math.prod(dims)
    out = []
    if sum(d >= 2 for d in dims) >= 2:
        swap = np.arange(total)
        swap[0], swap[-1] = total - 1, 0
        # (0,..,0) <-> (N1-1,..,ND-1) moves two axes at once
        if not is_legal_permutation(swap, dims)[0]:
            out.append(swap)
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        cand = rng.permutation(total)
        attempts += 1
        if not is_legal_permutation(cand, dims)[0]:
            out.append(cand)
    return out


def find_witness(layer, dims, perm, tolerance=1e-10, channels=1):
    """Search single-1 inputs for one on which the layer fails to commute
    with the given flat permutation."""
    total = math.prod(dims)
    for cell in range(total):
        x = _single_one_input(dims, cell, channels)
        left = layer(apply_flat_permutation(x, perm))
        right = apply_flat_permutation(layer(x), perm)
        dev = np.abs(left.values - right.values).max()
        if dev > tolerance:
            where = int(np.abs(left.values - right.values).max(axis=1).argmax())
            return IllegalWitness(perm, cell, where, float(dev))
    return IllegalWitness(perm, None, None, 0.0)


def check_equivariance(
    dims,
    trials: int = 50,
    seed: int = 0,
    tolerance: float = 1e-10,
    layer=None,
    channels: int = 1,
    illegal_trials: int = 5,
) -> EquivarianceReport:
    """Certify commutation with legal permutations and witnessed failure
    for illegal ones.

    ``layer`` is any map from tensors to tensors over the same index set;
    the default is a mean-pooled layer with generic scalar weights, the
    configuration the witness construction is guaranteed for.
    """
    _check_cap(dims)
    rng = np.random.default_rng(seed)
    ndim = len(dims)
    if layer is None:
        params = ExchLayerParams(
            blocks=generic_scalar_blocks(ndim, rng), bias=np.zeros(1)
        )
        layer = lambda t: exchangeable_tensor_layer(t, params)
        channels = 1

    max_dev = 0.0
    for trial in range(trials):
        t = _random_input(dims, channels, rng, dense=trial % 2 == 0)
        p = PermutationSpec.random(dims, rng)
        left = layer(apply_permutation(t, p))
        right = apply_permutation(layer(t), p)
        if not np.array_equal(left.indices, right.indices):
            raise AssertionError("layer moved the observed index set")
        max_dev = max(max_dev, float(np.abs(left.values - right.values).max()))

    witnesses = [
        find_witness(layer, dims, perm, tolerance, channels)
        for perm in sample_illegal_permutations(dims, illegal_trials, rng)
    ]
    found = count_orbits(dims)
    expected = 2 ** sum(d >= 2 for d in dims)
    return EquivarianceReport(
        dims=tuple(dims),
        tolerance=tolerance,
        legal_trials=trials,
        legal_max_deviation=max_dev,
        illegal=witnesses,
        orbit_count=found,
        orbit_expected=expected,
    )


def count_orbits(dims, brute_cell_cap: int = 64) -> int:
    """Equivalence classes of cell pairs under simultaneous per-axis
    relabeling.

    Brute force (union-find under adjacent-transposition generators) for
    tiny instances, the agreement-signature count otherwise: a signature
    S is realizable iff every axis outside S has at least two labels, and
    two pairs with equal signatures are always conjugate.
    """
    total = _check_cap(dims)
    formula = 2 ** sum(d >= 2 for d in dims)
    if total > brute_cell_cap:
        return formula

    n_pairs = total * total
    parent = np.arange(n_pairs)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    generators = []
    for axis, n in enumerate(dims):
        for v in range(n - 1):
            maps = [np.arange(d) for d in dims]
            maps[axis][v], maps[axis][v + 1] = v + 1, v
            generators.append(PermutationSpec(tuple(maps)).flatten())
    for g in generators:
        for a in range(total):
            for b in range(total):
                union(a * total + b, g[a] * total + g[b])
    orbits = len({find(i) for i in range(n_pairs)})
    assert orbits == formula, (orbits, formula)
    return orbits


def enumerate_flat_permutations(dims):
    """All |cells|! flat permutations; only sensible for <= 8 cells."""
    total = math.prod(dims)
    if total > 8:
        raise ValueError(f"{total}! permutations is too many to enumerate")
    for p in itertools.permutations(range(total)):
        yield np.array(p, dtype=np.int64)


def run_verifier_suite(
    dims, trials: int = 50, seed: int = 0, tolerance: float = 1e-10,
    oracle_draws: int = 100,
) -> dict:
    """Everything at once for one shape; returns a JSON-ready summary."""
    rng = np.random.default_rng(seed)
    ndim = len(dims)
    report = check_equivariance(dims, trials, seed, tolerance)

    oracle_dev = 0.0
    for _ in range(oracle_draws):
        K, O = rng.integers(1, 3, size=2)
        dense_blocks = {
            S: rng.normal(size=(K, O)) for S in all_subsets(ndim)
        }
        bias = rng.normal(size=O)
        t = _random_input(dims, K, rng, dense=True)
        oracle = dense_oracle_layer(
            t, ExchLayerParams(blocks=dense_blocks, bias=bias)
        )
        pooled = exchangeable_tensor_layer(
            t,
            ExchLayerParams(
                blocks=dense_to_pooled_blocks(dense_blocks, dims), bias=bias
            ),
        )
        oracle_dev = max(
            oracle_dev, float(np.abs(oracle.values - pooled.values).max())
        )

    census = None
    total = math.prod(dims)
    if total <= 8:
        legal = sum(
            is_legal_permutation(p, dims)[0]
            for p in enumerate_flat_permutations(dims)
        )
        expected_legal = math.prod(math.factorial(d) for d in dims)
        census = {"legal": int(legal), "expected": expected_legal}

    out = report.to_dict()
    out["oracle_draws"] = oracle_draws
    out["oracle_max_deviation"] = oracle_dev
    out["census"] = census
    out["passed"] = bool(
        report.passed
        and oracle_dev <= tolerance
        and (census is None or census["legal"] == census["expected"])
    )
    return out
