"""Ratings ingestion, splits, one-hot encoding, scale conversion, metrics.

External ids (1-based MovieLens integers, arbitrary strings in CSV) are
remapped to dense 0-based indices in first-appearance order at parse
time; the remap tables ride along on every table so train/test splits
share one id space.  A table owns read-only copies of its arrays, so its
content fingerprint (``RatingsTable.digest``) is computed once.
"""

from __future__ import annotations

import csv
import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sparse import SparseExchangeableTensor, _integer_array, cell_keys

__all__ = [
    "RatingScale",
    "RatingsTable",
    "ScaleError",
    "FIVE_STAR",
    "parse_ratings",
    "canonical_split",
    "encode_onehot",
    "rebin_scale",
    "synthetic_lowrank_table",
    "rmse",
]


class ScaleError(ValueError):
    """A rating outside the scale it is checked against."""


@dataclass(frozen=True)
class RatingScale:
    """An ordered set of admissible rating levels."""

    levels: tuple[float, ...]

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        if len(levels) < 1 or not np.isfinite(levels).all() \
                or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(
                f"levels must be finite and strictly increasing, got {levels}")
        object.__setattr__(self, "levels", levels)

    @property
    def lo(self) -> float:
        return self.levels[0]

    @property
    def hi(self) -> float:
        return self.levels[-1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @classmethod
    def integer(cls, lo: int, hi: int) -> "RatingScale":
        return cls(tuple(range(lo, hi + 1)))


FIVE_STAR = RatingScale.integer(1, 5)


@dataclass(frozen=True)
class RatingsTable:
    """Observed (user, item, rating) triples over dense 0-based indices.

    ``users``/``items`` map dense index back to the external id; splits
    carry the full tables so all parts agree on matrix dimensions.  The
    table copies ``u_index``, ``i_index`` and ``ratings`` and makes the
    copies read-only, so writing into one raises ``ValueError`` and no
    caller's array can change the table.  ``digest`` is then fixed for
    the table's lifetime: it is computed on first use and kept.  ``keys``
    holds the cells' ascending ``sparse.cell_keys``, as ``encode_onehot``
    keys them: the duplicate check sorts them, and the table keeps them.
    """

    u_index: np.ndarray
    i_index: np.ndarray
    ratings: np.ndarray
    scale: RatingScale
    users: tuple
    items: tuple

    def __post_init__(self):
        # copy, never alias: the digest holds only while no one can write
        u = np.array(_integer_array("u_index", self.u_index))
        i = np.array(_integer_array("i_index", self.i_index))
        r = np.array(self.ratings, dtype=np.float64)
        if not (u.shape == i.shape == r.shape) or u.ndim != 1:
            raise ValueError("u_index, i_index, ratings must be equal-length 1-d")
        if u.size and (u.min() < 0 or u.max() >= len(self.users)):
            raise ValueError("user index outside the remap table")
        if i.size and (i.min() < 0 or i.max() >= len(self.items)):
            raise ValueError("item index outside the remap table")
        inside = (r >= self.scale.lo - 1e-9) & (r <= self.scale.hi + 1e-9)
        if not inside.all():
            raise ScaleError(f"rating {r[~inside][0]} outside scale "
                             f"[{self.scale.lo}, {self.scale.hi}]")
        dims = (len(self.users), len(self.items))
        keys = np.sort(cell_keys(np.column_stack([u, i]), dims))
        dup = keys[1:] == keys[:-1]
        if dup.any():  # name the pair of the smallest repeated key
            at = np.unravel_index(keys[np.argmax(dup)], dims)
            raise ValueError(f"duplicate rating for user/item pair "
                             f"({self.users[at[0]]}, {self.items[at[1]]})")
        for name, a in (("u_index", u), ("i_index", i), ("ratings", r),
                        ("keys", keys)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_ratings(self) -> int:
        return self.ratings.shape[0]

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the table's dims, cells, ratings and scale levels.

        Two threads may both compute it on first use; they write the same
        bytes.  The id tables enter only through the dims.
        """
        return _array_digest({
            "dims": np.array([self.n_users, self.n_items]),
            "u_index": self.u_index, "i_index": self.i_index,
            "ratings": self.ratings, "levels": np.array(self.scale.levels),
        })

    def subset(self, rows: np.ndarray) -> "RatingsTable":
        """Rows selected by index array; remap tables are kept whole."""
        return RatingsTable(
            self.u_index[rows], self.i_index[rows], self.ratings[rows],
            self.scale, self.users, self.items,
        )

    def indices(self) -> np.ndarray:
        return np.column_stack([self.u_index, self.i_index])


def _array_digest(arrays: Mapping[str, np.ndarray], head: bytes = b"") -> bytes:
    """SHA-256 of ``head``, then of each array's name, dtype, shape and
    bytes in the mapping's order."""
    h = hashlib.sha256(head)
    for name, a in arrays.items():
        a = np.ascontiguousarray(a)
        h.update(f"\n{name} {a.dtype.str} {a.shape} ".encode())
        h.update(a)
    return h.digest()


def _read_triples(path, fmt: str):
    """Raw (user, item, rating) columns with 1-based line errors.

    The timestamp field must be an integer or empty; its value is unused.
    """
    users, items, ratings = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if fmt == "movielens-tab":
                parts = line.split("\t")
                if len(parts) != 4:
                    raise ValueError(
                        f"{path}:{lineno}: expected 4 tab-separated fields, "
                        f"got {len(parts)}"
                    )
                u, i, r, ts = parts
            elif fmt == "csv-triples":
                parts = next(csv.reader([line]))
                if len(parts) not in (3, 4):
                    raise ValueError(
                        f"{path}:{lineno}: expected 3 or 4 fields, got {len(parts)}"
                    )
                u, i, r = parts[0], parts[1], parts[2]
                ts = parts[3] if len(parts) == 4 else ""
            else:
                raise ValueError(f"unknown format {fmt!r}")
            try:
                rating = float(r)
            except ValueError:
                if lineno == 1 and fmt == "csv-triples":
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: bad rating field {r!r}")
            try:
                int(ts.strip() or 0)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad timestamp field {ts!r}"
                ) from None
            users.append(u.strip())
            items.append(i.strip())
            ratings.append(rating)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    return users, items, ratings


def _first_appearance_remap(ids, table: dict, order: list):
    out = np.empty(len(ids), dtype=np.int64)
    for k, ext in enumerate(ids):
        if ext not in table:
            table[ext] = len(order)
            order.append(ext)
        out[k] = table[ext]
    return out


def _parse_files(paths, fmt: str, scale: RatingScale) -> list[RatingsTable]:
    """One table per ratings file, all over one id space.

    Ids become dense indices in order of first appearance across the
    files in turn, and every rating is checked against the scale bounds.
    """
    umap: dict = {}
    imap: dict = {}
    uorder: list = []
    iorder: list = []
    parts = []
    for path in paths:
        users, items, ratings = _read_triples(path, fmt)
        parts.append((path, _first_appearance_remap(users, umap, uorder),
                      _first_appearance_remap(items, imap, iorder), ratings))
    tables = []
    for path, u, i, r in parts:
        try:
            tables.append(RatingsTable(u, i, r, scale, uorder, iorder))
        except ScaleError as exc:
            raise ScaleError(f"{path}: {exc}") from None
    return tables


def parse_ratings(
    path,
    fmt: str = "movielens-tab",
    scale: RatingScale = FIVE_STAR,
) -> RatingsTable:
    """Load a ratings file; ids become dense indices in first-appearance
    order and every rating is checked against the scale bounds."""
    (table,) = _parse_files([path], fmt, scale)
    return table


def canonical_split(
    table: RatingsTable | None,
    mode: str,
    fraction: float = 0.2,
    seed: int = 0,
    val_fraction: float = 0.0,
    base_path=None,
    test_path=None,
    fmt: str = "movielens-tab",
    scale: RatingScale = FIVE_STAR,
):
    """Split ratings into train/test (and optionally validation).

    mode="random" draws round(fraction * n) test rows (plus a validation
    slice) without replacement from ``table``.  mode="file-pair" reads two
    files that publish the split and remaps them jointly so both halves
    agree on the id space.
    """
    if mode == "random":
        if table is None:
            raise ValueError("random split needs a table")
        if not 0.0 <= fraction < 1.0 or not 0.0 <= val_fraction < 1.0 \
                or fraction + val_fraction >= 1.0:
            raise ValueError("fractions must be in [0, 1) and sum below 1")
        n = table.n_ratings
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        n_test = int(round(fraction * n))
        n_val = int(round(val_fraction * n))
        test = table.subset(np.sort(order[:n_test]))
        val = table.subset(np.sort(order[n_test : n_test + n_val]))
        train = table.subset(np.sort(order[n_test + n_val :]))
        return (train, test, val) if val_fraction > 0 else (train, test)
    if mode == "file-pair":
        train, test = _parse_files([base_path, test_path], fmt, scale)
        # one id space for both files, so equal keys are one cell
        both = np.intersect1d(train.keys, test.keys, assume_unique=True)
        if both.size:
            u, i = np.unravel_index(both[0], (train.n_users, train.n_items))
            raise ValueError(f"user {train.users[u]!r} / item "
                             f"{train.items[i]!r} appears in both files")
        return train, test
    raise ValueError(f"unknown split mode {mode!r}")


def encode_onehot(table: RatingsTable) -> SparseExchangeableTensor:
    """Users x items matrix whose channel vector is the rating's one-hot."""
    scale = table.scale
    levels = np.asarray(scale.levels)
    pos = np.searchsorted(levels, table.ratings)
    pos = np.clip(pos, 0, len(levels) - 1)
    # searchsorted gives a candidate; demand an exact level match
    near = np.abs(levels[pos] - table.ratings) < 1e-9
    alt = np.clip(pos - 1, 0, len(levels) - 1)
    near_alt = np.abs(levels[alt] - table.ratings) < 1e-9
    pos = np.where(near, pos, alt)
    if not (near | near_alt).all():
        bad = table.ratings[~(near | near_alt)][0]
        raise ValueError(f"rating {bad} is not a level of {scale.levels}")
    values = np.zeros((table.n_ratings, scale.n_levels))
    values[np.arange(table.n_ratings), pos] = 1.0
    return SparseExchangeableTensor(
        (table.n_users, table.n_items), table.indices(), values
    )


def rebin_scale(rating, src: RatingScale, dst: RatingScale):
    """Map ratings between scales, landing exactly on a destination level.

    Linear endpoint-to-endpoint map, round half away from zero, then snap
    to the nearest level (ties toward the higher level).
    """
    arr = np.asarray(rating, dtype=np.float64)
    if (arr < src.lo - 1e-9).any() or (arr > src.hi + 1e-9).any():
        raise ValueError(f"rating outside source scale [{src.lo}, {src.hi}]")
    span = src.hi - src.lo
    mapped = ((arr - src.lo) / span * (dst.hi - dst.lo) + dst.lo if span
              else np.full_like(arr, dst.lo))
    rounded = np.sign(mapped) * np.floor(np.abs(mapped) + 0.5)
    rounded = np.clip(rounded, dst.lo, dst.hi)
    levels = np.asarray(dst.levels)
    gaps = np.abs(levels[None, ...] - np.atleast_1d(rounded)[..., None])
    # argmax over reversed levels breaks distance ties toward the higher one
    nearest = levels.size - 1 - np.argmin(gaps[:, ::-1], axis=1)
    out = levels[nearest]
    return out.reshape(arr.shape) if arr.shape else float(out[0])


def synthetic_lowrank_table(
    n_rows: int = 50,
    n_cols: int = 60,
    observed_fraction: float = 0.3,
    seed: int = 0,
    scale: RatingScale = FIVE_STAR,
) -> RatingsTable:
    """Quantized rank-2 ratings for benchmarks.

    Scores are U V^T / sqrt(2) with standard normal rank-2 factors whose
    first coordinate is shifted by 1.2.  The shift gives rows and columns
    realistic popularity biases (first-order structure) on top of the
    rank-2 interaction, which plain zero-mean factors would lack.  Scores
    are standardized, then mapped onto the scale by
    ``index = clip(offset_round(center + score))`` where center is the
    middle of the level index range: one level per standard deviation.
    A uniform cell subset of the requested size is kept.  Fully
    reproducible from the seed.
    """
    if not 0.0 < observed_fraction <= 1.0:
        raise ValueError("observed fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n_rows, 2))
    v = rng.normal(size=(n_cols, 2))
    u[:, 0] += 1.2
    v[:, 0] += 1.2
    scores = u @ v.T / np.sqrt(2)
    scores = (scores - scores.mean()) / scores.std()
    center = (scale.n_levels - 1) / 2.0
    idx = np.floor(center + scores + 0.5).astype(int)
    idx = np.clip(idx, 0, scale.n_levels - 1)
    ratings_full = np.asarray(scale.levels)[idx]
    n_obs = int(round(observed_fraction * n_rows * n_cols))
    cells = rng.choice(n_rows * n_cols, size=max(1, n_obs), replace=False)
    r, c = np.unravel_index(cells, (n_rows, n_cols))
    return RatingsTable(
        r, c, ratings_full[r, c], scale,
        tuple(range(n_rows)), tuple(range(n_cols)),
    )


def rmse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64).ravel()
    t = np.asarray(targets, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("rmse of an empty set")
    return float(np.sqrt(np.mean((p - t) ** 2)))
