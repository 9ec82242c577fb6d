"""Self-describing binary container for trained models.

Layout: an 8-byte magic ``EXCHK001``, an 8-byte little-endian header
length, a UTF-8 JSON header, then the raw array payload.  The header
declares the format version, the model configuration, the rating scale,
free-form metadata, and one entry per array with its name, dtype string
(byte order included), shape, offset, and byte count, so any language
with a JSON parser can read the weights back.  Arrays are stored
C-contiguous and little-endian; saving and loading round-trips files
bit for bit.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import RatingScale
from .layers import ExchLayerParams, block_key, block_name
from .models import (
    PARAMS_CLASSES,
    FeaParams,
    ModelConfig,
    SelfSupervisedParams,
    check_params,
    named_arrays,
)

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]

MAGIC = b"EXCHK001"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A loaded model: configuration, weights, scale, and metadata."""

    config: ModelConfig
    params: SelfSupervisedParams | FeaParams
    scale: RatingScale
    metadata: dict


def _subset_from_key(key: str) -> frozenset[int]:
    if key == "wg":
        return frozenset()
    return frozenset(int(ch) for ch in key[1:])


def _layer_descriptor(layer: ExchLayerParams) -> dict:
    return {
        "block_keys": [block_key(S) for S in sorted(layer.blocks, key=sorted)],
        "tied": layer.tied,
        "nonlinearity": layer.nonlinearity,
        "slope": layer.slope,
    }


def _config_to_json(config: ModelConfig) -> dict:
    """Each ModelConfig field; tuples become lists, sets sorted lists."""
    blob = {}
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        blob[f.name] = list(value) if isinstance(value, tuple) else value
    return blob


def _config_from_json(blob: dict) -> ModelConfig:
    # ModelConfig turns the lists back into tuples and a frozenset
    return ModelConfig(**{f.name: blob[f.name] for f in fields(ModelConfig)})


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    params: SelfSupervisedParams | FeaParams,
    scale: RatingScale,
    metadata: dict | None = None,
) -> None:
    """Write a model to ``path`` in the EXCHK001 container format.

    Params that ``models.check_params`` refuses for ``config`` raise, so
    every file written loads.  A non-finite weight raises ValueError, and
    so does one in ``metadata``: the header is strict JSON, with no NaN or
    Infinity token.
    """
    try:
        check_params(config, params)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"cannot checkpoint to {path}: {exc}") from exc
    stack_blob = {
        field: [_layer_descriptor(lp) for lp in getattr(params, field)]
        for field in params.STACKS
    }
    arrays = named_arrays(params)

    table = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if not np.isfinite(arr).all():
            raise ValueError(f"cannot checkpoint to {path}: array {name!r} is not finite")
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        raw = arr.tobytes(order="C")
        table.append(
            {
                "name": name,
                "dtype": np.dtype(arr.dtype).newbyteorder("<").str,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(raw),
            }
        )
        payload.extend(raw)

    header = {
        "format_version": FORMAT_VERSION,
        "byte_order": "little",
        "model_config": _config_to_json(config),
        "scale": {"levels": list(scale.levels)},
        "metadata": metadata or {},
        "stacks": stack_blob,
        "arrays": table,
    }
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(bytes(payload))


def _rebuild_stack(
    prefix: str,
    descriptors: list[dict],
    arrays: dict[str, np.ndarray],
) -> tuple[ExchLayerParams, ...]:
    layers = []
    for i, desc in enumerate(descriptors, start=1):
        if not isinstance(desc, dict):
            raise TypeError(f"{prefix}{i} descriptor is not an object")
        # headers written before pooling became mean-only carry the mode
        if desc.get("pool_mode", "mean") != "mean":
            raise ValueError(
                f"{prefix}{i}: unsupported pool mode {desc['pool_mode']!r}"
            )
        blocks: dict[frozenset[int], np.ndarray] = {}
        for key in desc["block_keys"]:
            S = _subset_from_key(key)
            name = block_name(f"{prefix}{i}", S, desc["tied"])
            if name not in arrays:
                raise ValueError(f"checkpoint is missing array {name!r}")
            blocks[S] = arrays[name]
        layers.append(
            ExchLayerParams(
                blocks=blocks,
                bias=arrays[f"{prefix}{i}.bias"],
                nonlinearity=desc["nonlinearity"],
                slope=desc["slope"],
                tied=desc["tied"],
            )
        )
    return tuple(layers)


@contextmanager
def _entry(path, what: str):
    """Report header data of the wrong type as a ValueError naming it."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"{path}: malformed {what}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read an EXCHK001 container back into config, params, and scale.

    A malformed container raises ValueError: a header that is not a JSON
    object, lacks a required key or holds an entry of the wrong type, a
    non-finite array or one whose byte count does not fit its shape and
    dtype, array byte ranges that do not tile the payload in order, or a
    layer whose shape disagrees with the widths in ``model_config``.
    """
    try:
        return _load(path)
    except KeyError as exc:
        raise ValueError(
            f"{path}: checkpoint has no {exc.args[0]!r} entry"
        ) from exc


def _load(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an EXCHK001 checkpoint")
    header_len = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    body_start = len(MAGIC) + 8
    if len(raw) < body_start + header_len:
        raise ValueError(f"{path}: truncated header")
    header = json.loads(raw[body_start : body_start + header_len].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {header['format_version']}"
        )
    payload = raw[body_start + header_len :]

    arrays: dict[str, np.ndarray] = {}
    with _entry(path, "'arrays' entry"):
        entries = list(header["arrays"])
    end = 0
    for entry in entries:
        with _entry(path, f"array entry {entry!r}"):
            if not all(type(entry[k]) is int for k in ("offset", "nbytes")):
                raise TypeError("offset and nbytes must be ints")
            if entry["offset"] != end:  # as save_checkpoint tiles them
                raise ValueError(f"{path}: array {entry['name']!r} starts at "
                                 f"byte {entry['offset']}, not at {end}")
            end += entry["nbytes"]
            if end > len(payload):
                raise ValueError(
                    f"{path}: truncated payload at {entry['name']!r}"
                )
            if not all(type(d) is int and 0 <= d < 2**63 for d in entry["shape"]):
                raise TypeError("shape entries must be int64 values >= 0")
            count = math.prod(entry["shape"])
            dtype = np.dtype(entry["dtype"])
            if entry["nbytes"] != count * dtype.itemsize:
                raise ValueError(
                    f"{path}: array {entry['name']!r} declares "
                    f"{entry['nbytes']} bytes, but shape {entry['shape']} of "
                    f"{dtype.str} takes {count * dtype.itemsize}"
                )
            arr = np.frombuffer(payload, dtype=dtype, count=count,
                                offset=entry["offset"])
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: array {entry['name']!r} is not finite")
            arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
    if end != len(payload):
        raise ValueError(f"{path}: {len(payload) - end} payload bytes after "
                         f"the last array entry")

    with _entry(path, "'model_config' entry"):
        config = _config_from_json(header["model_config"])
    cls = PARAMS_CLASSES[config.architecture]
    with _entry(path, "'stacks' entry"):
        params = cls(**{
            field: _rebuild_stack(prefix, header["stacks"][field], arrays)
            for field, prefix in cls.STACKS.items()
        })
    try:
        check_params(config, params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    with _entry(path, "'scale' entry"):
        scale = RatingScale(tuple(header["scale"]["levels"]))
    return Checkpoint(
        config=config,
        params=params,
        scale=scale,
        metadata=header["metadata"],
    )

