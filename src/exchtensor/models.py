"""The two matrix-completion architectures built from exchangeable layers.

One model is a plain stack of exchangeable matrix layers that maps a
one-hot rating matrix to a per-cell distribution over rating levels.
The other is a factorized autoencoder: an exchangeable encoder pooled
into per-row/per-column factors, and an exchangeable decoder that
rebuilds distributions from broadcast factors at any target cells.
Parameters never depend on the matrix shape, so a fitted model
transfers to matrices of any size over unseen ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .autodiff import NONLINEARITIES
from .data import RatingScale
from .layers import (
    ExchLayerParams,
    FactorPair,
    apply_stack,
    broadcast_factors,
    pool_to_factors,
    random_layer_params,
)
from .sparse import SparseExchangeableTensor

__all__ = [
    "ModelConfig",
    "SelfSupervisedParams",
    "FeaParams",
    "named_arrays",
    "with_named_arrays",
    "union_with_zeros",
    "init_params",
    "count_parameters",
    "self_supervised_forward",
    "fea_encode",
    "fea_decode",
    "predict_ratings",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; widths are per-layer output channels.

    ``dropout_placement`` holds 1-based layer indices: positions in the
    main stack for the self-supervised model, positions in the decoder
    for the autoencoder.
    """

    architecture: str
    levels: int = 5
    widths: tuple[int, ...] = ()
    encoder_widths: tuple[int, ...] = ()
    decoder_widths: tuple[int, ...] = ()
    nonlinearity: str = "leaky_relu"
    dropout_rate: float = 0.5
    dropout_placement: frozenset = frozenset()
    mask_prob: float = 0.15
    factor_size: int = 100

    def __post_init__(self):
        if self.architecture not in ("self-supervised", "fea"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ValueError(f"mask probability {self.mask_prob} not in [0, 1)")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate {self.dropout_rate} not in [0, 1)")
        if self.levels < 2:
            raise ValueError("need at least two rating levels")
        object.__setattr__(self, "widths", tuple(self.widths))
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        object.__setattr__(self, "decoder_widths", tuple(self.decoder_widths))
        object.__setattr__(
            self, "dropout_placement", frozenset(self.dropout_placement)
        )
        if self.architecture == "self-supervised":
            if not self.widths:
                raise ValueError("self-supervised model needs layer widths")
            if self.widths[-1] != self.levels:
                raise ValueError(
                    f"final width {self.widths[-1]} must equal the "
                    f"level count {self.levels}"
                )
            depth = len(self.widths)
        else:
            if not self.encoder_widths or not self.decoder_widths:
                raise ValueError("autoencoder needs encoder and decoder widths")
            if self.encoder_widths[-1] != self.factor_size:
                raise ValueError(
                    f"encoder must end at the factor size "
                    f"({self.encoder_widths[-1]} vs {self.factor_size})"
                )
            if self.decoder_widths[-1] != self.levels:
                raise ValueError(
                    f"final decoder width {self.decoder_widths[-1]} must "
                    f"equal the level count {self.levels}"
                )
            depth = len(self.decoder_widths)
        bad = [k for k in self.dropout_placement if not 1 <= k <= depth]
        if bad:
            raise ValueError(
                f"dropout placement {sorted(bad)} outside layers 1..{depth}"
            )

    @classmethod
    def self_supervised_default(cls, levels: int = 5) -> "ModelConfig":
        """Nine 256-channel layers, dropout 0.5 after layers 1 through 7."""
        return cls(
            architecture="self-supervised",
            levels=levels,
            widths=(256,) * 8 + (levels,),
            nonlinearity="leaky_relu",
            dropout_rate=0.5,
            dropout_placement=frozenset(range(1, 8)),
            mask_prob=0.15,
        )

    @classmethod
    def fea_default(cls, levels: int = 5) -> "ModelConfig":
        """220/220/100 encoder, five-layer decoder, dropout after 3 and 4."""
        return cls(
            architecture="fea",
            levels=levels,
            encoder_widths=(220, 220, 100),
            decoder_widths=(220, 220, 220, 220, levels),
            nonlinearity="leaky_relu",
            dropout_rate=0.5,
            dropout_placement=frozenset({3, 4}),
            mask_prob=0.0,
            factor_size=100,
        )


def union_with_zeros(
    t: SparseExchangeableTensor, extra_indices: np.ndarray
) -> SparseExchangeableTensor:
    """Extend the index set with extra cells carrying zero channels;
    t itself, cached groupings and all, when it holds every extra cell."""
    extra = np.asarray(extra_indices, dtype=np.int64)
    if extra.ndim != 2 or extra.shape[1] != t.ndim:
        raise ValueError(f"extra indices must be (n, {t.ndim})")
    # drop the cells t already holds and duplicates among the extras
    extra = np.unique(extra[t.find(extra) < 0], axis=0)
    if extra.shape[0] == 0:
        return t
    indices = np.concatenate([t.indices, extra])
    values = np.concatenate(
        [t.values, np.zeros((extra.shape[0], t.channels), t.values.dtype)]
    )
    return SparseExchangeableTensor(t.dims, indices, values)


@dataclass(frozen=True)
class SelfSupervisedParams:
    layers: tuple[ExchLayerParams, ...]

    # stack field -> array name prefix; layer k of a stack is prefix + k
    STACKS: ClassVar[dict[str, str]] = {"layers": "layer"}


@dataclass(frozen=True)
class FeaParams:
    encoder: tuple[ExchLayerParams, ...]
    decoder: tuple[ExchLayerParams, ...]

    STACKS: ClassVar[dict[str, str]] = {"encoder": "enc", "decoder": "dec"}


def named_arrays(params) -> dict[str, np.ndarray]:
    """Every array of a model by name, e.g. 'layer1.w01' or 'enc2.bias'.

    Names follow ``STACKS`` and ``layers.block_name``, so a tied layer's
    shared block appears once.  The trainer, the optimizer and the
    checkpoint all address a model's arrays through these names.
    """
    out: dict[str, np.ndarray] = {}
    for field, prefix in params.STACKS.items():
        for k, lp in enumerate(getattr(params, field), start=1):
            out.update(lp.bindings(f"{prefix}{k}"))
    return out


def with_named_arrays(params, arrays):
    """The same model with each array replaced by ``arrays[name]``."""
    return replace(params, **{
        field: tuple(lp.from_bindings(f"{prefix}{k}", arrays)
                     for k, lp in enumerate(getattr(params, field), start=1))
        for field, prefix in params.STACKS.items()
    })


def _stack_params(widths, in_channels, hidden_nl, final_nl, rng):
    layers = []
    k = in_channels
    for j, width in enumerate(widths, start=1):
        nl = final_nl if j == len(widths) else hidden_nl
        layers.append(random_layer_params(2, k, width, rng, nonlinearity=nl))
        k = width
    return tuple(layers)


def init_params(config: ModelConfig, seed: int = 0):
    """Fresh parameters for a config; data shape plays no part."""
    rng = np.random.default_rng(seed)
    if config.architecture == "self-supervised":
        return SelfSupervisedParams(
            _stack_params(
                config.widths, config.levels, config.nonlinearity,
                "softmax", rng,
            )
        )
    encoder = _stack_params(
        config.encoder_widths, config.levels, config.nonlinearity,
        "identity", rng,
    )
    decoder = _stack_params(
        config.decoder_widths, 2 * config.factor_size, config.nonlinearity,
        "softmax", rng,
    )
    return FeaParams(encoder, decoder)


def count_parameters(params) -> int:
    return sum(a.size for a in named_arrays(params).values())


def self_supervised_forward(
    x_in: SparseExchangeableTensor,
    config: ModelConfig,
    params: SelfSupervisedParams,
) -> SparseExchangeableTensor:
    """Distribution over rating levels at every cell of x_in's index set.

    Eval mode: no dropout.  Cells wanting predictions should be present
    with zeroed channels.
    """
    if config.architecture != "self-supervised":
        raise ValueError("config is not for the self-supervised model")
    if x_in.channels != config.levels:
        raise ValueError(
            f"input has {x_in.channels} channels, expected {config.levels}"
        )
    if len(params.layers) != len(config.widths):
        raise ValueError(
            f"{len(params.layers)} layers of params for "
            f"{len(config.widths)} configured layers"
        )
    return apply_stack(x_in, params.layers)


def fea_encode(
    x: SparseExchangeableTensor,
    config: ModelConfig,
    params: FeaParams,
) -> FactorPair:
    """Pool an exchangeable stack into per-row and per-column factors."""
    if config.architecture != "fea":
        raise ValueError("config is not for the autoencoder")
    if x.channels != config.levels:
        raise ValueError(
            f"input has {x.channels} channels, expected {config.levels}"
        )
    if len(params.encoder) != len(config.encoder_widths):
        raise ValueError("encoder params do not match the config")
    return pool_to_factors(apply_stack(x, params.encoder))


def fea_decode(
    factors: FactorPair,
    target_indices: np.ndarray | SparseExchangeableTensor,
    config: ModelConfig,
    params: FeaParams,
    imputation: bool = False,
) -> SparseExchangeableTensor:
    """Rebuild rating distributions at target cells from the factors.

    ``target_indices`` is an (n, 2) array of cells, or a tensor whose
    index set (with its cached groupings) is the decode set.  Eval mode:
    no dropout.  Cold rows or columns (ids the encoder never saw) raise unless
    imputation fills them with the warm-factor mean first.
    """
    if config.architecture != "fea":
        raise ValueError("config is not for the autoencoder")
    if len(params.decoder) != len(config.decoder_widths):
        raise ValueError("decoder params do not match the config")
    if imputation:
        factors = factors.imputed()
    base = broadcast_factors(factors, target_indices)
    return apply_stack(base, params.decoder)


def predict_ratings(distributions, scale: RatingScale) -> np.ndarray:
    """Collapse per-cell level distributions to their expected ratings."""
    p = np.asarray(distributions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != scale.n_levels:
        raise ValueError(
            f"distributions must be (n, {scale.n_levels}), got {p.shape}"
        )
    worst = np.abs(p.sum(axis=1) - 1.0).max()
    if worst > 1e-4:
        raise ValueError(
            f"distributions are not normalized (max deviation {worst:.2e})"
        )
    return p @ np.asarray(scale.levels)
