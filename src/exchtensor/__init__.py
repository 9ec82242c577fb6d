"""Permutation-equivariant layers and matrix completion for sparse exchangeable arrays."""

from .sparse import (
    SparseExchangeableTensor,
    AxisGroups,
    PermutationSpec,
    axis_groups,
    apply_permutation,
)

__all__ = [
    "SparseExchangeableTensor", "AxisGroups", "PermutationSpec",
    "axis_groups", "apply_permutation",
]
__version__ = "0.1.0"
