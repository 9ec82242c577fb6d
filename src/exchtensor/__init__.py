"""Permutation-equivariant layers and matrix completion for sparse exchangeable arrays."""

from .sparse import (
    SparseExchangeableTensor,
    AxisGroups,
    PermutationSpec,
    build_sparse,
    axis_groups,
    apply_permutation,
    to_dense,
    from_dense,
)

__all__ = [
    "SparseExchangeableTensor", "AxisGroups", "PermutationSpec",
    "build_sparse", "axis_groups", "apply_permutation", "to_dense",
    "from_dense",
]
__version__ = "0.1.0"
