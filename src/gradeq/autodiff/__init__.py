"""Tape-based reverse-mode autodiff with double-backward support."""

from .engine import Graph, GraphError, NonFiniteError, Plan, Var, grad, reaches
from .functional import (
    COSINE_NORM_FLOOR,
    affine,
    conv_bias,
    cosine_rows,
    cross_entropy_mean,
    flatten,
    logsumexp_rows,
    mean_all,
    onehot,
    picked_rows,
    sum_all,
)

__all__ = [
    "Graph", "GraphError", "NonFiniteError", "Plan", "Var", "grad", "reaches",
    "COSINE_NORM_FLOOR", "affine", "conv_bias",
    "cosine_rows", "cross_entropy_mean", "flatten", "logsumexp_rows",
    "mean_all", "onehot", "picked_rows", "sum_all",
]
