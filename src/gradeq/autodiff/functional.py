"""Composite building blocks on top of the primitive op set.

`affine`, `conv_bias` and `flatten` take an op namespace first, like the
VJP rules: the `kernels` module to run on raw arrays, or a `Graph` to
emit onto its tape. So a model forward runs on either alike.
Everything else takes and returns graph Vars and records its ops on
their graph (`x.graph.<op>`); plain arrays enter only as constants
(one-hot labels, frozen reference gradients).
"""

from __future__ import annotations

import numpy as np

from .engine import Var

COSINE_NORM_FLOOR = 1e-12


def affine(ns, x, w, b):
    """x @ w + b for x [B, D], w [D, K], b [K]."""
    y = ns.matmul(x, w)
    bias = ns.broadcast(ns.reshape(b, (1, b.shape[0])), y.shape)
    return ns.add(y, bias)


def conv_bias(ns, x, k, b, pad: int):
    """Stride-1 padded convolution plus per-channel bias."""
    y = ns.conv2d(x, k, pad)
    bias = ns.broadcast(ns.reshape(b, (1, b.shape[0], 1, 1)), y.shape)
    return ns.add(y, bias)


def flatten(ns, x):
    n = x.shape[0]
    return ns.reshape(x, (n, int(np.prod(x.shape[1:], dtype=np.int64))))


def sum_all(x: Var) -> Var:
    g = x.graph
    return g.reshape(g.sum_axes(x, tuple(range(len(x.shape)))), ())


def mean_all(x: Var) -> Var:
    return x.graph.scale(sum_all(x), 1.0 / x.value.size)


def onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels out of range for {num_classes} classes")
    return np.eye(num_classes)[labels]


def logsumexp_rows(logits: Var) -> Var:
    """Row-wise log-sum-exp of [B, K] logits, shape [B, 1].

    The row maximum is a cut (`rowmax`): the value and gradient are exact
    for any fixed shift, the shift only tames the exponentials.
    """
    g = logits.graph
    m = g.rowmax(logits)
    shifted = g.add(logits, g.broadcast(g.scale(m, -1.0), logits.shape))
    s = g.sum_axes(g.exp(shifted), (1,))
    return g.add(g.log(s), m)


def picked_rows(logits: Var, labels: np.ndarray) -> Var:
    """Logit of each row's labeled class, shape [B, 1]."""
    g = logits.graph
    return g.sum_axes(g.mul(logits, g.const(onehot(labels, logits.shape[1]))), (1,))


def cross_entropy_mean(logits: Var, labels: np.ndarray) -> Var:
    """Mean softmax cross entropy over the batch, scalar."""
    g = logits.graph
    rows = g.add(logsumexp_rows(logits), g.scale(picked_rows(logits, labels), -1.0))
    return g.scale(sum_all(rows), 1.0 / logits.shape[0])


def cosine_rows(u: Var, ref: np.ndarray) -> tuple[Var, np.ndarray]:
    """Row-wise cosine similarity between u [B, D] and a fixed reference.

    Rows where either vector's norm falls below COSINE_NORM_FLOOR are
    degenerate: they contribute exactly zero, carry zero gradient, and are
    reported in the returned boolean flags. The guard constant keeps the
    inverse square root finite on those rows without perturbing the rest.
    The guard is computed from u's value, so a tape holding it is not one
    a `Plan` may replay on a new input.
    """
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != u.shape:
        raise ValueError(f"reference shape {ref.shape} does not match {u.shape}")
    g = u.graph
    u_norms = np.linalg.norm(u.value, axis=1, keepdims=True)
    r_norms = np.linalg.norm(ref, axis=1, keepdims=True)
    ok = (u_norms >= COSINE_NORM_FLOOR) & (r_norms >= COSINE_NORM_FLOOR)
    mask = ok.astype(np.float64)

    uu = g.sum_axes(g.mul(u, u), (1,))
    rr = np.sum(ref * ref, axis=1, keepdims=True)
    ur = g.sum_axes(g.mul(u, g.const(ref)), (1,))
    safe = g.add(g.mul(uu, g.const(rr)), g.const(1.0 - mask))
    cos = g.mul(g.mul(ur, g.rsqrt(safe)), g.const(mask))
    return cos, ~ok[:, 0]
