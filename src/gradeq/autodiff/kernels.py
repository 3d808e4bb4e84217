"""Raw numpy kernels for the dense-tensor op set: the raw-array op namespace.

These are plain array functions with no graph bookkeeping, one per op of
the engine's `_OPS`, plus `const` (the identity) and `pool_mask`. The graph
engine calls them for forward evaluation, the fast (non-recording) backward
pass runs the vector-Jacobian rules with this module as their namespace,
and a model forward run on this module evaluates on plain arrays. Each is
looked up here at call time. All arithmetic is float64; single-precision
storage is a concern of model checkpoints, not of the engine.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def const(x: np.ndarray) -> np.ndarray:
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


def conv2d(x: np.ndarray, k: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 cross-correlation with symmetric zero padding.

    x: [N, C, H, W], k: [O, C, kh, kw] -> [N, O, H + 2*pad - kh + 1, ...].
    """
    n, c, h, w = x.shape
    o, c2, kh, kw = k.shape
    if c != c2:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ValueError("conv2d kernel larger than padded input")
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))  # [n, c, ho, wo, kh, kw]
    return np.einsum("nchwuv,ocuv->nohw", win, k, optimize=True)


def permute(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return np.ascontiguousarray(np.transpose(x, axes))


def flip_hw(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x[..., ::-1, ::-1])


def reshape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.reshape(x, shape)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def scale(x: np.ndarray, c: float) -> np.ndarray:
    return x * c


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}); stable on both tails
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def exp(x: np.ndarray) -> np.ndarray:
    # out-of-range results surface as NonFiniteError at the graph layer
    with np.errstate(over="ignore"):
        return np.exp(x)


def log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


def rsqrt(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / np.sqrt(x)


def reciprocal(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 1.0 / x


def sum_axes(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    if not axes:
        return x.copy()  # np.sum over no axes would turn -0.0 into 0.0
    return np.sum(x, axis=axes, keepdims=True)


def broadcast(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if x.ndim != len(shape):
        raise ValueError(f"broadcast rank mismatch: {x.shape} -> {shape}")
    for have, want in zip(x.shape, shape):
        if have != want and have != 1:
            raise ValueError(f"broadcast shape mismatch: {x.shape} -> {shape}")
    return np.ascontiguousarray(np.broadcast_to(x, shape))


def pool_mask(x: np.ndarray) -> np.ndarray:
    """One-hot argmax mask over each 2x2 window, first max wins on ties."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(n, c, h // 2, w // 2, 4)
    idx = np.argmax(flat, axis=-1)
    mask = np.zeros_like(flat)
    np.put_along_axis(mask, idx[..., None], 1.0, axis=-1)
    return mask  # [n, c, h/2, w/2, 4]


def maxpool2(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Select each 2x2 window's entry through `mask`, by default x's own
    argmax mask; with a given mask this is the adjoint of unpool2."""
    if mask is None:
        mask = pool_mask(x)
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(n, c, h // 2, w // 2, 4)
    return np.sum(flat * mask, axis=-1)


def unpool2(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scatter pooled gradients back through the recorded argmax mask."""
    n, c, hh, ww, _ = mask.shape
    flat = g[..., None] * mask
    win = flat.reshape(n, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(win.reshape(n, c, hh * 2, ww * 2))
