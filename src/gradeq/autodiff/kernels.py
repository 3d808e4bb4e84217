"""Raw numpy kernels for the dense-tensor op set: the raw-array op namespace.

One function per op of the engine's `_OPS`, plus `const` (the identity).
Each is its op's one forward on both routes: a Graph computes every
node's value with it, and the non-recording backward pass, a replayed
`Plan` and a model forward on plain arrays run with this module as their
op namespace. So each kernel checks its own arguments, raising `GraphError`
where numpy would broadcast or compute silently; where numpy already
raises, it is left to. All arithmetic is float64.

`broadcast` returns a read-only view with zero strides on its broadcast
axes, not a copy, and no kernel writes into its arguments. An elementwise
op gives the same bytes on a view as on its copy. A sum or a GEMM need
not, as numpy orders their additions by the operands' strides: summing a
[64, 16, 32, 32] bias broadcast over every axis, or a GEMM through numpy's
non-BLAS loop, changes the last bits. So `sum_axes` and `matmul` read
C-contiguous operands, a no-op on every operand a model hands them today.

`conv2d` is im2col and GEMM over tiles of images for every shape: each
tile's windows go to a fresh buffer of at most `_TILE_COLS` columns (or one
wider image), so the module keeps no state. Splitting the columns leaves
each output element's reduction as one GEMM computes it, and `np.einsum(...,
optimize=True)` makes that GEMM where no axis is 1: the tests keep it as the
oracle. The 2x2 pool kernels read each window's four corners as strided
views of the input, row-major. Their mask is corner first, [4, n, c, h/2,
w/2]: `pool_mask` copies the corners into its planes and builds the one-hot
from comparisons there (argmax only for input holding NaN), and `maxpool2`
and `unpool2` read one contiguous plane per corner. It stays float64, since
numpy would cast a boolean mask on every multiply.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class GraphError(ValueError):
    """Malformed op arguments or graph construction (bad shapes, cross-graph args)."""


def const(x: np.ndarray) -> np.ndarray:
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul needs 2-d operands with equal inner dims, "
                         f"got {a.shape} @ {b.shape}")
    return np.ascontiguousarray(a) @ np.ascontiguousarray(b)


_TILE_COLS = 2048  # GEMM columns per conv2d tile, not bytes: a kernel adjoint stays one GEMM


def conv2d(x: np.ndarray, k: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 cross-correlation with symmetric zero padding.

    x: [N, C, H, W], k: [O, C, kh, kw] -> [N, O, H + 2*pad - kh + 1, ...].
    Each tile of `max(1, _TILE_COLS // (Ho*Wo))` images (the last maybe
    partial) has its windows copied into its own [C*kh*kw, nb*Ho*Wo] buffer;
    one matmul of k as [O, C*kh*kw] writes them into a view (never a copy)
    of the tile's columns of an [O, N, Ho, Wo] result, returned transposed.
    """
    n, c, h, w = x.shape
    o, c2, kh, kw = k.shape
    if c != c2:
        raise GraphError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    if kh != kw:
        raise GraphError(f"conv2d kernels must be square, got {kh}x{kw}")
    if not 0 <= pad <= kh - 1:
        raise GraphError(f"conv2d pad must lie in [0, {kh - 1}], got {pad}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise GraphError("conv2d kernel larger than padded input")
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))  # [n, c, ho, wo, kh, kw]
    ho, wo = win.shape[2:4]
    km = np.reshape(k, (o, c * kh * kw))
    out = np.empty((o, n, ho, wo))
    nb = max(1, _TILE_COLS // (ho * wo))
    for lo in range(0, n, nb):
        m = min(nb, n - lo)
        cols = win[lo:lo + m].transpose(1, 4, 5, 0, 2, 3)  # copied below, freed after the call
        np.matmul(km, np.ascontiguousarray(cols).reshape(c * kh * kw, m * ho * wo),
                  out=out[:, lo:lo + m].reshape(o, m * ho * wo, copy=False))
    return out.transpose(1, 0, 2, 3)


def permute(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return np.ascontiguousarray(np.transpose(x, axes))


def flip_hw(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x[..., ::-1, ::-1])


def reshape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.reshape(x, shape)


def _same_shape(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise GraphError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _same_shape("add", a, b)
    return a + b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _same_shape("mul", a, b)
    return a * b


def scale(x: np.ndarray, c: float) -> np.ndarray:
    return x * c


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_mask(x: np.ndarray) -> np.ndarray:
    """Where relu passes its input: 1.0 where x > 0, else 0.0."""
    return (x > 0.0).astype(np.float64)


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
    return np.sum(np.ascontiguousarray(x), axis=axes, keepdims=True)


def rowmax(x: np.ndarray) -> np.ndarray:
    """Maximum of each row of a [B, K] array, shape [B, 1]."""
    if x.ndim != 2:
        raise GraphError(f"rowmax needs a 2-d array, got shape {x.shape}")
    return np.max(x, axis=1, keepdims=True)


def broadcast(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if x.ndim != len(shape):
        raise GraphError(f"broadcast rank mismatch: {x.shape} -> {shape}")
    for have, want in zip(x.shape, shape):
        if have != want and have != 1:
            raise GraphError(f"broadcast shape mismatch: {x.shape} -> {shape}")
    return np.broadcast_to(x, shape)


def _corners(x: np.ndarray) -> list[np.ndarray]:
    """The four entries of every 2x2 window of x, row-major, as strided
    views [n, c, h/2, w/2]."""
    return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def _even(x: np.ndarray) -> None:
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise GraphError(f"maxpool2 needs even spatial dims, got {h}x{w}")


def pool_mask(x: np.ndarray) -> np.ndarray:
    """One-hot argmax mask over each 2x2 window, first max wins on ties:
    [4, n, c, h/2, w/2], one contiguous plane per corner, row-major.

    The corners are first copied into the mask's planes, so the comparisons
    read contiguous memory; then each plane becomes its corner's flag.
    Corner 0 wins where it is >= the other three, corner 1 where 0 does not
    and it is >= 2 and 3, corner 2 where neither does and it is >= 3,
    corner 3 elsewhere. That is argmax's choice on every window without NaN,
    ties, +-inf and signed zeros included. A NaN fails every comparison
    where argmax takes the window's first NaN, so input holding one goes
    through argmax. Only a raw forward (`model.logits`) can hand it one: a
    tape checks the pool's input finite before it gets here.
    """
    _even(x)
    mask = np.array(_corners(x))  # a list, so C order whatever the views' strides
    if np.isnan(np.max(mask, initial=-np.inf)):
        first = np.argmax(mask, axis=0)
        for t in range(4):
            mask[t] = first == t
        return mask
    c0, c1, c2, c3 = mask
    a = (c0 >= c1) & (c0 >= c2) & (c0 >= c3)
    b = ~a & (c1 >= c2) & (c1 >= c3)
    c = ~(a | b) & (c2 >= c3)
    mask[0], mask[1], mask[2], mask[3] = a, b, c, ~(a | b | c)
    return mask


def maxpool2(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Select each 2x2 window's entry through `mask`: the max pool with x's
    own `pool_mask`, the adjoint of unpool2 with another's.

    The sum starts from zeros and adds the corners in row-major order, as
    `np.sum` over a window does, so a window of -0.0 gives +0.0.
    """
    n, c, h, w = x.shape
    _even(x)
    if mask.shape != (4, n, c, h // 2, w // 2):
        raise GraphError(f"maxpool2 mask shape {mask.shape} does not fit input {x.shape}")
    out = np.zeros(mask.shape[1:])
    for corner, m in zip(_corners(x), mask):
        out += corner * m
    return out


def unpool2(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scatter pooled gradients back through the recorded argmax mask."""
    if mask.shape != (4, *g.shape):
        raise GraphError(f"unpool2 mask shape {mask.shape} does not fit input {g.shape}")
    _, n, c, hh, ww = mask.shape
    out = np.empty((n, c, 2 * hh, 2 * ww))
    for corner, m in zip(_corners(out), mask):
        np.multiply(g, m, out=corner)
    return out
