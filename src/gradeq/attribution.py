"""Per-pixel attribution maps: saliency, input-times-gradient,
integrated gradients, smoothgrad.

Every method is built from `models.input_gradients`, the one saliency
gradient of the package: one tape per batch, and the maps returned as one
float64 array shaped like the input batch. The pixel view used by masks
and inequality metrics is `reduced`: the channel sum of absolute values.
"""

from __future__ import annotations

import json

import numpy as np

from .models import Model, input_gradients
from .seeding import seed_stream

DEFAULT_SG_SIGMA = 0.1
DEFAULT_SG_SAMPLES = 25


def reduced(maps: np.ndarray) -> np.ndarray:
    """Per-pixel magnitude of a batch of maps: the channel sum of absolute
    values, [N, H, W] for [N, C, H, W] maps. Flat [N, D] feature vectors
    have no channel axis; each coordinate is its own pixel and the
    reduction is just the absolute value."""
    if maps.ndim == 4:
        return np.abs(maps).sum(axis=1)
    return np.abs(maps)


def saliency(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The input gradients themselves; `input_gradients` is looked up at each
    call, so perfbench's tracer, which wraps it here, sees every one."""
    return input_gradients(model, x, y)


def input_x_gradient(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * input_gradients(model, x, y)


def integrated_gradients(model: Model, x: np.ndarray, y: np.ndarray,
                         baseline: np.ndarray | None = None,
                         steps: int = 32) -> np.ndarray:
    """Midpoint-rule path integral of input gradients from baseline to x."""
    if steps < 8:
        raise ValueError(f"need at least 8 integration steps, got {steps}")
    x = np.asarray(x, dtype=np.float64)
    base = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=np.float64)
    if base.shape != x.shape:
        raise ValueError(f"baseline shape {base.shape} does not match {x.shape}")
    acc = np.zeros_like(x)
    for t in range(steps):
        alpha = (t + 0.5) / steps
        acc += input_gradients(model, base + alpha * (x - base), y)
    return (x - base) * (acc / steps)


def smoothgrad(model: Model, x: np.ndarray, y: np.ndarray,
               sigma: float = DEFAULT_SG_SIGMA, samples: int = DEFAULT_SG_SAMPLES,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Mean saliency over Gaussian-perturbed copies of the input. Each noise
    draw has one image's shape and is added to every image of the batch, so
    a map does not depend on which images share its batch."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not sigma >= 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if rng is None:
        rng = seed_stream(0, "smoothgrad")
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0.0:
        # degenerate smoothing: bitwise equal to plain saliency
        return input_gradients(model, x, y)
    acc = np.zeros_like(x)
    for _ in range(samples):
        acc += input_gradients(model, x + rng.normal(0.0, sigma, size=x.shape[1:]), y)
    return acc / samples


METHODS = {
    "saliency": saliency,
    "input_x_gradient": input_x_gradient,
    "integrated_gradients": integrated_gradients,
    "smoothgrad": smoothgrad,
}


def attribute(model: Model, x: np.ndarray, y: np.ndarray,
              method: str = "saliency") -> np.ndarray:
    if method not in METHODS:
        raise ValueError(f"unknown attribution method {method!r}")
    return METHODS[method](model, x, y)


def load_attribution(path: str) -> tuple[np.ndarray, str]:
    """One map stored as raw values plus a JSON sidecar (shape, dtype,
    method, target): its float64 values and its method."""
    with open(str(path) + ".json") as f:
        sidecar = json.load(f)
    arr = np.fromfile(path, dtype=sidecar["dtype"]).reshape(sidecar["shape"])
    return arr.astype(np.float64), sidecar["method"]
