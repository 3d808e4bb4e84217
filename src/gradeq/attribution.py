"""Per-pixel attribution maps: saliency, input-times-gradient,
integrated gradients, smoothgrad.

Every method is built from `models.input_gradients`, the one saliency
gradient of the package: one tape per batch, maps returned per image.
The pixel view used by masks and inequality metrics is `reduced`: the
channel sum of absolute values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .models import Model, input_gradients
from .seeding import seed_stream

DEFAULT_SG_SIGMA = 0.1
DEFAULT_SG_SAMPLES = 25


@dataclass(frozen=True)
class AttributionMap:
    values: np.ndarray  # [C, H, W]
    method: str
    target: int

    @property
    def reduced(self) -> np.ndarray:
        """Per-pixel magnitude: channel sum of absolute values, [H, W].

        Flat feature vectors have no channel axis; each coordinate is its
        own pixel and the reduction is just the absolute value.
        """
        if self.values.ndim == 3:
            return np.abs(self.values).sum(axis=0)
        return np.abs(self.values)


def _wrap(values: np.ndarray, method: str, targets) -> list[AttributionMap]:
    return [AttributionMap(v, method, int(t)) for v, t in zip(values, targets)]


def saliency(model: Model, x: np.ndarray, y: np.ndarray) -> list[AttributionMap]:
    return _wrap(input_gradients(model, x, y), "saliency", y)


def input_x_gradient(model: Model, x: np.ndarray, y: np.ndarray) -> list[AttributionMap]:
    values = np.asarray(x, dtype=np.float64) * input_gradients(model, x, y)
    return _wrap(values, "input_x_gradient", y)


def integrated_gradients(model: Model, x: np.ndarray, y: np.ndarray,
                         baseline: np.ndarray | None = None,
                         steps: int = 32) -> list[AttributionMap]:
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
    values = (x - base) * (acc / steps)
    return _wrap(values, "integrated_gradients", y)


def smoothgrad(model: Model, x: np.ndarray, y: np.ndarray,
               sigma: float = DEFAULT_SG_SIGMA, samples: int = DEFAULT_SG_SAMPLES,
               rng: np.random.Generator | None = None) -> list[AttributionMap]:
    """Mean saliency over Gaussian-perturbed copies of the input. Each noise
    draw has one image's shape and is added to every image of the batch, so
    a map does not depend on which images share its batch."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if rng is None:
        rng = seed_stream(0, "smoothgrad")
    x = np.asarray(x, dtype=np.float64)
    if sigma <= 0.0:
        # degenerate smoothing: bitwise equal to plain saliency
        return _wrap(input_gradients(model, x, y), "smoothgrad", y)
    acc = np.zeros_like(x)
    for _ in range(samples):
        acc += input_gradients(model, x + rng.normal(0.0, sigma, size=x.shape[1:]), y)
    return _wrap(acc / samples, "smoothgrad", y)


METHODS = {
    "saliency": saliency,
    "input_x_gradient": input_x_gradient,
    "integrated_gradients": integrated_gradients,
    "smoothgrad": smoothgrad,
}


def attribute(model: Model, x: np.ndarray, y: np.ndarray,
              method: str = "saliency") -> list[AttributionMap]:
    if method not in METHODS:
        raise ValueError(f"unknown attribution method {method!r}")
    return METHODS[method](model, x, y)


def load_attribution(path: str) -> AttributionMap:
    """A map stored as raw values plus a JSON sidecar (shape, dtype, method, target)."""
    with open(str(path) + ".json") as f:
        sidecar = json.load(f)
    arr = np.fromfile(path, dtype=sidecar["dtype"]).reshape(sidecar["shape"])
    return AttributionMap(arr.astype(np.float64), sidecar["method"], sidecar["target"])
