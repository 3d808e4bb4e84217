"""Image batches: CIFAR binary ingestion, synthetic blobs, cutout.

All pixels live in [0,1]; attacks and attributions consume this space
directly. A batch carries no statistics of its pixels: cutout paints its
holes with the fill its caller gives it. The arguments of `synth_blobs` and
`load_cifar` are the keys of a config's dataset entry, and their
annotations the types and bounds of its values (`models.check_value`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from .models import check_args
from .seeding import seed_stream


@dataclass(frozen=True)
class ImageBatch:
    pixels: np.ndarray  # [N, C, H, W], float64, values in [0, 1]
    labels: np.ndarray  # [N], int64
    classes: int

    def __post_init__(self):
        if self.pixels.ndim != 4:
            raise ValueError(f"expected [N,C,H,W], got {self.pixels.shape}")
        if len(self.labels) != len(self.pixels):
            raise ValueError(f"{len(self.labels)} labels for {len(self.pixels)} images")
        if not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):
            raise ValueError("pixels must lie in [0, 1]")
        if not (self.labels.min() >= 0 and self.labels.max() < self.classes):
            raise ValueError(f"labels out of range for {self.classes} classes")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx) -> "ImageBatch":
        """Row selection."""
        return replace(self, pixels=self.pixels[idx], labels=self.labels[idx])


CIFAR_VARIANTS = {
    "cifar10": (1, 10),  # label bytes per record, class count
    "cifar100": (2, 100),  # coarse byte then fine byte; fine is the label
}
IMAGE_SIDE = 32  # side of a CIFAR image, and of a blob image by default


def load_cifar(path: str,
               variant: Annotated[str, ("in", tuple(CIFAR_VARIANTS))] = "cifar10") -> ImageBatch:
    """Parse the CIFAR binary layout: label byte(s), then 3072 pixel bytes
    as full R, G, B planes of a row-major 32x32 image, scaled by 1/255."""
    check_args(load_cifar, {"variant": variant})
    label_bytes, classes = CIFAR_VARIANTS[variant]
    record = label_bytes + 3 * IMAGE_SIDE**2
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % record:
        raise ValueError(
            f"file size {raw.size} is not a positive multiple of record size {record}"
        )
    rows = raw.reshape(-1, record)
    labels = rows[:, label_bytes - 1].astype(np.int64)  # fine label for cifar100
    if labels.max() >= classes:
        raise ValueError(f"label {labels.max()} out of range for {classes} classes")
    pixels = rows[:, label_bytes:].reshape(-1, 3, IMAGE_SIDE, IMAGE_SIDE).astype(np.float64) / 255.0
    return ImageBatch(pixels, labels, classes)


def blob_centers(resolution: int, classes: int) -> np.ndarray:
    """Class-specific blob centers, evenly spaced on a centered circle."""
    angles = 2.0 * np.pi * np.arange(classes) / classes + np.pi / 4.0
    radius = resolution / 4.0
    mid = (resolution - 1) / 2.0
    return np.stack([mid + radius * np.sin(angles), mid + radius * np.cos(angles)], axis=1)


def synth_blobs(n: Annotated[int, (">=", 1), ("<=", sys.float_info.max)],
                resolution: Annotated[int, (">=", 8)] = IMAGE_SIDE,
                classes: Annotated[int, (">=", 2)] = 4,
                seed: Annotated[int, (">=", 0), ("<", 2**32)] = 0,  # seed_stream reads 32 bits
                channels: Annotated[int, (">=", 1)] = 1, background: float = 0.2,
                amplitude: float = 0.5,
                spread: Annotated[float, (">=", 1e-150), ("<=", 1e150)] = 4.0,
                noise: Annotated[float, (">=", 0)] = 0.15,
                jitter: Annotated[float, (">=", 0), ("<=", 1e150)] = 2.0) -> ImageBatch:
    """Class-conditional Gaussian bumps over a noisy background.

    Each image is background + a bump of the class's characteristic
    location (jittered a little per sample) + pixel noise, clipped to
    [0,1]. Classes are balanced round-robin and the whole batch is a pure
    function of the seed. The bounds of `spread` and `jitter` keep their
    squares finite and that of `spread` nonzero.
    """
    check_args(synth_blobs, locals())
    rng = seed_stream(seed, "blobs", resolution, classes)
    labels = np.arange(n, dtype=np.int64) % classes
    centers = blob_centers(resolution, classes)
    yy, xx = np.mgrid[0:resolution, 0:resolution].astype(np.float64)
    offsets = rng.uniform(-jitter, jitter, size=(n, 2))
    cy = centers[labels, 0] + offsets[:, 0]
    cx = centers[labels, 1] + offsets[:, 1]
    d2 = (yy[None] - cy[:, None, None]) ** 2 + (xx[None] - cx[:, None, None]) ** 2
    with np.errstate(over="ignore"):  # a far bump under a narrow spread: exp(-inf) = 0
        bumps = amplitude * np.exp(-d2 / (2.0 * spread**2))
    field = background + bumps + rng.normal(0.0, noise, size=bumps.shape)
    pixels = np.clip(field[:, None, :, :], 0.0, 1.0)
    if channels > 1:
        pixels = np.repeat(pixels, channels, axis=1)
    return ImageBatch(pixels, labels, classes)


def split_sizes(n: int, val_fraction: float) -> tuple[int, int]:
    """(validation, training) sizes of a split of `n` samples: at least one
    validation sample, and refused if no training sample is left."""
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise ValueError(f"a batch of {n} split at {val_fraction} leaves no training sample")
    return n_val, n - n_val


def train_val_split(batch: ImageBatch, val_fraction: float, seed: int) -> tuple[ImageBatch, ImageBatch]:
    """Deterministic shuffle-split into (training, validation) halves."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0,1), got {val_fraction}")
    order = seed_stream(seed, "split").permutation(len(batch))
    n_val, _ = split_sizes(len(batch), val_fraction)
    return batch.subset(order[n_val:]), batch.subset(order[:n_val])


def _hole_range(center: int, hole: int, extent: int) -> tuple[int, int]:
    # A hole as large as the dimension always covers it fully; smaller
    # holes are clipped at the borders.
    if hole >= extent:
        return 0, extent
    lo = center - hole // 2
    return max(0, lo), min(extent, lo + hole)


def cutout(batch: ImageBatch, hole_size: int, fill: float,
           rng: np.random.Generator) -> ImageBatch:
    """Per image, square hole of side hole_size at a uniform random center,
    filled with the scalar `fill`."""
    n, c, h, w = batch.pixels.shape
    if not 0 <= hole_size <= min(h, w):
        raise ValueError(f"hole_size must be in [0, {min(h, w)}], got {hole_size}")
    pixels = batch.pixels.copy()
    cy = rng.integers(0, h, size=n)
    cx = rng.integers(0, w, size=n)
    for i in range(n):
        y0, y1 = _hole_range(int(cy[i]), hole_size, h)
        x0, x1 = _hole_range(int(cx[i]), hole_size, w)
        pixels[i, :, y0:y1, x0:x1] = fill
    return replace(batch, pixels=pixels)
