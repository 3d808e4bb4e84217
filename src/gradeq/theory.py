"""Expected squared deviation of a linear class score under masked
perturbations, plus mask-statistic sweeps over a dataset.

For score y = w.x + b and a perturbation touching coordinates d_1..d_k,
the deviation y' - y is a weighted sum of the per-coordinate changes, so
its second moment reduces to the two sums S1 = sum(w_{d_i}) and
S2 = sum(w_{d_i}^2):

    additive       x' = x + m*delta        E = mu_d^2 S1^2 + sd_d^2 S2
    mult-additive  x' = x + m*(delta - x)  E = (mu_d-mu_x)^2 S1^2 + (sd_d^2+sd_x^2) S2
    occlusion      delta = constant color  E = (mu_d-mu_x)^2 S1^2 + sd_x^2 S2

Nonlinear models enter through their first-order surrogate at each
input, so everything downstream of `linearize` is approximate for them.
A surrogate's weights are the input's saliency map: `linearize` takes
one input's from `models.input_gradients`, and a sweep is handed the
batch its caller computed once per model with `attribution.saliency`.
A sweep reads the maps as one array, its weights as [N, C, H*W] and its
ranking as the `attribution.reduced` view, and scores every pick of an
input and mask size, ranked or drawn, through one gather of pixel columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import topk_flags
from .attribution import reduced
from .models import linearize  # noqa: F401  (re-exported: one input's surrogate)

NOISE_KINDS = ("additive", "mult_additive", "occlusion")
SELECTIONS = ("attribution_ranked", "random")


@dataclass(frozen=True)
class NoiseSpec:
    """Moments of the perturbation and of the pixels it lands on."""

    kind: str
    mu_delta: float = 0.0
    sigma_delta: float = 0.0
    mu_x: float = 0.0
    sigma_x: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma_delta < 0 or self.sigma_x < 0:
            raise ValueError("standard deviations must be nonnegative")
        if self.kind == "occlusion" and self.sigma_delta != 0.0:
            raise ValueError("occlusion paints a constant color; sigma_delta must be 0")

    @classmethod
    def occlusion(cls, color: float, mu_x: float, sigma_x: float) -> "NoiseSpec":
        return cls("occlusion", mu_delta=color, mu_x=mu_x, sigma_x=sigma_x)


@dataclass(frozen=True)
class MaskStats:
    """S1, S2 and the absolute sum over one masked coordinate set."""

    k: int
    sum_sq: float
    sum: float
    sum_abs: float

    def __post_init__(self):
        slack = 1e-9 * max(1.0, self.k * self.sum_sq)
        if self.sum ** 2 > self.k * self.sum_sq + slack:
            raise ValueError("S1^2 exceeds k*S2 (Cauchy-Schwarz)")
        if self.sum_abs ** 2 < self.sum ** 2 - slack:
            raise ValueError("sum of |w| is below |S1|")


def _flat_mask(mask, size: int) -> np.ndarray:
    m = np.asarray(mask).astype(bool).reshape(-1)
    if m.size != size:
        raise ValueError(f"mask covers {m.size} coordinates, weights have {size}")
    return m


def mask_stats(w: np.ndarray, mask) -> MaskStats:
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    sel = w[_flat_mask(mask, w.size)]
    # fsum: correctly rounded, so the result is independent of term order
    return MaskStats(sel.size, math.fsum((sel * sel).tolist()),
                     math.fsum(sel.tolist()), math.fsum(np.abs(sel).tolist()))


def predicted_deviation(model, mask, spec: NoiseSpec) -> float:
    """Closed-form E{(y'-y)^2} for a linear score under the masked noise."""
    st = mask_stats(model.w, mask)
    # one form for all kinds: additive has mu_x = sd_x = 0, occlusion sd_d = 0; +0.0 moves no bit
    mu_x, sd_x = (0.0, 0.0) if spec.kind == "additive" else (spec.mu_x, spec.sigma_x)
    return ((spec.mu_delta - mu_x) ** 2 * st.sum ** 2
            + (spec.sigma_delta ** 2 + sd_x ** 2) * st.sum_sq)


def monte_carlo_deviation(model, mask, spec: NoiseSpec, samples: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Sample mean and standard error of (y'-y)^2 under the noise model.

    Pixels and noise are Gaussian with the given moments, unclipped, so
    the estimate targets exactly what the closed form describes.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    w = np.asarray(model.w, dtype=np.float64).reshape(-1)
    wm = w[_flat_mask(mask, w.size)]
    k = wm.size
    sq = np.empty(samples)
    chunk = max(1, (1 << 22) // max(k, 1))  # cap transient memory
    done = 0
    while done < samples:
        c = min(chunk, samples - done)
        x = 0.0 if spec.kind == "additive" else rng.normal(spec.mu_x, spec.sigma_x, (c, k))
        delta = (spec.mu_delta if spec.kind == "occlusion"
                 else rng.normal(spec.mu_delta, spec.sigma_delta, (c, k)))
        sq[done:done + c] = ((delta - x) @ wm) ** 2
        done += c
    return _mean_stderr(sq)


@dataclass(frozen=True)
class CurvePoint:
    k: int
    selection: str
    mean_sum_sq: float
    stderr_sum_sq: float
    mean_sum2: float  # mean of S1^2
    stderr_sum2: float
    count: int


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    if vals.size < 2:
        return float(vals.mean()), 0.0
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))


def sweep_mask_stats(maps: np.ndarray, ks, selection: str, rng: np.random.Generator,
                     draws: int = 16) -> list[CurvePoint]:
    """Average S2 and S1^2 over a batch of saliency maps for each mask size.

    Each input contributes through its linearized score, whose weights
    are its saliency map; a batch with a non-finite entry is refused.
    `random` draws `draws` pixel subsets per input; `attribution_ranked`
    takes the top-k pixels of the map's `attribution.reduced` view, the
    ranking the inductive attacks use. A pixel selects its column of the
    [C, H*W] weight view, every channel at once; the picks of one input,
    not of all (that gather would hold N*draws*k*C floats), are gathered
    together and each row is summed with `math.fsum`, so a point does not
    depend on the order of its terms.
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection {selection!r}")
    if selection == "random" and draws < 1:
        raise ValueError("random selection needs draws >= 1")
    if not np.isfinite(maps).all():
        raise FloatingPointError("non-finite input gradient at linearization point")
    reds = reduced(maps).reshape(len(maps), -1)  # [N, H*W]
    pix_n = reds.shape[1]
    weights = maps.reshape(len(maps), -1, pix_n)  # [N, C, H*W]

    points = []
    for k in ks:
        if not 0 <= k <= pix_n:
            raise ValueError(f"k must be in [0, {pix_n}], got {k}")
        ss, s2 = [], []
        for w, red in zip(weights, reds):
            if selection == "attribution_ranked":
                picks = np.flatnonzero(topk_flags(red, k))[None]
            else:  # one call per draw, so the generator's stream is that of single draws
                picks = np.stack([rng.choice(pix_n, size=k, replace=False)
                                  for _ in range(draws)])
            sel = np.moveaxis(w[:, picks], 1, 0).reshape(len(picks), -1)  # [picks, C*k]
            ss += [math.fsum(row) for row in (sel * sel).tolist()]
            s2 += [math.fsum(row) ** 2 for row in sel.tolist()]
        m_ss, e_ss = _mean_stderr(np.array(ss))
        m_s2, e_s2 = _mean_stderr(np.array(s2))
        points.append(CurvePoint(int(k), selection, m_ss, e_ss, m_s2, e_s2, len(ss)))
    return points
