"""Perturbation suite: PGD, attribution-guided noise and occlusion,
random-pixel noise, synthetic corruptions, and the joint-correct
error-rate protocol.

Conventions: images are [C, H, W] in [0,1]; batches stack on a leading
axis. Attribution-guided attacks take a bool [H, W] mask over pixels
(all channels of a masked pixel are touched). Every stochastic op draws
from a caller supplied Generator, so identical streams reproduce
identical outputs bit for bit. Every attack runs on a whole batch; in
PGD and IOA a sample whose tape or its result goes non-finite is flagged
alone (`_live_rows`).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import autodiff as ag
from .attribution import METHODS as ATTRIBUTION_METHODS
from .attribution import attribute, reduced
from .models import Model, check_args, check_kind, check_value, predict
from .seeding import seed_stream

PGD_EPS = 8.0 / 255.0
PGD_STEP = 2.0 / 255.0
PGD_ITERS = 10

COLORS = {"black": 0.0, "gray": 0.5, "white": 1.0}


def topk_flags(values: np.ndarray, k: int) -> np.ndarray:
    """Flat boolean selection of the k largest entries; ties resolved by
    row-major (flattened) index."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if not 0 <= k <= flat.size:
        raise ValueError(f"k must be in [0, {flat.size}], got {k}")
    m = np.zeros(flat.size, dtype=bool)
    order = np.argsort(-flat, kind="stable")  # stable: earlier index wins ties
    m[order[:k]] = True
    return m


# ---------------------------------------------------------------------------
# PGD


@dataclass(frozen=True)
class PgdResult:
    x_adv: np.ndarray
    aborted: np.ndarray  # [N] bool; sample hit a non-finite gradient


def _live_rows(tape, live: np.ndarray, failed: np.ndarray, shape) -> np.ndarray:
    """Rows `tape(idx)` of samples idx for the live samples, zero rows for
    the rest. One tape covers every live sample; only if it goes
    non-finite, in an op or in the rows it returns, does each live sample
    get its own, and those that fail alone are flagged in `failed`. The
    one place an attack queries the model sample by sample."""

    def rows(idx):
        with np.errstate(over="ignore", invalid="ignore"):  # flagged below, not warned
            r = tape(idx)
        if not np.isfinite(r).all():
            raise ag.NonFiniteError("tape returned non-finite rows")
        return r

    out = np.zeros(shape)
    try:
        if live.size == len(out):
            return rows(slice(None))  # all live: the batch itself, no copies
        if live.size:
            out[live] = rows(live)
    except ag.NonFiniteError:
        for i in live:
            try:
                out[i] = rows([i])[0]
            except ag.NonFiniteError:
                failed[i] = True
    return out


def pgd(model: Model, x: np.ndarray, y: np.ndarray, eps: float = PGD_EPS,
        step: float = PGD_STEP, iters: int = PGD_ITERS,
        rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
        random_start: bool = True) -> PgdResult:
    """Projected sign-gradient ascent on cross entropy.

    Every iterate is projected to the l-inf eps-ball around x intersected
    with [0,1]. A sample whose forward or input gradient goes non-finite is
    frozen at its last valid iterate and flagged rather than poisoning the
    batch.

    Every input gradient comes from an `autodiff.Plan`: the loss and its
    input gradient over the live samples, recorded on one tape with
    `grad(..., create_graph=True)` and replayed by each later iteration
    while the same samples stay live, so the work that depends only on the
    parameters and labels (float64 casts, transposes, flipped kernels) is
    done once per live set; a bias broadcast is a view of the bias, so a
    plan keeps no full-size copy of one. A new live set, or a sample that
    `_live_rows` retries on its own, records a new plan. A replay gives the
    gradient a fresh tape would, bit for bit.

    `rng` is one Generator for the whole batch's random start, or one per
    sample; sample i then draws its start from rng[i] alone, exactly as a
    batch of one would.
    """
    if eps < 0 or step < 0 or iters < 0:
        raise ValueError("eps, step, iters must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if random_start:
        if rng is None:
            raise ValueError("random_start needs an rng")
        if isinstance(rng, np.random.Generator):
            start = rng.uniform(-eps, eps, size=x.shape)
        elif len(rng) != len(x):
            raise ValueError(f"{len(rng)} generators for {len(x)} samples")
        else:
            start = np.stack([r.uniform(-eps, eps, size=x.shape[1:]) for r in rng])
        cur = np.clip(x + start, 0.0, 1.0)
    else:
        cur = x.copy()
    plan, planned = None, None  # the last recorded plan and the samples it covers

    def tape(idx):  # cross-entropy input gradients of samples idx
        nonlocal plan, planned
        rows = np.arange(len(x))[idx]
        if np.array_equal(rows, planned):
            return plan.run(cur[idx])
        gr = ag.Graph()
        xv = gr.var(cur[idx])
        loss = ag.cross_entropy_mean(model.graph_logits(xv, model.bind(gr)), y[idx])
        (gx,) = ag.grad(loss, [xv], create_graph=True)
        plan, planned = ag.Plan(xv, gx), rows
        return gx.value

    aborted = np.zeros(len(x), dtype=bool)
    for _ in range(iters):
        g = _live_rows(tape, np.flatnonzero(~aborted), aborted, cur.shape)
        # one expression: numpy reuses its large temporaries in place
        cur = np.clip(x + np.clip(cur + step * np.sign(g) - x, -eps, eps), 0.0, 1.0)
    return PgdResult(cur, aborted)


# ---------------------------------------------------------------------------
# Inductive noise attacks


def _masked_noise(x: np.ndarray, mask: np.ndarray, rng: np.random.Generator,
                  additive: bool) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if mask.dtype != bool or mask.shape != x.shape[1:]:
        raise ValueError(f"mask must be bool of shape {x.shape[1:]}, got {mask.dtype} {mask.shape}")
    out = x.copy()
    ys, xs = np.nonzero(mask)
    noise = rng.normal(size=(x.shape[0], len(ys)))  # one draw per channel
    out[:, ys, xs] = np.clip(out[:, ys, xs] + noise if additive else noise, 0.0, 1.0)
    return out


def ina1(x: np.ndarray, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Additive standard-normal noise on masked pixels, clipped to [0,1]."""
    return _masked_noise(x, mask, rng, additive=True)


def ina2(x: np.ndarray, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Masked pixels replaced by clipped standard-normal draws."""
    return _masked_noise(x, mask, rng, additive=False)


def rn(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Additive clipped noise on k distinct uniformly chosen pixels."""
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    if not 0 <= k <= h * w:
        raise ValueError(f"k must be in [0, {h * w}], got {k}")
    flat = rng.choice(h * w, size=k, replace=False)
    m = np.zeros(h * w, dtype=bool)
    m[flat] = True
    return ina1(x, m.reshape(h, w), rng)


# ---------------------------------------------------------------------------
# Inductive occlusion attack


def clipped_square(cy: int, cx: int, r: int, h: int, w: int) -> tuple[int, int, int, int]:
    """Bounds (y0, y1, x0, x1) of the (2r+1)-sided square about a center,
    clipped to the image; slice convention, so area is (y1-y0)*(x1-x0)."""
    return max(0, cy - r), min(h, cy + r + 1), max(0, cx - r), min(w, cx + r + 1)


@dataclass(frozen=True)
class IoaStep:
    n: int
    r: int
    centers: tuple[tuple[int, int], ...]
    areas: tuple[int, ...]
    prediction: int


@dataclass(frozen=True)
class IoaOutcome:
    x_adv: np.ndarray
    success: bool
    steps: tuple[IoaStep, ...]
    aborted: bool = False  # attribution went non-finite mid-loop


def ioa(model: Model, xs: np.ndarray, ys: np.ndarray, n_max: int, r_max: int,
        color: float, method: str = "saliency") -> tuple[IoaOutcome, ...]:
    """Paint pure-color squares over the currently most-attributed pixels;
    one outcome per sample of the [N,C,H,W] batch.

    Outer loop grows the number of centers, inner loop the square radius;
    each step re-attributes, paints and predicts the samples still running
    as one batch. A sample stops once its prediction leaves its label, or
    once its attribution goes non-finite (then it is flagged aborted).
    """
    if n_max < 1 or r_max < 1:
        raise ValueError("need n_max >= 1 and r_max >= 1")
    if not 0.0 <= color <= 1.0:
        raise ValueError(f"color must be in [0,1], got {color}")
    cur = np.array(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if cur.ndim != 4 or ys.shape != cur.shape[:1]:
        raise ValueError(f"occlusion needs a [N,C,H,W] batch and [N] labels, "
                         f"got shapes {cur.shape} and {ys.shape}")

    def tape(idx):
        return reduced(attribute(model, cur[idx], ys[idx], method))

    h, w = cur.shape[2:]
    flipped = np.zeros(len(cur), dtype=bool)
    aborted = np.zeros(len(cur), dtype=bool)
    steps: list[list[IoaStep]] = [[] for _ in cur]
    for n, r in itertools.product(range(1, n_max + 1), range(1, r_max + 1)):
        running = np.flatnonzero(~(flipped | aborted))
        red = _live_rows(tape, running, aborted, (len(cur), h, w))
        live = np.flatnonzero(~(flipped | aborted))
        if not live.size:
            break
        painted = []
        for i in live:
            order = np.argsort(-red[i].reshape(-1), kind="stable")[:n]
            centers = tuple((int(j) // w, int(j) % w) for j in order)
            boxes = [clipped_square(cy, cx, r, h, w) for cy, cx in centers]
            for y0, y1, x0, x1 in boxes:
                cur[i, :, y0:y1, x0:x1] = color
            painted.append((centers, boxes))
        for i, (centers, boxes), pred in zip(live, painted, predict(model, cur[live])):
            areas = tuple((y1 - y0) * (x1 - x0) for y0, y1, x0, x1 in boxes)
            steps[i].append(IoaStep(n, r, centers, areas, int(pred)))
            flipped[i] = pred != ys[i]
    return tuple(IoaOutcome(cur[i], bool(flipped[i]), tuple(steps[i]), bool(aborted[i]))
                 for i in range(len(cur)))


# ---------------------------------------------------------------------------
# Synthetic corruptions

# corrupt_kind: the bounds of its param. Gaussian's is sigma on the [0,1]
# pixel scale; shot's the rate multiplier (smaller = noisier), below the
# largest rate numpy's Poisson draw takes (about 9.2e18); impulse's the
# flipped-pixel fraction.
CORRUPT_PARAM = {
    "gaussian": Annotated[float, (">=", 0)],
    "shot": Annotated[float, (">", 0), ("<=", 1e18)],
    "impulse": Annotated[float, (">=", 0), ("<=", 1)],
}
CORRUPT_KINDS = tuple(CORRUPT_PARAM)
# Corruption severity ladders of param, mildest first.
SEVERITY = {
    "gaussian": [0.04, 0.06, 0.08, 0.09, 0.10],
    "shot": [60.0, 25.0, 12.0, 5.0, 3.0],
    "impulse": [0.03, 0.06, 0.09, 0.17, 0.27],
}


def corrupt(x: np.ndarray, kind: str, param: float,
            rng: np.random.Generator) -> np.ndarray:
    """gaussian: additive N(0, param); shot: Poisson at rate scale param;
    impulse: salt-and-pepper with pixel probability param (half salt,
    half pepper, all channels of a hit pixel). All outputs clipped."""
    if kind not in CORRUPT_PARAM:
        raise ValueError(f"unknown corruption kind {kind!r}")
    check_value("param", CORRUPT_PARAM[kind], param)
    x = np.asarray(x, dtype=np.float64)
    if kind == "gaussian":
        return np.clip(x + rng.normal(0.0, param, size=x.shape), 0.0, 1.0)
    if kind == "shot":
        return np.clip(rng.poisson(x * param) / param, 0.0, 1.0)
    out = x.copy()
    pix = rng.random(size=x.shape[-2:])
    salt = pix < param / 2.0
    pepper = (pix >= param / 2.0) & (pix < param)
    out[:, salt] = 1.0
    out[:, pepper] = 0.0
    return out


# ---------------------------------------------------------------------------
# Declarative specs and the error-rate protocol


# kind: (required options, optional options, label format); the others keep
# their defaults. A label names a curve and keys the attack's seed streams.
ATTACK_OPTIONS = {
    "pgd": (set(), {"eps", "step", "iters"}, "pgd(eps={eps:.4g})"),
    "ina1": ({"k"}, {"method"}, "ina1(k={k})"),
    "ina2": ({"k"}, {"method"}, "ina2(k={k})"),
    "rn": ({"k"}, set(), "rn(k={k})"),
    "ioa": (set(), {"n", "r", "color", "method"}, "ioa(n={n},r={r})"),
    "corrupt": ({"corrupt_kind", "param"}, set(), "corrupt({corrupt_kind},{param:g})"),
}


@dataclass(frozen=True)
class AttackSpec:
    """Parameters of one attack; `apply` runs it on a batch of samples."""

    kind: Annotated[str, ("in", tuple(ATTACK_OPTIONS))]
    eps: Annotated[float, (">=", 0)] = PGD_EPS
    step: Annotated[float, (">=", 0)] = PGD_STEP
    iters: Annotated[int, (">=", 0)] = PGD_ITERS
    k: Annotated[int, (">=", 0)] = 0
    n: Annotated[int, (">=", 1)] = 10
    r: Annotated[int, (">=", 1)] = 4
    color: Annotated[float, (">=", 0), ("<=", 1)] = COLORS["gray"]
    corrupt_kind: Annotated[str, ("in", CORRUPT_KINDS)] = "gaussian"
    param: float = 0.08  # within CORRUPT_PARAM[corrupt_kind]
    method: Annotated[str, ("in", tuple(ATTRIBUTION_METHODS))] = "saliency"

    def __post_init__(self):
        check_args(AttackSpec, vars(self))
        check_value("param", CORRUPT_PARAM[self.corrupt_kind], self.param)

    @classmethod
    def parse(cls, entry: dict) -> AttackSpec:
        """The spec of a config entry: its "kind" and the options that kind takes."""
        check_kind(entry, ATTACK_OPTIONS)
        return cls(**entry)

    def label(self) -> str:
        return ATTACK_OPTIONS[self.kind][2].format(**vars(self))

    @property
    def size(self) -> float:
        """The attack's size, a curve's x value: eps, k, n or the corruption param."""
        return {"pgd": self.eps, "ioa": float(self.n),
                "corrupt": self.param}.get(self.kind, float(self.k))

    def apply(self, model: Model, xs: np.ndarray, ys: np.ndarray,
              rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Perturbed copies of a batch; sample i draws only from rngs[i].

        Model queries are batched: one PGD plan per set of live samples,
        replayed while the set stays live, one attribution tape for the
        whole batch, and one attribution tape and one prediction per IOA
        step over the samples still running, so a sample's output equals
        its batch-of-one output up to float rounding. Masks, paint and noise
        stay per sample.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys)
        if not len(xs) == len(ys) == len(rngs):
            raise ValueError(f"{len(xs)} samples, {len(ys)} labels, "
                             f"{len(rngs)} generators")
        if self.kind == "pgd":
            return pgd(model, xs, ys, self.eps, self.step, self.iters, rngs).x_adv
        if self.kind in ("ina1", "ina2"):
            maps = reduced(attribute(model, xs, ys, self.method))
            outs = [_masked_noise(x, topk_flags(m, self.k).reshape(m.shape), rng,
                                  self.kind == "ina1") for x, m, rng in zip(xs, maps, rngs)]
        elif self.kind == "ioa":
            outs = [o.x_adv for o in ioa(model, xs, ys, self.n, self.r, self.color,
                                         self.method)]
        elif self.kind == "rn":
            outs = [rn(x, self.k, rng) for x, rng in zip(xs, rngs)]
        else:
            outs = [corrupt(x, self.corrupt_kind, self.param, rng)
                    for x, rng in zip(xs, rngs)]
        return np.stack(outs)


def apply_spec(spec: AttackSpec, model: Model, x: np.ndarray, y: int,
               rng: np.random.Generator) -> np.ndarray:
    """One perturbed sample for the given attack: a batch of one."""
    return spec.apply(model, np.asarray(x)[None], np.array([y]), [rng])[0]


@dataclass(frozen=True)
class ErrorRateReport:
    rates: tuple[float, ...]
    evaluated: int
    joint_indices: np.ndarray
    wrong: np.ndarray = field(repr=False)  # [models, evaluated] bool


def error_rate(models: list[Model], spec: AttackSpec, pixels: np.ndarray,
               labels: np.ndarray, seed: int) -> ErrorRateReport:
    """Attack error rates over the jointly-correct subset.

    Only samples every model classifies correctly when clean count; each
    model is then attacked independently, but a given sample uses the
    same noise stream against every model (keyed by the sample's index),
    so differences in rates come from the models, not the draws. The
    joint pool is attacked and predicted as one batch per model; an attack
    that ignores the model (rn, corrupt) draws that batch once for all.
    """
    if not models:
        raise ValueError("need at least one model")
    labels = np.asarray(labels)
    correct = np.stack([predict(m, pixels) == labels for m in models])
    joint = np.nonzero(correct.all(axis=0))[0]
    if len(joint) == 0:
        raise ValueError("no sample is classified correctly by every model")
    xs, ys = np.asarray(pixels)[joint], labels[joint]
    wrong = np.zeros((len(models), len(joint)), dtype=bool)
    adv = None
    for mi, model in enumerate(models):
        if adv is None or spec.kind not in ("rn", "corrupt"):
            rngs = [seed_stream(seed, "attack", spec.label(), int(si)) for si in joint]
            adv = spec.apply(model, xs, ys, rngs)
        wrong[mi] = predict(model, adv) != ys
    rates = tuple(float(w.mean()) for w in wrong)
    return ErrorRateReport(rates, len(joint), joint, wrong)
