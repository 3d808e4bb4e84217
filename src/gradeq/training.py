"""Training loops: plain cross entropy, adversarial training on PGD
examples (optionally with cutout augmentation), and the gradient-aligned
variant that adds a cosine penalty between the student's and a frozen
teacher's input gradients.

The aligned objective on a batch is

    CE(f(x_adv), y) - lam * mean_b cos(flat d f^y/dx (x), flat d t^y/dx (x))

with the CE term on the adversarial images and the alignment term on the
clean ones. The teacher gradient enters as a constant, so nothing
propagates into the teacher. At lam = 0 the cosine branch is skipped
outright rather than multiplied by zero: adding a exact-zero term still
flips -0.0 bit patterns, and the lam=0 run is contractually bit-identical
to plain adversarial training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import autodiff as ag
from .autodiff import kernels
from .attacks import PGD_EPS, PGD_ITERS, PGD_STEP, pgd
from .attribution import input_gradients, reduced, saliency
from .data import ImageBatch, cutout, train_val_split
from .inequality import gini, mean_gini  # noqa: F401  (gini: perfbench's tracer wraps this name)
from .models import Model, build_model, check_args, label_score, predict
from .models import load_checkpoint  # noqa: F401  (perfbench's tracer wraps this name)
from .seeding import seed_stream

METHODS = ("standard", "pgdat", "pgdat_cutout", "igd")
GINI_PROBE_CAP = 64  # saliency-gini probe size per epoch; keeps eval cheap


@dataclass(frozen=True)
class TrainConfig:
    method: Annotated[str, ("in", METHODS)]
    model: dict  # build_model config
    lam: Annotated[float, (">=", 0)] = 0.0
    epochs: Annotated[int, (">=", 0)] = 30
    batch_size: Annotated[int, (">=", 1)] = 64
    lr: Annotated[float, (">", 0)] = 0.05  # no upper bound: a diverging run aborts
    momentum: Annotated[float, (">=", 0), ("<", 1)] = 0.9
    weight_decay: Annotated[float, (">=", 0)] = 5e-4
    plateau_factor: Annotated[float, (">", 0), ("<=", 1)] = 0.1
    plateau_patience: Annotated[int, (">=", 0)] = 3
    pgd_eps: Annotated[float, (">=", 0)] = PGD_EPS
    pgd_step: Annotated[float, (">=", 0)] = PGD_STEP
    pgd_iters: Annotated[int, (">=", 0)] = PGD_ITERS
    cutout_hole: Annotated[int, (">=", 0)] = 8
    val_fraction: Annotated[float, (">", 0), ("<", 1)] = 0.1
    seed: int = 0
    teacher: str | None = None  # igd only: name of the entry whose model is the teacher

    def __post_init__(self):
        check_args(TrainConfig, vars(self))
        if self.method != "igd" and self.lam != 0.0:
            raise ValueError(f"lam has no effect under {self.method}")

    @property
    def selection_metric(self) -> str:
        return "clean_acc" if self.method == "standard" else "adv_acc"


@dataclass(frozen=True)
class LossParts:
    """One batch objective: value, components, and parameter gradients."""

    total: float
    ce: float
    cos_mean: float
    degenerate: np.ndarray  # [B] rows whose cosine was guarded to zero
    grads: dict[str, np.ndarray] = field(repr=False)


def igd_loss(student: Model, teacher: Model | None, x: np.ndarray,
             x_adv: np.ndarray, y: np.ndarray, lam: float) -> LossParts:
    """Gradient-aligned adversarial objective; lam=0 is plain CE on x_adv.

    The alignment compares per-sample input gradients of the true-class
    logit, both taken at the clean x; the student's side, the gradient
    of `models.label_score`, stays on the tape so the parameter gradient
    sees through it (double backward).

    At lam > 0 each term has its own tape, swept in turn: first the
    alignment term, -lam * mean cos, whose tape is freed before the cross
    entropy on x_adv is recorded, so the double backward's temporaries
    never share memory with the CE tape. Each parameter's gradient is then
    `kernels.add(alignment, ce)`, or the CE gradient as it is where no
    uncut path leads from the parameter to the alignment term (the output
    bias, and every bias of a ReLU model), and the total is
    `kernels.add(ce, alignment)`. These are the bytes one sweep of both
    terms on one tape gives, as long as the forward uses each parameter
    once, so that the CE term adds one contribution to its adjoint, after
    every alignment one; the tests keep that one-tape objective as the
    oracle. At lam = 0 only the CE tape is recorded.
    """
    y = np.asarray(y)
    if lam == 0.0:
        ce, grads = _ce_sweep(student, x_adv, y)
        return LossParts(float(ce), float(ce), 0.0, np.zeros(len(y), dtype=bool), grads)
    if teacher is None:
        raise ValueError("gradient alignment needs a teacher model")
    part, cos_val, flags, aligned = _alignment_sweep(student, teacher, x, y, lam)
    ce, grads = _ce_sweep(student, x_adv, y)
    for name, a in aligned.items():
        grads[name] = kernels.add(a, grads[name])
    return LossParts(float(kernels.add(ce, part)), float(ce), cos_val, flags, grads)


def _ce_sweep(student: Model, x_adv: np.ndarray, y: np.ndarray):
    """Cross entropy on x_adv and its gradient per parameter, from one tape."""
    g = ag.Graph()
    pv = student.bind(g)
    xa = g.const(np.asarray(x_adv, dtype=np.float64))
    ce = ag.cross_entropy_mean(student.graph_logits(xa, pv), y)
    return ce.value, dict(zip(pv, ag.grad(ce, list(pv.values()))))


def _alignment_sweep(student: Model, teacher: Model, x: np.ndarray,
                     y: np.ndarray, lam: float):
    """-lam * mean cos, the mean cosine, the degenerate-row flags, and the
    gradient of each parameter the term reaches, from one tape that is
    freed on return."""
    ref = input_gradients(teacher, x, y).reshape(len(y), -1)
    g = ag.Graph()
    pv = student.bind(g)
    xv = g.var(np.asarray(x, dtype=np.float64))
    (gx,) = ag.grad(label_score(student, xv, pv, y), [xv], create_graph=True)
    cos, flags = ag.cosine_rows(ag.flatten(g, gx), ref)
    cmean = ag.mean_all(cos)
    part = g.scale(cmean, -lam)
    reached = [n for n, v in pv.items() if ag.reaches(part, v)]
    grads = dict(zip(reached, ag.grad(part, [pv[n] for n in reached])))
    return part.value, float(cmean.value), flags, grads


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    lr: float
    loss: float
    ce: float
    cos: float
    degenerate_frac: float
    clean_acc: float
    adv_acc: float
    saliency_gini: float


@dataclass(frozen=True)
class TrainRecord:
    rows: tuple[EpochRow, ...]
    best_epoch: int  # -1 when no epoch ran
    aborted: bool = False


def accuracy(model: Model, pixels: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predict(model, pixels) == np.asarray(labels)))


def pgd_accuracy(model: Model, pixels: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, rng: np.random.Generator) -> float:
    adv = pgd(model, pixels, labels, config.pgd_eps, config.pgd_step,
              config.pgd_iters, rng).x_adv
    return accuracy(model, adv, labels)


def mean_saliency_gini(model: Model, pixels: np.ndarray, labels: np.ndarray,
                       cap: int = GINI_PROBE_CAP) -> float:
    """Mean global Gini of the first `cap` saliency maps, by the rule of
    `inequality.mean_gini`: nan when every map is zero, ValueError on a
    non-finite map."""
    return mean_gini(reduced(saliency(model, pixels[:cap], np.asarray(labels)[:cap])))[0]


def train(config: TrainConfig, data: ImageBatch,
          teacher: Model | None = None) -> tuple[Model, TrainRecord]:
    """SGD with momentum, weight decay, and plateau LR decay.

    The held-out validation split drives both the plateau scheduler and
    the returned parameters: the best epoch by clean accuracy for
    standard training, by PGD-eval accuracy for the adversarial methods.
    A non-finite loss or parameter aborts and returns the record so far.
    `igd` needs the frozen `teacher` model.
    """
    if config.method == "igd" and teacher is None:
        raise ValueError("igd needs a teacher model")
    student = build_model(config.model, seed=config.seed)
    tr, val = train_val_split(data, config.val_fraction, config.seed)
    fill = float(tr.pixels.mean())  # cutout paints its holes with the training mean

    velocity = {n: np.zeros_like(p, dtype=np.float64)
                for n, p in student.params.items()}
    lr = config.lr
    best_metric, best_epoch = -np.inf, -1
    best_params = {n: p.copy() for n, p in student.params.items()}
    bad_epochs = 0
    rows: list[EpochRow] = []
    aborted = False

    for epoch in range(config.epochs):
        order = seed_stream(config.seed, "shuffle", epoch).permutation(len(tr))
        sums = np.zeros(3)  # loss, ce, cos accumulators
        degen = 0
        seen = 0
        for bi in range(0, len(order), config.batch_size):
            idx = order[bi:bi + config.batch_size]
            xb, yb = tr.pixels[idx], tr.labels[idx]
            if config.method == "pgdat_cutout":
                xb = cutout(tr.subset(idx), config.cutout_hole, fill,
                            seed_stream(config.seed, "cutout", epoch, bi)).pixels
            try:
                if config.method == "standard":
                    parts = igd_loss(student, None, xb, xb, yb, 0.0)
                else:
                    adv = pgd(student, xb, yb, config.pgd_eps, config.pgd_step,
                              config.pgd_iters,
                              seed_stream(config.seed, "pgd", epoch, bi)).x_adv
                    parts = igd_loss(student, teacher, xb, adv, yb, config.lam)
            except ag.NonFiniteError:
                aborted = True
                break
            # a diverging run overflows here; a non-finite parameter aborts it
            with np.errstate(over="ignore"):
                for name, p in student.params.items():
                    g = parts.grads[name] + config.weight_decay * p.astype(np.float64)
                    velocity[name] = config.momentum * velocity[name] + g
                    updated = p.astype(np.float64) - lr * velocity[name]
                    student.params[name] = updated.astype(p.dtype)
            if not all(np.isfinite(p).all() for p in student.params.values()):
                aborted = True
                break
            sums += (parts.total * len(idx), parts.ce * len(idx),
                     parts.cos_mean * len(idx))
            degen += int(parts.degenerate.sum())
            seen += len(idx)
        if aborted:
            break

        clean = accuracy(student, val.pixels, val.labels)
        adv_acc = pgd_accuracy(student, val.pixels, val.labels, config,
                               seed_stream(config.seed, "eval-pgd", epoch))
        row = EpochRow(epoch, lr, *(sums / max(seen, 1)),
                       degen / max(seen, 1), clean, adv_acc,
                       mean_saliency_gini(student, val.pixels, val.labels))
        rows.append(row)

        metric = getattr(row, config.selection_metric)
        if metric > best_metric:
            best_metric, best_epoch = metric, epoch
            best_params = {n: p.copy() for n, p in student.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.plateau_patience:
                lr *= config.plateau_factor
                bad_epochs = 0

    student.params = best_params
    return student, TrainRecord(tuple(rows), best_epoch, aborted)
