"""The batched error-rate protocol against the per-sample loop it replaced.

`error_rate` attacks and predicts the whole joint pool as one batch per
model. The oracle below is the sample-at-a-time loop: one tape per sample
for PGD, attribution and every IOA step, one prediction per sample. Both
key each sample's noise by its index, so they must agree on every sample;
the batched tapes differ from the batch-of-one tapes only by float
rounding. The same holds for the mask-statistic sweeps, whose surrogates
now come from one batched gradient instead of one `linearize` call per
input.
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradeq
from gradeq import autodiff as ag
from gradeq import theory as th
from gradeq.attacks import (AttackSpec, IoaOutcome, IoaStep, apply_spec,
                            build_topk_mask, clipped_square, corrupt, error_rate,
                            ina1, ina2, ioa, pgd, rn)
from gradeq.attribution import attribute, input_gradients, reduced
from gradeq.data import synth_blobs
from gradeq.models import CNN, MLP, linearize, predict
from gradeq.seeding import seed_stream
from gradeq.training import TrainConfig, train

SPECS = (
    AttackSpec(kind="pgd", eps=0.1, step=0.03, iters=5),
    AttackSpec(kind="ina1", k=12),
    AttackSpec(kind="ina2", k=12),
    AttackSpec(kind="rn", k=12),
    AttackSpec(kind="corrupt", corrupt_kind="impulse", param=0.3),
    AttackSpec(kind="ioa", n=2, r=1),
    AttackSpec(kind="ina1", k=12, method="smoothgrad"),
    AttackSpec(kind="ioa", n=2, r=1, method="smoothgrad"),
)


def ioa_one(model, x, y, n_max, r_max, color, method="saliency"):
    """IOA on one [C,H,W] image, one attribution and one prediction per step."""
    _, h, w = x.shape
    cur = np.asarray(x, dtype=np.float64).copy()
    steps = []
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            try:
                red = reduced(attribute(model, cur[None], np.array([y]), method))[0]
            except ag.NonFiniteError:
                return IoaOutcome(cur, False, tuple(steps), aborted=True)
            order = np.argsort(-red.reshape(-1), kind="stable")[:n]
            centers = [(int(i) // w, int(i) % w) for i in order]
            areas = []
            for cy, cx in centers:
                y0, y1, x0, x1 = clipped_square(cy, cx, r, h, w)
                cur[:, y0:y1, x0:x1] = color
                areas.append((y1 - y0) * (x1 - x0))
            pred = int(predict(model, cur[None])[0])
            steps.append(IoaStep(n, r, tuple(centers), tuple(areas), pred))
            if pred != y:
                return IoaOutcome(cur, True, tuple(steps))
    return IoaOutcome(cur, False, tuple(steps))


def apply_one(spec, model, x, y, rng):
    """One sample attacked on its own tape."""
    if spec.kind == "pgd":
        return pgd(model, x[None], np.array([y]), spec.eps, spec.step, spec.iters,
                   rng).x_adv[0]
    if spec.kind in ("ina1", "ina2"):
        red = reduced(attribute(model, x[None], np.array([y]), spec.method))[0]
        mask = build_topk_mask(red, spec.k)
        return (ina1 if spec.kind == "ina1" else ina2)(x, mask, rng)
    if spec.kind == "ioa":
        return ioa_one(model, x, y, spec.n, spec.r, spec.color, spec.method).x_adv
    if spec.kind == "rn":
        return rn(x, spec.k, rng)
    return corrupt(x, spec.corrupt_kind, spec.param, rng)


def error_rate_per_sample(models, spec, pixels, labels, seed):
    """The joint-correct protocol, one sample and one prediction at a time."""
    correct = np.stack([predict(m, pixels) == labels for m in models])
    joint = np.nonzero(correct.all(axis=0))[0]
    wrong = np.zeros((len(models), len(joint)), dtype=bool)
    for mi, model in enumerate(models):
        for ji, si in enumerate(joint):
            rng = seed_stream(seed, "attack", spec.label(), int(si))
            x_adv = apply_one(spec, model, pixels[si], int(labels[si]), rng)
            wrong[mi, ji] = int(predict(model, x_adv[None])[0]) != int(labels[si])
    return joint, wrong


@functools.cache
def pool(kind):
    """Two briefly trained models of one kind and 40 blob images: the
    models disagree on some samples and the attacks flip some others."""
    data = synth_blobs(120, resolution=8, classes=3, seed=66, noise=0.1, spread=1.5)
    arch = ({"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [16], "classes": 3}
            if kind == "mlp" else
            {"kind": "cnn", "in_shape": [1, 8, 8], "channels": [3, 4], "classes": 3})
    models = [train(TrainConfig(method="standard", model=arch, epochs=3, batch_size=24,
                                seed=s), data)[0] for s in (62, 63)]
    return models, data.pixels[:40], data.labels[:40]


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_batched_error_rate_matches_per_sample_oracle(kind):
    models, xs, labels = pool(kind)
    for spec in SPECS:
        rep = error_rate(models, spec, xs, labels, seed=5)
        joint, wrong = error_rate_per_sample(models, spec, xs, labels, seed=5)
        assert np.array_equal(rep.joint_indices, joint), spec.label()
        assert np.array_equal(rep.wrong, wrong), spec.label()
        assert rep.rates == tuple(float(w.mean()) for w in wrong), spec.label()
        assert len(joint) >= 10 and wrong.any(), spec.label()  # a match that means something


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_apply_spec_is_the_batch_of_one(kind):
    models, xs, labels = pool(kind)
    for spec in SPECS:
        got = apply_spec(spec, models[1], xs[3], int(labels[3]), seed_stream(6, spec.label()))
        want = apply_one(spec, models[1], xs[3], int(labels[3]), seed_stream(6, spec.label()))
        assert np.array_equal(got, want), spec.label()


def test_batched_model_free_attacks_are_bit_identical():
    models, xs, labels = pool("mlp")
    for spec in SPECS[3:5]:
        rngs = [seed_stream(7, spec.label(), i) for i in range(len(xs))]
        got = spec.apply(models[0], xs, labels, rngs)
        for i in range(len(xs)):
            want = apply_one(spec, models[0], xs[i], int(labels[i]),
                             seed_stream(7, spec.label(), i))
            assert np.array_equal(got[i], want), spec.label()


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_batched_ioa_matches_oracle(kind):
    models, xs, labels = pool(kind)
    flipped = []
    for model in models:
        for n_max, r_max in ((2, 1), (10, 4)):
            got = ioa(model, xs, labels, n_max, r_max, 0.5)
            assert len(got) == len(xs)
            for i, out in enumerate(got):
                want = ioa_one(model, xs[i], int(labels[i]), n_max, r_max, 0.5)
                assert out.steps == want.steps, (n_max, r_max, i)
                assert (out.success, out.aborted) == (want.success, want.aborted)
                assert np.array_equal(out.x_adv, want.x_adv), (n_max, r_max, i)
                flipped.append(out.success)
    assert any(flipped) and not all(flipped)  # a match that means something


def test_apply_needs_one_generator_per_sample():
    models, xs, labels = pool("mlp")
    with pytest.raises(ValueError):
        AttackSpec(kind="rn", k=2).apply(models[0], xs, labels, [seed_stream(8)])
    with pytest.raises(ValueError):
        pgd(models[0], xs, labels, rng=[seed_stream(8)] * 3)


class _LogSumModel:
    """Class-1 logit log(sum x): non-finite once PGD drives every pixel to 0."""

    classes = 2

    def bind(self, g):
        return {}

    def graph_logits(self, xv, params):
        g = xv.graph
        s = g.log(g.sum_axes(ag.flatten(g, xv), (1,)))  # [N,1]
        return g.matmul(s, g.const(np.array([[0.0, 1.0]])))

    def logits(self, x):
        with np.errstate(divide="ignore"):
            s = np.log(np.asarray(x).reshape(len(x), -1).sum(axis=1, keepdims=True))
        return np.concatenate([np.zeros_like(s), s], axis=1)


def test_nonfinite_pgd_sample_flagged_alone(monkeypatch):
    # Sample 1 starts at 0.4 per pixel; eps 0.5 lets PGD clip it to 0 and
    # log(0) goes non-finite. The others keep sum(x) > 1, so class 1,
    # everywhere inside their ball.
    model = _LogSumModel()
    xs = np.stack([np.full((1, 2, 2), v) for v in (0.8, 0.4, 0.9, 0.85)])
    ys = np.ones(4, dtype=int)
    spec = AttackSpec(kind="pgd", eps=0.5, step=0.25, iters=8)
    rngs = [seed_stream(9, i) for i in range(4)]
    tapes = []

    class CountingGraph(ag.Graph):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    with monkeypatch.context() as m:
        m.setattr(ag, "Graph", CountingGraph)
        res = pgd(model, xs, ys, spec.eps, spec.step, spec.iters, rngs)
    assert res.aborted.tolist() == [False, True, False, False]
    # one tape per iteration over the live samples, plus one per sample in
    # the iteration where sample 1 fails; never a per-sample loop after it
    assert len(tapes) <= spec.iters + len(xs)
    for i in range(4):
        alone = pgd(model, xs[i:i + 1], ys[i:i + 1], spec.eps, spec.step, spec.iters,
                    seed_stream(9, i))
        assert bool(alone.aborted[0]) == bool(res.aborted[i])
        assert np.array_equal(alone.x_adv[0], res.x_adv[i])
    assert np.isfinite(res.x_adv).all()
    rep = error_rate([model], spec, xs, ys, seed=9)
    _, wrong = error_rate_per_sample([model], spec, xs, ys, seed=9)
    assert np.array_equal(rep.wrong, wrong)
    assert rep.wrong.tolist() == [[False, True, False, False]]


def test_nonfinite_ioa_sample_flagged_alone(monkeypatch):
    # Sample 1 is all zero, so log(sum x) is non-finite at once; gray paint
    # keeps every other sum above 1, so class 1, and they run every step.
    model = _LogSumModel()
    xs = np.stack([np.full((1, 4, 4), v) for v in (0.8, 0.0, 0.9, 0.85)])
    ys = np.ones(4, dtype=int)
    n_max, r_max = 2, 1
    tapes = []

    class CountingGraph(ag.Graph):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    with monkeypatch.context() as m:
        m.setattr(ag, "Graph", CountingGraph)
        got = ioa(model, xs, ys, n_max, r_max, 0.5)
    assert [o.aborted for o in got] == [False, True, False, False]
    # one tape per step over the running samples, plus one per sample in
    # the step where sample 1 fails
    assert len(tapes) <= n_max * r_max + len(xs)
    for i, out in enumerate(got):
        want = ioa_one(model, xs[i], 1, n_max, r_max, 0.5)
        assert (out.steps, out.success, out.aborted) == (want.steps, want.success,
                                                         want.aborted)
        assert np.array_equal(out.x_adv, want.x_adv)
    assert [len(o.steps) for o in got] == [2, 0, 2, 2]


# ---------------------------------------------------------------------------
# mask-statistic sweeps


def sweep_per_sample(model, pixels, labels, ks, selection, rng, draws):
    """The sweep with one `linearize` surrogate per input."""
    pix_shape = pixels.shape[-2:]
    points = []
    surrogates = []
    for x, y in zip(pixels, labels):
        w = linearize(model, x, int(y)).w
        surrogates.append((w, np.abs(w.reshape(x.shape)).sum(axis=0)))
    for k in ks:
        ss, s2 = [], []
        for w, red in surrogates:
            if selection == "attribution_ranked":
                masks = [build_topk_mask(red, k).m]
            else:
                masks = []
                for _ in range(draws):
                    m = np.zeros(red.size, dtype=bool)
                    m[rng.choice(red.size, size=k, replace=False)] = True
                    masks.append(m.reshape(pix_shape))
            for m in masks:
                sel = w[np.broadcast_to(m, pixels.shape[1:]).reshape(-1)]
                ss.append(math.fsum(sel * sel))
                s2.append(math.fsum(sel) ** 2)
        points.append((k, np.mean(ss), np.mean(s2), len(ss)))
    return points


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_batched_surrogates_match_linearize(kind):
    models, xs, labels = pool(kind)
    model = models[0]
    grads = input_gradients(model, xs, labels)
    for i in range(len(xs)):
        w = linearize(model, xs[i], int(labels[i])).w
        np.testing.assert_allclose(grads[i].reshape(-1), w, rtol=0, atol=1e-12)
    for selection in ("attribution_ranked", "random"):
        got = th.sweep_mask_stats(model, xs[:12], labels[:12], [0, 5, 64], selection,
                                  seed_stream(10, selection), draws=3)
        want = sweep_per_sample(model, xs[:12], labels[:12], [0, 5, 64], selection,
                                seed_stream(10, selection), draws=3)
        for p, (k, m_ss, m_s2, count) in zip(got, want):
            assert (p.k, p.count) == (k, count)
            assert p.mean_sum_sq == pytest.approx(m_ss, rel=1e-12, abs=1e-12)
            assert p.mean_sum2 == pytest.approx(m_s2, rel=1e-12, abs=1e-12)


def test_sweep_rejects_nonfinite_gradient():
    xs = np.zeros((2, 1, 2, 2))
    xs[0] = 0.5
    with pytest.raises(FloatingPointError):
        th.sweep_mask_stats(_LogSumModel(), xs, np.ones(2, dtype=int), [1],
                            "attribution_ranked", seed_stream(11))


def test_sweep_rejects_out_of_range_label():
    models, xs, _ = pool("mlp")
    with pytest.raises(ValueError):
        th.sweep_mask_stats(models[0], xs[:2], np.array([0, 3]), [1],
                            "attribution_ranked", seed_stream(12))


# ---------------------------------------------------------------------------
# validation that does not depend on assert


def test_validation_survives_python_O():
    script = """
import numpy as np
from gradeq.attacks import AttackSpec, Mask, ioa
from gradeq.data import ImageBatch, synth_blobs
from gradeq.models import CNN, build_model
from gradeq.theory import MaskStats
from gradeq.training import TrainConfig
pix, lab = np.full((2, 1, 2, 2), 0.5), np.array([0, 1])
bad = [lambda: Mask(np.zeros(5)),
       lambda: Mask(np.zeros((2, 2))),
       lambda: MaskStats(k=2, sum_sq=1.0, sum=3.0, sum_abs=3.0),
       lambda: MaskStats(k=2, sum_sq=5.0, sum=3.0, sum_abs=1.0),
       lambda: ioa(CNN((1, 8, 8), [2, 2], 2), np.zeros((1, 8, 8)), lab[:1], 1, 1, 0.5),
       lambda: ioa(CNN((1, 8, 8), [2, 2], 2), np.zeros((2, 1, 8, 8)), lab[:1], 1, 1, 0.5),
       lambda: AttackSpec(kind="ina1", k=1.5),
       lambda: AttackSpec(kind="ioa", n=True),
       lambda: AttackSpec(kind="ioa", n=0),
       lambda: build_model({"kind": "linear"}),
       lambda: synth_blobs(4.5),
       lambda: TrainConfig(method="standard", model={}, epochs=1.5),
       lambda: TrainConfig(method="standard", model={}, lr="0.1"),
       lambda: ImageBatch(pix * 10, lab, 2, 0.5),  # pixel 5.0
       lambda: ImageBatch(pix, np.array([0, 7]), 2, 0.5),  # label 7 of 2
       lambda: ImageBatch(pix[0], lab, 2, 0.5),
       lambda: ImageBatch(pix, lab[:1], 2, 0.5)]
for make in bad:
    try:
        make()
    except ValueError:
        continue
    raise SystemExit("accepted")
assert False  # passes only because -O strips every assert
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(gradeq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "ok"
