"""End-to-end acceptance gate.

Ten numbered checks, one test each, covering the package's contracts:
exact inequality statistics, scale invariances, monotone transfers,
concentration bounds, closed-form deviation predictions, derivative
integrity, attack geometry, the desk-scale training comparison, the
lambda=0 degeneracy, and the joint-correct evaluation protocol. Each
test prints one `criterion NN PASS` line with its key numbers (visible
under pytest -s); a failure keeps the standard assertion output.
"""

import time
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

import gradeq.autodiff as ag
from gradeq.attacks import (AttackSpec, PGD_EPS, apply_spec, clipped_square, error_rate,
                            ioa, pgd, topk_flags)
from gradeq.attribution import input_gradients
from gradeq.data import synth_blobs
from gradeq.inequality import (gini, gini_exact, lagrange_optimum_check,
                               monotonic_reduce)
from gradeq.models import CNN, MLP, LinearScore
from gradeq.seeding import seed_stream
from gradeq.theory import (NoiseSpec, monte_carlo_deviation,
                           predicted_deviation)
from gradeq.training import (TrainConfig, igd_loss, mean_saliency_gini,
                             pgd_accuracy, train)


def _line(n: int, detail: str) -> None:
    print(f"criterion {n:02d} PASS: {detail}")


# --------------------------------------------------------------------------
# 1. Gini against the quadratic oracle


def _gini_pairwise(values: np.ndarray) -> float:
    """Mean absolute difference over all ordered pairs, halved and scaled."""
    diffs = np.abs(values[:, None] - values[None, :])
    return float(diffs.sum() / (2.0 * len(values) ** 2 * values.mean()))


def test_criterion_01_gini_matches_quadratic_oracle():
    rng = seed_stream(11, "gini-oracle")
    start = time.monotonic()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 513))
        style = trial % 4
        if style == 0:
            vals = rng.random(n)
        elif style == 1:
            vals = rng.exponential(1.0, n)
        elif style == 2:
            vals = rng.integers(0, 6, n).astype(float)  # heavy ties, zeros
            if vals.sum() == 0:
                vals[0] = 1.0
        else:
            vals = np.full(n, float(rng.random()) + 0.1)  # constant
        worst = max(worst, abs(gini(vals) - _gini_pairwise(vals)))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    _line(1, f"1000 populations, max |diff|={worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Scale invariance of Gini and cosine similarity

_SCALES = [1e-6, 1e-4, 1e-2, 8 / 255, 0.5, 1.0, 2.0, 17.3, 100.0, 255.0]


def test_criterion_02_scale_invariance():
    rng = seed_stream(12, "scale")
    worst_g, worst_c = 0.0, 0.0
    for _ in range(50):
        vals = rng.exponential(1.0, int(rng.integers(5, 300)))
        base = gini(vals)
        v = rng.normal(size=int(rng.integers(3, 64)))
        for k in _SCALES:
            worst_g = max(worst_g, abs(gini(k * vals) - base))
            g = ag.Graph()
            cos, flags = ag.cosine_rows(g.var((k * v)[None]), v[None])
            assert not flags.any()
            worst_c = max(worst_c, abs(float(cos.value[0, 0]) - 1.0))
    assert worst_g < 1e-9
    assert worst_c < 1e-9
    _line(2, f"gini dev={worst_g:.2e}, cosine dev={worst_c:.2e} "
             f"over {len(_SCALES)} scales x 50 instances")


# --------------------------------------------------------------------------
# 3. Elementary transfers: strict Gini descent with exact bookkeeping


def test_criterion_03_monotonic_reduction():
    rng = seed_stream(13, "transfers")
    steps_seen = 0
    worst_identity = 0.0
    for _ in range(500):
        n = int(rng.integers(3, 40))
        w = sorted(Fraction(int(v), 16) for v in rng.integers(0, 160, n))
        # need two distinct values to transfer between
        if w[0] == w[-1]:
            w[-1] += Fraction(1, 2)
        pos = sorted(rng.choice(n, size=2, replace=False))
        recipient, donor = int(pos[0]), int(pos[1])
        gap = w[donor] - w[recipient]
        if gap == 0:
            recipient, donor = 0, n - 1
            gap = w[donor] - w[recipient]
        delta = gap * Fraction(int(rng.integers(1, 129)), 256)
        trace = monotonic_reduce(w, recipient, donor, delta)
        states = trace.states()
        ginis = trace.ginis()
        total = sum(states[0])
        for i, step in enumerate(trace.steps):
            before, after = states[i], states[i + 1]
            assert ginis[i + 1] < ginis[i]          # strict descent
            assert sum(after) == total              # L1 conserved exactly
            d = step.amount
            wa, wb = before[step.recipient], before[step.donor]
            ss_before = sum(v * v for v in before)
            ss_after = sum(v * v for v in after)
            assert ss_after == ss_before + 2 * d * (d - wb + wa)
            worst_identity = max(
                worst_identity,
                abs(float(ss_after) - (float(ss_before)
                    + 2 * float(d) * (float(d) - float(wb) + float(wa)))))
            assert ss_before - ss_after >= 2 * d * d
            steps_seen += 1
    assert worst_identity < 1e-12 * 160 * 160  # scaled by the value range
    _line(3, f"500 populations, {steps_seen} elementary steps, "
             f"float identity dev={worst_identity:.2e}")


# --------------------------------------------------------------------------
# 4. Lagrange bounds on the masked square sum


def test_criterion_04_lagrange_bounds():
    rng = seed_stream(14, "lagrange")
    checked = []
    for k in (2, 4, 16, 64):
        report = lagrange_optimum_check(k, 1.0, 10_000, rng)
        assert report.violations == 0
        assert report.equality_cases_ok
        assert report.ok
        checked.append(f"k={k} range [{report.min_sum_sq:.4f}, "
                       f"{report.max_sum_sq:.4f}]")
    _line(4, "; ".join(checked))


# --------------------------------------------------------------------------
# 5. Closed-form deviation vs Monte Carlo


def _random_instance(rng):
    n = int(rng.integers(40, 200))
    w = rng.normal(size=n) * float(rng.uniform(0.3, 2.0))
    model = LinearScore.from_arrays(w, float(rng.normal()))
    k = int(rng.integers(3, max(4, n // 3)))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=k, replace=False)] = True
    return model, mask


def test_criterion_05_deviation_formulas():
    rng = seed_stream(15, "deviation")
    start = time.monotonic()
    worst_sigmas = 0.0
    for _ in range(50):
        model, mask = _random_instance(rng)
        mu_d = float(rng.uniform(-0.5, 0.5))
        s_d = float(rng.uniform(0.05, 0.6))
        mu_x = float(rng.uniform(0.2, 0.8))
        s_x = float(rng.uniform(0.05, 0.4))
        specs = [
            NoiseSpec("additive", mu_delta=mu_d, sigma_delta=s_d),
            NoiseSpec("mult_additive", mu_delta=mu_d, sigma_delta=s_d,
                      mu_x=mu_x, sigma_x=s_x),
            NoiseSpec.occlusion(color=float(rng.uniform(0, 1)),
                                mu_x=mu_x, sigma_x=s_x),
        ]
        for spec in specs:
            want = predicted_deviation(model, mask, spec)
            got, err = monte_carlo_deviation(model, mask, spec, 100_000,
                                             seed_stream(15, "mc", spec.kind))
            assert err > 0
            sigmas = abs(got - want) / err
            worst_sigmas = max(worst_sigmas, sigmas)
            assert sigmas <= 3.0, (spec.kind, want, got, err)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _line(5, f"50 instances x 3 kinds at 1e5 samples, "
             f"worst |z|={worst_sigmas:.2f}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. Derivatives against finite differences


def _upcast(model):
    for key in model.params:
        model.params[key] = model.params[key].astype(np.float64)
    return model


def _ce(model, x, y):
    z = model.logits(x)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(y)), y].mean())


def _ce_param_grads(model, x, y):
    g = ag.Graph()
    pv = model.bind(g)
    logits = model.graph_logits(g.var(x), pv)
    loss = ag.cross_entropy_mean(logits, y)
    names = sorted(pv)
    return dict(zip(names, ag.grad(loss, [pv[n] for n in names])))


def _rel(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def test_criterion_06_gradient_integrity():
    worst1 = 0.0
    for seed in (0, 1):
        model = _upcast(MLP((10,), [16, 12], 3, activation="softplus",
                            seed=seed))
        rng = seed_stream(16, "fd", seed)
        x = rng.random((5, 10))
        y = rng.integers(0, 3, 5)
        grads = _ce_param_grads(model, x, y)
        h = 1e-5
        for name, g in grads.items():
            flat = model.params[name].reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 7)):
                keep = flat[idx]
                flat[idx] = keep + h
                up = _ce(model, x, y)
                flat[idx] = keep - h
                dn = _ce(model, x, y)
                flat[idx] = keep
                fd = (up - dn) / (2 * h)
                worst1 = max(worst1, _rel(fd, float(g.reshape(-1)[idx])))
    assert worst1 < 1e-4

    # second order: the cosine alignment term differentiates the input
    # gradient, so its parameter gradient exercises double backward
    student = _upcast(MLP((6,), [14, 10], 3, activation="softplus", seed=3))
    teacher = _upcast(MLP((6,), [12], 3, activation="softplus", seed=4))
    rng = seed_stream(16, "fd2")
    x = rng.random((4, 6))
    y = rng.integers(0, 3, 4)
    lam = 0.9
    parts = igd_loss(student, teacher, x, x, y, lam)

    def total(m):
        return igd_loss(m, teacher, x, x, y, lam).total

    worst2 = 0.0
    h = 1e-5
    for name, g in parts.grads.items():
        flat = student.params[name].reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            keep = flat[idx]
            flat[idx] = keep + h
            up = total(student)
            flat[idx] = keep - h
            dn = total(student)
            flat[idx] = keep
            fd = (up - dn) / (2 * h)
            worst2 = max(worst2, _rel(fd, float(np.asarray(g).reshape(-1)[idx])))
    assert worst2 < 1e-3
    _line(6, f"first-order dev={worst1:.2e} (<1e-4), "
             f"alignment-term dev={worst2:.2e} (<1e-3)")


# --------------------------------------------------------------------------
# 7. Attack geometry and reproducibility


def test_criterion_07_attack_contracts():
    model = CNN((1, 8, 8), [4, 4], 3, seed=2)
    rng = seed_stream(17, "pgd-data")
    x = rng.random((6, 1, 8, 8))
    y = rng.integers(0, 3, 6)

    # iterate k is the output of k steps from the same random start
    iterates = [pgd(model, x, y, iters=k, rng=seed_stream(17, "pgd")).x_adv
                for k in range(11)]
    for it in iterates:
        assert np.all(it >= 0.0) and np.all(it <= 1.0)
        assert np.max(np.abs(it - x)) <= PGD_EPS + 1e-12
    ball = float(np.max(np.abs(iterates[-1] - x)))

    # top-k masks against brute force, including tied values
    mask_checked = 0
    for trial in range(30):
        mrng = seed_stream(17, "mask", trial)
        vals = np.round(mrng.random((9, 9)), 1)  # coarse grid forces ties
        for k in (1, 5, 17, 81):
            flags = topk_flags(vals.reshape(-1), k)
            order = sorted(range(vals.size),
                           key=lambda i: (-vals.reshape(-1)[i], i))
            brute = np.zeros(vals.size, dtype=bool)
            brute[order[:k]] = True
            assert np.array_equal(flags, brute)
            assert np.array_equal(topk_flags(vals, k), brute)
            mask_checked += 1

    # IOA paints clipped squares whose areas match the closed form
    ix = seed_stream(17, "ioa-img").random((1, 8, 8))
    iy = np.argmax(model.logits(ix[None]), axis=1)
    (outcome,) = ioa(model, ix[None], iy, 3, 3, 1.0)
    for step in outcome.steps:
        for (cy, cx), area in zip(step.centers, step.areas):
            y0, y1, x0, x1 = clipped_square(cy, cx, step.r, 8, 8)
            side_y = min(cy + step.r, 7) - max(cy - step.r, 0) + 1
            side_x = min(cx + step.r, 7) - max(cx - step.r, 0) + 1
            assert area == (y1 - y0) * (x1 - x0) == side_y * side_x

    # bit-identical replays for every attack family
    specs = [AttackSpec(kind="pgd"), AttackSpec(kind="ina1", k=6),
             AttackSpec(kind="ina2", k=6), AttackSpec(kind="rn", k=6),
             AttackSpec(kind="ioa", n=3, r=1),
             AttackSpec(kind="corrupt", corrupt_kind="shot", param=12.0)]
    for spec in specs:
        a = apply_spec(spec, model, x[0], int(y[0]), seed_stream(17, "rep"))
        b = apply_spec(spec, model, x[0], int(y[0]), seed_stream(17, "rep"))
        assert a.tobytes() == b.tobytes(), spec.kind
    _line(7, f"ball max|dx|={ball:.4f} (eps={PGD_EPS:.4f}), "
             f"{mask_checked} mask checks, {len(outcome.steps)} IOA steps, "
             f"{len(specs)} attacks bit-stable")


# --------------------------------------------------------------------------
# 8. Desk-scale training comparison (the slow one)

# Difficulty sits under the cliff where plain adversarial training stops
# converging: at noise 0.20/amplitude 0.40 most init seeds already collapse
# it to a constant predictor (the distilled students keep training fine).
# Here it trains reliably yet still concentrates saliency hard enough for
# the orderings below to show with wide margins. The k grid spans 10 to 40
# percent of the 1024 pixels; below 10 percent every model shrugs the
# noise off and the curves tie at zero.
BLOBS = dict(resolution=32, classes=4, noise=0.18, amplitude=0.44,
             spread=3.0, jitter=3.0)
TRAIN_N = 2000
EVAL_N = 800
EPOCHS = 24
SHARED_SEED = 9
K_GRID = (102, 153, 204, 307, 409)


def _train_config(method, lam=0):
    return TrainConfig(method=method,
                       model={"kind": "mlp", "in_shape": [1, 32, 32],
                              "hidden": [64, 64], "classes": 4},
                       lam=lam, epochs=EPOCHS, batch_size=64, lr=0.02,
                       val_fraction=0.1, seed=SHARED_SEED)


@pytest.mark.slow
def test_criterion_08_training_comparison():
    start = time.monotonic()
    train_data = synth_blobs(TRAIN_N, seed=101, **BLOBS)
    eval_data = synth_blobs(EVAL_N, seed=202, **BLOBS)
    px, lab = eval_data.pixels, eval_data.labels

    std, _ = train(_train_config("standard"), train_data)
    pgdat, _ = train(_train_config("pgdat"), train_data)
    igd = {lam: train(_train_config("igd", lam), train_data, teacher=std)[0]
           for lam in (1, 2, 4)}

    ginis = {name: mean_saliency_gini(m, px, lab, cap=200)
             for name, m in [("pgdat", pgdat), ("igd1", igd[1]),
                             ("igd2", igd[2]), ("igd4", igd[4])]}
    assert ginis["igd4"] < ginis["igd1"] < ginis["pgdat"], ginis

    curve_models = [pgdat, igd[2], igd[4]]
    curves = {k: error_rate(curve_models, AttackSpec(kind="ina1", k=k),
                            px, lab, SHARED_SEED).rates for k in K_GRID}
    for k, (r_pgdat, r_igd2, r_igd4) in curves.items():
        assert r_igd2 < r_pgdat, (k, curves[k])
        assert r_igd4 < r_pgdat, (k, curves[k])

    cfg = _train_config("pgdat")
    acc_pgdat = pgd_accuracy(pgdat, px, lab, cfg, seed_stream(SHARED_SEED, "r", "p"))
    accs = {lam: pgd_accuracy(m, px, lab, cfg, seed_stream(SHARED_SEED, "r", lam))
            for lam, m in igd.items()}
    for lam, acc in accs.items():
        assert acc >= acc_pgdat - 0.05, (lam, acc, acc_pgdat)

    # soft check only: aligned students should not blow up gradient mass
    probe_x, probe_y = px[:100], lab[:100]
    l1_pgdat = float(np.mean([np.abs(g).sum() for g in
                              input_gradients(pgdat, probe_x, probe_y)]))
    for lam, m in igd.items():
        l1 = float(np.mean([np.abs(g).sum() for g in
                            input_gradients(m, probe_x, probe_y)]))
        if not 0.5 <= l1 / l1_pgdat <= 2.0:
            warnings.warn(f"igd lam={lam} mean gradient L1 {l1:.3g} is "
                          f"{l1 / l1_pgdat:.2f}x the adversarial baseline "
                          f"{l1_pgdat:.3g}", stacklevel=1)

    elapsed = time.monotonic() - start
    assert elapsed < 7200.0
    _line(8, f"gini pgdat={ginis['pgdat']:.3f} > igd1={ginis['igd1']:.3f} "
             f"> igd4={ginis['igd4']:.3f}; ina1 ordered at all "
             f"{len(K_GRID)} k; pgd acc pgdat={acc_pgdat:.3f} "
             f"igd={min(accs.values()):.3f}; {elapsed / 60:.1f} min")


# --------------------------------------------------------------------------
# 9. lambda = 0 collapses to plain adversarial training


def test_criterion_09_lambda_zero_equivalence():
    data = synth_blobs(160, resolution=16, classes=2, seed=31, spread=2.0,
                       noise=0.1)
    base = dict(model={"kind": "mlp", "in_shape": [1, 16, 16],
                       "hidden": [24], "classes": 2},
                epochs=3, batch_size=32, lr=0.05, val_fraction=0.2,
                pgd_iters=5, seed=9)
    teacher, _ = train(TrainConfig(method="standard", **base), data)
    m_pgdat, rec_p = train(TrainConfig(method="pgdat", **base), data)
    m_igd0, rec_i = train(TrainConfig(method="igd", lam=0, **base), data,
                          teacher=teacher)
    for key in m_pgdat.params:
        assert m_pgdat.params[key].tobytes() == m_igd0.params[key].tobytes()
    assert [asdict(r) for r in rec_p.rows] == [asdict(r) for r in rec_i.rows]
    assert rec_p.best_epoch == rec_i.best_epoch
    _line(9, f"{len(m_pgdat.params)} tensors and {len(rec_p.rows)} epoch rows "
             f"bit-identical")


# --------------------------------------------------------------------------
# 10. Joint-correct error rates on an enumerable fixture


def test_criterion_10_error_rate_protocol():
    # three linear scorers on four one-pixel images; class 1 iff score > 0
    xs = np.array([0.1, 0.4, 0.6, 0.9]).reshape(4, 1, 1, 1)
    labels = np.array([0, 1, 1, 1])
    shape = (1, 1, 1)
    a = LinearScore.from_arrays([1.0], -0.5, shape)    # correct on 0, 2, 3
    b = LinearScore.from_arrays([1.0], -0.25, shape)   # correct on all four
    c = LinearScore.from_arrays([-1.0], 0.75, shape)   # correct on 1, 2
    models = [a, b, c]
    # only sample 2 (x=0.6) is correct under all three
    rep = error_rate(models, AttackSpec(kind="ina1", k=0), xs, labels, seed=0)
    assert list(rep.joint_indices) == [2]
    assert rep.evaluated == 1
    assert rep.rates == (0.0, 0.0, 0.0)

    # pgd at eps=0.2: flips exactly the models whose margin at x=0.6
    # is inside the ball (|0.6-0.5|=0.1 for a, |0.6-0.75|=0.15 for c,
    # |0.6-0.25|=0.35 for b stays safe)
    rep2 = error_rate(models, AttackSpec(kind="pgd", eps=0.2, step=0.05,
                                         iters=10), xs, labels, seed=0)
    assert rep2.evaluated == 1
    assert rep2.rates == (1.0, 0.0, 1.0)
    _line(10, f"joint subset {list(rep.joint_indices)}, identity rates "
              f"{rep.rates}, pgd rates {rep2.rates}, all as enumerated")
