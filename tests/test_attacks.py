"""Attack suite checks: closed-form PGD on linear scores, ball and box
invariants on every iterate, sort oracles for top-k masks, geometry of
clipped occlusion squares, distributional oracles for the noise ops,
and the joint-correct error-rate protocol on a hand fixture."""

import itertools

import numpy as np
import pytest
from scipy import stats

from gradeq import attacks
from gradeq import autodiff as ag
from gradeq.attacks import (
    AttackSpec,
    Mask,
    apply_spec,
    build_topk_mask,
    clipped_square,
    corrupt,
    error_rate,
    ina1,
    ina2,
    ioa,
    pgd,
    rn,
)
from gradeq.autodiff import kernels
from gradeq.autodiff.functional import conv_bias
from gradeq.models import CNN, MLP, LinearScore, build_model, input_gradients, predict
from gradeq.seeding import seed_stream
from support import tape_pgd

EPS = 8.0 / 255.0
STEP = 2.0 / 255.0


def small_mlp(seed=0, in_shape=(12,), classes=3):
    return MLP(in_shape, [8], classes, seed=seed)


# ---------------------------------------------------------------------------
# PGD


def test_pgd_linear_closed_form():
    # For class-1 targets on a linear score the CE input gradient is a
    # negative multiple of w, so 10 steps of 2/255 saturate the 8/255 ball:
    # x' = clip(x - eps * sign(w)).
    rng = seed_stream(3, "lin")
    w = rng.normal(size=7)
    x = rng.uniform(0.05, 0.95, size=(4, 7))
    model = LinearScore.from_arrays(w, 0.0)
    res = pgd(model, x, np.ones(4, dtype=int), EPS, STEP, 10, random_start=False)
    expect = np.clip(x - EPS * np.sign(w), 0.0, 1.0)
    assert not res.aborted.any()
    np.testing.assert_allclose(res.x_adv, expect, atol=1e-12)


def test_pgd_every_iterate_in_ball_and_box():
    model = small_mlp()
    rng = seed_stream(1, "pgd")
    x = rng.uniform(size=(5, 12))
    y = rng.integers(0, 3, size=5)
    # iterate k is the output of k steps from the same random start
    iterates = [pgd(model, x, y, EPS, STEP, k, rng=seed_stream(2, "start")).x_adv
                for k in range(11)]
    for it in iterates:
        assert np.all(np.abs(it - x) <= EPS + 1e-12)
        assert np.all(it >= 0.0) and np.all(it <= 1.0)


def test_pgd_zero_eps_is_identity():
    model = small_mlp()
    x = seed_stream(4, "x").uniform(size=(3, 12))
    y = np.zeros(3, dtype=int)
    res = pgd(model, x, y, 0.0, STEP, 5, rng=seed_stream(5, "s"))
    assert np.array_equal(res.x_adv, x)


def test_pgd_bit_reproducible():
    model = small_mlp()
    x = seed_stream(6, "x").uniform(size=(3, 12))
    y = np.array([0, 1, 2])
    a = pgd(model, x, y, EPS, STEP, 10, rng=seed_stream(7, "s")).x_adv
    b = pgd(model, x, y, EPS, STEP, 10, rng=seed_stream(7, "s")).x_adv
    assert np.array_equal(a, b)


class _LogSumModel:
    """Class-1 score log(sum x): gradient blows up as the sum crosses 0."""

    classes = 2

    def bind(self, g):
        return {}

    def graph_logits(self, xv, params):
        g = xv.graph
        s = g.log(g.sum_axes(xv, (1,)))  # [N,1]
        return g.matmul(s, g.const(np.array([[0.0, 1.0]])))


def test_pgd_flags_nonfinite_sample():
    # Raising the class-1 loss drives sum(x) down; the box clips the first
    # sample's pixels to 0, log(0) goes non-finite, and that sample must be
    # flagged and frozen rather than crash the batch.
    x = np.full((2, 3), 0.02)
    x[1] = 0.9  # healthy sample
    res = pgd(_LogSumModel(), x, np.array([1, 1]), 0.5, 0.25, 8, random_start=False)
    assert bool(res.aborted[0])
    assert not bool(res.aborted[1])
    assert np.isfinite(res.x_adv).all()


PGD_ORACLE_MODELS = {
    "mlp-relu": {"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [64, 64], "classes": 4},
    "mlp-softplus": {"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [64, 64],
                     "classes": 4, "activation": "softplus"},
    "linear": {"kind": "linear", "in_shape": [1, 8, 8]},
    "cnn": {"kind": "cnn", "in_shape": [3, 8, 8], "channels": [16, 32], "classes": 4},
}


def _pgd_case(name, starts):
    model = build_model(PGD_ORACLE_MODELS[name], seed=3)
    rng = seed_stream(11, "pgd-oracle", name)
    x = rng.uniform(size=(6, *model.in_shape))
    y = rng.integers(0, model.classes, size=6)
    kwargs = {"one": {"rng": seed_stream(12, "start")},
              "per-sample": {"rng": [seed_stream(12, i) for i in range(6)]},
              "none": {"random_start": False}}[starts]
    return model, x, y, kwargs


@pytest.mark.parametrize("starts", ["one", "per-sample", "none"])
@pytest.mark.parametrize("iters", [0, 1, 2, 10])
@pytest.mark.parametrize("name", sorted(PGD_ORACLE_MODELS))
def test_pgd_equals_the_per_iteration_tape_oracle(name, iters, starts):
    model, x, y, kwargs = _pgd_case(name, starts)
    got = pgd(model, x, y, EPS, STEP, iters, **kwargs)
    _, _, _, kwargs = _pgd_case(name, starts)  # fresh generators for the oracle
    want = tape_pgd(model, x, y, EPS, STEP, iters, **kwargs)
    assert got.x_adv.tobytes() == want.x_adv.tobytes()
    assert got.aborted.tolist() == want.aborted.tolist()


@pytest.mark.parametrize("starts", ["one", "per-sample", "none"])
def test_pgd_leaves_its_input_unchanged(starts):
    model, x, y, kwargs = _pgd_case("mlp-relu", starts)  # float64: pgd gets this very array
    before = x.copy()
    out = pgd(model, x, y, EPS, STEP, 3, **kwargs)
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(out.x_adv, x)


def _pool_masks(model, x):
    """The argmax masks of the CNN's two pooling stages at input x."""
    p = {k: v.astype(np.float64) for k, v in model.params.items()}
    h1 = kernels.relu(conv_bias(kernels, x, p["k1"], p["cb1"], 1))
    m1 = kernels.pool_mask(h1)
    h2 = kernels.relu(conv_bias(kernels, kernels.maxpool2(h1, m1), p["k2"], p["cb2"], 1))
    return m1, kernels.pool_mask(h2)


def test_pgd_oracle_case_moves_a_pool_argmax():
    """The CNN oracle case fails a plan that froze its pooling masks: an
    argmax of each pooling stage moves between the first and last iterate."""
    for starts in ("one", "per-sample", "none"):
        model, x, y, kwargs = _pgd_case("cnn", starts)
        first = pgd(model, x, y, EPS, STEP, 0, **kwargs).x_adv
        _, _, _, kwargs = _pgd_case("cnn", starts)
        last = pgd(model, x, y, EPS, STEP, 10, **kwargs).x_adv
        for a, b in zip(_pool_masks(model, first), _pool_masks(model, last)):
            assert not np.array_equal(a, b)


class _CountingGraph(ag.Graph):
    built = []

    def __init__(self):
        super().__init__()
        self.built.append(self)


def test_pgd_builds_one_tape_per_call(monkeypatch):
    model, x, y, kwargs = _pgd_case("mlp-relu", "one")
    _CountingGraph.built = []
    monkeypatch.setattr(ag, "Graph", _CountingGraph)
    res = pgd(model, x, y, EPS, STEP, 10, **kwargs)
    assert not res.aborted.any()
    assert len(_CountingGraph.built) == 1


def test_pgd_sample_failing_in_a_replay_matches_the_oracle(monkeypatch):
    # Sample 0 sums to 1.2 and steps down by 0.25 a pixel, so the box
    # clips it to 0 at the second step and log(0) fails the third
    # iteration: a replay of the plan the first one recorded.
    x = np.stack([np.full(3, 0.4), np.full(3, 0.9), np.full(3, 0.8)])
    y = np.ones(3, dtype=int)
    _CountingGraph.built = []
    with monkeypatch.context() as m:
        m.setattr(ag, "Graph", _CountingGraph)
        got = pgd(_LogSumModel(), x, y, 0.5, 0.25, 8, random_start=False)
    want = tape_pgd(_LogSumModel(), x, y, 0.5, 0.25, 8, random_start=False)
    assert got.aborted.tolist() == want.aborted.tolist() == [True, False, False]
    assert got.x_adv.tobytes() == want.x_adv.tobytes()
    # the recording tape, none for the second iteration, one per sample in
    # the third, then one plan over the samples still live
    assert len(_CountingGraph.built) == 1 + len(x) + 1


def test_pgd_and_ioa_flag_a_nonfinite_input_gradient():
    # At x = 0 the forward is finite (the logits stay near 1e304 in
    # float64) and the backward, a product of nine 3e37 weights, overflows:
    # the sample is flagged before its first step.
    model = MLP((1, 2, 2), [4] * 8, 2, activation="softplus")
    for name, w in model.params.items():
        if name.startswith("w"):
            w[:] = np.float32(3e37)
    model.params["w8"][:, 1] = np.float32(-3e37)
    x, y = np.zeros((1, 1, 2, 2)), np.array([1])
    assert np.isfinite(model.logits(x)).all()
    with np.errstate(over="ignore"):  # the overflow is what this test is about
        assert (input_gradients(model, x, y) == -np.inf).all()
    # the attacks flag it without a RuntimeWarning, which the suite raises
    for attack, iters in itertools.product((pgd, tape_pgd), (1, 10)):
        res = attack(model, x, y, EPS, STEP, iters, random_start=False)
        assert res.aborted.tolist() == [True]
        assert np.array_equal(res.x_adv, x)
    (out,) = ioa(model, x, y, 2, 2, 0.5)
    assert out.aborted and out.steps == () and np.array_equal(out.x_adv, x[0])


# ---------------------------------------------------------------------------
# Top-k masks


def test_topk_matches_sort_oracle():
    rng = seed_stream(8, "topk")
    for _ in range(50):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        vals = rng.normal(size=(h, w))
        k = int(rng.integers(0, h * w + 1))
        mask = build_topk_mask(vals, k)
        order = sorted(range(h * w), key=lambda i: (-vals.reshape(-1)[i], i))
        expect = np.zeros(h * w, dtype=bool)
        expect[order[:k]] = True
        assert mask.m.sum() == k
        assert np.array_equal(mask.m.reshape(-1), expect)


def test_topk_ties_row_major():
    mask = build_topk_mask(np.ones((3, 4)), 5)
    flat = mask.m.reshape(-1)
    assert flat[:5].all() and not flat[5:].any()


def test_topk_bounds():
    assert not build_topk_mask(np.zeros((2, 2)), 0).m.any()
    assert build_topk_mask(np.zeros((2, 2)), 4).m.all()
    with pytest.raises(ValueError):
        build_topk_mask(np.zeros((2, 2)), 5)


# ---------------------------------------------------------------------------
# Noise attacks


def grid_mask(h, w, rows):
    m = np.zeros((h, w), dtype=bool)
    m[rows] = True
    return Mask(m)


def test_ina1_touches_only_mask():
    x = seed_stream(9, "x").uniform(size=(3, 6, 6))
    mask = grid_mask(6, 6, slice(0, 2))
    out = ina1(x, mask, seed_stream(10, "n"))
    assert np.array_equal(out[:, 2:], x[:, 2:])
    assert not np.array_equal(out[:, :2], x[:, :2])
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_ina1_matches_manual_stream():
    x = seed_stream(11, "x").uniform(size=(2, 4, 4))
    mask = grid_mask(4, 4, slice(1, 3))
    out = ina1(x, mask, seed_stream(12, "n"))
    ys, xs = np.nonzero(mask.m)
    noise = seed_stream(12, "n").normal(size=(2, len(ys)))
    expect = x.copy()
    expect[:, ys, xs] = np.clip(expect[:, ys, xs] + noise, 0.0, 1.0)
    assert np.array_equal(out, expect)


def test_ina1_zero_k_is_identity():
    x = seed_stream(13, "x").uniform(size=(3, 5, 5))
    out = ina1(x, build_topk_mask(np.zeros((5, 5)), 0), seed_stream(14, "n"))
    assert np.array_equal(out, x)


@pytest.mark.parametrize("noise", [ina1, ina2], ids=["ina1", "ina2"])
def test_empty_mask_changes_nothing_and_draws_nothing(noise):
    x = seed_stream(13, "x").uniform(size=(3, 5, 5))
    rng = seed_stream(14, "n")
    out = noise(x, Mask(np.zeros((5, 5), dtype=bool)), rng)
    assert out.tobytes() == x.tobytes()
    assert rng.random() == seed_stream(14, "n").random()


def test_ina1_variance_matches_direct_simulation():
    # Masked pixels of a 0.5 image follow clip(0.5 + N(0,1)); compare the
    # sample variance against an independent direct simulation.
    n = 100_000
    x = np.full((1, 250, 400), 0.5)
    out = ina1(x, Mask(np.ones((250, 400), dtype=bool)), seed_stream(15, "a"))
    direct = np.clip(0.5 + seed_stream(16, "b").normal(size=n), 0.0, 1.0)
    assert out.var() == pytest.approx(direct.var(), rel=0.02)


def test_ina2_clipped_normal_distribution():
    # Replacement draws are clip(N(0,1), 0, 1): point mass 0.5 at zero,
    # Phi(1)-Phi(0) in between, 1-Phi(1) at one.
    x = np.full((1, 200, 500), 0.3)
    out = ina2(x, Mask(np.ones((200, 500), dtype=bool)), seed_stream(17, "c"))
    v = out.reshape(-1)
    counts = [(v == 0).sum(), ((v > 0) & (v < 1)).sum(), (v == 1).sum()]
    probs = [0.5, stats.norm.cdf(1) - 0.5, 1 - stats.norm.cdf(1)]
    p = stats.chisquare(counts, np.array(probs) * v.size).pvalue
    assert p > 0.01


def test_rn_touches_exactly_k_distinct_pixels():
    x = np.full((3, 8, 8), 0.5)
    for k in (0, 1, 7, 64):
        out = rn(x, k, seed_stream(18, "rn", k))
        changed = np.any(out != x, axis=0)
        assert changed.sum() == k


def test_rn_positions_uniform():
    hits = np.zeros(16)
    x = np.full((1, 4, 4), 0.5)
    for t in range(4000):
        out = rn(x, 3, seed_stream(19, "u", t))
        hits += np.any(out != x, axis=0).reshape(-1)
    p = stats.chisquare(hits).pvalue  # uniform expectation is the default
    assert p > 0.01


# ---------------------------------------------------------------------------
# Occlusion


def test_clipped_square_against_brute_force():
    h, w = 5, 6
    for cy in range(h):
        for cx in range(w):
            for r in range(1, 4):
                y0, y1, x0, x1 = clipped_square(cy, cx, r, h, w)
                area = (y1 - y0) * (x1 - x0)
                brute = sum(1 for i in range(h) for j in range(w)
                            if abs(i - cy) <= r and abs(j - cx) <= r)
                assert area == brute


def test_ioa_trace_schedule_and_paint():
    model = CNN((1, 8, 8), [3, 4], 2, seed=20)
    x = seed_stream(21, "x").uniform(size=(1, 8, 8))
    y = int(predict(model, x[None])[0])
    (out,) = ioa(model, x[None], np.array([y]), n_max=3, r_max=2, color=0.5)
    # schedule is a prefix of (1,1),(1,2),(2,1),(2,2),(3,1),(3,2)
    full = [(n, r) for n in (1, 2, 3) for r in (1, 2)]
    assert [(s.n, s.r) for s in out.steps] == full[: len(out.steps)]
    assert out.success == (out.steps[-1].prediction != y)
    last = out.steps[-1]
    for (cy, cx), area in zip(last.centers, last.areas):
        y0, y1, x0, x1 = clipped_square(cy, cx, last.r, 8, 8)
        assert area == (y1 - y0) * (x1 - x0)
        assert np.all(out.x_adv[:, y0:y1, x0:x1] == 0.5)
    assert len(last.centers) == last.n


def test_ioa_deterministic():
    model = CNN((1, 8, 8), [3, 4], 2, seed=22)
    x = seed_stream(23, "x").uniform(size=(1, 8, 8))
    y = int(predict(model, x[None])[0])
    (a,) = ioa(model, x[None], np.array([y]), 2, 2, 0.0)
    (b,) = ioa(model, x[None], np.array([y]), 2, 2, 0.0)
    assert np.array_equal(a.x_adv, b.x_adv)
    assert a.steps == b.steps


# ---------------------------------------------------------------------------
# Corruptions


def test_corrupt_gaussian_zero_sigma_identity():
    x = seed_stream(24, "x").uniform(size=(3, 4, 4))
    assert np.array_equal(corrupt(x, "gaussian", 0.0, seed_stream(25, "g")), x)


def test_corrupt_gaussian_bounds_and_change():
    x = np.full((3, 16, 16), 0.5)
    out = corrupt(x, "gaussian", 0.1, seed_stream(26, "g"))
    assert out.min() >= 0 and out.max() <= 1
    assert not np.array_equal(out, x)


def test_corrupt_shot_mean_preserved():
    lam = 60.0
    x = np.full((1, 200, 200), 0.5)
    out = corrupt(x, "shot", lam, seed_stream(27, "s"))
    stderr = np.sqrt(0.5 / lam) / np.sqrt(x.size)
    assert abs(out.mean() - 0.5) < 4 * stderr
    with pytest.raises(ValueError):
        corrupt(x, "shot", 0.0, seed_stream(28, "s"))


def test_corrupt_impulse_rates():
    x = np.full((3, 100, 100), 0.5)
    out = corrupt(x, "impulse", 0.2, seed_stream(29, "i"))
    salt = np.all(out == 1.0, axis=0)
    pepper = np.all(out == 0.0, axis=0)
    # pixel hits are shared across channels; rates are binomial around p/2
    sd = np.sqrt(0.1 * 0.9 / salt.size)
    assert abs(salt.mean() - 0.1) < 4 * sd
    assert abs(pepper.mean() - 0.1) < 4 * sd
    full = corrupt(x, "impulse", 1.0, seed_stream(30, "i"))
    assert np.all((full == 0.0) | (full == 1.0))


def test_corrupt_unknown_kind():
    with pytest.raises(ValueError):
        corrupt(np.zeros((1, 2, 2)), "blur", 1.0, seed_stream(31, "z"))


# ---------------------------------------------------------------------------
# Error-rate protocol


def three_model_fixture():
    # 1-D inputs; decision is x > threshold (or reversed for C).
    xs = np.array([[0.1], [0.4], [0.6], [0.9]])
    labels = np.array([0, 1, 1, 1])
    a = LinearScore.from_arrays(np.array([1.0]), -0.5)
    b = LinearScore.from_arrays(np.array([1.0]), -0.25)
    c = LinearScore.from_arrays(np.array([-1.0]), 0.75)
    return [a, b, c], xs, labels


def test_error_rate_joint_subset_hand_fixture():
    models, xs, labels = three_model_fixture()
    # correct sets: A {0,2,3}, B {0,1,2,3}, C {1,2}; intersection {2}
    spec = AttackSpec(kind="corrupt", corrupt_kind="gaussian", param=0.0)
    rep = error_rate(models, spec, xs, labels, seed=0)
    assert rep.evaluated == 1
    assert list(rep.joint_indices) == [2]
    assert rep.rates == (0.0, 0.0, 0.0)


def test_error_rate_requires_joint_sample():
    models, xs, _ = three_model_fixture()
    with pytest.raises(ValueError):
        error_rate(models, AttackSpec(kind="rn", k=0), xs, np.array([1, 0, 0, 0]), seed=0)


def test_error_rate_identity_attack_zero():
    # k=0 attribution noise perturbs nothing, so jointly correct samples
    # stay correct and every rate is exactly zero.
    model = small_mlp(seed=40, in_shape=(1, 4, 4), classes=2)
    xs = seed_stream(41, "x").uniform(size=(6, 1, 4, 4))
    labels = predict(model, xs)
    rep = error_rate([model], AttackSpec(kind="ina1", k=0), xs, labels, seed=1)
    assert rep.evaluated == 6
    assert rep.rates == (0.0,)


def test_error_rate_shared_streams_across_models():
    # Two identical models must see identical noise per sample, hence
    # identical wrong-vectors.
    m1 = small_mlp(seed=42, in_shape=(1, 4, 4), classes=2)
    m2 = small_mlp(seed=42, in_shape=(1, 4, 4), classes=2)
    xs = seed_stream(43, "x").uniform(size=(8, 1, 4, 4))
    labels = predict(m1, xs)
    spec = AttackSpec(kind="rn", k=8)
    rep = error_rate([m1, m2], spec, xs, labels, seed=2)
    assert np.array_equal(rep.wrong[0], rep.wrong[1])


def test_error_rate_draws_a_model_free_batch_once(monkeypatch):
    # every model sees the same per-sample streams, so each sample is
    # corrupted once, not once per model; the rates stay per model
    models = [small_mlp(seed=s, in_shape=(1, 4, 4), classes=2) for s in (44, 44, 45)]
    xs = seed_stream(46, "x").uniform(size=(8, 1, 4, 4))
    labels = predict(models[0], xs)
    spec = AttackSpec(kind="corrupt", corrupt_kind="gaussian", param=0.3)
    calls = []
    monkeypatch.setattr(attacks, "corrupt",
                        lambda *args: calls.append(1) or corrupt(*args))
    rep = error_rate(models, spec, xs, labels, seed=4)
    assert len(calls) == rep.evaluated > 0
    monkeypatch.undo()
    xj, yj = xs[rep.joint_indices], labels[rep.joint_indices]
    for m, wrong in zip(models, rep.wrong):
        rngs = [seed_stream(4, "attack", spec.label(), int(i)) for i in rep.joint_indices]
        assert np.array_equal(wrong, predict(m, spec.apply(m, xj, yj, rngs)) != yj)


def test_error_rate_pgd_flips_thin_margin():
    # 1-D score x - 0.5: PGD with eps=0.2 flips exactly the correct
    # samples within 0.2 of the threshold.
    model = LinearScore.from_arrays(np.array([1.0]), -0.5)
    xs = np.array([[0.1], [0.45], [0.62], [0.95]])
    labels = np.array([0, 0, 1, 1])
    spec = AttackSpec(kind="pgd", eps=0.2, step=0.05, iters=10)
    rep = error_rate([model], spec, xs, labels, seed=3)
    assert rep.evaluated == 4
    assert list(rep.wrong[0]) == [False, True, True, False]


def test_apply_spec_reproducible():
    model = small_mlp(seed=50, in_shape=(1, 4, 4), classes=2)
    x = seed_stream(51, "x").uniform(size=(1, 4, 4))
    for spec in (AttackSpec(kind="pgd"), AttackSpec(kind="ina1", k=4),
                 AttackSpec(kind="ina2", k=4), AttackSpec(kind="rn", k=4),
                 AttackSpec(kind="corrupt", corrupt_kind="impulse", param=0.3)):
        a = apply_spec(spec, model, x, 0, seed_stream(52, spec.label()))
        b = apply_spec(spec, model, x, 0, seed_stream(52, spec.label()))
        assert np.array_equal(a, b), spec.label()


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="warp")
    with pytest.raises(ValueError):
        AttackSpec(kind="pgd", eps=-1.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="ina1", k=-2)
    for bad in ({"n": 0}, {"r": 0}, {"n": -1}, {"color": 1.5}, {"color": -0.5}):
        with pytest.raises(ValueError):
            AttackSpec(kind="ioa", **bad)


_IMG = np.full((1, 1, 4, 4), 0.5)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: pgd(small_mlp(in_shape=(1, 4, 4)), _IMG, [0], eps=-1.0),
                 "eps, step, iters must be nonnegative", id="pgd-eps"),
    pytest.param(lambda: pgd(small_mlp(in_shape=(1, 4, 4)), _IMG, [0], step=-1.0),
                 "eps, step, iters must be nonnegative", id="pgd-step"),
    pytest.param(lambda: pgd(small_mlp(in_shape=(1, 4, 4)), _IMG, [0], iters=-1),
                 "eps, step, iters must be nonnegative", id="pgd-iters"),
    pytest.param(lambda: pgd(small_mlp(in_shape=(1, 4, 4)), _IMG, [0]),
                 "random_start needs an rng", id="pgd-no-rng"),
    pytest.param(lambda: rn(_IMG[0], 17, seed_stream(0, "rn")),
                 r"k must be in \[0, 16\], got 17", id="rn-k"),
    pytest.param(lambda: ioa(small_mlp(in_shape=(1, 4, 4)), _IMG, [0], 0, 1, 0.0),
                 "need n_max >= 1 and r_max >= 1", id="ioa-n"),
    pytest.param(lambda: ioa(small_mlp(in_shape=(1, 4, 4)), _IMG, [0], 1, 0, 0.0),
                 "need n_max >= 1 and r_max >= 1", id="ioa-r"),
    pytest.param(lambda: ioa(small_mlp(in_shape=(1, 4, 4)), _IMG, [0], 1, 1, 1.5),
                 r"color must be in \[0,1\], got 1.5", id="ioa-color"),
    pytest.param(lambda: error_rate([], AttackSpec(kind="rn", k=0), _IMG, [0], seed=0),
                 "need at least one model", id="error-rate-no-model"),
])
def test_attacks_refuse_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_attack_spec_parse():
    assert AttackSpec.parse({"kind": "ina2", "k": 3, "method": "smoothgrad"}) == \
        AttackSpec(kind="ina2", k=3, method="smoothgrad")
    for entry, match in (({"kind": "ina1"}, r"missing keys \['k'\]"),
                         ({"kind": "rn", "k": 2, "method": "saliency"}, "unknown keys"),
                         ({"kind": "pgd", "k": 2}, r"unknown keys \['k'\]"),
                         ({"kind": "warp"}, "unknown kind"),
                         ({"k": 2}, "unknown kind")):
        with pytest.raises(ValueError, match=match):
            AttackSpec.parse(entry)


def test_attack_size_is_the_curve_x():
    assert AttackSpec(kind="pgd", eps=0.25).size == 0.25
    assert AttackSpec(kind="rn", k=7).size == 7.0
    assert AttackSpec(kind="ioa", n=3).size == 3.0
    assert AttackSpec(kind="corrupt", corrupt_kind="shot", param=12.0).size == 12.0


def test_attack_labels_are_byte_stable():
    # a label names a curve and keys the attack's seed streams
    cases = {"pgd(eps=0)": {"kind": "pgd", "eps": 0},
             "pgd(eps=0.03137)": {"kind": "pgd", "eps": 8 / 255},
             "pgd(eps=0.25)": {"kind": "pgd", "eps": 0.25, "iters": 3},
             "ina1(k=0)": {"kind": "ina1", "k": 0},
             "ina2(k=12)": {"kind": "ina2", "k": 12, "method": "smoothgrad"},
             "rn(k=7)": {"kind": "rn", "k": 7},
             "ioa(n=10,r=4)": {"kind": "ioa"},
             "ioa(n=3,r=2)": {"kind": "ioa", "n": 3, "r": 2, "color": 1.0},
             "corrupt(gaussian,0.08)": {"kind": "corrupt", "corrupt_kind": "gaussian",
                                        "param": 0.08},
             "corrupt(shot,5)": {"kind": "corrupt", "corrupt_kind": "shot", "param": 5},
             "corrupt(impulse,0.27)": {"kind": "corrupt", "corrupt_kind": "impulse",
                                       "param": 0.27}}
    assert {AttackSpec.parse(e).kind for e in cases.values()} == set(attacks.ATTACK_OPTIONS)
    for label, entry in cases.items():
        assert AttackSpec.parse(entry).label() == label
