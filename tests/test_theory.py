"""Deviation closed forms vs Monte Carlo, mask statistics vs loop
oracles, and the optimality/expectation properties of the sweeps."""

import itertools

import numpy as np
import pytest

from gradeq import inequality as ineq
from gradeq import theory as th
from gradeq.attacks import topk_flags
from gradeq.attribution import input_gradients, saliency
from gradeq.models import CNN, MLP, LinearScore
from gradeq.seeding import seed_stream


def full_mask(n):
    return np.ones(n, dtype=bool)


class TestMaskStats:
    def test_hand_values(self):
        st = th.mask_stats(np.array([1.0, -1.0, 2.0]), full_mask(3))
        assert (st.k, st.sum_sq, st.sum) == (3, 6.0, 2.0)

    def test_empty_mask(self):
        st = th.mask_stats(np.array([1.0, 2.0]), np.zeros(2, dtype=bool))
        assert (st.k, st.sum_sq, st.sum) == (0, 0.0, 0.0)

    def test_matches_loop_oracle(self):
        # both sides are correctly-rounded sums, so equality is exact
        import math

        rng = seed_stream(0, "ms")
        for _ in range(25):
            n = int(rng.integers(1, 40))
            w = rng.normal(size=n)
            m = rng.random(n) < 0.4
            st = th.mask_stats(w, m)
            terms = [(w[i] * w[i], w[i]) for i in range(n) if m[i]]
            assert st.sum_sq == math.fsum(t[0] for t in terms)
            assert st.sum == math.fsum(t[1] for t in terms)
            assert st.k == int(m.sum())

    def test_cauchy_schwarz_guard(self):
        with pytest.raises(ValueError):
            th.MaskStats(k=2, sum_sq=1.0, sum=3.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            th.mask_stats(np.ones(4), np.ones(3, dtype=bool))


class TestNoiseSpec:
    def test_occlusion_requires_constant(self):
        with pytest.raises(ValueError):
            th.NoiseSpec("occlusion", sigma_delta=0.5)
        spec = th.NoiseSpec.occlusion(0.5, mu_x=0.4, sigma_x=0.1)
        assert spec.mu_delta == 0.5 and spec.sigma_delta == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            th.NoiseSpec("warp")
        with pytest.raises(ValueError):
            th.NoiseSpec("additive", sigma_delta=-1.0)


class TestPredictedDeviation:
    def test_additive_hand_value(self):
        model = LinearScore.from_arrays(np.array([1.0, 1.0]), 0.0)
        spec = th.NoiseSpec("additive", mu_delta=0.0, sigma_delta=1.0)
        assert th.predicted_deviation(model, full_mask(2), spec) == 2.0

    def test_occlusion_constant_background(self):
        # painting the mean of a zero-variance background moves nothing
        model = LinearScore.from_arrays(np.array([3.0, -2.0, 1.0]), 0.0)
        spec = th.NoiseSpec.occlusion(0.4, mu_x=0.4, sigma_x=0.0)
        assert th.predicted_deviation(model, full_mask(3), spec) == 0.0

    def test_additive_mean_shift_term(self):
        model = LinearScore.from_arrays(np.array([2.0, -1.0]), 0.0)
        spec = th.NoiseSpec("additive", mu_delta=0.5, sigma_delta=0.3)
        # S1 = 1, S2 = 5
        want = 0.25 * 1.0 + 0.09 * 5.0
        assert th.predicted_deviation(model, full_mask(2), spec) == pytest.approx(want, rel=1e-12)

    def test_each_kinds_closed_form_bit_for_bit(self):
        """The module docstring's formula of each kind, as written there."""
        rng = seed_stream(8, "kinds")
        for _ in range(20):
            model, m = LinearScore.from_arrays(rng.normal(size=6), 0.0), rng.random(6) < 0.5
            st = th.mask_stats(model.w, m)
            s1sq, s2 = st.sum ** 2, st.sum_sq
            mu_d, sd_d, mu_x, sd_x = rng.uniform(-1, 1, size=4)
            want = {"additive": mu_d ** 2 * s1sq + sd_d ** 2 * s2,
                    "mult_additive": (mu_d - mu_x) ** 2 * s1sq + (sd_d ** 2 + sd_x ** 2) * s2,
                    "occlusion": (mu_d - mu_x) ** 2 * s1sq + sd_x ** 2 * s2}
            for kind, value in want.items():
                spec = th.NoiseSpec(kind, mu_d, 0.0 if kind == "occlusion" else abs(sd_d),
                                    mu_x, abs(sd_x))
                got = th.predicted_deviation(model, m, spec)
                assert got.hex() == value.hex(), kind


class TestMonteCarlo:
    def test_zero_sigma_additive_exact(self):
        model = LinearScore.from_arrays(np.array([1.0, 2.0]), 0.0)
        spec = th.NoiseSpec("additive", mu_delta=0.0, sigma_delta=0.0)
        mean, err = th.monte_carlo_deviation(model, full_mask(2), spec, 100,
                                             seed_stream(1, "mc"))
        assert mean == 0.0 and err == 0.0

    def test_agreement_battery(self):
        rng = seed_stream(2, "battery")
        for trial in range(10):
            n = int(rng.integers(4, 30))
            w = rng.normal(size=n)
            model = LinearScore.from_arrays(w, 0.0)
            m = rng.random(n) < 0.6
            if not m.any():
                m[0] = True
            for kind in th.NOISE_KINDS:
                spec = th.NoiseSpec(
                    kind,
                    mu_delta=float(rng.uniform(-0.5, 0.5)),
                    sigma_delta=0.0 if kind == "occlusion" else float(rng.uniform(0.1, 1.0)),
                    mu_x=float(rng.uniform(0.2, 0.8)),
                    sigma_x=float(rng.uniform(0.05, 0.5)),
                )
                pred = th.predicted_deviation(model, m, spec)
                mean, err = th.monte_carlo_deviation(
                    model, m, spec, 20_000, seed_stream(3, "mc", trial, kind))
                assert abs(mean - pred) <= 3 * err + 1e-12, (kind, trial)

    def test_needs_two_samples(self):
        model = LinearScore.from_arrays(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError, match="need at least two samples for a standard error"):
            th.monte_carlo_deviation(model, full_mask(2), th.NoiseSpec("additive"), 1,
                                     seed_stream(1, "mc"))

    def test_deterministic(self):
        model = LinearScore.from_arrays(np.array([1.0, -2.0, 0.5]), 0.0)
        spec = th.NoiseSpec("mult_additive", 0.1, 0.4, 0.5, 0.2)
        a = th.monte_carlo_deviation(model, full_mask(3), spec, 5000, seed_stream(4, "d"))
        b = th.monte_carlo_deviation(model, full_mask(3), spec, 5000, seed_stream(4, "d"))
        assert a == b


def sweep_with_masks(model, pixels, labels, ks, selection, rng, draws):
    """The sweep as first built: a bool mask per draw, wrapped in `Mask`,
    expanded over channels to the flat coordinate layout, then scored by
    `mask_stats` on the flattened input gradient."""
    per_image = pixels[0].ndim == 3
    channels = pixels.shape[1] if per_image else 1
    pix_n = int(np.prod(pixels.shape[-2:])) if per_image else pixels.shape[-1]
    grads = input_gradients(model, pixels, labels)
    points = []
    for k in ks:
        ss, s2 = [], []
        for g in grads:
            w = g.reshape(-1)
            red = np.abs(g).sum(axis=0) if per_image else np.abs(w)
            if selection == "attribution_ranked":
                masks = [topk_flags(red, k)]
            else:
                masks = []
                for _ in range(draws):
                    m = np.zeros(pix_n, dtype=bool)
                    m[rng.choice(pix_n, size=k, replace=False)] = True
                    masks.append(m)
            for m in masks:
                if per_image:
                    grid = m.reshape(pixels.shape[-2:])
                    m = np.broadcast_to(grid, (channels,) + grid.shape).reshape(-1)
                st = th.mask_stats(w, m)
                ss.append(st.sum_sq)
                s2.append(st.sum ** 2)
        points.append(th.CurvePoint(k, *th._mean_stderr(np.array(ss)),
                                    *th._mean_stderr(np.array(s2)), len(ss)))
    return points


class TestSweep:
    @pytest.mark.parametrize("kind", ["mlp1", "cnn3", "flat"])
    @pytest.mark.parametrize("selection", ["attribution_ranked", "random"])
    def test_matches_mask_oracle_exactly(self, kind, selection):
        # the sums are correctly rounded, so selecting columns by index
        # instead of by an expanded mask changes no bit of any point
        shape, model = {
            "mlp1": ((1, 8, 8), MLP((1, 8, 8), [6], 3, seed=40)),
            "cnn3": ((3, 8, 8), CNN((3, 8, 8), [4, 4], 3, "softplus", seed=41)),
            "flat": ((20,), MLP((20,), [6], 3, seed=42)),
        }[kind]
        x = seed_stream(43, kind).uniform(size=(5,) + shape)
        y = np.array([0, 1, 2, 1, 0])
        pix_n = int(np.prod(shape[-2:])) if len(shape) == 3 else shape[0]
        ks = [0, 1, 7, pix_n]
        got = th.sweep_mask_stats(saliency(model, x, y), ks, selection,
                                  seed_stream(44, kind, selection), draws=3)
        want = sweep_with_masks(model, x, y, ks, selection,
                                seed_stream(44, kind, selection), draws=3)
        assert got == want

    def test_full_mask_exact_zero_spread(self):
        w = seed_stream(5, "w").normal(size=24)
        model = LinearScore.from_arrays(w, 0.0)
        x = seed_stream(6, "x").uniform(size=(1, 24))
        pts = th.sweep_mask_stats(saliency(model, x, np.ones(1, dtype=int)), [0, 24],
                                  "random", seed_stream(7, "s"), draws=8)
        assert pts[0].mean_sum_sq == 0.0 and pts[0].mean_sum2 == 0.0
        assert pts[1].mean_sum_sq == pytest.approx(float(w @ w), rel=1e-12)
        assert pts[1].stderr_sum_sq == 0.0  # every draw is the same full mask

    def test_random_expectation(self):
        # Sampling k of n pixels without replacement keeps each with
        # probability k/n, so E[S2] = (k/n) * ||w||^2.
        n, k = 24, 7
        w = seed_stream(8, "w").normal(size=n)
        model = LinearScore.from_arrays(w, 0.0)
        x = seed_stream(9, "x").uniform(size=(1, n))
        pts = th.sweep_mask_stats(saliency(model, x, np.ones(1, dtype=int)), [k],
                                  "random", seed_stream(10, "s"), draws=10_000)
        want = k / n * float(w @ w)
        assert abs(pts[0].mean_sum_sq - want) <= 3 * pts[0].stderr_sum_sq

    def test_ranked_is_optimal_bruteforce(self):
        n = 10
        w = seed_stream(11, "w").normal(size=n)
        model = LinearScore.from_arrays(w, 0.0)
        x = seed_stream(12, "x").uniform(size=(1, n))
        for k in (1, 3, 7):
            pts = th.sweep_mask_stats(saliency(model, x, np.ones(1, dtype=int)), [k],
                                      "attribution_ranked", seed_stream(13, "s"))
            best = max(sum(w[i] ** 2 for i in c)
                       for c in itertools.combinations(range(n), k))
            assert pts[0].mean_sum_sq == pytest.approx(best, abs=1e-12)

    def test_ranked_monotone_and_consistent_on_cnn(self):
        model = CNN((1, 8, 8), [2, 3], 2, seed=30)
        x = seed_stream(14, "x").uniform(size=(3, 1, 8, 8))
        y = np.zeros(3, dtype=int)
        pts = th.sweep_mask_stats(saliency(model, x, y), [0, 4, 16, 64],
                                  "attribution_ranked", seed_stream(15, "s"))
        ss = [p.mean_sum_sq for p in pts]
        assert ss == sorted(ss)  # supersets only add nonnegative terms
        for p, k in zip(pts, [0, 4, 16, 64]):
            assert p.count == 3 and p.k == k

    def test_selection_validation(self):
        model = LinearScore.from_arrays(np.ones(4), 0.0)
        x = np.zeros((1, 4))
        with pytest.raises(ValueError):
            th.sweep_mask_stats(saliency(model, x, np.ones(1, int)), [1], "best",
                                seed_stream(16, "s"))
        with pytest.raises(ValueError):
            th.sweep_mask_stats(saliency(model, x, np.ones(1, int)), [9], "random",
                                seed_stream(17, "s"))
        with pytest.raises(ValueError, match="random selection needs draws >= 1"):
            th.sweep_mask_stats(saliency(model, x, np.ones(1, int)), [1], "random",
                                seed_stream(17, "s"), draws=0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            th.sweep_mask_stats(np.array([[[np.nan, 1.0]]]), [1], "random",
                                seed_stream(18, "s"))


class TestEqualizingTransfer:
    def test_never_increases_additive_deviation(self):
        # moving mass from the largest magnitude to the smallest lowers
        # sum(w^2) while sum(|w|) is fixed, so the sigma^2*S2 prediction drops
        rng = seed_stream(18, "eq")
        spec = th.NoiseSpec("additive", mu_delta=0.0, sigma_delta=0.7)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            w = np.sort(rng.uniform(0.0, 5.0, size=n))
            if w[-1] - w[0] < 1e-6:
                continue
            delta = (w[-1] - w[0]) / 4
            trace = ineq.monotonic_reduce([float(v) for v in w], 0, n - 1, delta)
            after = np.array([float(v) for v in trace.final])
            before_model = LinearScore.from_arrays(w, 0.0)
            after_model = LinearScore.from_arrays(after, 0.0)
            m = full_mask(n)
            assert (th.predicted_deviation(after_model, m, spec)
                    <= th.predicted_deviation(before_model, m, spec) + 1e-12)
