"""Attribution methods against linear closed forms and FD oracles."""

import json

import numpy as np
import pytest

from gradeq import attribution as at
from gradeq import autodiff as ag
from gradeq import models as md
from gradeq.seeding import seed_stream
from support import class_score, write_attribution


def make_linear(seed=0, d=12):
    rng = np.random.default_rng(seed)
    return md.LinearScore.from_arrays(rng.normal(size=d), 0.3), rng


class QuadraticScore:
    """Class-1 logit is sum(x^2); its saliency 2x is linear in the input,
    which makes smoothgrad variance exactly computable."""

    classes = 2

    def bind(self, graph):
        return {}

    def graph_logits(self, x, pv):
        g = x.graph
        flat = ag.flatten(g, x) if len(x.shape) > 2 else x
        s = g.sum_axes(g.mul(flat, flat), (1,))
        return g.matmul(s, g.const(np.array([[0.0, 1.0]])))


class TestLinearClosedForms:
    def test_saliency_equals_weights(self):
        model, rng = make_linear(1)
        x = rng.uniform(0, 1, size=(3, 12))
        maps = at.saliency(model, x, np.ones(3, dtype=int))
        for m in maps:
            np.testing.assert_allclose(m, model.w.reshape(m.shape), rtol=1e-12)

    def test_input_x_gradient(self):
        model, rng = make_linear(2)
        x = rng.uniform(0, 1, size=(2, 12))
        maps = at.input_x_gradient(model, x, np.ones(2, dtype=int))
        for xi, m in zip(x, maps):
            np.testing.assert_allclose(m.reshape(-1), xi * model.w, rtol=1e-12)
        # pixel sum equals the bias-free score
        total = maps[0].sum()
        assert total == pytest.approx(float(x[0] @ model.w), rel=1e-12)

    def test_integrated_gradients_linear_any_steps(self):
        model, rng = make_linear(3)
        x = rng.uniform(0, 1, size=(2, 12))
        for steps in (8, 17, 64):
            maps = at.integrated_gradients(model, x, np.ones(2, dtype=int), steps=steps)
            for xi, m in zip(x, maps):
                np.testing.assert_allclose(m.reshape(-1), xi * model.w, rtol=1e-10)

    def test_smoothgrad_linear_any_sigma(self):
        model, rng = make_linear(4)
        x = rng.uniform(0, 1, size=(1, 12))
        maps = at.smoothgrad(model, x, np.array([1]), sigma=0.7, samples=5,
                             rng=seed_stream(0, "sg"))
        np.testing.assert_allclose(maps[0].reshape(-1), model.w, rtol=1e-10)

    def test_reduced_maps_proportional_to_abs_w(self):
        model, rng = make_linear(5)
        x = rng.uniform(0.1, 1, size=(1, 12))
        y = np.array([1])
        absw = np.abs(model.w)
        sal = at.reduced(at.saliency(model, x, y))[0].reshape(-1)
        ixg = at.reduced(at.input_x_gradient(model, x, y))[0].reshape(-1)
        ig = at.reduced(at.integrated_gradients(model, x, y))[0].reshape(-1)
        sg = at.reduced(at.smoothgrad(model, x, y, rng=seed_stream(1, "sg")))[0].reshape(-1)
        np.testing.assert_allclose(sal, absw, rtol=1e-12)
        np.testing.assert_allclose(ixg, np.abs(x[0]) * absw, rtol=1e-12)
        np.testing.assert_allclose(ig, np.abs(x[0]) * absw, rtol=1e-10)
        np.testing.assert_allclose(sg, absw, rtol=1e-10)


class TestProperties:
    def test_zero_network_flagged(self):
        m = md.MLP((6,), [4], 3, seed=0)
        for k in m.params:
            m.params[k] = np.zeros_like(m.params[k])
        maps = at.saliency(m, np.ones((1, 6)), np.array([0]))
        assert at.reduced(maps)[0].sum() == 0
        assert np.all(maps[0] == 0.0)

    def test_cnn_saliency_matches_fd(self):
        model = md.CNN((1, 8, 8), [3, 4], 3, "softplus", seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.2, 0.8, size=(1, 1, 8, 8))
        y = np.array([2])
        got = at.saliency(model, x, y)[0]
        h = 1e-5
        fd = np.zeros_like(x[0])
        for c in range(1):
            for i in range(8):
                for j in range(8):
                    xp = x.copy(); xp[0, c, i, j] += h
                    xm = x.copy(); xm[0, c, i, j] -= h
                    fd[c, i, j] = (class_score(model, xp[0], 2)
                                   - class_score(model, xm[0], 2)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-3, atol=1e-9)

    def test_ig_completeness(self):
        model = md.MLP((10,), [16, 16], 4, "softplus", seed=9)
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, size=(3, 10))
        y = np.array([0, 3, 1])
        maps = at.integrated_gradients(model, x, y, steps=64)
        for xi, yi, m in zip(x, y, maps):
            gap = class_score(model, xi, int(yi)) - class_score(model, np.zeros(10), int(yi))
            assert m.sum() == pytest.approx(gap, rel=0.02, abs=1e-9)

    def test_ig_baseline_equal_input_is_zero(self):
        model = md.MLP((6,), [5], 2, seed=11)
        x = np.random.default_rng(12).uniform(0, 1, size=(2, 6))
        maps = at.integrated_gradients(model, x, np.array([0, 1]), baseline=x.copy())
        for m in maps:
            assert np.all(m == 0.0)

    def test_ig_rejects_few_steps(self):
        model = md.MLP((4,), [3], 2, seed=0)
        with pytest.raises(ValueError):
            at.integrated_gradients(model, np.zeros((1, 4)), np.array([0]), steps=4)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda m: at.integrated_gradients(m, np.zeros((1, 4)), np.array([0]),
                                                       baseline=np.zeros((2, 4))),
                     r"baseline shape \(2, 4\) does not match \(1, 4\)", id="ig-baseline"),
        pytest.param(lambda m: at.smoothgrad(m, np.zeros((1, 4)), np.array([0]), samples=0),
                     "need at least one sample, got 0", id="smoothgrad-samples"),
    ])
    def test_refuses_bad_arguments(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(md.MLP((4,), [3], 2, seed=0))

    def test_smoothgrad_zero_sigma_equals_saliency(self):
        model = md.CNN((1, 8, 8), [2, 3], 3, seed=13)
        x = np.random.default_rng(14).uniform(0, 1, size=(2, 1, 8, 8))
        y = np.array([0, 2])
        sal = at.saliency(model, x, y)
        sg = at.smoothgrad(model, x, y, sigma=0.0, samples=3, rng=seed_stream(3, "sg"))
        for a, b in zip(sal, sg):
            assert np.array_equal(a, b)

    def test_smoothgrad_variance_scales_inversely_with_samples(self):
        model = QuadraticScore()
        x = np.full((1, 6), 0.5)
        y = np.array([1])

        def estimates(samples, reps, tag):
            outs = []
            for r in range(reps):
                m = at.smoothgrad(model, x, y, sigma=0.3, samples=samples,
                                  rng=seed_stream(r, tag, samples))
                outs.append(m[0].reshape(-1))
            return np.var(np.stack(outs), axis=0).mean()

        v4 = estimates(4, 150, "v")
        v16 = estimates(16, 150, "v")
        assert v4 / v16 == pytest.approx(4.0, rel=0.5)

    def test_reduced_invariants_on_cnn(self):
        model = md.CNN((3, 8, 8), [3, 4], 4, seed=15)
        x = np.random.default_rng(16).uniform(0, 1, size=(2, 3, 8, 8))
        maps = at.attribute(model, x, np.array([1, 2]), "input_x_gradient")
        for m, red in zip(maps, at.reduced(maps)):
            assert np.all(red >= 0.0)
            np.testing.assert_allclose(red, np.abs(m).sum(axis=0), rtol=1e-15)

    def test_dispatcher_rejects_unknown(self):
        model = md.MLP((4,), [3], 2, seed=0)
        with pytest.raises(ValueError):
            at.attribute(model, np.zeros((1, 4)), np.array([0]), "shapley")

    def test_export_round_trip(self, tmp_path):
        model = md.CNN((1, 8, 8), [2, 3], 3, seed=17)
        x = np.random.default_rng(18).uniform(0, 1, size=(1, 1, 8, 8))
        amap = at.saliency(model, x, np.array([1]))[0]
        path = tmp_path / "map.bin"
        write_attribution(amap, "saliency", 1, path)
        values, method = at.load_attribution(path)
        assert np.array_equal(values, amap)
        assert method == "saliency"
        sidecar = json.loads((tmp_path / "map.bin.json").read_text())
        assert sidecar == {"shape": [1, 8, 8], "dtype": "<f8", "method": "saliency",
                           "target": 1}


def per_map_reduced(values: np.ndarray) -> np.ndarray:
    """The pixel view one map at a time: the channel sum of absolute values
    of a [C, H, W] map, the absolute value of a flat [D] one."""
    return np.stack([np.abs(v).sum(axis=0) if v.ndim == 3 else np.abs(v) for v in values])


@pytest.mark.parametrize("shape", [(5, 3, 7, 6), (5, 11)])
def test_reduced_equals_the_per_map_rule_bit_for_bit(shape):
    values = seed_stream(19, "reduced").normal(size=shape)
    values[0] = 0.0
    values[1] *= -1e-300
    got = at.reduced(values)
    assert got.dtype == np.float64
    assert got.tobytes() == per_map_reduced(values).tobytes()


@pytest.mark.parametrize("method", sorted(at.METHODS))
@pytest.mark.parametrize("model, shape", [
    (md.MLP((6,), [5], 3, seed=20), (4, 6)),
    (md.CNN((3, 8, 8), [2, 3], 3, seed=21), (2, 3, 8, 8)),
], ids=["mlp", "cnn"])
def test_every_method_returns_a_float64_batch_shaped_like_x(method, model, shape):
    x = seed_stream(22, "x").uniform(0, 1, size=shape).astype(np.float32)
    y = np.arange(shape[0]) % 3
    maps = at.attribute(model, x, y, method)
    assert type(maps) is np.ndarray
    assert maps.dtype == np.float64 and maps.shape == x.shape
