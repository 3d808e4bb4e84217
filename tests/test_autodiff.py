"""Engine checks against central finite differences.

Every gradient the tape produces is compared to (f(x+h) - f(x-h)) / 2h
on float64 inputs; second derivatives are checked the same way on the
analytic first derivative. Nothing here trusts the engine to test itself
except the bit-reproducibility cases, where the oracle is repetition, the
pruned-sweep cases, where it is the unpruned sweep of `support`, the
plan cases, where it is a fresh tape, and the conv and pool kernel cases,
where it is the einsum and copied-window kernels of `support`.
"""

import inspect
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gradeq import autodiff as ag
from gradeq.attacks import pgd
from gradeq.autodiff import engine, kernels
from gradeq.models import build_model, input_gradients
from gradeq.training import igd_loss
from support import (
    einsum_conv2d,
    unpruned_grad,
    window_maxpool2,
    window_pool_mask,
    window_unpool2,
)


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return g


def check_grad(build, x0, rtol=1e-4, atol=1e-7):
    """build(graph, var) -> scalar Var; compares tape grad to FD."""
    def f(arr):
        g = ag.Graph()
        return build(g, g.var(arr)).item()

    g = ag.Graph()
    x = g.var(x0)
    out = build(g, x)
    (got,) = ag.grad(out, [x])
    want = numeric_grad(f, np.array(x0, dtype=np.float64))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


class TestFirstOrder:
    def test_matmul_chain(self):
        rng = np.random.default_rng(11)
        a0 = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grad(lambda g, x: ag.sum_all(g.mul(m := g.matmul(x, g.const(b)), m)), a0)

    def test_conv2d_wrt_input(self):
        rng = np.random.default_rng(12)
        k = rng.normal(size=(2, 3, 3, 3))
        for pad in (0, 1, 2):
            x0 = rng.normal(size=(2, 3, 5, 5))
            check_grad(
                lambda g, x: ag.sum_all(g.mul(y := g.conv2d(x, g.const(k), pad), y)),
                x0,
            )

    def test_conv2d_wrt_kernel(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 6, 6))
        k0 = rng.normal(size=(4, 3, 3, 3))
        for pad in (0, 1):
            check_grad(
                lambda g, kk: ag.sum_all(g.mul(y := g.conv2d(g.const(x), kk, pad), y)),
                k0,
            )

    def test_elementwise_ops(self):
        rng = np.random.default_rng(14)
        x0 = rng.uniform(0.5, 2.0, size=(3, 4))
        for op in ("softplus", "exp", "log", "rsqrt", "reciprocal"):
            check_grad(lambda g, x, op=op: ag.sum_all(g.mul(y := getattr(g, op)(x), y)), x0)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(15)
        x0 = rng.normal(size=(4, 5))
        x0[np.abs(x0) < 0.1] = 0.5
        check_grad(lambda g, x: ag.sum_all(g.mul(y := g.relu(x), y)), x0)

    def test_shape_ops(self):
        rng = np.random.default_rng(16)
        x0 = rng.normal(size=(2, 3, 4))

        def build(g, x):
            y = g.permute(x, (2, 0, 1))
            y = g.reshape(y, (4, 6))
            y = g.broadcast(g.sum_axes(y, (1,)), (4, 6))
            return ag.sum_all(g.mul(y, y))

        check_grad(build, x0)

    def test_flip_hw(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(1, 2, 3, 3))
        w = rng.normal(size=(1, 2, 3, 3))
        check_grad(lambda g, x: ag.sum_all(g.mul(g.flip_hw(x), g.const(w))), x0)

    def test_maxpool_away_from_ties(self):
        rng = np.random.default_rng(18)
        x0 = rng.normal(size=(2, 2, 4, 4))
        check_grad(lambda g, x: ag.sum_all(g.mul(y := g.maxpool2(x, g.pool_mask(x)), y)), x0)

    def test_affine_and_ce(self):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=(3,))
        labels = np.array([0, 2, 1, 1])
        x0 = rng.normal(size=(4, 5))

        def build(g, x):
            z = ag.affine(g, x, g.var(w), g.var(b))
            return ag.cross_entropy_mean(z, labels)

        check_grad(build, x0)

    def test_ce_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(20)
        z0 = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        g = ag.Graph()
        z = g.var(z0)
        loss = ag.cross_entropy_mean(z, labels)
        (got,) = ag.grad(loss, [z])
        e = np.exp(z0 - z0.max(axis=1, keepdims=True))
        sm = e / e.sum(axis=1, keepdims=True)
        want = (sm - ag.onehot(labels, 4)) / 6.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_cosine_rows_matches_closed_form(self):
        rng = np.random.default_rng(21)
        u0 = rng.normal(size=(5, 7))
        ref = rng.normal(size=(5, 7))
        g = ag.Graph()
        u = g.var(u0)
        cos, degen = ag.cosine_rows(u, ref)
        want = np.sum(u0 * ref, axis=1) / (
            np.linalg.norm(u0, axis=1) * np.linalg.norm(ref, axis=1)
        )
        np.testing.assert_allclose(cos.value[:, 0], want, rtol=1e-12)
        assert not degen.any()
        with pytest.raises(ValueError, match=r"reference shape \(5, 6\) does not match \(5, 7\)"):
            ag.cosine_rows(u, ref[:, :6])

    def test_cosine_rows_gradient(self):
        rng = np.random.default_rng(22)
        ref = rng.normal(size=(3, 4))
        u0 = rng.normal(size=(3, 4))
        check_grad(lambda g, u: ag.sum_all(ag.cosine_rows(u, ref)[0]), u0)

    def test_cosine_degenerate_row_is_flagged_and_inert(self):
        ref = np.array([[1.0, 2.0], [0.0, 0.0]])
        g = ag.Graph()
        u = g.var(np.array([[3.0, -1.0], [5.0, 2.0]]))
        cos, degen = ag.cosine_rows(u, ref)
        assert degen.tolist() == [False, True]
        assert cos.value[1, 0] == 0.0
        (gu,) = ag.grad(ag.sum_all(cos), [u])
        assert np.all(gu[1] == 0.0)
        assert np.any(gu[0] != 0.0)

    def test_scale_invariance_of_cosine(self):
        rng = np.random.default_rng(23)
        u0 = rng.normal(size=(2, 6))
        ref = rng.normal(size=(2, 6))
        base = None
        for k in (1e-6, 1e-3, 1.0, 255.0):
            g = ag.Graph()
            cos, _ = ag.cosine_rows(g.var(k * u0), ref)
            if base is None:
                base = cos.value.copy()
            else:
                np.testing.assert_allclose(cos.value, base, rtol=1e-9, atol=1e-12)


class TestSecondOrder:
    def test_cubic_hessian_vector(self):
        # f = sum(x^3): Hessian-vector product is 6 x * v
        rng = np.random.default_rng(31)
        x0 = rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 3))
        g = ag.Graph()
        x = g.var(x0)
        f = ag.sum_all(g.mul(g.mul(x, x), x))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(g.mul(gx, g.const(v)))
        (hv,) = ag.grad(s, [x])
        np.testing.assert_allclose(hv, 6.0 * x0 * v, rtol=1e-12)

    def test_softplus_net_hvp_vs_fd(self):
        rng = np.random.default_rng(32)
        w = rng.normal(size=(4, 3))
        x0 = rng.normal(size=(2, 4))
        v = rng.normal(size=(2, 4))

        def first_grad(arr):
            g = ag.Graph()
            x = g.var(arr)
            f = ag.sum_all(g.softplus(g.matmul(x, g.const(w))))
            return ag.grad(f, [x])[0]

        g = ag.Graph()
        x = g.var(x0)
        f = ag.sum_all(g.softplus(g.matmul(x, g.const(w))))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(g.mul(gx, g.const(v)))
        (hv,) = ag.grad(s, [x])

        h = 1e-5
        want = (first_grad(x0 + h * v) - first_grad(x0 - h * v)) / (2.0 * h)
        np.testing.assert_allclose(hv, want, rtol=1e-3, atol=1e-8)

    def test_relu_second_derivative_is_zero(self):
        rng = np.random.default_rng(33)
        x0 = rng.normal(size=(3, 4)) + 2.0  # strictly positive side
        g = ag.Graph()
        x = g.var(x0)
        f = ag.sum_all(g.mul(y := g.relu(x), y))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(g.mul(gx, gx))
        (hv,) = ag.grad(s, [x])
        # d/dx (2 relu(x))^2 treats the mask as constant: 8 * mask * x
        np.testing.assert_allclose(hv, 8.0 * x0, rtol=1e-12)

    def test_param_grad_of_input_gradient(self):
        # The pattern the aligned training loss needs: differentiate a
        # function of d(output)/d(input) with respect to the weights.
        rng = np.random.default_rng(34)
        w0 = rng.normal(size=(4, 3))
        x0 = rng.normal(size=(2, 4))
        c = rng.normal(size=(2, 4))

        def value(wa):
            g = ag.Graph()
            x = g.var(x0)
            f = ag.sum_all(g.softplus(g.matmul(x, g.var(wa))))
            (gx,) = ag.grad(f, [x], create_graph=True)
            return ag.sum_all(g.mul(gx, g.const(c))).item()

        g = ag.Graph()
        x = g.var(x0)
        w = g.var(w0)
        f = ag.sum_all(g.softplus(g.matmul(x, w)))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(g.mul(gx, g.const(c)))
        (gw,) = ag.grad(s, [w])
        want = numeric_grad(value, w0)
        np.testing.assert_allclose(gw, want, rtol=1e-3, atol=1e-8)

    def test_conv_double_backward(self):
        rng = np.random.default_rng(35)
        k0 = rng.normal(size=(2, 1, 3, 3))
        x0 = rng.normal(size=(1, 1, 4, 4))
        c = rng.normal(size=(1, 1, 4, 4))

        def value(ka):
            g = ag.Graph()
            x = g.var(x0)
            f = ag.sum_all(g.softplus(g.conv2d(x, g.var(ka), 1)))
            (gx,) = ag.grad(f, [x], create_graph=True)
            return ag.sum_all(g.mul(gx, g.const(c))).item()

        g = ag.Graph()
        x = g.var(x0)
        k = g.var(k0)
        f = ag.sum_all(g.softplus(g.conv2d(x, k, 1)))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(g.mul(gx, g.const(c)))
        (gk,) = ag.grad(s, [k])
        want = numeric_grad(value, k0)
        np.testing.assert_allclose(gk, want, rtol=1e-3, atol=1e-8)


class TestDeterminism:
    def _build(self, seed):
        rng = np.random.default_rng(seed)
        g = ag.Graph()
        x = g.var(rng.normal(size=(2, 1, 8, 8)))
        k = g.var(rng.normal(size=(3, 1, 3, 3)) * 0.5)
        ns = g
        h = g.softplus(ag.conv_bias(ns, x, k, g.var(rng.normal(size=(3,))), 1))
        y = g.maxpool2(h, g.pool_mask(h))
        z = ag.affine(ns, ag.flatten(ns, y), g.var(rng.normal(size=(48, 4)) * 0.3),
                      g.var(np.zeros(4)))
        loss = ag.cross_entropy_mean(z, np.array([1, 3]))
        return g, x, loss

    def test_repeated_backward_is_bitwise_identical(self):
        g, x, loss = self._build(43)
        (g1,) = ag.grad(loss, [x])
        (g2,) = ag.grad(loss, [x])
        assert np.array_equal(g1, g2)

    def test_fresh_build_is_bitwise_identical(self):
        ga, xa, la = self._build(44)
        gb, xb, lb = self._build(44)
        assert np.array_equal(la.value, lb.value)
        assert np.array_equal(ag.grad(la, [xa])[0], ag.grad(lb, [xb])[0])


class TestGuards:
    def test_log_of_negative_raises(self):
        g = ag.Graph()
        with pytest.raises(ag.NonFiniteError):
            g.log(g.var(np.array([-1.0])))

    def test_cross_graph_mix_raises(self):
        g1, g2 = ag.Graph(), ag.Graph()
        a = g1.var(np.ones((2, 2)))
        b = g2.var(np.ones((2, 2)))
        with pytest.raises(ag.GraphError):
            g1.add(a, b)
        with pytest.raises(ag.GraphError, match="different graph"):
            ag.grad(ag.sum_all(a), [b])

    def test_shape_mismatch_raises(self):
        g = ag.Graph()
        with pytest.raises(ag.GraphError):
            g.add(g.var(np.ones((2, 2))), g.var(np.ones((2, 3))))

    def test_conv_pad_bound(self):
        g = ag.Graph()
        x = g.var(np.ones((1, 1, 4, 4)))
        k = g.var(np.ones((1, 1, 3, 3)))
        with pytest.raises(ag.GraphError):
            g.conv2d(x, k, 3)

    @pytest.mark.parametrize("op,arrays,payload,match", [
        ("add", (np.ones((3, 4)), np.ones((1, 4))), (), "add shape mismatch"),
        ("mul", (np.ones((3, 4)), np.ones((3, 1))), (), "mul shape mismatch"),
        ("matmul", (np.ones(3), np.ones((3, 2))), (), "matmul needs 2-d operands"),
        ("matmul", (np.ones((2, 3)), np.ones((4, 2))), (), "matmul needs 2-d operands"),
        ("conv2d", (np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3))), (3,),
         r"conv2d pad must lie in \[0, 2\], got 3"),
        ("conv2d", (np.ones((1, 1, 4, 4)), np.ones((1, 1, 2, 3))), (1,),
         "conv2d kernels must be square, got 2x3"),
        ("conv2d", (np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3))), (0,),
         "conv2d kernel larger than padded input"),
        ("rowmax", (np.ones(3),), (), r"rowmax needs a 2-d array, got shape \(3,\)"),
        ("broadcast", (np.ones((2, 1)),), ((2, 2, 2),),
         r"broadcast rank mismatch: \(2, 1\) -> \(2, 2, 2\)"),
        ("broadcast", (np.ones((2, 3)),), ((2, 2),),
         r"broadcast shape mismatch: \(2, 3\) -> \(2, 2\)"),
    ], ids=["add-shape", "mul-shape", "matmul-1d", "matmul-inner", "conv2d-pad3",
            "conv2d-2x3", "conv2d-larger", "rowmax-1d", "broadcast-rank",
            "broadcast-shape"])
    def test_bad_arguments_raise_on_both_routes(self, op, arrays, payload, match):
        """The kernel is the one place an op checks its arguments, so the raw
        route refuses what the tape refuses, where numpy would broadcast or
        compute silently."""
        with pytest.raises(ag.GraphError, match=match):
            getattr(kernels, op)(*arrays, *payload)
        g = ag.Graph()
        with pytest.raises(ag.GraphError, match=match):
            getattr(g, op)(*(g.const(a) for a in arrays), *payload)

    def test_const_blocks_gradient(self):
        g = ag.Graph()
        x = g.var(np.ones((2, 2)))
        c = g.const(np.full((2, 2), 3.0))
        out = ag.sum_all(g.mul(x, c))
        gx, gc = ag.grad(out, [x, c])
        np.testing.assert_allclose(gx, 3.0)
        assert gc.shape == (2, 2) and np.all(gc == 0.0)
        gx, gc = ag.grad(out, [x, c], create_graph=True)
        np.testing.assert_allclose(gx.value, 3.0)
        assert gc.value.shape == (2, 2) and np.all(gc.value == 0.0)

    def test_grad_of_unreached_leaf_is_zero(self):
        g = ag.Graph()
        x = g.var(np.ones((2, 2)))
        y = g.var(np.ones((3,)))
        out = ag.sum_all(x)
        (gy,) = ag.grad(out, [y])
        assert gy.shape == (3,) and np.all(gy == 0.0)


class TestKernelAdjoints:
    def test_unpool_gather_are_adjoint(self):
        # <U g, G> == <g, U^T G> for the recorded mask
        rng = np.random.default_rng(51)
        x = rng.normal(size=(2, 3, 6, 6))
        mask = kernels.pool_mask(x)
        small = rng.normal(size=(2, 3, 3, 3))
        big = rng.normal(size=(2, 3, 6, 6))
        lhs = np.sum(kernels.unpool2(small, mask) * big)
        rhs = np.sum(small * kernels.maxpool2(big, mask))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_conv_input_adjoint_identity(self):
        # <conv(x, k), g> == <x, conv_vjp_x(g, k)> exercised via grad
        rng = np.random.default_rng(52)
        x0 = rng.normal(size=(2, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        gg = rng.normal(size=(2, 3, 5, 5))
        g = ag.Graph()
        x = g.var(x0)
        y = g.conv2d(x, g.const(k), 1)
        (gx,) = ag.grad(ag.sum_all(g.mul(y, g.const(gg))), [x])
        lhs = np.sum(y.value * gg)
        rhs_probe = numeric_grad(
            lambda arr: float(np.sum(kernels.conv2d(arr, k, 1) * gg)), x0
        )
        np.testing.assert_allclose(gx, rhs_probe, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(np.sum(gx * x0), lhs, rtol=1e-10)


def _same(got, want):
    """Equal shape, strides and bytes."""
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _same_values(got, want):
    """Equal shape and bytes, and equal strides on every axis longer than 1."""
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert [s for s, d in zip(got.strides, got.shape) if d > 1] == \
        [s for s, d in zip(want.strides, want.shape) if d > 1]


CONV_KH, CONV_NC, CONV_HW = [1, 3, 5], [(1, 1), (1, 3), (2, 1), (3, 2)], [(5, 5), (7, 5), (6, 9)]


def _grid_calls(kh, n, c, hw):
    """conv2d arguments over pads and output channels: a forward on x, and
    the kernel gradient's shapes on a square crop of it, whose output
    adjoint is the kernel, nearly as large as the input."""
    rng = np.random.default_rng(61)
    x = rng.normal(size=(n, c, *hw))
    for o, pad in itertools.product((1, 4), range(kh)):
        yield x, rng.normal(size=(o, c, kh, kh)), pad
        s = min(hw)
        xs = np.ascontiguousarray(x[:, :, :s, :s].transpose(1, 0, 2, 3))
        yield xs, rng.normal(size=(o, n, s + 2 * pad - kh + 1, s + 2 * pad - kh + 1)), pad


def _model_calls():
    """The conv2d calls a CNN makes, 3x3 kernels with pad 1: forward, input
    adjoint and kernel adjoint as `engine._vjp_conv2d` lays them out, for
    every batch of 1, 2 and 5, channel count of 1 and 3, output count of 1
    and 4, and side from 2 to 32."""
    rng = np.random.default_rng(68)
    for n, c, o, side in itertools.product((1, 2, 5), (1, 3), (1, 4), (2, 4, 8, 16, 32)):
        x, g = rng.normal(size=(n, c, side, side)), rng.normal(size=(n, o, side, side))
        k = rng.normal(size=(o, c, 3, 3))
        yield x, k, 1
        yield g, kernels.flip_hw(kernels.permute(k, (1, 0, 2, 3))), 1
        yield kernels.permute(x, (1, 0, 2, 3)), kernels.permute(g, (1, 0, 2, 3)), 1


class TestKernelOracles:
    """`conv2d` equals one `einsum` and the pool kernels the copied-window
    array, in bytes and in strides; see `support`. On a conv2d call with a
    batch, channel, kernel or output side of 1, einsum drops that axis and
    lays its GEMM out otherwise, so there it is the oracle of the values
    alone."""

    @pytest.mark.parametrize("kh", CONV_KH)
    @pytest.mark.parametrize("n,c", CONV_NC)
    @pytest.mark.parametrize("hw", CONV_HW)
    def test_conv2d_is_the_einsum(self, kh, n, c, hw):
        for x, k, pad in _grid_calls(kh, n, c, hw):
            got, want = kernels.conv2d(x, k, pad), einsum_conv2d(x, k, pad)
            if 1 in (*x.shape[:2], k.shape[2], *want.shape[2:]):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12)
            else:
                _same(got, want)

    def test_model_shaped_conv2d_is_the_einsum(self):
        """On every call a model makes, a batch or channel of 1 included:
        einsum's bytes, and its strides on every axis longer than 1."""
        for x, k, pad in _model_calls():
            _same_values(kernels.conv2d(x, k, pad), einsum_conv2d(x, k, pad))

    @pytest.mark.parametrize("n,side", [(5, 32), (3, 48)])
    def test_tiled_conv2d_is_the_einsum(self, n, side):
        """Over tiles of images whose last one is partial (2 of 32x32 to a
        tile), and over one image per tile (48x48 is wider than a tile):
        forward and input adjoint."""
        nb = max(1, kernels._TILE_COLS // side ** 2)
        assert n > nb and (n % nb or nb == 1)
        rng = np.random.default_rng(69)
        x, g = rng.normal(size=(n, 3, side, side)), rng.normal(size=(n, 4, side, side))
        k = rng.normal(size=(4, 3, 3, 3))
        _same(kernels.conv2d(x, k, 1), einsum_conv2d(x, k, 1))
        kf = kernels.flip_hw(kernels.permute(k, (1, 0, 2, 3)))
        _same(kernels.conv2d(g, kf, 1), einsum_conv2d(g, kf, 1))

    @pytest.mark.parametrize("in_shape,channels,n", [([1, 8, 8], [4, 8], 40),
                                                     ([3, 16, 16], [8, 16], 24)])
    def test_igd_training_conv2d_is_the_einsum(self, in_shape, channels, n, monkeypatch):
        """Every conv2d call of one `igd_loss` step, its kernel adjoints and
        double backward included, by the rule of the model-shaped calls."""
        cfg = {"kind": "cnn", "in_shape": in_shape, "channels": channels, "classes": 2}
        student = build_model({**cfg, "activation": "softplus"}, seed=1)
        teacher = build_model(cfg, seed=2)
        rng = np.random.default_rng(73)
        x, y = rng.uniform(size=(n, *in_shape)), rng.integers(0, 2, size=n)
        calls = []

        def spy(*args, _conv=kernels.conv2d):
            calls.append(args)
            return _conv(*args)

        monkeypatch.setattr(kernels, "conv2d", spy)
        igd_loss(student, teacher, x, x, y, 2.0)
        monkeypatch.undo()
        assert any(k.shape[2] == in_shape[1] for _, k, _ in calls)  # a kernel adjoint
        for args in calls:
            _same_values(kernels.conv2d(*args), einsum_conv2d(*args))

    def test_conv2d_result_is_the_transposed_gemm_product(self):
        """Every result, size-1 axes included, is laid out as the [O, N, Ho,
        Wo] product seen as [N, O, Ho, Wo]."""
        calls = [call for kh, (n, c), hw in itertools.product(CONV_KH, CONV_NC, CONV_HW)
                 for call in _grid_calls(kh, n, c, hw)]
        for x, k, pad in calls + list(_model_calls()):
            got = kernels.conv2d(x, k, pad)
            n, o, ho, wo = got.shape
            assert got.strides == np.empty((o, n, ho, wo)).transpose(1, 0, 2, 3).strides

    def test_conv2d_is_the_einsum_on_strided_operands(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(3, 2, 7, 6))
        k = rng.normal(size=(4, 2, 3, 3))
        y = einsum_conv2d(x, k, 1)  # a transposed view, as every conv2d returns
        for kk in (np.asfortranarray(k), k[:, :, ::-1, ::-1], k.transpose(0, 1, 3, 2)):
            assert not kk.flags.c_contiguous
            _same(kernels.conv2d(x, kk, 1), einsum_conv2d(x, kk, 1))
        k2 = rng.normal(size=(2, 4, 3, 3))
        for pad in (0, 1, 2):
            _same(kernels.conv2d(y, k2, pad), einsum_conv2d(y, k2, pad))

    @staticmethod
    def _every_window(values):
        """Each 4-tuple of `values` as one 2x2 window, row-major, of a
        [2, 2, 2s, 2s] input (len(values) ** 4 == 4 * s * s windows)."""
        windows = np.array(list(itertools.product(values, repeat=4)))
        s = int(np.sqrt(len(windows) // 4))
        win = windows.reshape(2, 2, s, s, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(win.reshape(2, 2, 2 * s, 2 * s))

    @staticmethod
    def _pool_inputs():
        rng = np.random.default_rng(63)
        shape = (2, 3, 4, 6)
        return {
            "normal": rng.normal(size=shape),
            "ties": rng.integers(-1, 2, size=shape).astype(np.float64),
            "signed-zeros": rng.choice([0.0, -0.0], size=shape),
            "all-negative-zero": np.full(shape, -0.0),
            "inf": rng.choice([-np.inf, np.inf, 0.0, -0.0, 1.0], size=shape),
            "nan": rng.choice([np.nan, -np.nan, np.inf, -np.inf, -0.0, 1.0], size=shape),
            "every-window": TestKernelOracles._every_window(
                [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]),
            "every-window-nan": TestKernelOracles._every_window(
                [np.nan, -np.inf, -0.0, 0.0, 1.0, np.inf]),
        }

    @pytest.mark.parametrize("case", ["normal", "ties", "signed-zeros", "all-negative-zero",
                                      "inf", "nan", "every-window", "every-window-nan"])
    def test_pool_kernels_are_the_window_array(self, case):
        """The oracles keep the [..., 4] window layout; the kernels' mask is
        corner first, one C-contiguous plane per corner."""
        rng = np.random.default_rng(64)
        x = self._pool_inputs()[case]
        mask = kernels.pool_mask(x)
        _same(mask, np.ascontiguousarray(np.moveaxis(window_pool_mask(x), -1, 0)))
        assert all(plane.flags.c_contiguous for plane in mask)
        windows = np.moveaxis(mask, 0, -1)
        g = rng.choice([0.0, -0.0, 1.5, -2.0, -3.0], size=mask.shape[1:])
        up = kernels.unpool2(g, mask)
        _same(up, window_unpool2(g, windows))
        _same(kernels.maxpool2(up, mask), window_maxpool2(up, windows))
        with np.errstate(invalid="ignore"):  # inf * 0 in the masked product
            got, want = kernels.maxpool2(x, mask), window_maxpool2(x, windows)
        if "nan" not in case:
            _same(got, want)
        else:
            # which NaN a sum of two NaNs keeps, and so its sign bit, is left
            # to the compiled add loop; every other value must match exactly
            nan = np.isnan(want)
            assert nan.any() and np.array_equal(np.isnan(got), nan)
            assert got.strides == want.strides
            assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_a_window_of_negative_zeros_pools_to_positive_zero(self):
        x = np.full((1, 1, 2, 2), -0.0)
        assert not np.signbit(kernels.maxpool2(x, kernels.pool_mask(x))).any()

    @pytest.mark.parametrize("op", ["pool_mask", "maxpool2"])
    def test_pool_refuses_odd_spatial_dims(self, op):
        x = np.ones((1, 1, 4, 3))
        args = (x,) if op == "pool_mask" else (x, np.ones((4, 1, 1, 2, 1)))
        with pytest.raises(ag.GraphError, match="even spatial dims"):
            getattr(kernels, op)(*args)


class TestKernelWorkspace:
    """conv2d keeps no state: each tile of images gets its own im2col
    buffer, no result shares memory with another, and a call over many
    tiles peaks far below its whole im2col. The pool kernels allocate
    little beyond their outputs."""

    def test_kernels_hold_no_module_level_array(self):
        assert [name for name, v in vars(kernels).items() if isinstance(v, np.ndarray)] == []

    def test_results_share_no_memory_and_survive_a_later_call(self):
        rng = np.random.default_rng(65)
        x, k = rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3))
        first = kernels.conv2d(x, k, 1)
        kept = first.copy()
        big = kernels.conv2d(rng.normal(size=(4, 3, 16, 16)), k, 1)
        assert not np.shares_memory(first, big)
        assert first.tobytes() == kept.tobytes()

    def test_a_tiled_conv2d_peaks_below_half_its_im2col_and_result(self):
        rng = np.random.default_rng(66)
        n, side = 16, 32
        assert n // max(1, kernels._TILE_COLS // side ** 2) >= 8  # 8 tiles at least
        for c, o in [(8, 8), (1, 2)]:  # a one-channel input too
            x, k = rng.normal(size=(n, c, side, side)), rng.normal(size=(o, c, 3, 3))
            im2col = x.size * 9 * 8  # bytes of the whole [C*kh*kw, N*H*W] copy
            result = o * n * side ** 2 * 8
            tracemalloc.start()
            try:
                kernels.conv2d(x, k, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < (im2col + result) / 2, (c, o)

    def test_maxpool2_peak_is_below_its_input(self):
        x = np.random.default_rng(67).normal(size=(4, 8, 16, 16))
        mask = kernels.pool_mask(x)
        tracemalloc.start()
        try:
            kernels.maxpool2(x, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    def test_pool_mask_peak_is_near_its_output(self):
        x = np.random.default_rng(68).normal(size=(4, 8, 16, 16))
        tracemalloc.start()
        try:
            mask = kernels.pool_mask(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * mask.nbytes


# (B, K, N): batch, features, classes of the MLP affines; the first is the
# criterion-08 MLP's last layer
MLP_AFFINES = [(64, 64, 4), (16, 2048, 4), (64, 1024, 4), (32, 16, 4)]
# the cnn workload's conv_bias outputs [64, 16, 32, 32] and [64, 32, 16, 16],
# each with the output channels of a conv that reads it
CNN_BIASES = [((64, 16, 32, 32), 32), ((64, 32, 16, 16), 32)]


def _view_calls(op):
    """(shapes of op's arguments, index of the one given as a broadcast,
    its broadcast axes, payload) on the model shapes. The axes are a bias's
    (an MLP's rows, a CNN's all but channels), a row reduction's adjoint
    (an MLP's columns) and a scalar's (all)."""
    for b, k, n in MLP_AFFINES:
        for axes in ((0,), (1,), (0, 1)):
            if op == "matmul":
                yield from (([(b, k), (k, n)], at, axes, ()) for at in (0, 1))
            elif op in ("add", "mul"):
                yield from (([(b, k)] * 2, at, axes, ()) for at in (0, 1))
            elif op == "rowmax":
                yield [(b, k)], 0, axes, ()
            elif op == "sum_axes":
                yield from (([(b, k)], 0, axes, (over,)) for over in ((), (0,), (1,), (0, 1)))
    for shape, o in CNN_BIASES:
        for axes in ((0, 2, 3), (0, 1, 2, 3)):
            if op == "conv2d":
                yield [shape, (o, shape[1], 3, 3)], 0, axes, (1,)
            elif op in ("add", "mul"):
                yield from (([shape] * 2, at, axes, ()) for at in (0, 1))
            elif op == "sum_axes":
                yield from (([shape], 0, axes, (over,))
                            for over in ((), (0, 2, 3), (1,), (0, 1, 2, 3)))


class TestBroadcastView:
    """`broadcast` returns a read-only zero-stride view of its argument, not
    a copy. Every op that reads one gives the bytes it gives on the view's
    contiguous copy, on the shapes the models broadcast to, and so does
    every sweep, raw or recorded."""

    def test_broadcast_is_a_read_only_view_of_its_argument(self):
        b = np.random.default_rng(90).normal(size=(1, 16, 1, 1))
        view = kernels.broadcast(b, (64, 16, 32, 32))
        assert np.shares_memory(view, b)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(view, 1.0, out=view)

    @pytest.mark.parametrize("op", ["matmul", "sum_axes", "conv2d", "rowmax", "add", "mul"])
    def test_an_op_on_a_view_gives_the_bytes_of_the_op_on_its_copy(self, op):
        rng = np.random.default_rng(91)
        kernel = getattr(kernels, op)
        for shapes, at, axes, payload in _view_calls(op):
            args = [rng.normal(size=s) for s in shapes]
            source = rng.normal(size=[1 if i in axes else d for i, d in enumerate(shapes[at])])
            view = kernels.broadcast(source, shapes[at])
            on_view = kernel(*args[:at], view, *args[at + 1:], *payload)
            on_copy = kernel(*args[:at], np.ascontiguousarray(view), *args[at + 1:], *payload)
            assert on_view.shape == on_copy.shape, (shapes, at, axes, payload)
            assert on_view.tobytes() == on_copy.tobytes(), (shapes, at, axes, payload)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_attack_input_gradients_and_igd_loss_equal_them_on_copies(self, kind, monkeypatch):
        """PGD (a recorded sweep, replayed), input gradients (a raw sweep)
        and the IGD loss (a sweep through a recorded input gradient) give
        the bytes they give when every broadcast is a contiguous copy."""
        got = TestPrunedSweep()._outputs(kind)
        view = kernels.broadcast
        monkeypatch.setattr(kernels, "broadcast",
                            lambda x, shape: np.ascontiguousarray(view(x, shape)))
        want = TestPrunedSweep()._outputs(kind)
        assert set(got) == set(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_a_recorded_sweep_gives_the_bytes_of_the_raw_sweep(self):
        """The cnn workload's PGD tape: its input gradient, recorded through
        `_vjp_sum_axes`' broadcasts, equals the raw sweep's."""
        model = build_model({"kind": "cnn", "in_shape": [3, 32, 32], "channels": [16, 32],
                             "classes": 4}, seed=5)
        rng = np.random.default_rng(93)
        x, y = rng.uniform(size=(64, 3, 32, 32)), rng.integers(0, 4, size=64)
        recorded = TestPlan._tape(model, x, y, create_graph=True)[1]
        raw = TestPlan._tape(model, x, y, create_graph=False)[1]
        assert recorded.value.tobytes() == raw.tobytes()


class TestOneDispatch:
    """Each op of `_OPS` runs through one kernel in `kernels` and is emitted
    by one method of `Graph`, and the tape records what the kernel computes."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(60)
        x = rng.normal(size=(2, 3, 4))
        img = rng.normal(size=(2, 2, 4, 4))
        pos = rng.uniform(0.5, 2.0, size=(3, 4))
        small = rng.normal(size=(3, 4))
        return {
            "matmul": ((small, rng.normal(size=(4, 2))), ()),
            "conv2d": ((img, rng.normal(size=(3, 2, 3, 3))), (1,)),
            "permute": ((x,), ((2, 0, 1),)),
            "flip_hw": ((img,), ()),
            "reshape": ((x,), ((4, 6),)),
            "add": ((small, pos), ()),
            "mul": ((small, pos), ()),
            "scale": ((small,), (-2.5,)),
            "relu": ((small,), ()),
            "softplus": ((small,), ()),
            "exp": ((small,), ()),
            "log": ((pos,), ()),
            "rsqrt": ((pos,), ()),
            "reciprocal": ((pos,), ()),
            "sum_axes": ((x,), ((0, 2),)),
            "broadcast": ((rng.normal(size=(1, 3, 1)),), ((2, 3, 4),)),
            "maxpool2": ((img, kernels.pool_mask(img)), ()),
            "unpool2": ((rng.normal(size=(2, 2, 2, 2)), kernels.pool_mask(img)), ()),
            "rowmax": ((small,), ()),
            "relu_mask": ((small,), ()),
            "pool_mask": ((img,), ()),
        }

    def test_every_op_has_one_kernel_and_one_emitter(self):
        public = {name for name, f in vars(kernels).items()
                  if inspect.isfunction(f) and f.__module__ == kernels.__name__
                  and not name.startswith("_")}
        assert public - {"const"} == set(engine._OPS)
        assert set(self._cases()) == set(engine._OPS)
        for op in engine._OPS:
            assert callable(getattr(kernels, op)) and callable(getattr(ag.Graph, op))

    def test_every_graph_op_is_the_generated_method(self):
        for op in engine._OPS:
            assert getattr(ag.Graph, op).__qualname__ == op

    @pytest.mark.parametrize("op", ["maxpool2", "unpool2"])
    def test_pool_ops_refuse_a_mask_of_another_shape(self, op):
        arrays, _ = self._cases()[op]
        with pytest.raises(ag.GraphError, match="mask shape"):
            getattr(kernels, op)(arrays[0], arrays[1][:1])

    @pytest.mark.parametrize("op", sorted(engine._OPS))
    def test_tape_value_is_the_kernel_result(self, op):
        arrays, payload = self._cases()[op]
        g = ag.Graph()
        got = getattr(g, op)(*(g.const(a) for a in arrays), *payload).value
        want = getattr(kernels, op)(*arrays, *payload)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", sorted(engine._OPS))
    def test_no_kernel_writes_into_its_arguments(self, op):
        """A tape value may be a read-only view, which is safe only while no
        kernel writes into an argument: each runs on read-only copies of
        its arguments and gives the bytes it gives on writable ones."""
        arrays, payload = self._cases()[op]
        frozen = [a.copy() for a in arrays]
        for a in frozen:
            a.setflags(write=False)
        got = getattr(kernels, op)(*frozen, *payload)
        want = getattr(kernels, op)(*arrays, *payload)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_every_graph_op_passes_through_apply(self, monkeypatch):
        """The benchmark tracer counts and times ops by wrapping
        `Graph.apply`, so every op method must reach it, looked up per call."""
        seen = []
        original = engine.Graph.apply

        def spy(self, op, args, meta=None):
            seen.append(op)
            return original(self, op, args, meta)

        monkeypatch.setattr(engine.Graph, "apply", spy)
        for op in sorted(engine._OPS):
            arrays, payload = self._cases()[op]
            g = ag.Graph()
            seen.clear()
            getattr(g, op)(*(g.const(a) for a in arrays), *payload)
            assert seen == [op]

    def test_sum_over_no_axes_keeps_negative_zero(self):
        x = np.array([[-0.0, 1.5], [2.0, -0.0]])
        g = ag.Graph()
        for out in (kernels.sum_axes(x, ()), g.sum_axes(g.const(x), ()).value):
            assert np.array_equal(np.signbit(out), np.signbit(x))
            assert out is not x


class TestPrunedSweep:
    """`grad` computes only the adjoints on a path to a target. It must
    return what the unpruned sweep returns, bit for bit, and it must not
    compute the parameter adjoints an input gradient never reads."""

    SHAPES = {"mlp": ({"kind": "mlp", "in_shape": [1, 32, 32], "hidden": [64, 64],
                       "classes": 4}, 64),
              "cnn": ({"kind": "cnn", "in_shape": [3, 32, 32], "channels": [16, 32],
                       "classes": 4}, 16)}
    SMALL = {"mlp": ({"kind": "mlp", "in_shape": [1, 8, 8], "hidden": [12, 10],
                      "classes": 3}, 5),
             "cnn": ({"kind": "cnn", "in_shape": [2, 8, 8], "channels": [4, 6],
                      "classes": 3}, 5)}

    @staticmethod
    def _batch(shapes, kind):
        cfg, n = shapes[kind]
        rng = np.random.default_rng(70)
        x = rng.uniform(0.0, 1.0, size=(n, *cfg["in_shape"]))
        y = rng.integers(0, cfg["classes"], size=n)
        return build_model(cfg, seed=1), build_model(cfg, seed=2), x, y

    def _outputs(self, kind):
        student, teacher, x, y = self._batch(self.SHAPES, kind)
        adv = pgd(student, x, y, rng=np.random.default_rng(71)).x_adv
        outs = {"x_adv": adv, "input_gradients": input_gradients(student, x, y)}
        for lam in (0.0, 2.0):
            parts = igd_loss(student, teacher, x, adv, y, lam)
            outs[f"loss lam={lam}"] = np.array([parts.total, parts.ce, parts.cos_mean])
            outs.update({f"{n} lam={lam}": g for n, g in parts.grads.items()})
        return outs

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_attack_input_gradients_and_igd_loss_equal_the_oracle(self, kind, monkeypatch):
        got = self._outputs(kind)
        monkeypatch.setattr(ag, "grad", unpruned_grad)
        want = self._outputs(kind)
        assert set(got) == set(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("create_graph", [False, True])
    def test_interior_target_gets_the_oracle_adjoint(self, create_graph):
        x0 = np.random.default_rng(72).normal(size=(3, 4))
        results = []
        for sweep in (ag.grad, unpruned_grad):
            g = ag.Graph()
            h = g.matmul(g.var(x0), g.var(np.linspace(-1.0, 1.0, 8).reshape(4, 2)))
            out = ag.sum_all(g.softplus(g.mul(h, g.const(np.full((3, 2), 0.5)))))
            (got,) = sweep(out, [h], create_graph=create_graph)
            results.append(got.value if create_graph else got)
        assert results[0].tobytes() == results[1].tobytes()

    def test_reaches_is_whether_the_sweep_gives_an_adjoint(self):
        g = ag.Graph()
        a, b, c = (g.var(np.full((2, 2), v)) for v in (1.5, 0.5, 2.0))
        out = ag.sum_all(g.mul(g.relu(g.mul(a, b)), g.relu_mask(c)))  # c only through a cut
        late = g.var(np.ones(2))  # recorded after out
        assert [ag.reaches(out, w) for w in (a, b, c, out, late)] == [True, True, False, True, False]
        ga, gb, gc, gl = ag.grad(out, [a, b, c, late])
        assert ga.all() and gb.all() and not gc.any() and not gl.any()
        with pytest.raises(ag.GraphError, match="different graph"):
            ag.reaches(out, ag.Graph().var(np.ones(2)))

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_input_gradients_compute_no_parameter_adjoint(self, kind, monkeypatch):
        model, _, x, y = self._batch(self.SMALL, kind)
        calls = []
        for op in ("matmul", "conv2d"):
            def spy(*args, _op=op, _kernel=getattr(kernels, op)):
                out = _kernel(*args)
                calls.append((_op, out.shape))
                return out
            monkeypatch.setattr(kernels, op, spy)
        model.logits(x)
        forward = Counter(op for op, _ in calls)
        calls.clear()
        input_gradients(model, x, y)
        # the forward once on the tape, then one input adjoint per call
        assert Counter(op for op, _ in calls) == {op: 2 * n for op, n in forward.items()}
        param_shapes = {p.shape for p in model.params.values()}
        assert [c for c in calls if c[1] in param_shapes] == []

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_double_backward_emits_only_what_its_result_needs(self, kind, monkeypatch):
        """Every node the `create_graph` pass of `igd_loss` adds to the tape
        feeds the input gradient it returns: none is a parameter adjoint."""
        student, teacher, x, y = self._batch(self.SMALL, kind)
        passes = []

        def spy(out, wrts, *, create_graph=False):
            before = len(out.graph.nodes)
            result = engine.grad(out, wrts, create_graph=create_graph)
            if create_graph:
                passes.append((out.graph.nodes[:], before, result))
            return result

        monkeypatch.setattr(ag, "grad", spy)
        igd_loss(student, teacher, x, x, y, 2.0)
        ((nodes, before, result),) = passes
        feeds = {r.idx for r in result}
        for i in range(len(nodes) - 1, before - 1, -1):
            if i in feeds:
                feeds.update(nodes[i].args)
        assert [nodes[i].op for i in range(before, len(nodes)) if i not in feeds] == []


class TestPlan:
    """A `Plan` recorded at one input and replayed at another returns what a
    fresh tape at the second input returns, bit for bit: no value derived
    from the input (a row maximum, a ReLU or pooling mask) stays frozen."""

    MODELS = {"mlp-relu": {"kind": "mlp", "in_shape": [1, 6, 6], "hidden": [16, 8],
                           "classes": 3},
              "mlp-softplus": {"kind": "mlp", "in_shape": [1, 6, 6], "hidden": [16, 8],
                               "classes": 3, "activation": "softplus"},
              "linear": {"kind": "linear", "in_shape": [1, 6, 6]},
              "cnn": {"kind": "cnn", "in_shape": [2, 8, 8], "channels": [4, 6],
                      "classes": 3}}

    @staticmethod
    def _tape(model, x, y, create_graph):
        g = ag.Graph()
        xv = g.var(x)
        loss = ag.cross_entropy_mean(model.graph_logits(xv, model.bind(g)), y)
        return xv, ag.grad(loss, [xv], create_graph=create_graph)[0]

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_replay_equals_a_fresh_tape(self, name):
        model = build_model(self.MODELS[name], seed=4)
        rng = np.random.default_rng(80)
        x0, x1 = rng.uniform(size=(2, 5, *model.in_shape))
        y = rng.integers(0, model.classes, size=5)
        xv, gx = self._tape(model, x0, y, create_graph=True)
        plan = ag.Plan(xv, gx)
        want = self._tape(model, x1, y, create_graph=False)[1]
        assert plan.run(x1).tobytes() == want.tobytes()
        assert plan.run(x0).tobytes() == gx.value.tobytes()

    def test_a_plan_keeps_no_full_size_bias(self):
        """Every broadcast on a PGD tape shares memory with its argument, so
        a `Plan` keeps each bias broadcast as a view of the bias, and no
        full array of a conv layer's output shape."""
        model = build_model(self.MODELS["cnn"], seed=4)
        x = np.random.default_rng(82).uniform(size=(5, *model.in_shape))
        xv, gx = self._tape(model, x, np.arange(5) % 3, create_graph=True)
        plan = ag.Plan(xv, gx)
        nodes = xv.graph.nodes
        casts = [i for i, node in enumerate(nodes) if node.op == "broadcast"]
        for i in casts:
            assert np.shares_memory(nodes[i].value, nodes[nodes[i].args[0]].value), i
        biases = [i for i in casts if nodes[nodes[i].args[0]].op == "reshape"
                  and nodes[nodes[nodes[i].args[0]].args[0]].op == "var"]
        assert len(biases) == 3 and set(biases) <= set(plan.kept)  # two convs and the logits
        # the logits' [B, classes] is also the shape of the label term a plan
        # keeps, so only the conv outputs' shapes mark a full-size bias
        shapes = {nodes[i].value.shape for i in biases if nodes[i].value.ndim == 4}
        assert len(shapes) == 2
        full = [j for j, v in plan.kept.items() if v.shape in shapes and 0 not in v.strides]
        assert full == []

    def test_replay_checks_every_op(self):
        model = build_model(self.MODELS["mlp-relu"], seed=4)
        x = np.random.default_rng(81).uniform(size=(2, *model.in_shape))
        plan = ag.Plan(*self._tape(model, x, np.array([0, 1]), create_graph=True))
        x[1, 0, 0, 0] = np.inf
        with pytest.raises(ag.NonFiniteError, match="op 'var'"):
            plan.run(x)
        x[1] = 1e308  # finite, but the forward overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ag.NonFiniteError):
            plan.run(x)
