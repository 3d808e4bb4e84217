"""Engine checks against central finite differences.

Every gradient the tape produces is compared to (f(x+h) - f(x-h)) / 2h
on float64 inputs; second derivatives are checked the same way on the
analytic first derivative. Nothing here trusts the engine to test itself
except the bit-reproducibility cases, where the oracle is repetition.
"""

import numpy as np
import pytest

from gradeq import autodiff as ag
from gradeq.autodiff import engine, kernels


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
        check_grad(lambda g, x: ag.sum_all(ag.mul(m := ag.matmul(x, g.const(b)), m)), a0)

    def test_conv2d_wrt_input(self):
        rng = np.random.default_rng(12)
        k = rng.normal(size=(2, 3, 3, 3))
        for pad in (0, 1, 2):
            x0 = rng.normal(size=(2, 3, 5, 5))
            check_grad(
                lambda g, x: ag.sum_all(ag.mul(y := ag.conv2d(x, g.const(k), pad), y)),
                x0,
            )

    def test_conv2d_wrt_kernel(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 6, 6))
        k0 = rng.normal(size=(4, 3, 3, 3))
        for pad in (0, 1):
            check_grad(
                lambda g, kk: ag.sum_all(ag.mul(y := ag.conv2d(g.const(x), kk, pad), y)),
                k0,
            )

    def test_elementwise_ops(self):
        rng = np.random.default_rng(14)
        x0 = rng.uniform(0.5, 2.0, size=(3, 4))
        for fn in (ag.softplus, ag.exp, ag.log, ag.rsqrt, ag.reciprocal):
            check_grad(lambda g, x, fn=fn: ag.sum_all(ag.mul(y := fn(x), y)), x0)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(15)
        x0 = rng.normal(size=(4, 5))
        x0[np.abs(x0) < 0.1] = 0.5
        check_grad(lambda g, x: ag.sum_all(ag.mul(y := ag.relu(x), y)), x0)

    def test_shape_ops(self):
        rng = np.random.default_rng(16)
        x0 = rng.normal(size=(2, 3, 4))

        def build(g, x):
            y = ag.permute(x, (2, 0, 1))
            y = ag.reshape(y, (4, 6))
            y = ag.broadcast(ag.sum_axes(y, (1,)), (4, 6))
            return ag.sum_all(ag.mul(y, y))

        check_grad(build, x0)

    def test_flip_hw(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(1, 2, 3, 3))
        w = rng.normal(size=(1, 2, 3, 3))
        check_grad(lambda g, x: ag.sum_all(ag.mul(ag.flip_hw(x), g.const(w))), x0)

    def test_maxpool_away_from_ties(self):
        rng = np.random.default_rng(18)
        x0 = rng.normal(size=(2, 2, 4, 4))
        check_grad(lambda g, x: ag.sum_all(ag.mul(y := ag.maxpool2(x), y)), x0)

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
        f = ag.sum_all(ag.mul(ag.mul(x, x), x))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(ag.mul(gx, g.const(v)))
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
            f = ag.sum_all(ag.softplus(ag.matmul(x, g.const(w))))
            return ag.grad(f, [x])[0]

        g = ag.Graph()
        x = g.var(x0)
        f = ag.sum_all(ag.softplus(ag.matmul(x, g.const(w))))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(ag.mul(gx, g.const(v)))
        (hv,) = ag.grad(s, [x])

        h = 1e-5
        want = (first_grad(x0 + h * v) - first_grad(x0 - h * v)) / (2.0 * h)
        np.testing.assert_allclose(hv, want, rtol=1e-3, atol=1e-8)

    def test_relu_second_derivative_is_zero(self):
        rng = np.random.default_rng(33)
        x0 = rng.normal(size=(3, 4)) + 2.0  # strictly positive side
        g = ag.Graph()
        x = g.var(x0)
        f = ag.sum_all(ag.mul(y := ag.relu(x), y))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(ag.mul(gx, gx))
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
            f = ag.sum_all(ag.softplus(ag.matmul(x, g.var(wa))))
            (gx,) = ag.grad(f, [x], create_graph=True)
            return ag.sum_all(ag.mul(gx, g.const(c))).item()

        g = ag.Graph()
        x = g.var(x0)
        w = g.var(w0)
        f = ag.sum_all(ag.softplus(ag.matmul(x, w)))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(ag.mul(gx, g.const(c)))
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
            f = ag.sum_all(ag.softplus(ag.conv2d(x, g.var(ka), 1)))
            (gx,) = ag.grad(f, [x], create_graph=True)
            return ag.sum_all(ag.mul(gx, g.const(c))).item()

        g = ag.Graph()
        x = g.var(x0)
        k = g.var(k0)
        f = ag.sum_all(ag.softplus(ag.conv2d(x, k, 1)))
        (gx,) = ag.grad(f, [x], create_graph=True)
        s = ag.sum_all(ag.mul(gx, g.const(c)))
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
        y = ag.maxpool2(ag.softplus(ag.conv_bias(ns, x, k, g.var(rng.normal(size=(3,))), 1)))
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
            ag.log(g.var(np.array([-1.0])))

    def test_cross_graph_mix_raises(self):
        g1, g2 = ag.Graph(), ag.Graph()
        a = g1.var(np.ones((2, 2)))
        b = g2.var(np.ones((2, 2)))
        with pytest.raises(ag.GraphError):
            ag.add(a, b)

    def test_shape_mismatch_raises(self):
        g = ag.Graph()
        with pytest.raises(ag.GraphError):
            ag.add(g.var(np.ones((2, 2))), g.var(np.ones((2, 3))))

    def test_conv_pad_bound(self):
        g = ag.Graph()
        x = g.var(np.ones((1, 1, 4, 4)))
        k = g.var(np.ones((1, 1, 3, 3)))
        with pytest.raises(ag.GraphError):
            ag.conv2d(x, k, 3)

    def test_const_blocks_gradient(self):
        g = ag.Graph()
        x = g.var(np.ones((2, 2)))
        c = g.const(np.full((2, 2), 3.0))
        out = ag.sum_all(ag.mul(x, c))
        (gx,) = ag.grad(out, [x])
        np.testing.assert_allclose(gx, 3.0)

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
        y = ag.conv2d(x, g.const(k), 1)
        (gx,) = ag.grad(ag.sum_all(ag.mul(y, g.const(gg))), [x])
        lhs = np.sum(y.value * gg)
        rhs_probe = numeric_grad(
            lambda arr: float(np.sum(kernels.conv2d(arr, k, 1) * gg)), x0
        )
        np.testing.assert_allclose(gx, rhs_probe, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(np.sum(gx * x0), lhs, rtol=1e-10)


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
            "maxpool2": ((img,), ()),
            "unpool2": ((rng.normal(size=(2, 2, 2, 2)),), (kernels.pool_mask(img),)),
        }

    def test_every_op_has_one_kernel_and_one_emitter(self):
        public = {name for name, f in vars(kernels).items()
                  if callable(f) and getattr(f, "__module__", None) == kernels.__name__
                  and not name.startswith("_")}
        assert public - {"pool_mask", "const"} == set(engine._OPS)
        assert set(self._cases()) == set(engine._OPS)
        for op in engine._OPS:
            assert callable(getattr(kernels, op)) and callable(getattr(ag.Graph, op))

    @pytest.mark.parametrize("op", sorted(engine._OPS))
    def test_tape_value_is_the_kernel_result(self, op):
        arrays, payload = self._cases()[op]
        g = ag.Graph()
        got = getattr(g, op)(*(g.const(a) for a in arrays), *payload).value
        want = getattr(kernels, op)(*arrays, *payload)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_sum_over_no_axes_keeps_negative_zero(self):
        x = np.array([[-0.0, 1.5], [2.0, -0.0]])
        g = ag.Graph()
        for out in (kernels.sum_axes(x, ()), g.sum_axes(g.const(x), ()).value):
            assert np.array_equal(np.signbit(out), np.signbit(x))
            assert out is not x
