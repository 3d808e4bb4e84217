"""Gini and transfer checks against the O(n^2) pairwise definition."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradeq import inequality as ineq


def pairwise_gini(phi):
    """Mean absolute pairwise difference over twice the mean."""
    phi = np.asarray(phi, dtype=np.float64).reshape(-1)
    n = phi.size
    diffs = np.abs(phi[:, None] - phi[None, :]).sum()
    return diffs / (2.0 * n * n * phi.mean())


class TestGini:
    def test_point_mass_quarter(self):
        assert ineq.gini([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.75, abs=1e-15)

    def test_uniform_is_zero(self):
        assert ineq.gini(np.full(17, 3.2)) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_general(self):
        for n in (2, 5, 64):
            phi = np.zeros(n)
            phi[-1] = 7.0
            assert ineq.gini(phi) == pytest.approx(1.0 - 1.0 / n, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            phi = rng.uniform(0.0, 10.0, size=n)
            phi[rng.random(n) < 0.2] = 0.0
            if phi.sum() == 0.0:
                phi[0] = 1.0
            assert ineq.gini(phi) == pytest.approx(pairwise_gini(phi), abs=1e-9)

    @given(
        # no entry so small that k * phi leaves the normal range: [5e-324]
        # times 0.5 rounds to [0.0], whose Gini is undefined
        st.lists(st.one_of(st.just(0.0), st.floats(1e-290, 1e6)), min_size=1,
                 max_size=60),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, vals, k):
        phi = np.array(vals)
        if phi.sum() == 0.0:
            phi[0] = 1.0
        assert ineq.gini(k * phi) == pytest.approx(ineq.gini(phi), abs=1e-9)

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        phi = rng.uniform(0, 5, size=40)
        assert ineq.gini(phi) == pytest.approx(ineq.gini(np.sort(phi)[::-1]), abs=1e-12)

    def test_rejects_bad_input(self):
        for gini in (ineq.gini, ineq.gini_exact):
            with pytest.raises(ValueError, match="gini of an empty collection"):
                gini([])
            with pytest.raises(ValueError, match="gini requires nonnegative values"):
                gini([1.0, -0.5])
            with pytest.raises(ValueError, match="gini undefined when all values are zero"):
                gini([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN would otherwise pass the sign check and come out as the statistic
        with pytest.raises(ValueError, match="finite"):
            ineq.gini([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            ineq.regional_gini(np.array([[1.0, 2.0], [bad, 0.5]]), 1)

    def test_exact_matches_float(self):
        phi = [1, 2, 9]
        assert ineq.gini_exact(phi) == Fraction(4, 9)
        assert ineq.gini(np.array(phi, float)) == pytest.approx(4 / 9, abs=1e-12)


class TestRegional:
    def test_block_sums_against_loops(self):
        rng = np.random.default_rng(9)
        for h, w, r in [(32, 32, 4), (10, 7, 3), (5, 5, 2), (8, 8, 8), (6, 9, 4)]:
            m = rng.uniform(0, 1, size=(h, w))
            got = ineq.block_sums(m, r)
            hh = -(-h // r)
            ww = -(-w // r)
            want = np.zeros((hh, ww))
            for i in range(hh):
                for j in range(ww):
                    want[i, j] = m[i * r : (i + 1) * r, j * r : (j + 1) * r].sum()
            np.testing.assert_allclose(got, want, rtol=1e-12)
            assert got.shape == (hh, ww)

    def test_blocks_conserve_total(self):
        rng = np.random.default_rng(10)
        m = rng.uniform(0, 1, size=(13, 11))
        assert ineq.block_sums(m, 4).sum() == pytest.approx(m.sum(), rel=1e-12)

    def test_regional_gini_of_concentrated_map(self):
        m = np.zeros((32, 32))
        m[0:4, 0:4] = 1.0  # exactly one of 64 blocks holds everything
        assert ineq.regional_gini(m, 4) == pytest.approx(1.0 - 1.0 / 64, abs=1e-12)

    def test_single_block_rejected(self):
        with pytest.raises(ValueError):
            ineq.regional_gini(np.ones((4, 4)), 8)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ineq.block_sums(np.ones((2, 2, 2)), 1)
        with pytest.raises(ValueError, match="region size must be positive, got 0"):
            ineq.block_sums(np.ones((2, 2)), 0)


class TestMeanGini:
    """`mean_gini` is the one rule turning attribution maps into the statistic."""

    def test_zero_map_skipped(self):
        m = np.arange(16.0).reshape(4, 4)
        got = ineq.mean_gini([np.zeros((4, 4)), m], 2)
        assert got == (ineq.gini(m), ineq.regional_gini(m, 2), 1)

    def test_tiny_map_counted(self):
        # 1e-14 per pixel has an L2 norm below 1e-12 but carries mass
        assert ineq.mean_gini([np.full((1, 4, 4), 1e-14).sum(axis=0)], 2) == (0.0, 0.0, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_raises(self, bad):
        m = np.ones((4, 4))
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ineq.mean_gini([np.ones((4, 4)), m], 2)

    def test_all_skipped_is_nan(self):
        g, r, kept = ineq.mean_gini([np.zeros((4, 4)), np.zeros((4, 4))], 2)
        assert np.isnan(g) and np.isnan(r) and kept == 0

    def test_flat_map_regional_is_global(self):
        m = np.array([0.0, 1.0, 3.0, 0.5, 2.0])
        assert ineq.mean_gini([m], 2) == (ineq.gini(m), ineq.gini(m), 1)

    def test_no_region_leaves_regional_nan(self):
        m = np.arange(16.0).reshape(4, 4)
        g, r, kept = ineq.mean_gini([m, 2 * m])
        assert g == ineq.gini(m) and np.isnan(r) and kept == 2

    def test_single_block_region_raises(self):
        with pytest.raises(ValueError, match="single block"):
            ineq.mean_gini([np.ones((16, 16))], 16)

    def test_means_in_map_order(self):
        rng = np.random.default_rng(3)
        maps = [rng.uniform(0, 1, size=(8, 8)) for _ in range(5)]
        g, r, kept = ineq.mean_gini(maps, 4)
        assert g == float(np.mean([ineq.gini(m) for m in maps]))
        assert r == float(np.mean([ineq.regional_gini(m, 4) for m in maps]))
        assert kept == 5


class TestMonotonicReduce:
    def test_hand_trace(self):
        trace = ineq.monotonic_reduce([1, 2, 9], 0, 2, 3)
        states = trace.states()
        assert states[0] == (1, 2, 9)
        assert states[1] == (2, 2, 8)
        assert states[2] == (2, 4, 6)
        assert trace.ginis() == [Fraction(4, 9), Fraction(1, 3), Fraction(2, 9)]

    def test_strict_decrease_and_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            w = np.sort(rng.uniform(0, 10, size=n))
            a = int(rng.integers(0, n - 1))
            b = int(rng.integers(a + 1, n))
            gap = w[b] - w[a]
            if gap <= 0:
                continue
            delta = Fraction(float(gap)) * Fraction(int(rng.integers(1, 100)), 200)
            trace = ineq.monotonic_reduce(w, a, b, delta)
            ginis = trace.ginis()
            assert all(x > y for x, y in zip(ginis, ginis[1:]))
            total = sum(Fraction(float(v)) for v in w)
            for state in trace.states():
                assert sum(state) == total
                assert all(p <= q for p, q in zip(state, state[1:]))

    def test_total_moved_equals_delta(self):
        trace = ineq.monotonic_reduce([0.0, 1.0, 1.0, 10.0], 0, 3, 4)
        assert sum(s.amount for s in trace.steps) == 4

    def test_crossing_delta_rejected(self):
        with pytest.raises(ValueError):
            ineq.monotonic_reduce([1.0, 9.0], 0, 1, 4.1)

    def test_zero_delta_is_noop(self):
        trace = ineq.monotonic_reduce([1.0, 2.0], 0, 1, 0)
        assert trace.steps == ()
        assert trace.final == (1, 2)

    def test_bad_indices_and_order(self):
        with pytest.raises(ValueError):
            ineq.monotonic_reduce([3.0, 1.0], 0, 1, 0.1)
        with pytest.raises(ValueError):
            ineq.monotonic_reduce([1.0, 2.0], 1, 1, 0.1)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            ineq.monotonic_reduce([-1.0, 2.0], 0, 1, 0.1)
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            ineq.monotonic_reduce([1.0, 2.0], 0, 1, -0.1)

    def test_sum_sq_identity_per_step(self):
        rng = np.random.default_rng(12)
        w = np.sort(rng.uniform(0, 5, size=8))
        trace = ineq.monotonic_reduce(w, 1, 6, Fraction(float(w[6] - w[1])) / 4)
        for before, step in zip(trace.states(), trace.steps):
            got = sum(v * v for v in step.weights)
            want = ineq.sum_sq_after_transfer(before, step.recipient, step.donor, step.amount)
            assert got == want

    def test_sum_sq_drop_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            w = np.sort(rng.uniform(0, 10, size=n))
            if w[-1] - w[0] < 1e-6:
                continue
            delta = Fraction(float(w[-1] - w[0])) / 3
            trace = ineq.monotonic_reduce(w, 0, n - 1, delta)
            before = sum(Fraction(float(v)) ** 2 for v in w)
            after = sum(v * v for v in trace.final)
            assert before - after >= 2 * delta * delta


class TestTransferRatio:
    def test_hand_example_adjacent(self):
        # [1,2,9], move 1 from the 9 to the 2: sum-sq drops by 12, gini by
        # 1/18, so the quotient is 216; the closed form must agree.
        tr = ineq.transfer_ratio([1, 2, 9], 1, 2, 1)
        assert tr.d_sum_sq == -12
        assert tr.d_gini == Fraction(-1, 18)
        assert tr.ratio == 216
        assert tr.closed_form == 216

    def test_closed_form_matches_direct_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            w = sorted(Fraction(int(v), 8) for v in rng.integers(0, 40, size=n))
            a = int(rng.integers(0, n - 1))
            b = int(rng.integers(a + 1, n))
            if w[a] == w[b]:
                continue
            gaps = [Fraction(w[b] - w[a], 2)]
            aa, bb = a, b
            while aa + 1 <= bb and w[aa + 1] == w[aa]:
                aa += 1
            while bb - 1 >= aa and w[bb - 1] == w[bb]:
                bb -= 1
            if aa + 1 < bb:
                gaps += [w[aa + 1] - w[aa], w[bb] - w[bb - 1]]
            delta = min(g for g in gaps if g > 0) / 2
            if delta <= 0:
                continue
            tr = ineq.transfer_ratio(w, a, b, delta)
            assert tr.ratio == tr.closed_form
            assert float(abs(tr.ratio - tr.closed_form)) <= 1e-9

    def test_ties_advance_positions(self):
        # Recipient sits in a run of equal values; its effective sorted
        # position is the end of the run, which the closed form must use.
        tr = ineq.transfer_ratio([1, 2, 2, 2, 9], 1, 4, 1)
        after = [1, 2, 2, 3, 8]
        want = ineq.gini_exact(after) - ineq.gini_exact([1, 2, 2, 2, 9])
        assert tr.d_gini == want
        assert tr.ratio == tr.closed_form

    def test_both_deltas_negative(self):
        tr = ineq.transfer_ratio([0, 4, 5, 11], 0, 3, 2)
        assert tr.d_sum_sq < 0 and tr.d_gini < 0 and tr.ratio > 0

    def test_reorder_rejected(self):
        # Non-adjacent move larger than the neighbor gap must be refused.
        with pytest.raises(ValueError, match="^delta would reorder the sequence; split the move$"):
            ineq.transfer_ratio([1, 2, 30], 0, 2, 5)
        with pytest.raises(ValueError, match=r"^delta 3\.0 exceeds half the donor-recipient "
                                             r"gap 4\.0; positions would cross$"):
            ineq.transfer_ratio([1, 5], 0, 1, 3)
        with pytest.raises(ValueError, match="^delta must be positive$"):
            ineq.transfer_ratio([1, 5], 0, 1, 0)

    def test_reverse_transfer_increases_gini(self):
        # Moving mass from a small entry to a large one concentrates it.
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            w = sorted(Fraction(int(v), 4) for v in rng.integers(1, 30, size=n))
            a, b = 0, n - 1
            delta = min(Fraction(w[0]), Fraction(1, 8))
            if delta <= 0:
                continue
            rev = list(w)
            rev[a] -= delta
            rev[b] += delta
            assert ineq.gini_exact(rev) > ineq.gini_exact(w)


class TestLagrange:
    def test_bounds_hold_across_k(self):
        rng = np.random.default_rng(23)
        for k in (2, 4, 16, 64):
            rep = ineq.lagrange_optimum_check(k, 1.0, 2000, rng)
            assert rep.ok
            assert rep.violations == 0
            assert rep.min_sum_sq >= rep.lower - 1e-12
            assert rep.max_sum_sq <= rep.upper + 1e-12

    def test_equality_cases(self):
        rep = ineq.lagrange_optimum_check(4, 1.0, 10, np.random.default_rng(24))
        assert rep.lower == pytest.approx(0.25, abs=1e-15)
        assert rep.upper == pytest.approx(1.0, abs=1e-15)
        assert rep.equality_cases_ok
        # direct probes of the attaining vectors
        eq = np.full(4, 0.25)
        hot = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.dot(eq, eq) == pytest.approx(rep.lower, abs=1e-15)
        assert np.dot(hot, hot) == pytest.approx(rep.upper, abs=1e-15)

    def test_unscaled_total(self):
        rep = ineq.lagrange_optimum_check(8, 3.5, 500, np.random.default_rng(25))
        assert rep.ok
        assert rep.lower == pytest.approx(3.5 ** 2 / 8)

    def test_validation(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            ineq.lagrange_optimum_check(0, 1.0, 10, rng)
        with pytest.raises(ValueError):
            ineq.lagrange_optimum_check(4, 0.0, 10, rng)
        with pytest.raises(ValueError):
            ineq.lagrange_optimum_check(4, 1.0, -1, rng)
