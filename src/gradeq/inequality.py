"""Gini concentration measures and order-preserving mass transfers.

The Gini coefficient here is the sorted-weight form: for nonnegative
values sorted ascending,

    G = (1/n) * (n + 1 - 2 * sum_i (n + 1 - i) * phi_i / sum(phi))

with i counted from 1. It equals the mean absolute pairwise difference
divided by twice the mean, is scale invariant, 0 for uniform mass and
1 - 1/n when a single entry holds everything.

`monotonic_reduce` lowers the coefficient by moving mass from a large
entry to a small one through elementary transfers that never reorder the
sequence. It runs on exact rationals so conservation of total mass and
strict per-step decrease are properties of the arithmetic, not of
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a flat collection of nonnegative values."""
    phi = np.asarray(values, dtype=np.float64).reshape(-1)
    if phi.size == 0:
        raise ValueError("gini of an empty collection")
    if np.any(phi < 0):
        raise ValueError("gini requires nonnegative values")
    total = phi.sum()
    if not np.isfinite(total):  # a NaN or inf entry carries into the sum
        raise ValueError("gini requires finite values")
    if total <= 0.0:
        raise ValueError("gini undefined when all values are zero")
    phi = np.sort(phi)
    n = phi.size
    ranked = np.arange(n, 0, -1, dtype=np.float64)  # n + 1 - i for i = 1..n
    return float((n + 1 - 2.0 * np.dot(ranked, phi) / total) / n)


def gini_exact(values) -> Fraction:
    """Same statistic on exact rationals; accepts ints, Fractions, floats."""
    phi = sorted(Fraction(v) for v in values)
    n = len(phi)
    if n == 0:
        raise ValueError("gini of an empty collection")
    if phi[0] < 0:
        raise ValueError("gini requires nonnegative values")
    total = sum(phi)
    if total <= 0:
        raise ValueError("gini undefined when all values are zero")
    weighted = sum((n - i) * p for i, p in enumerate(phi))
    return Fraction(n + 1 - 2 * weighted / total, n)


def block_sums(map2d: np.ndarray, region: int) -> np.ndarray:
    """Sum a 2-d map over a region x region grid anchored top-left.

    Edge blocks are clipped to the map, so every cell lands in exactly
    one block and the block sums conserve the total.
    """
    m = np.asarray(map2d, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d map, got shape {m.shape}")
    if region < 1:
        raise ValueError(f"region size must be positive, got {region}")
    h, w = m.shape
    rows = np.add.reduceat(m, np.arange(0, h, region), axis=0)
    return np.add.reduceat(rows, np.arange(0, w, region), axis=1)


def regional_gini(map2d: np.ndarray, region: int) -> float:
    """Gini coefficient over clipped region x region block sums; a region
    that leaves a single block is refused."""
    blocks = block_sums(map2d, region)
    if blocks.size < 2:
        raise ValueError(
            f"region {region} leaves a single block on shape {np.shape(map2d)}; "
            "inequality over one region is meaningless"
        )
    return gini(blocks)


def mean_gini(reduced_maps, region: int | None = None) -> tuple[float, float, int]:
    """Mean global and regional Gini over per-pixel attribution maps.

    The one rule for turning maps into the statistic: a map with no mass
    has no defined concentration and is skipped; a map with a NaN or
    infinite entry raises ValueError. A map that is not 2-d has no blocks,
    so its regional figure is its global one; with `region` None the
    regional mean is nan. Returns (global, regional, maps kept), and
    (nan, nan, 0) when every map is skipped.
    """
    gs, rs = [], []
    for m in map(np.asarray, reduced_maps):
        if not m.any():
            continue
        gs.append(gini(m))
        if region is not None:
            rs.append(regional_gini(m, region) if m.ndim == 2 else gs[-1])
    nan = float("nan")
    return (float(np.mean(gs)) if gs else nan, float(np.mean(rs)) if rs else nan,
            len(gs))


@dataclass(frozen=True)
class ReduceStep:
    """One elementary transfer: `amount` moved from index donor to recipient."""

    recipient: int
    donor: int
    amount: Fraction
    weights: tuple[Fraction, ...]  # state after the transfer, still ascending


@dataclass(frozen=True)
class ReduceTrace:
    initial: tuple[Fraction, ...]
    steps: tuple[ReduceStep, ...]

    @property
    def final(self) -> tuple[Fraction, ...]:
        return self.steps[-1].weights if self.steps else self.initial

    def states(self) -> list[tuple[Fraction, ...]]:
        return [self.initial] + [s.weights for s in self.steps]

    def ginis(self) -> list[Fraction]:
        return [gini_exact(w) for w in self.states()]


def _untie(w: list, a: int, b: int) -> tuple[int, int]:
    """(a, b) moved inward past the entries tied with w[a] and with w[b]."""
    while a + 1 <= b and w[a + 1] == w[a]:
        a += 1
    while b - 1 >= a and w[b - 1] == w[b]:
        b -= 1
    return a, b


def monotonic_reduce(weights, recipient: int, donor: int, delta) -> ReduceTrace:
    """Move `delta` of mass from weights[donor] to weights[recipient].

    Input must be ascending and nonnegative with recipient < donor. The
    move is decomposed into elementary transfers, each bounded by the gap
    to the next position (after skipping ties), so the sequence stays
    ascending throughout and every step is a strict equalization: the
    Gini coefficient drops at every step and the total is conserved
    exactly.

    Requires 2 * delta <= weights[donor] - weights[recipient]; a larger
    move would push the two positions past each other.
    """
    initial = tuple(Fraction(v) for v in weights)
    w, n = list(initial), len(initial)
    if not 0 <= recipient < donor < n:
        raise ValueError(f"need 0 <= recipient < donor < {n}")
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")
    if any(w[i] > w[i + 1] for i in range(n - 1)):
        raise ValueError("weights must be ascending")
    remaining = Fraction(delta)
    if remaining < 0:
        raise ValueError("delta must be nonnegative")
    if 2 * remaining > w[donor] - w[recipient]:
        raise ValueError(
            f"delta {float(remaining)} exceeds half the donor-recipient gap "
            f"{float(w[donor] - w[recipient])}; positions would cross"
        )
    a, b = _untie(w, recipient, donor)
    steps: list[ReduceStep] = []
    while remaining > 0:
        # 2 * remaining <= w[b] - w[a] is invariant: ties do not change the
        # endpoint values and each transfer closes the gap by twice itself,
        # so a == b cannot happen while mass is left to move.
        assert a < b and w[a] < w[b]
        amount = min(w[a + 1] - w[a], w[b] - w[b - 1], remaining)
        w[a] += amount
        w[b] -= amount
        remaining -= amount
        steps.append(ReduceStep(a, b, amount, tuple(w)))
        a, b = _untie(w, a, b)
    return ReduceTrace(initial, tuple(steps))


def sum_sq_after_transfer(weights, recipient: int, donor: int, delta) -> Fraction:
    """Exact sum of squares after one direct transfer, via the identity

        sum(w'^2) = sum(w^2) + 2 * delta * (delta - w[donor] + w[recipient])
    """
    w = [Fraction(v) for v in weights]
    delta = Fraction(delta)
    base = sum(v * v for v in w)
    return base + 2 * delta * (delta - w[donor] + w[recipient])


@dataclass(frozen=True)
class TransferRatio:
    """Change rates of one elementary transfer, all exact rationals.

    `ratio` is the directly recomputed quotient d_sum_sq / d_gini.
    `closed_form` evaluates (delta - w_b + w_a) * n * total / (a - b) with
    a, b the tie-adjusted sorted positions; it is kept as a diagnostic
    next to the direct value rather than trusted on its own.
    """

    d_sum_sq: Fraction
    d_gini: Fraction
    ratio: Fraction
    closed_form: Fraction


def transfer_ratio(weights, recipient: int, donor: int, delta) -> TransferRatio:
    """How much sum-of-squares is bought per unit of Gini given up.

    The transfer must be a single elementary step of `monotonic_reduce`:
    ascending input, delta > 0, positions may not cross or reorder. Both
    deltas are recomputed from scratch; the closed form rides along.
    """
    trace = monotonic_reduce(weights, recipient, donor, delta)
    if not trace.steps:
        raise ValueError("delta must be positive")
    if len(trace.steps) > 1:
        raise ValueError("delta would reorder the sequence; split the move")
    (step,), w = trace.steps, trace.initial
    d_sum_sq = sum(v * v for v in step.weights) - sum(v * v for v in w)
    before, after = trace.ginis()
    closed = ((step.amount - w[step.donor] + w[step.recipient]) * len(w) * sum(w)
              / Fraction(step.recipient - step.donor))
    return TransferRatio(d_sum_sq, after - before, d_sum_sq / (after - before), closed)


@dataclass(frozen=True)
class LagrangeReport:
    """Outcome of a randomized check of the sum-of-squares bounds."""

    k: int
    total: float
    trials: int
    lower: float  # total^2 / k, attained only by the equal split
    upper: float  # total^2, attained only by a one-hot vector
    min_sum_sq: float
    max_sum_sq: float
    violations: int
    equality_cases_ok: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.equality_cases_ok


def lagrange_optimum_check(k: int, total: float, trials: int,
                           rng: np.random.Generator) -> LagrangeReport:
    """Sample nonnegative k-vectors of fixed L1 mass and bound sum(w^2).

    For L1 mass C the sum of squares lives in [C^2/k, C^2]: the lower end
    at the equal split, the upper at full concentration. Samples are
    uniform on the simplex (exponentials over their sum), and the two
    equality cases are probed explicitly.
    """
    if k < 1:
        raise ValueError("need at least one entry")
    if total <= 0:
        raise ValueError("total mass must be positive")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    lower = total * total / k
    upper = total * total
    tol = 1e-9 * upper
    lo_seen, hi_seen = np.inf, -np.inf
    violations = 0
    for _ in range(trials):
        e = rng.exponential(size=k)
        w = total * e / e.sum()
        ss = float(np.dot(w, w))
        lo_seen = min(lo_seen, ss)
        hi_seen = max(hi_seen, ss)
        if ss < lower - tol or ss > upper + tol:
            violations += 1
    equal = float(k * (total / k) ** 2)
    onehot = float(total * total)
    eq_ok = abs(equal - lower) <= tol and abs(onehot - upper) <= tol
    return LagrangeReport(k, float(total), trials, lower, upper,
                          float(lo_seen), float(hi_seen), violations, eq_ok)
