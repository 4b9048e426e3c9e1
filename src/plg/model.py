"""Exact and closed-form calculators for (alpha, beta) power-law degree distributions.

The distribution has y_i = floor(e^alpha / i^beta) vertices of degree i for
i = 1..Delta, Delta = floor(e^(alpha/beta)).  Exact interval sums are computed
by counting level sets of the non-increasing map i -> y_i, which costs
O(e^alpha) regardless of Delta; a direct numpy summation serves as the test
oracle for this path.

Floating-point boundary rule used throughout: whenever a quantity that should
be floored lies within 1e-9 (relative) of an integer, it is snapped to that
integer before flooring.  Embedding parameter choices intentionally place
e^(alpha/beta) on integers, so the guard is load-bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedCaseError

_SNAP_TOL = 1e-9


def guarded_floor(value: float) -> int:
    """floor() that snaps values within 1e-9 (relative) of an integer."""
    c = round(value)
    if abs(value - c) <= _SNAP_TOL * max(1.0, abs(c)):
        return int(c)
    return int(math.floor(value))


def guarded_ceil(value: float) -> int:
    """ceil() that snaps values within 1e-9 (relative) of an integer."""
    c = round(value)
    if abs(value - c) <= _SNAP_TOL * max(1.0, abs(c)):
        return int(c)
    return int(math.ceil(value))


@dataclass(frozen=True)
class PowerLawParams:
    """The pair (alpha, beta) with the derived maximum degree delta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise InputError("alpha and beta must be positive")

    @property
    def delta(self) -> int:
        return guarded_floor(math.exp(self.alpha / self.beta))


@dataclass(frozen=True)
class DegreeInterval:
    """Integer degree interval [low, high] inside a power-law distribution."""

    low: int
    high: int
    params: PowerLawParams

    def __post_init__(self):
        if not (1 <= self.low <= self.high <= self.params.delta):
            raise InputError(
                f"need 1 <= {self.low} <= {self.high} <= delta={self.params.delta}"
            )


@dataclass(frozen=True)
class BoundPair:
    """Closed-form bracket plus the exact value it estimates.

    ``upper`` is None where the source result states no upper form
    (volumes for beta < 1).  Containment of ``exact`` is a test outcome,
    not an invariant: floored sums can leave the bracket.
    """

    lower: float
    upper: float | None
    exact: int

    def residuals(self) -> tuple[float, float | None]:
        """(exact - lower, upper - exact); positive values mean containment."""
        hi = None if self.upper is None else self.upper - self.exact
        return self.exact - self.lower, hi


def degree_count(p: PowerLawParams, i: int) -> int:
    """y_i = floor(e^alpha / i^beta); zero outside 1..delta."""
    if i < 1 or i > p.delta:
        return 0
    return guarded_floor(math.exp(p.alpha) / i**p.beta)


def _floored_counts(p: PowerLawParams, lo: int, hi: int) -> np.ndarray:
    """(y_lo, ..., y_hi) as int64 by the snap rule, for lo >= 1; empty when
    lo > hi."""
    i = np.arange(lo, hi + 1, dtype=np.float64)
    v = math.exp(p.alpha) / i**p.beta
    c = np.round(v)
    snapped = np.abs(v - c) <= _SNAP_TOL * np.maximum(1.0, np.abs(c))
    return np.where(snapped, c, np.floor(v)).astype(np.int64)


def degree_counts(p: PowerLawParams) -> np.ndarray:
    """The full vector (y_1, ..., y_delta)."""
    return _floored_counts(p, 1, p.delta)


def _count_threshold(p: PowerLawParams, v: int) -> int:
    """Largest i with y_i >= v (0 if none). Verified against degree_count."""
    if v < 1:
        return p.delta
    t = guarded_floor((math.exp(p.alpha) / v) ** (1.0 / p.beta))
    t = min(max(t, 0), p.delta)
    while t >= 1 and degree_count(p, t) < v:
        t -= 1
    while t < p.delta and degree_count(p, t + 1) >= v:
        t += 1
    return t


def interval_size_exact(p: PowerLawParams, a: int, b: int) -> int:
    """sum(y_i for i in [a, b]), via level-set counting."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0
    top = degree_count(p, a)
    total = 0
    for v in range(1, top + 1):
        hi = min(b, _count_threshold(p, v))
        if hi >= a:
            total += hi - a + 1
    return total


def interval_volume_exact(p: PowerLawParams, a: int, b: int) -> int:
    """sum(i * y_i for i in [a, b]), via level-set counting."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0

    def tri(lo: int, hi: int) -> int:
        if hi < lo:
            return 0
        return (lo + hi) * (hi - lo + 1) // 2

    top = degree_count(p, a)
    total = 0
    for v in range(1, top + 1):
        hi = min(b, _count_threshold(p, v))
        total += tri(a, hi)
    return total


def cover_ceiling_sum(p: PowerLawParams, a: int, b: int) -> int:
    """sum(ceil(y_i / i) for i in [a, b]): cliques needed to cover each degree
    class separately."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0
    total = 0
    counts_chunk = 5_000_000
    for lo in range(a, b + 1, counts_chunk):
        hi = min(b, lo + counts_chunk - 1)
        y = _floored_counts(p, lo, hi)
        ii = np.arange(lo, hi + 1, dtype=np.int64)
        total += int(((y + ii - 1) // ii).sum())
    return total


def zeta(s: float, tol: float = 1e-9) -> float:
    """Riemann zeta for s > 1 by direct series with an Euler-Maclaurin tail.

    zeta(s) = sum_{i<=N} i^-s + N^(1-s)/(s-1) - N^-s/2 + s*N^-(s+1)/12 - R,
    |R| <= |s(s+1)(s+2)| * N^-(s+3) / 720.
    """
    if s <= 1:
        raise UnsupportedCaseError("zeta series requires s > 1")
    n = 10
    while True:
        rem = abs(s * (s + 1) * (s + 2)) * n ** -(s + 3) / 720.0
        if rem <= tol:
            break
        n *= 2
        if n > 1 << 26:
            break
    i = np.arange(1, n + 1, dtype=np.float64)
    head = float((i**-s).sum())
    tail = n ** (1 - s) / (s - 1) - 0.5 * n**-s + s * n ** -(s + 1) / 12.0
    return head + tail


@dataclass(frozen=True)
class Totals:
    n_exact: int
    edge_half_sum_exact: float
    n_estimate: float
    m_estimate: float


def totals(p: PowerLawParams) -> Totals:
    """Exact vertex count and half-degree-sum, with the classical estimates.

    n ~ e^(a/b)/(1-b) for b<1, a*e^a for b=1, zeta(b)*e^a for b>1;
    m ~ e^(2a/b)/(2(2-b)) for b<2, a*e^a/4 for b=2, zeta(b-1)*e^a/2 for b>2.
    """
    a, b = p.alpha, p.beta
    n_exact = interval_size_exact(p, 1, p.delta)
    vol = interval_volume_exact(p, 1, p.delta)
    if b < 1:
        n_est = math.exp(a / b) / (1 - b)
    elif b == 1:
        n_est = a * math.exp(a)
    else:
        n_est = zeta(b) * math.exp(a)
    if b < 2:
        m_est = 0.5 * math.exp(2 * a / b) / (2 - b)
    elif b == 2:
        m_est = 0.25 * a * math.exp(a)
    else:
        m_est = 0.5 * zeta(b - 1) * math.exp(a)
    return Totals(n_exact, vol / 2.0, n_est, m_est)


def _integer_endpoints(p: PowerLawParams, x: float, y: float) -> tuple[int, int]:
    """Integer degrees inside the real interval (x*delta, y*delta].

    The exclusive left end makes x == y an empty interval and keeps the exact
    sum aligned with the integral the closed forms discretize.  Returns
    (a, b) possibly with a > b (empty).
    """
    d = p.delta
    a = guarded_floor(x * d) + 1
    b = guarded_floor(y * d)
    return a, min(b, d)


def interval_size_bounds(p: PowerLawParams, x: float, y: float) -> BoundPair:
    """Closed-form bracket for |[x*delta, y*delta]| plus the exact sum.

    Only stated for beta <= 1.  For beta < 1 the bracket is
    [D/(1-b)*(y^(1-b)-x^(1-b)) - (x^-b - y^-b), D/(1-b)*(y^(1-b)-x^(1-b))];
    for beta = 1 it is [e^a*ln(y/x) - (y-x)e^a, e^a*ln(y/x)].
    """
    if not (0 < x <= y <= 1):
        raise InputError("need 0 < x <= y <= 1")
    if p.beta > 1:
        raise UnsupportedCaseError("interval size bounds are stated for beta <= 1")
    d = p.delta
    a, b = _integer_endpoints(p, x, y)
    exact = interval_size_exact(p, a, b)
    if p.beta < 1:
        width = d / (1 - p.beta) * (y ** (1 - p.beta) - x ** (1 - p.beta))
        lower = width - (x**-p.beta - y**-p.beta)
        upper = width
    else:
        ea = math.exp(p.alpha)
        upper = ea * (math.log(1 / x) - math.log(1 / y))
        lower = upper - (y - x) * ea
    return BoundPair(lower, upper, exact)


def interval_volume_bounds(p: PowerLawParams, x: float, y: float = 1.0) -> BoundPair:
    """Closed-form bracket for vol([x*delta, y*delta]) plus the exact sum.

    beta = 1: [e^a*(y-x)*D - (yD(yD+1) - xD(xD+1))/2, e^a*(y-x)*D].
    beta < 1: only the y = 1 lower bound is stated,
    D^2*((1-x^(2-b))/(2-b) - 1/2 + x^2/2) - D*(1 - x^(1-b) - 1/2 + x/2);
    upper is None there.
    """
    if not (0 < x <= y <= 1):
        raise InputError("need 0 < x <= y <= 1")
    if p.beta > 1:
        raise UnsupportedCaseError("interval volume bounds are stated for beta <= 1")
    d = p.delta
    a, b = _integer_endpoints(p, x, y)
    exact = interval_volume_exact(p, a, b)
    if p.beta == 1:
        ea = math.exp(p.alpha)
        upper = ea * (y - x) * d
        lower = upper - (y * d * (y * d + 1) / 2 - x * d * (x * d + 1) / 2)
        return BoundPair(lower, upper, exact)
    if y != 1.0:
        raise UnsupportedCaseError(
            "for beta < 1 the volume bound is stated only for [x*delta, delta]"
        )
    bb = p.beta
    lower = d * d * ((1 - x ** (2 - bb)) / (2 - bb) - 0.5 + x * x / 2) - d * (
        1 - x ** (1 - bb) - 0.5 + x / 2
    )
    return BoundPair(lower, None, exact)
