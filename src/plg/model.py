"""Exact and closed-form calculators for (alpha, beta) power-law degree distributions.

The distribution has y_i = floor(e^alpha / i^beta) vertices of degree i for
i = 1..Delta, Delta = floor(e^(alpha/beta)).  Exact interval sums over [a, b]
use the Dirichlet-hyperbola split at T = ceil(e^(alpha/(1+beta))), clipped to
[a-1, b]: the terms i <= T are summed directly in numpy blocks, and the terms
i > T, all at most y_(T+1), are summed by level sets: level v counts the
degrees in [T+1, b] with y_i >= v, whose last one a vectorised threshold
search finds.  That is O(e^(alpha/(1+beta))) numpy work and no Python step
per level; calls whose work passes ``EXACT_SUM_WORK_CAP`` are refused before
any of it.  The level-set loop over every level (O(e^alpha) Python steps) and
a direct numpy summation serve as test oracles for this path.

Floating-point boundary rule used throughout: whenever a quantity that should
be floored lies within 1e-9 (relative) of an integer, it is snapped to that
integer before flooring.  Embedding parameter choices intentionally place
e^(alpha/beta) on integers, so the guard is load-bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError, UnsupportedCaseError

_SNAP_TOL = 1e-9
_ZETA_TOL = 1e-9  # the bound on |R| that ``zeta`` sums to
# Terms or levels per numpy block in the exact sums.
_CHUNK = 1 << 20
# Floored terms one exact interval sum may evaluate (direct terms plus
# levels); a sum at the cap takes a few seconds.
EXACT_SUM_WORK_CAP = 50_000_000
# Degrees and counts in the exact sums must be exact in float64.  (Their int64
# sums split them into 31-bit limbs, which needs them below 2^62.)
_INDEX_LIMIT = 1 << 53
_LIMB = 31
_LIMB_MASK = (1 << _LIMB) - 1


def guarded_floor(value: float) -> int:
    """floor() that snaps values within 1e-9 (relative) of an integer."""
    c = round(value)
    if abs(value - c) <= _SNAP_TOL * max(1.0, abs(c)):
        return int(c)
    return int(math.floor(value))


def guarded_ceil(value: float) -> int:
    """ceil() that snaps values within 1e-9 (relative) of an integer."""
    return -guarded_floor(-value)


@dataclass(frozen=True)
class PowerLawParams:
    """The pair (alpha, beta) with the derived maximum degree delta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise InputError("alpha and beta must be positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InputError("alpha and beta must be finite")
        try:
            finite = math.isfinite(math.exp(max(self.alpha, self.alpha / self.beta)))
        except OverflowError:
            finite = False
        if not finite:
            raise InputError(
                f"e^(alpha/beta) overflows a float at alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def delta(self) -> int:
        return guarded_floor(math.exp(self.alpha / self.beta))


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
    return int(_floored_at(p, np.float64(i)))


def _floored_at(p: PowerLawParams, i: np.ndarray) -> np.ndarray:
    """y_i as int64 by the snap rule, for float64 degrees >= 1 (an array or
    a scalar): the one floored count kernel.  A count past int64, which
    needs e^alpha >= 2^63, raises ``ResourceLimitError`` before the cast."""
    v = math.exp(p.alpha) / i**p.beta
    c = np.round(v)
    snapped = np.abs(v - c) <= _SNAP_TOL * np.maximum(1.0, np.abs(c))
    y = np.where(snapped, c, np.floor(v))
    if math.exp(p.alpha) >= 2.0**63 and np.max(y, initial=0.0) >= 2.0**63:
        raise ResourceLimitError(f"degree counts at alpha={p.alpha}, beta={p.beta} reach 2^63 or more")
    return y.astype(np.int64)


def _floored_counts(p: PowerLawParams, lo: int, hi: int) -> np.ndarray:
    """(y_lo, ..., y_hi) as int64 by the snap rule, for lo >= 1; empty when
    lo > hi."""
    return _floored_at(p, np.arange(lo, hi + 1, dtype=np.float64))


def degree_counts(p: PowerLawParams) -> np.ndarray:
    """The full vector (y_1, ..., y_delta)."""
    return _floored_counts(p, 1, p.delta)


def _count_threshold(p: PowerLawParams, v: np.ndarray, hi: int) -> np.ndarray:
    """Largest i <= hi with y_i >= v for each level of the int64 array v >= 1
    (0 where there is none).

    By the snap rule y_i >= v exactly when e^alpha / i^beta >= v - 1e-9*v,
    so the start is the floor of (e^alpha / (v - 1e-9*v))^(1/beta); passes
    of -1 steps while y_t < v, then of +1 steps while y_(t+1) >= v, correct
    its rounding against the floored counts themselves.  Each pass works on
    the levels the previous one moved.
    """
    guess = (math.exp(p.alpha) / (v - _SNAP_TOL * v)) ** (1.0 / p.beta)
    t = np.minimum(np.floor(np.minimum(guess, float(hi))).astype(np.int64), hi)
    live = np.flatnonzero(t >= 1)
    while len(live):
        live = live[_floored_at(p, t[live].astype(np.float64)) < v[live]]
        t[live] -= 1
        live = live[t[live] >= 1]
    live = np.flatnonzero(t < hi)
    while len(live):
        live = live[_floored_at(p, (t[live] + 1).astype(np.float64)) >= v[live]]
        t[live] += 1
        live = live[t[live] < hi]
    return t


def _exact_sum(x: np.ndarray) -> int:
    """Exact sum of an int64 array with entries in [0, 2^63) and fewer than
    2^31 of them: 31-bit limbs keep every partial sum inside int64."""
    return (int((x >> _LIMB).sum()) << _LIMB) + int((x & _LIMB_MASK).sum())


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum of x*y for int64 arrays with entries in [0, 2^62)."""
    total = 0
    for xs in (x >> _LIMB, x & _LIMB_MASK):  # each below 2^31
        part = (_exact_sum(xs * (y >> _LIMB)) << _LIMB) + _exact_sum(xs * (y & _LIMB_MASK))
        total = (total << _LIMB) + part
    return total


def _floor_block_split(p: PowerLawParams, a: int, b: int) -> int:
    """The split T = ceil(e^(alpha/(1+beta))) clipped to [a-1, b]: degrees
    up to T are summed directly, the rest by their y_(T+1) levels."""
    return min(max(guarded_ceil(math.exp(p.alpha / (1 + p.beta))), a - 1), b)


def exact_sum_work(p: PowerLawParams, a: int, b: int) -> int:
    """Floored terms an exact sum over [a, b] evaluates: T - a + 1 direct
    terms plus y_(T+1) levels."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0
    t = _floor_block_split(p, a, b)
    return t - a + 1 + (degree_count(p, t + 1) if t < b else 0)


def _floor_block_sum(p: PowerLawParams, a: int, b: int, volume: bool) -> int:
    """sum(y_i) or, with ``volume``, sum(i * y_i) over i in [a, b].

    Raises ``ResourceLimitError`` before any work when the sum needs more than
    ``EXACT_SUM_WORK_CAP`` floored terms, or degrees or counts of 2^53 or
    more (beyond float64's integers).
    """
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0
    if b >= _INDEX_LIMIT or degree_count(p, a) >= _INDEX_LIMIT:
        raise ResourceLimitError(
            f"exact sum over [{a}, {b}] at alpha={p.alpha}, beta={p.beta} "
            f"needs degrees or counts of 2^53 or more"
        )
    work = exact_sum_work(p, a, b)
    if work > EXACT_SUM_WORK_CAP:
        raise ResourceLimitError(
            f"exact sum over [{a}, {b}] at alpha={p.alpha}, beta={p.beta} "
            f"needs {work} floored terms (cap {EXACT_SUM_WORK_CAP})"
        )
    t = _floor_block_split(p, a, b)
    total = 0
    for lo in range(a, t + 1, _CHUNK):
        hi = min(t, lo + _CHUNK - 1)
        y = _floored_counts(p, lo, hi)
        total += _exact_dot(np.arange(lo, hi + 1, dtype=np.int64), y) if volume else _exact_sum(y)
    # Degree i > T has y_i <= y_(T+1); level v counts the degrees in
    # [T+1, h_v], h_v the last i <= b with y_i >= v, which is at least T+1.
    levels = degree_count(p, t + 1) if t < b else 0
    for lo in range(1, levels + 1, _CHUNK):
        v = np.arange(lo, min(levels, lo + _CHUNK - 1) + 1, dtype=np.int64)
        h = _count_threshold(p, v, b)
        if volume:  # sum over levels of (T+1) + ... + h_v
            total += (_exact_dot(h, h) + _exact_sum(h) - len(v) * t * (t + 1)) // 2
        else:
            total += _exact_sum(h) - len(v) * t
    return total


def interval_size_exact(p: PowerLawParams, a: int, b: int) -> int:
    """sum(y_i for i in [a, b]), by the floor-block split."""
    return _floor_block_sum(p, a, b, volume=False)


def interval_volume_exact(p: PowerLawParams, a: int, b: int) -> int:
    """sum(i * y_i for i in [a, b]), by the floor-block split."""
    return _floor_block_sum(p, a, b, volume=True)


def cover_ceiling_sum(p: PowerLawParams, a: int, b: int) -> int:
    """sum(ceil(y_i / i) for i in [a, b]): cliques needed to cover each degree
    class separately."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0
    total = 0
    for lo in range(a, b + 1, _CHUNK):
        hi = min(b, lo + _CHUNK - 1)
        y = _floored_counts(p, lo, hi)
        ii = np.arange(lo, hi + 1, dtype=np.int64)
        total += int(((y + ii - 1) // ii).sum())
    return total


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 by direct series with an Euler-Maclaurin tail.

    zeta(s) = sum_{i<=N} i^-s + N^(1-s)/(s-1) - N^-s/2 + s*N^-(s+1)/12 - R,
    |R| <= |s(s+1)(s+2)| * N^-(s+3) / 720, N doubled from 10 until <= _ZETA_TOL.
    """
    if s <= 1:
        raise UnsupportedCaseError("zeta series requires s > 1")
    n = 10
    while True:
        rem = abs(s * (s + 1) * (s + 2)) * n ** -(s + 3) / 720.0
        if rem <= _ZETA_TOL:
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
