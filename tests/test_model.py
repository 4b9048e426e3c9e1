import math
import random

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plg import (
    BoundPair,
    PowerLawParams,
    UnsupportedCaseError,
    degree_count,
    degree_counts,
    interval_size_bounds,
    interval_size_exact,
    interval_volume_bounds,
    interval_volume_exact,
    totals,
    zeta,
)
from plg.errors import InputError, ResourceLimitError
from plg.model import EXACT_SUM_WORK_CAP, exact_sum_work, guarded_ceil, guarded_floor


def direct_counts(alpha: float, beta: float, a: int, b: int) -> np.ndarray:
    """Oracle: evaluate floor(e^alpha / i^beta) term by term in numpy."""
    i = np.arange(a, b + 1, dtype=np.float64)
    v = np.exp(alpha) / i**beta
    c = np.round(v)
    snap = np.abs(v - c) <= 1e-9 * np.maximum(1.0, c)
    return np.where(snap, c, np.floor(v)).astype(np.int64)


def test_counts_alpha2_beta1():
    p = PowerLawParams(2.0, 1.0)
    assert p.delta == 7
    assert list(degree_counts(p)) == [7, 3, 2, 1, 1, 1, 1]


def test_counts_alpha2_beta_half():
    p = PowerLawParams(2.0, 0.5)
    assert p.delta == 54  # floor(e^4)
    assert degree_count(p, 1) == 7  # floor(e^2)


def test_first_count_is_floor_exp_alpha():
    for alpha in (0.5, 1.7, 3.2):
        for beta in (0.4, 1.0, 2.5):
            p = PowerLawParams(alpha, beta)
            assert degree_count(p, 1) == math.floor(math.exp(alpha))


def test_counts_non_increasing():
    for alpha, beta in [(2.0, 0.5), (3.0, 1.0), (4.0, 0.3), (2.5, 0.8)]:
        c = degree_counts(PowerLawParams(alpha, beta))
        assert (np.diff(c) <= 0).all()


def test_delta_boundary_guard():
    # alpha = beta*ln(k) puts e^(alpha/beta) on the integer k exactly.
    for beta in (0.5, 0.8, 1.0):
        for k in (4, 16, 96, 320):
            p = PowerLawParams(beta * math.log(k), beta)
            assert p.delta == k
    assert guarded_floor(3.9999999999) == 4
    assert guarded_ceil(4.0000000001) == 4
    assert guarded_floor(3.9) == 3
    assert guarded_ceil(4.1) == 5


def test_totals_alpha2_beta1():
    t = totals(PowerLawParams(2.0, 1.0))
    assert t.n_exact == 16  # 7+3+2+1+1+1+1
    assert t.n_estimate == pytest.approx(2 * math.exp(2))


def test_totals_alpha2_beta_half():
    # Frozen from the summation oracle: the estimate overshoots the floored
    # model by 26.7% here (floors drop ~ half a unit per tail class).
    t = totals(PowerLawParams(2.0, 0.5))
    assert t.n_exact == 80
    assert t.n_estimate == pytest.approx(math.exp(4) / 0.5)
    rel = abs(t.n_exact - t.n_estimate) / t.n_estimate
    assert rel == pytest.approx(0.2674, abs=1e-3)
    assert rel < 0.3


def test_totals_zeta_case():
    t = totals(PowerLawParams(2.0, 3.0))
    assert t.n_estimate == pytest.approx(scipy.special.zeta(3.0) * math.exp(2), rel=1e-9)
    assert t.n_estimate == pytest.approx(8.882, abs=2e-3)


def test_totals_m_estimates():
    assert totals(PowerLawParams(2.0, 1.0)).m_estimate == pytest.approx(
        0.5 * math.exp(4)
    )
    assert totals(PowerLawParams(2.0, 2.0)).m_estimate == pytest.approx(
        0.25 * 2 * math.exp(2)
    )
    assert totals(PowerLawParams(2.0, 4.0)).m_estimate == pytest.approx(
        0.5 * scipy.special.zeta(3.0) * math.exp(2), rel=1e-9
    )


def test_n_exact_equals_counts_sum():
    for alpha, beta in [(1.0, 0.3), (2.0, 0.5), (3.0, 1.0), (2.0, 2.5)]:
        p = PowerLawParams(alpha, beta)
        assert totals(p).n_exact == int(degree_counts(p).sum())


def test_zeta_against_scipy():
    for s in (1.3, 1.5, 2.0, 3.0, 4.5, 10.0):
        assert zeta(s) == pytest.approx(float(scipy.special.zeta(s)), abs=1e-9)


def test_zeta_requires_s_above_one():
    with pytest.raises(UnsupportedCaseError):
        zeta(1.0)


def test_level_set_sums_match_direct_oracle():
    rng = random.Random(3)
    for _ in range(60):
        alpha = rng.uniform(0.5, 6.0)
        beta = rng.choice([0.3, 0.5, 0.8, 1.0, 1.7])
        p = PowerLawParams(alpha, beta)
        if p.delta > 60_000:
            continue
        a = rng.randint(1, p.delta)
        b = rng.randint(a, p.delta)
        counts = direct_counts(alpha, beta, a, b)
        assert interval_size_exact(p, a, b) == int(counts.sum())
        ii = np.arange(a, b + 1, dtype=np.int64)
        assert interval_volume_exact(p, a, b) == int((ii * counts).sum())


def test_size_bounds_beta_half_upper_is_delta():
    p = PowerLawParams(3.0, 0.5)
    bp = interval_size_bounds(p, 0.25, 1.0)
    assert bp.upper == pytest.approx(p.delta)  # (1/0.5)*(1-0.25^0.5) = 1


def test_size_bounds_beta1_x_equals_y():
    bp = interval_size_bounds(PowerLawParams(2.0, 1.0), 0.4, 0.4)
    assert bp.upper == pytest.approx(0.0)
    assert bp.exact == 0  # empty-width interval


def test_size_bounds_beta1_alpha3():
    # Frozen: exact |(0.2*20, 20]| = sum over i in [5,20] of floor(e^3/i) = 25.
    p = PowerLawParams(3.0, 1.0)
    bp = interval_size_bounds(p, 0.2, 1.0)
    assert bp.exact == 25
    assert bp.upper == pytest.approx(math.exp(3) * math.log(5))
    assert bp.lower == pytest.approx(math.exp(3) * math.log(5) - 0.8 * math.exp(3))
    assert bp.lower - 2 <= bp.exact <= bp.upper + 2


def test_volume_bounds_beta1_formula():
    p = PowerLawParams(3.0, 1.0)
    bp = interval_volume_bounds(p, 0.5, 1.0)
    assert bp.upper == pytest.approx(math.exp(3) * 0.5 * 20)  # 200.855
    assert bp.lower - 2 * p.delta <= bp.exact <= bp.upper + 2 * p.delta


def test_volume_top_degree_single_vertex():
    for alpha, beta in [(3.0, 1.0), (2.0, 0.5)]:
        p = PowerLawParams(alpha, beta)
        if degree_count(p, p.delta) == 1:
            assert interval_volume_exact(p, p.delta, p.delta) == p.delta


def test_volume_bounds_beta_below_one_lower_only():
    p = PowerLawParams(2.0, 0.5)
    bp = interval_volume_bounds(p, 0.3, 1.0)
    assert bp.upper is None
    assert bp.exact >= bp.lower - 2 * p.delta
    with pytest.raises(UnsupportedCaseError):
        interval_volume_bounds(p, 0.3, 0.9)


def test_bounds_reject_beta_above_one():
    with pytest.raises(UnsupportedCaseError):
        interval_size_bounds(PowerLawParams(2.0, 1.5), 0.2, 0.8)


def test_beta_below_one_size_lower_bound_misses_floor_loss():
    # Regression pin for a known defect of the classical bracket: with floored
    # counts the exact size falls far below the stated lower bound.
    p = PowerLawParams(6.0, 0.5)
    bp = interval_size_bounds(p, 0.1, 0.9)
    assert bp.exact == 156424
    assert bp.exact < bp.lower - 2


def test_bound_pair_residuals():
    bp = BoundPair(lower=1.0, upper=5.0, exact=3)
    assert bp.residuals() == (2.0, 2.0)


# -- the level-set exact sums, kept as the oracle for the floor-block split ---


def _count_threshold_level_set(p: PowerLawParams, v: int) -> int:
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


def _interval_size_level_set(p: PowerLawParams, a: int, b: int) -> int:
    """sum(y_i for i in [a, b]), via level-set counting."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return 0
    top = degree_count(p, a)
    total = 0
    for v in range(1, top + 1):
        hi = min(b, _count_threshold_level_set(p, v))
        if hi >= a:
            total += hi - a + 1
    return total


def _interval_volume_level_set(p: PowerLawParams, a: int, b: int) -> int:
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
        hi = min(b, _count_threshold_level_set(p, v))
        total += tri(a, hi)
    return total


def _assert_sums_match_level_sets(p: PowerLawParams, a: int, b: int) -> None:
    assert interval_size_exact(p, a, b) == _interval_size_level_set(p, a, b), (p, a, b)
    assert interval_volume_exact(p, a, b) == _interval_volume_level_set(p, a, b), (p, a, b)


_BETAS = st.one_of(st.sampled_from([0.3, 0.5, 0.75, 0.8, 1.0, 1.3, 2.0]), st.floats(0.25, 3.0))


@st.composite
def _params(draw):
    """(alpha, beta) with at most e^7 levels and delta at most e^23 (the
    oracle walks the snap band of a threshold one degree at a time, about
    5e-9*delta/beta degrees); a third of them put e^(alpha/beta) on an
    integer, as the embedders' parameter searches do."""
    beta = draw(_BETAS)
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(2, min(10**6, int(math.exp(7.0 / beta)))))
        return beta * math.log(k), beta
    return draw(st.floats(0.05, min(7.0, 23.0 * beta))), beta


@settings(max_examples=300, deadline=None)
@given(_params(), st.data())
@example((math.log(7), 1.0), None)
@example((0.5 * math.log(1600), 0.5), None)
@example((7.0, 0.3), None)  # delta = 1.3e10: thresholds inside the snap band
def test_floor_block_sums_match_level_sets(ab, data):
    p = PowerLawParams(*ab)
    d = p.delta
    if data is None:
        ends = [(1, d), (2, d - 1), (d, d), (-3, d + 5)]
    else:
        a = data.draw(st.one_of(st.just(1), st.integers(-2, d + 2)), label="a")
        b = data.draw(st.one_of(st.just(d), st.integers(a - 1, d + 2)), label="b")
        ends = [(a, b)]
    for a, b in ends:
        _assert_sums_match_level_sets(p, a, b)


@pytest.mark.parametrize("beta", [0.5, 0.8])
def test_floor_block_sums_at_sub1_search_points(beta):
    # Every (alpha, beta) choose_params_sub1 tries, over its interval and the
    # whole distribution; alpha starts where e^(alpha/beta) = n/x.
    x = 0.5 ** (1.0 / (1.0 - beta))
    for n in (2, 10, 38, 120, 200):
        alpha = beta * math.log(n / x)
        for _ in range(4):
            p = PowerLawParams(alpha, beta)
            a_x = max(1, guarded_ceil(x * p.delta))
            for a, b in ((a_x, p.delta), (1, p.delta), (1, a_x - 1)):
                _assert_sums_match_level_sets(p, a, b)
            alpha += beta * math.log1p(1.0 / n)


def test_floor_block_sums_at_beta1_search_points():
    # choose_params_beta1, embed_beta1's slot search, steps alpha from
    # ln(n_d), where e^alpha = n_d, by ln(1 + 1/n_d).
    from plg.embed_beta1 import Beta1Params, layered_is_bound

    for n_d in (5, 16, 64, 256, 1000, 3000):
        for t in sorted({0, 1, 2, 3, 7, 40, 300} & set(range(n_d // 2 + 1))):
            params = Beta1Params(float(n_d), t)
            p = PowerLawParams(params.alpha, 1.0)
            for a, b in ((params.a_x, params.delta), (1, params.delta), (1, params.a_x - 1)):
                _assert_sums_match_level_sets(p, a, b)
            for lo, hi, _term in layered_is_bound(params).layers:
                _assert_sums_match_level_sets(p, lo, hi)


@settings(max_examples=200, deadline=None)
@given(_params(), st.data())
def test_count_threshold_matches_level_set_search(ab, data):
    from plg.model import _count_threshold

    p = PowerLawParams(*ab)
    top = degree_count(p, 1)
    levels = data.draw(st.lists(st.integers(1, top + 2), min_size=1, max_size=40), label="levels")
    hi = data.draw(st.integers(0, p.delta), label="hi")
    got = _count_threshold(p, np.array(levels, dtype=np.int64), hi)
    assert got.tolist() == [min(hi, _count_threshold_level_set(p, v)) for v in levels]


@pytest.mark.parametrize("alpha, beta", [(3.0, math.inf), (math.inf, 1.0), (math.inf, math.inf)])
def test_params_refuse_non_finite(alpha, beta):
    with pytest.raises(InputError, match="finite"):
        PowerLawParams(alpha, beta)


def test_exact_sum_limits_refuse_before_work():
    with pytest.raises(InputError, match="overflows"):
        PowerLawParams(800.0, 1.0)
    with pytest.raises(InputError, match="overflows"):
        PowerLawParams(800.0, 2.0)  # e^800 itself
    p = PowerLawParams(36.0, 1.0)  # 2*e^18 terms, delta = e^36 < 2^53
    assert exact_sum_work(p, 1, p.delta) > EXACT_SUM_WORK_CAP
    with pytest.raises(ResourceLimitError, match="floored terms"):
        interval_size_exact(p, 1, p.delta)
    with pytest.raises(ResourceLimitError, match="floored terms"):
        totals(p)
    # A short interval near delta has a single level and is summed.
    assert exact_sum_work(p, p.delta - 3, p.delta) == 1
    _assert_sums_match_level_sets(p, p.delta - 3, p.delta)
    p = PowerLawParams(12.0, 0.25)  # delta = e^48
    with pytest.raises(ResourceLimitError, match="2\\^53"):
        interval_volume_exact(p, 1, p.delta)
    assert interval_volume_exact(p, 1, 5) == int((np.arange(1, 6) * direct_counts(12.0, 0.25, 1, 5)).sum())
