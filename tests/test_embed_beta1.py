import hashlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plg import (
    Beta1Params,
    InputError,
    InternalError,
    MultiGraph,
    PowerLawParams,
    ResourceLimitError,
    alon_interval,
    choose_k,
    choose_params_beta1,
    clique_cover,
    count_walks_within,
    degree_one_heuristic,
    embed_beta1,
    exact_mis,
    gap_ratio,
    interval_degree_sequence,
    interval_size_exact,
    is_independent,
    layered_is_bound,
    random_regular_expander,
    realize,
    verify_embedding,
    walk_product,
)
from plg._assembly import assign_pair_slots, double_with_pairs, first_fit
from plg.embed_beta1 import (
    WALK_PAIR_CAP,
    WALK_VERTEX_CAP,
    ExpanderCertificate,
    WalkProduct,
    _seat_floor,
    _seat_pairs,
    check_walk_caps,
    walk_block,
)

from conftest import brute_mis, random_simple_graph, reference_mis


def power_iteration_lambda(g, d, iters=6000):
    """Independent oracle for max(|nontrivial eigenvalue|) of A/d: deflate the
    all-ones eigenvector and power-iterate."""
    n = g.vertex_count
    a = np.zeros((n, n))
    for (u, v), m in g.edge_dict().items():
        a[u, v] += m
        a[v, u] += m
    t = a / d
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    ones = np.ones(n) / math.sqrt(n)
    x -= x @ ones * ones
    for _ in range(iters):
        x = t @ x
        x -= x @ ones * ones
        norm = np.linalg.norm(x)
        if norm < 1e-300:
            return 0.0
        x /= norm
    return float(abs(x @ (t @ x)))


# -- expander -----------------------------------------------------------------


def test_expander_complete_graph_fallback():
    for d in (3, 4, 6):
        cert = random_regular_expander(d + 1, d, seed=0)
        assert cert.lam == pytest.approx(1.0 / d)
        assert cert.passes  # 1/d <= 2*sqrt(d-1)/d for d >= 2
        assert sorted(cert.graph.degrees()) == [d] * (d + 1)


def test_expander_rejects_degree_two():
    with pytest.raises(InputError):
        random_regular_expander(10, 2, seed=0)
    with pytest.raises(InputError):
        random_regular_expander(4, 5, seed=0)
    with pytest.raises(InputError):
        random_regular_expander(5, 3, seed=0)  # n*d odd


def test_expander_regular_and_consistent():
    cert = random_regular_expander(20, 4, seed=7)
    assert sorted(cert.graph.degrees()) == [4] * 20
    assert cert.graph.is_simple()
    lam_oracle = power_iteration_lambda(cert.graph, 4)
    assert cert.lam == pytest.approx(lam_oracle, abs=1e-6)
    assert cert.bound == pytest.approx(2 * math.sqrt(3) / 4)


def test_expander_deterministic():
    a = random_regular_expander(16, 4, seed=3)
    b = random_regular_expander(16, 4, seed=3)
    assert a.graph == b.graph
    assert a.lam == b.lam


def test_expander_dense_degrees():
    # naive whole-draw rejection has acceptance ~e^(-8.75) at d=6; the stub
    # repair loop must handle these without exhausting its attempts
    for n, d, seed in [(30, 6, 9), (50, 8, 0), (100, 10, 1)]:
        cert = random_regular_expander(n, d, seed)
        assert sorted(cert.graph.degrees()) == [d] * n
        assert cert.graph.is_simple()


# -- walk product ---------------------------------------------------------------


def test_walk_product_k1_is_base(c5):
    h = random_regular_expander(5, 4, seed=1)
    wp = walk_product(c5, h, 1)
    assert wp.n_d == 5
    assert brute_mis(wp.product) == brute_mis(c5)


def test_walk_product_empty_base():
    h = random_regular_expander(5, 4, seed=1)
    wp = walk_product(MultiGraph(5), h, 2)
    assert wp.n_d == 20
    assert wp.product.distinct_edge_count() == 0
    assert brute_mis(wp.product) == 20


def test_walk_product_complete_base():
    h = random_regular_expander(5, 4, seed=1)
    k5 = MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    wp = walk_product(k5, h, 2)
    # every length-2 walk uses two adjacent-in-K5 vertices: all self-looped
    assert all(wp.product.has_loop(v) for v in range(20))
    assert brute_mis(wp.product) == 0


def test_walk_product_edge_rule_symmetric_loops(c5):
    h = random_regular_expander(5, 4, seed=1)
    wp = walk_product(c5, h, 2)
    loops = [v for v in range(wp.n_d) if wp.product.has_loop(v)]
    # exactly the walks along C5 edges are self-dependent: 10 of 20
    assert len(loops) == 10
    for v in loops:
        w = wp.walks[v]
        assert w[1] in c5.adjacency_sets()[w[0]]


def test_walk_product_cap():
    # 5 * 4^8 = 327,680 walks pass WALK_VERTEX_CAP.
    h = random_regular_expander(5, 4, seed=1)
    with pytest.raises(ResourceLimitError, match="327680 vertices"):
        walk_product(MultiGraph(5), h, 9)


def test_walk_product_pair_cap():
    # A 2000-vertex circulant stands in for the expander, so no 2000x2000
    # spectrum is computed: 32,000 walks pass the vertex cap, but their
    # 511,984,000 pairs exceed the pair cap before any walk is enumerated.
    n = 2000
    ring = MultiGraph(n, [(i, (i + s) % n) for i in range(n) for s in (1, 2)])
    h = ExpanderCertificate(ring, 4, 0.5, 0.5, -0.5, math.sqrt(3) / 2, True, 0, 0)
    with pytest.raises(ResourceLimitError, match="walk pairs"):
        walk_product(MultiGraph(n), h, 3)


def test_walk_product_edge_rule_exact(c5):
    h = random_regular_expander(5, 4, seed=1)
    wp = walk_product(c5, h, 2)
    adj = c5.adjacency_sets()
    for i in range(wp.n_d):
        for j in range(i + 1, wp.n_d):
            union = set(wp.walks[i]) | set(wp.walks[j])
            dependent = any(u in adj[v] for u in union for v in union)
            assert (wp.product.multiplicity(i, j) > 0) == dependent, (i, j)


def _walk_product_reference(
    g: MultiGraph, h: ExpanderCertificate, k: int, cap: int = WALK_VERTEX_CAP
) -> WalkProduct:
    """The walk product as first written (depth-first walk enumeration, the
    edge rule tested on the union bitset of every pair of walks), kept as the
    oracle for the W·A·Wᵀ kernel."""
    if not g.is_simple():
        raise InputError("walk products are defined for simple base graphs")
    if g.vertex_count != h.graph.vertex_count:
        raise InputError("base graph and expander must share a vertex set")
    if k < 1:
        raise InputError("k must be >= 1")
    n = g.vertex_count
    count = n * h.d ** (k - 1)
    if count > cap:
        raise ResourceLimitError(
            f"walk product would have {count} vertices (cap {cap})"
        )
    pairs = count * (count - 1) // 2
    if pairs > WALK_PAIR_CAP:
        raise ResourceLimitError(
            f"walk product would test {pairs} walk pairs (cap {WALK_PAIR_CAP})"
        )
    nbrs = [sorted(s) for s in h.graph.adjacency_sets()]
    walks: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [(v,) for v in range(n - 1, -1, -1)]
    while stack:
        w = stack.pop()
        if len(w) == k:
            walks.append(w)
            continue
        for u in reversed(nbrs[w[-1]]):
            stack.append(w + (u,))
    if len(walks) != count:
        raise InternalError("walk enumeration does not match n*d^(k-1)")

    gadj = [0] * n
    for (u, v), _m in g.edge_dict().items():
        if u != v:
            gadj[u] |= 1 << v
            gadj[v] |= 1 << u

    def dependent(mask: int) -> bool:
        m = mask
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            if gadj[v] & mask:
                return True
            m ^= lsb
        return False

    masks = []
    for w in walks:
        mask = 0
        for v in w:
            mask |= 1 << v
        masks.append(mask)

    edges: dict[tuple[int, int], int] = {}
    for i in range(count):
        if dependent(masks[i]):
            edges[(i, i)] = 1
        for j in range(i + 1, count):
            if dependent(masks[i] | masks[j]):
                edges[(i, j)] = 1
    return WalkProduct(g, h, k, walks, MultiGraph(count, edges))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 4, 5]),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 6),
    st.sampled_from(["empty", "complete", "random"]),
    st.floats(0, 1),
    st.integers(0, 2**16),
)
@example(3, 3, 0, "empty", 0.0, 0)
@example(5, 3, 4, "complete", 0.0, 1)
@example(4, 2, 1, "random", 0.3, 2)
def test_walk_product_matches_pair_loop(d, k, extra, base, p, seed):
    # n runs from d + 1 (the K_{d+1} fallback) upwards, kept even for odd d.
    n = d + 1 + extra
    if (n * d) % 2:
        n += 1
    if base == "empty":
        g = MultiGraph(n)
    elif base == "complete":
        g = MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    else:
        g = random_simple_graph(random.Random(seed), n, p)
    h = random_regular_expander(n, d, seed)
    got = walk_product(g, h, k)
    want = _walk_product_reference(g, h, k)
    assert list(map(tuple, got.walks.tolist())) == want.walks
    assert got.product == want.product


def test_walk_product_irregular_walk_graph():
    # Walks follow each vertex's own neighbours in ascending order; degrees
    # 3, 1, 2, 2 still give the n*d^(k-1) = 8 walks the count check expects.
    h = ExpanderCertificate(MultiGraph(4, [(0, 1), (0, 2), (0, 3), (2, 3)]), 2, 0.5, 0.5, -0.5, 1.0, True, 0, 0)
    for g in (MultiGraph(4, [(0, 1)]), MultiGraph(4, [(1, 3), (2, 3)])):
        got, want = walk_product(g, h, 2), _walk_product_reference(g, h, 2)
        assert list(map(tuple, got.walks.tolist())) == want.walks == [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (2, 3), (3, 0), (3, 2)]
        assert got.product == want.product


def test_walk_product_row_blocks(monkeypatch, c5):
    # Blocks of a few rows give the same product as one block.
    h = random_regular_expander(5, 4, seed=1)
    want = _walk_product_reference(c5, h, 3)
    for entries in (1, 7, 80):
        monkeypatch.setattr(sys.modules["plg.embed_beta1"], "_ROW_BLOCK_ENTRIES", entries)
        assert walk_product(c5, h, 3).product == want.product


def test_walk_caps_refuse_before_the_expander():
    assert check_walk_caps(64, 4, 2) == 256
    with pytest.raises(ResourceLimitError, match="walk pairs"):
        check_walk_caps(20_000, 4, 2)
    with pytest.raises(ResourceLimitError, match="vertices"):
        check_walk_caps(68_719_476_736, 4, 2)
    with pytest.raises(InputError):
        check_walk_caps(5, 4, 0)
    with pytest.raises(ResourceLimitError, match="vertices"):
        check_walk_caps(5, 4, 10**12)  # refused without forming 4^(10^12 - 1)
    assert check_walk_caps(5, 1, 10**12) == 5
    # An expander no walk product could use is refused before any draw.
    with pytest.raises(ResourceLimitError, match="cap"):
        random_regular_expander(20_000, 4, seed=1)
    with pytest.raises(ResourceLimitError, match="cap"):
        embed_beta1(MultiGraph(20_000, [(i, i + 1) for i in range(19_999)]), 4, seed=1)


def test_walk_caps_refuse_non_integer_k():
    with pytest.raises(InputError, match="k must be an integer"):
        check_walk_caps(5, 4, 2.5)
    assert check_walk_caps(5, 4, np.int64(2)) == 20
    # isinstance takes a bool for an int, but True is no count or seed.
    for n, d, k, name in [(True, 4, 2, "n"), (5, True, 2, "d"), (5, 4, True, "k")]:
        with pytest.raises(InputError, match=f"{name} must be an integer, got True"):
            check_walk_caps(n, d, k)
    with pytest.raises(InputError, match="seed must be a non-negative integer, got True"):
        random_regular_expander(5, 4, True)


@pytest.mark.parametrize("least", [0, 1, 2, 3, 5, 17, 64])
def test_first_fit_returns_least_fit(least):
    calls = []

    def trial(t):
        calls.append(t)
        return t if t >= least else None

    assert first_fit(trial, 64) == least
    assert len(calls) <= 2 * max(1, least).bit_length() + 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_first_fit_from_any_start_at_or_below_the_least(least, start, limit):
    # A monotone trial gives the same least t from every start up to it,
    # in a number of trials that grows with the distance from the start.
    calls = []

    def trial(t):
        calls.append(t)
        return t if t >= least else None

    start = min(start, least, limit)
    if least > limit:
        with pytest.raises(InternalError):
            first_fit(trial, limit, start)
    else:
        assert first_fit(trial, limit, start) == least
        assert len(calls) <= 2 * max(1, least - start).bit_length() + 1
        assert first_fit(trial, limit) == least


def test_first_fit_raises_past_limit():
    with pytest.raises(InternalError, match="within 64 steps"):
        first_fit(lambda t: t if t > 64 else None, 64)
    with pytest.raises(InternalError):
        first_fit(lambda t: None, 0)
    assert first_fit(lambda t: t if t == 64 else None, 64) == 64


def test_walk_count_dp(c5):
    h = random_regular_expander(5, 4, seed=1)
    wp = walk_product(c5, h, 2)
    s = [0, 2]  # independent in C5
    confined = [i for i, w in enumerate(wp.walks) if set(w) <= set(s)]
    assert count_walks_within(h, s, 2) == len(confined) == 2
    assert count_walks_within(h, [], 2) == 0
    assert count_walks_within(h, [0], 2) == 0  # K5 has no loops


# -- parameter selection --------------------------------------------------------


def test_choose_k_example():
    kw = choose_k(2**16, 4)
    assert kw.k_l == pytest.approx(math.log(math.log(2**16)) / (3 * math.log(4)))
    assert kw.k_u == pytest.approx(math.log(math.log(2**16)) / math.log(4))
    assert kw.k == 1
    assert kw.delta_k == 3.0


def test_choose_k_large_n_window():
    kw = choose_k(10**100, 8)
    assert not kw.window_empty
    assert kw.k_l < kw.k < kw.k_u + 1
    # the design bound tracks ln(n) within a factor of 4
    assert kw.delta_k <= 4 * math.log(10**100)
    assert 4 * kw.delta_k >= math.log(10**100)


def test_choose_k_needs_16():
    with pytest.raises(InputError):
        choose_k(5, 4)


def _least_seating(doubled):
    """``choose_params_beta1(doubled)``, checked: conditions (I) and (II)
    hold at its bump, every pair is seated, and the bump before it, if any,
    seats none."""
    params, (targets, leftover) = choose_params_beta1(doubled)
    n_d = doubled.vertex_count // 2
    p = PowerLawParams(params.alpha, 1.0)
    assert params.a_x >= math.log(n_d) - 1e-9  # condition (II)
    assert interval_size_exact(p, params.a_x, params.delta) >= n_d  # condition (I)
    assert len(targets) == n_d and (targets[:, 0] >= doubled.degrees()[0::2]).all()
    assert len(leftover) + 2 * n_d == interval_size_exact(p, params.a_x, params.delta)
    if params.bumps:
        assert _seat_pairs(doubled, params.bumps - 1) is None
    return params


def test_choose_params_nd20():
    bp = Beta1Params(20, 0)
    assert bp.alpha == pytest.approx(math.log(20))
    assert bp.delta == 20  # boundary guard snaps e^(ln 20)
    assert bp.x == pytest.approx(math.log(20) / 20)
    # |[3, 20]| = 36 slots cannot seat 20 pairs, so the search bumps.
    assert _least_seating(double_with_pairs(MultiGraph(20))).bumps > 0
    g = random_simple_graph(random.Random(20), 20, 0.3)
    _least_seating(walk_block(g, 4, 5, 1).doubled())


def test_choose_params_small():
    # |[2,3]| = 2 < 3 at alpha = ln 3: condition (I) fails, so it must bump.
    assert _least_seating(double_with_pairs(MultiGraph(3))).bumps > 0


# -- estimators -----------------------------------------------------------------


def test_layered_bound_alpha4():
    bp = Beta1Params(math.exp(4.0), 0)
    assert bp.alpha == 4.0
    assert bp.h == pytest.approx(math.sqrt(math.exp(4) / 4))
    assert bp.L == 4
    lb = layered_is_bound(bp)
    # frozen: layers [4,14] -> ceil(71/4) = 18, [15,53] -> ceil(57/15) = 4,
    # [54,54] -> 1, rest empty
    assert lb.exact == 23
    assert lb.naive == 32
    assert lb.exact < lb.naive


def test_layered_degenerates_at_l1():
    bp = Beta1Params(math.exp(1.0), 0)
    assert bp.L == 1
    lb = layered_is_bound(bp)
    assert lb.exact == lb.naive


def test_layered_sweep_dominance():
    for alpha in (4.0, 5.0, 6.0, 7.0, 8.0):
        bp = Beta1Params(math.exp(alpha), 0)
        assert bp.alpha == alpha
        lb = layered_is_bound(bp)
        assert lb.exact <= 5 * math.exp(alpha) / alpha
        assert lb.exact < lb.naive
        # both estimates dominate the realized cover of the same interval
        p = PowerLawParams(alpha, 1.0)
        cert = clique_cover(interval_degree_sequence(p, bp.a_x, p.delta))
        assert cert.size <= lb.exact <= lb.naive


def test_ratio_limit_identity():
    # (alpha/e^alpha)^(1/alpha) = e^-1 * e^(ln(alpha)/alpha) exactly
    alpha = 32.0
    val = (alpha / math.exp(alpha)) ** (1 / alpha)
    ref = math.exp(-1) * math.exp(math.log(alpha) / alpha)
    assert val == pytest.approx(ref, abs=1e-12)
    assert abs(val - ref) < 0.05


def test_alon_interval_k1_collapses():
    assert alon_interval(3, 10, 4, 0.5, -0.5, 1) == (3.0, 3.0)


def test_alon_interval_edgeless():
    lo, hi = alon_interval(5, 5, 4, -0.25, -0.25, 2)
    assert hi == pytest.approx(20.0)  # ratio 1 kills the lambda term
    assert lo == pytest.approx(20.0)


def test_alon_interval_clamps_negative():
    lo, _hi = alon_interval(1, 10, 3, 0.2, -0.9, 2)
    assert lo == 0.0
    # The base 0.1 - 0.9 * 0.9 < 0 is clamped before the even power k - 1 = 2.
    assert alon_interval(1, 10, 3, 0.2, -0.9, 3)[0] == 0.0


def test_alon_lower_end_below_product_independence_number():
    # G(40, 0.5) at d = 4, seed 3, k = 3: alpha(G) = 8 and lambda_min = -0.84,
    # so the base r + lambda_min*(1 - r) is negative; unclamped, its square
    # gave alon_lo = 28.4 against alpha(D) = 12.
    rng = random.Random(4)
    g = MultiGraph(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.5])
    _, rep = embed_beta1(g, 4, seed=3, k=3)
    dgraph = walk_product(g, random_regular_expander(40, 4, seed=3), 3).product
    res = exact_mis(dgraph)
    assert is_independent(dgraph, res.witness) and len(res.witness) == res.size
    assert res.optimal and res.size == reference_mis(dgraph) == 12
    assert rep["extras"]["is_g"] == 8
    assert rep["bounds"]["alon_lo"] <= res.size <= rep["bounds"]["alon_hi"]


def test_alon_interval_contains_bruteforce(c5):
    h = random_regular_expander(5, 4, seed=1)
    wp = walk_product(c5, h, 2)
    a = brute_mis(wp.product)
    lo, hi = alon_interval(2, 5, 4, h.lambda_1, h.lambda_min, 2)
    assert lo - 1e-9 <= a <= hi + 1e-9


def test_gap_ratio_k1():
    assert gap_ratio(0.2, 0.6, 0.0, 1).ratio == pytest.approx(3.0)


def test_gap_ratio_example():
    gr = gap_ratio(0.2, 0.6, 0.05, 3)
    assert gr.ratio == pytest.approx(3 * (0.55 / 0.25) ** 2)
    assert gr.ratio == pytest.approx(14.52)


def test_gap_ratio_min_degree():
    assert gap_ratio(0.2, 0.6, 0.0, 1).min_expander_degree == pytest.approx(100.0)


def test_gap_ratio_validation():
    with pytest.raises(InputError):
        gap_ratio(0.6, 0.2, 0.0, 2)
    with pytest.raises(InputError):
        gap_ratio(0.2, 0.6, 0.7, 2)  # b - eps2 <= 0


# -- heuristic ------------------------------------------------------------------


def test_heuristic_matching():
    t = 6
    g = MultiGraph(2 * t, [(2 * i, 2 * i + 1) for i in range(t)])
    got = degree_one_heuristic(g)
    assert len(got) == t
    assert is_independent(g, got)


def test_heuristic_star():
    t = 5
    g = MultiGraph(t + 1, [(0, i) for i in range(1, t + 1)])
    got = degree_one_heuristic(g)
    assert len(got) == t  # all leaves
    assert is_independent(g, got)


def test_heuristic_on_realized_plg():
    p = PowerLawParams(3.0, 1.0)
    g, _ = realize(interval_degree_sequence(p, 1, p.delta))
    got = degree_one_heuristic(g)
    assert is_independent(g, got)
    assert len(got) >= math.floor(math.exp(3)) // 2  # >= 10


def _sparse(n: int) -> MultiGraph:
    """The n-cycle plus chords drawn by ``random.Random(n)``: 2n edges."""
    rng = random.Random(n)
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while len(edges) < 2 * n:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return MultiGraph(n, sorted(edges))


_LEMMA_INPUTS = {
    "c5": MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "sparse12": _sparse(12),
    "sparse16": _sparse(16),
}


@pytest.mark.parametrize("name, k", [("c5", 1), ("c5", 2), ("sparse12", 2), ("sparse16", 2)])
def test_degree_one_lemma_on_beta1_outputs(name, k):
    # Every multigraph with y_1 degree-1 vertices has an independent set of
    # at least y_1 / 2 of them (``degree_one_heuristic``), and a beta = 1
    # output's class 1 holds y_1 = floor(e^alpha) = delta vertices, so its
    # alpha is at least delta / 2.  The 35-vertex C5 output at k = 1 is
    # solved exactly.
    graph = _LEMMA_INPUTS[name]
    g, rep = embed_beta1(graph, d=4, seed=3, k=k)
    got = degree_one_heuristic(g)
    assert is_independent(g, got)
    assert 2 * len(got) >= rep["params"]["delta"]
    if g.vertex_count <= 40:
        res = exact_mis(g)
        assert res.optimal and len(got) <= res.size and 2 * res.size >= rep["params"]["delta"]


# -- the embedding ----------------------------------------------------------------


def test_embed_beta1_c5(c5):
    g, rep = embed_beta1(c5, d=4, seed=3, k=2)
    assert len(rep["parity_deficits"]) <= 2
    assert rep["extras"]["n_d"] == 20
    # exact independence number of the product sits in the spectral bracket
    lo, hi = rep["bounds"]["alon_lo"], rep["bounds"]["alon_hi"]
    assert lo - 1e-9 <= 2 <= hi + 1e-9
    assert is_independent(g, rep["witness"])
    assert verify_embedding(g, rep, c5)["ok"]
    # embedded walk vertices carry no self-loops
    for v in range(2 * rep["extras"]["n_d"]):
        assert not g.has_loop(v)


def test_embed_beta1_isolated():
    e5 = MultiGraph(5)
    g, rep = embed_beta1(e5, d=4, seed=3, k=2)
    assert len(rep["witness"]) == 20  # product is edgeless
    assert verify_embedding(g, rep, e5)["ok"]


def test_embed_beta1_complete():
    k5 = MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    g, rep = embed_beta1(k5, d=4, seed=3, k=2)
    assert rep["witness"] == []  # no walk stays inside a single vertex
    assert verify_embedding(g, rep, k5)["ok"]


def test_embed_beta1_deterministic(c5):
    g1, r1 = embed_beta1(c5, d=4, seed=5, k=2)
    g2, r2 = embed_beta1(c5, d=4, seed=5, k=2)
    assert g1 == g2
    assert r1 == r2


def test_embed_beta1_k3_dense_product():
    # 144 walks with 76 pairs stuck at the same top degree: finding alpha
    # needs far more than 64 unit bumps, exercising the step search
    g0 = MultiGraph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])
    g, rep = embed_beta1(g0, d=4, seed=2, k=3)
    assert rep["extras"]["n_d"] == 9 * 16
    assert verify_embedding(g, rep, g0)["ok"]


def _assign_pair_slots_loop(slots, pair_degrees):
    """The slot search as first written (one pointer stepped per slot), kept
    as the oracle for the running-maximum form."""
    taken = np.zeros(len(slots), dtype=bool)
    targets: list[tuple[int, int]] = []
    ptr = 0
    for need in pair_degrees:
        while ptr < len(slots) and slots[ptr] < need:
            ptr += 1
        if ptr + 1 >= len(slots):
            return None
        targets.append((int(slots[ptr]), int(slots[ptr + 1])))
        taken[ptr] = taken[ptr + 1] = True
        ptr += 2
    return targets, slots[~taken]


def _assert_slots_match_loop(slots, needs):
    slots = np.array(sorted(slots), dtype=np.int64)
    needs = sorted(needs)
    got, want = assign_pair_slots(slots, needs), _assign_pair_slots_loop(slots, needs)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[0] == want[0]
    assert all(type(x) is int for pair in got[0] for x in pair)
    assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(1, 12), max_size=30),
    st.lists(st.integers(1, 14), max_size=14),
)
@example([], [])
@example([3, 4], [3])  # tight: one pair, two slots
@example([3, 4], [5])  # infeasible: degree above every slot
@example([3, 3, 4, 4, 4, 5], [3, 3, 4])  # tight with duplicate degrees
@example([3, 3, 4, 4, 4], [3, 3, 4])  # one slot short
@example([2, 5, 5, 5, 9, 9, 9], [1, 5, 5])  # duplicates skip past low slots
def test_assign_pair_slots_matches_loop(slots, needs):
    _assert_slots_match_loop(slots, needs)


def test_assign_pair_slots_matches_loop_on_search_slots():
    # The slot lists the beta = 1 search sees: a top interval per alpha step,
    # against the ascending doubled degrees of a walk product.
    rng = random.Random(11)
    for n_d in (16, 64, 256):
        for t in (0, 1, 5, 30):
            params = Beta1Params(float(n_d), t)
            slots = interval_degree_sequence(PowerLawParams(params.alpha, 1.0), params.a_x, params.delta)
            needs = sorted(rng.randint(1, 4 * int(math.log(n_d)) + 3) for _ in range(n_d))
            _assert_slots_match_loop(slots.tolist(), needs)


def test_params_dict_roundtrip():
    params, _ = choose_params_beta1(double_with_pairs(MultiGraph(40)))
    assert Beta1Params.from_dict({**params.to_dict(), "extra": 1}) == params


@settings(max_examples=12, deadline=None)
@given(st.integers(17, 40), st.integers(0, 2**16 - 1), st.integers(1, 2), st.integers(0, 10**6))
@example(64, 7, 2, 2)
def test_beta1_search_from_its_floor(n, seed, k, graph_seed):
    # Below the floor no slot reaches the largest pair degree, so the search
    # from it finds the same parameters as the search from bump 0.
    g = random_simple_graph(random.Random(graph_seed), n, 0.1)
    doubled = walk_block(g, 4, seed, k).doubled()
    start = _seat_floor(doubled)
    if start:
        assert _seat_pairs(doubled, start - 1) is None
    seeded = first_fit(lambda t: _seat_pairs(doubled, t), 1 << 30, start)
    unseeded = first_fit(lambda t: _seat_pairs(doubled, t), 1 << 30)
    assert seeded[0] == unseeded[0]
    assert all(np.array_equal(a, b) for a, b in zip(seeded[1], unseeded[1]))


def _bench_beta1_inputs(seed: int):
    """The four embed-beta1 inputs of a benchmark seed: G(64, 128) drawn
    uniformly, each with its expander seed, as bench/workloads.py draws
    them."""
    rng = random.Random(int.from_bytes(hashlib.sha256(f"embed-beta1:{seed}".encode()).digest()[:8], "big"))
    pairs = [(u, v) for u in range(64) for v in range(u + 1, 64)]
    inputs = []
    for _ in range(4):
        g = MultiGraph(64, sorted(rng.sample(pairs, 128)))
        inputs.append((g, rng.randrange(1 << 16)))
    return inputs


def test_bench_beta1_inputs_take_few_alpha_trials(monkeypatch):
    # Searching from the floor takes at most 10 trials on each benchmark
    # input (17 from bump 0).
    module = sys.modules["plg.embed_beta1"]  # the package exports the function under its name
    trials = []

    def counting(trial, limit, start=0):
        def counted(t):
            trials[-1] += 1
            return trial(t)

        trials.append(0)
        return first_fit(counted, limit, start)

    monkeypatch.setattr(module, "first_fit", counting)
    for g, seed in _bench_beta1_inputs(1):
        embed_beta1(g, 4, seed, 2)
    assert len(trials) == 4 and max(trials) <= 10, trials
