"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's beta<1 size containment and criterion 4's beta=0.8 G1-certificate
clause are strict xfails: the stated brackets are provably unattainable with
floored degree counts (measured and documented in the project notes); the
tests assert the criteria exactly as written and record the failures.
"""

import hashlib
import math
import random
import time

import numpy as np
import pytest

from plg import (
    MultiGraph,
    PowerLawParams,
    alon_interval,
    clique_cover,
    cover_ceiling_sum,
    degree_conformance,
    degree_counts,
    degree_one_heuristic,
    embed_beta1,
    embed_sub1,
    exact_mis,
    interval_degree_sequence,
    interval_size_bounds,
    interval_volume_bounds,
    is_independent,
    random_regular_expander,
    realize,
    walk_product,
    write_graph,
)
from plg.embed_beta1 import Beta1Params, layered_is_bound

from conftest import brute_mis, enumerate_independent_sets, random_simple_graph, realized_degrees

GRID_ALPHAS = [1.0 + 0.5 * i for i in range(11)]  # 1.0 .. 6.0
GRID_FRACTIONS = [round(0.1 * k, 1) for k in range(1, 10)]


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_degree_conformance():
    t0 = time.time()
    checked = 0
    for beta in (0.3, 0.5, 0.8, 1.0):
        for alpha in (1.0, 2.0, 3.0, 4.0):
            p = PowerLawParams(alpha, beta)
            d = interval_degree_sequence(p, 1, p.delta)
            cert = clique_cover(d)
            assert (cert.parity_deficit_vertex is not None) == (int(d.sum()) % 2 == 1)
            hist = np.bincount(realized_degrees(d, cert), minlength=p.delta + 1)[1:]
            expected = degree_counts(p).copy()
            if cert.parity_deficit_vertex is not None:
                t = int(d[cert.parity_deficit_vertex])
                expected[t - 1] -= 1
                if t >= 2:
                    expected[t - 2] += 1
            assert np.array_equal(hist[: p.delta], expected), (beta, alpha)
            checked += 1
    elapsed = time.time() - t0
    _report(1, elapsed < 10.0, f"{checked} grid cells conform, {elapsed:.2f}s < 10s")


def test_criterion_2_certificate_soundness():
    rng = random.Random(20240)
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 26)
        d = sorted(rng.randint(1, 10) for _ in range(n))
        g, cert = realize(d)
        res = exact_mis(g)
        assert res.optimal
        if res.size > cert.size:
            violations += 1
    g1, c1 = realize([1, 1, 1, 1])
    g2, c2 = realize([2, 2, 2])
    tight = exact_mis(g1).size == c1.size == 2 and exact_mis(g2).size == c2.size == 1
    _report(2, violations == 0 and tight, f"200 sequences, {violations} violations; tight cases 2 and 1")


def _grid_cells(beta):
    for alpha in GRID_ALPHAS:
        p = PowerLawParams(alpha, beta)
        for i, x in enumerate(GRID_FRACTIONS):
            if x * p.delta < 1.0:
                continue  # interval [x*delta, ...] has no legal degree >= 1
            for y in GRID_FRACTIONS[i + 1 :]:
                yield p, x, y


def test_criterion_3_sizes_beta1():
    tested = violations = 0
    for p, x, y in _grid_cells(1.0):
        bp = interval_size_bounds(p, x, y)
        tested += 1
        if not (bp.lower - 2 <= bp.exact <= bp.upper + 2):
            violations += 1
    _report(3, violations == 0, f"beta=1 sizes: {tested} cells, {violations} violations")


@pytest.mark.xfail(
    strict=True,
    reason="the classical interval-size lower bound for beta<1 ignores floor "
    "losses, which grow linearly in the class count; containment at slack 2 "
    "is unattainable (measured: ~83% of grid cells violate)",
)
def test_criterion_3_sizes_beta_below_1():
    tested = violations = 0
    for beta in (0.3, 0.5, 0.8):
        for p, x, y in _grid_cells(beta):
            bp = interval_size_bounds(p, x, y)
            tested += 1
            if not (bp.lower - 2 <= bp.exact <= bp.upper + 2):
                violations += 1
    _report(3, violations == 0, f"beta<1 sizes: {tested} cells, {violations} violations")


def test_criterion_3_volumes():
    tested = violations = 0
    for p, x, y in _grid_cells(1.0):
        bp = interval_volume_bounds(p, x, y)
        tested += 1
        if not (bp.lower - 2 * p.delta <= bp.exact <= bp.upper + 2 * p.delta):
            violations += 1
    for beta in (0.3, 0.5, 0.8):
        for alpha in GRID_ALPHAS:
            p = PowerLawParams(alpha, beta)
            for x in GRID_FRACTIONS:
                if x * p.delta < 1.0:
                    continue
                bp = interval_volume_bounds(p, x, 1.0)
                tested += 1
                if bp.exact < bp.lower - 2 * p.delta:
                    violations += 1
    _report(3, violations == 0, f"volumes: {tested} cells, {violations} violations")


def _criterion4_instances():
    rng = random.Random(77)
    betas = [0.3, 0.5, 0.8]
    for i in range(50):
        m = rng.randint(2, 12)
        g = random_simple_graph(rng, m, rng.uniform(0.2, 0.7))
        yield g, betas[i % 3]


def test_criterion_4_embedding_maps_and_conformance():
    t0 = time.time()
    count = 0
    for g0, beta in _criterion4_instances():
        g, rep = embed_sub1(g0, beta)
        assert degree_conformance(g, PowerLawParams(rep["params"]["alpha"], beta), rep["parity_deficits"]) == {}, (
            g0.vertex_count,
            beta,
        )
        assert len(rep["parity_deficits"]) <= 2
        for members in enumerate_independent_sets(g0):
            assert is_independent(g, [2 * i for i in members])
        assert rep["is_upper_bounds"]["G2"] <= rep["bounds"]["g3_bound"] + 2
        count += 1
    elapsed = time.time() - t0
    _report(4, elapsed < 60.0, f"(a),(b),(c-G3): {count} embeddings, {elapsed:.1f}s < 60s")


@pytest.mark.parametrize(
    "beta",
    [
        0.3,
        0.5,
        pytest.param(
            0.8,
            marks=pytest.mark.xfail(
                strict=True,
                reason="|cert(G1)| ~ e^alpha = delta^0.8 dominates sqrt(delta) "
                "for beta > 1/2; the Theta(sqrt(delta)) residual claim only "
                "holds for beta <= 1/2 (see decisions ledger)",
            ),
        ),
    ],
)
def test_criterion_4_g1_certificate_bound(beta):
    rng = random.Random(78)
    worst = 0.0
    for _ in range(8):
        m = rng.randint(2, 12)
        g0 = random_simple_graph(rng, m, rng.uniform(0.2, 0.7))
        _, rep = embed_sub1(g0, beta)
        sd = math.sqrt(rep["params"]["delta"])
        worst = max(worst, rep["is_upper_bounds"]["G1"] / sd)
        assert rep["is_upper_bounds"]["G1"] <= 4 * sd, (m, beta, worst)
    _report(4, True, f"(c-G1) beta={beta}: max |cert(G1)|/sqrt(delta) = {worst:.2f} <= 4")


def test_criterion_5_walk_products():
    h = random_regular_expander(5, 4, seed=1)  # K5, lambda_1 = lambda_min = -1/4
    instances = {
        "C5": MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "P4+isolated": MultiGraph(5, [(0, 1), (1, 2), (2, 3)]),
        "K5": MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
        "empty5": MultiGraph(5),
    }
    contained = 0
    for name, g in instances.items():
        wp = walk_product(g, h, 2)
        a = brute_mis(wp.product)
        lo, hi = alon_interval(brute_mis(g), 5, 4, h.lambda_1, h.lambda_min, 2)
        assert lo - 1e-9 <= a <= hi + 1e-9, (name, a, lo, hi)
        contained += 1
        wp1 = walk_product(g, h, 1)
        assert brute_mis(wp1.product) == brute_mis(g), name
    _report(5, contained == 4, f"{contained}/4 brackets contain alpha(D); k=1 MIS matches")


def test_criterion_6_layered_estimator():
    for alpha in (4.0, 5.0, 6.0, 7.0, 8.0):
        bp = Beta1Params(math.exp(alpha), 0)
        lb = layered_is_bound(bp)
        assert lb.exact <= 5 * math.exp(alpha) / alpha, alpha
        assert lb.exact < lb.naive, alpha
        p = PowerLawParams(alpha, 1.0)
        low_sum = cover_ceiling_sum(p, 1, bp.a_x)
        assert low_sum <= 2 * math.exp(alpha) + alpha + 2, alpha
    _report(6, True, "alpha in {4..8}: layered <= 5e^a/a, < naive; low-interval sum within 2e^a+a+2")


def test_criterion_7_degree_one_heuristic():
    details = []
    for alpha in (2.0, 3.0, 4.0):
        p = PowerLawParams(alpha, 1.0)
        g, _ = realize(interval_degree_sequence(p, 1, p.delta))
        got = degree_one_heuristic(g)
        assert is_independent(g, got)
        floor_half = math.floor(math.exp(alpha)) // 2
        assert len(got) >= floor_half, alpha
        res = exact_mis(g, budget=5_000_000)
        ratio = res.size / len(got) if res.optimal else None
        details.append(f"a={alpha:.0f}: {len(got)}>={floor_half}, exact/heur={ratio and round(ratio, 3)}")
    _report(7, True, "; ".join(details))


def test_criterion_8_determinism_and_roundtrip(tmp_path):
    from plg import read_graph

    c5 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

    def pipeline_hashes():
        out = []
        g1, r1 = embed_sub1(c5, 0.5)
        g2, r2 = embed_beta1(c5, d=4, seed=3, k=2)
        p = PowerLawParams(3.0, 1.0)
        g3, c3 = realize(interval_degree_sequence(p, 1, p.delta))
        for g in (g1, g2, g3):
            text = write_graph(g)
            assert read_graph(text) == g  # round-trip
            out.append(hashlib.sha256(text.encode()).hexdigest())
        from plg import _jsonio

        out.append(hashlib.sha256(_jsonio.dumps(r1).encode()).hexdigest())
        out.append(hashlib.sha256(_jsonio.dumps(r2).encode()).hexdigest())
        return out

    first = pipeline_hashes()
    second = pipeline_hashes()
    _report(8, first == second, "pipelines hash-identical across reruns; files round-trip")
