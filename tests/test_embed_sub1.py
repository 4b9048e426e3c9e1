import math
import random

import pytest

from plg import (
    InputError,
    InternalError,
    MultiGraph,
    PowerLawParams,
    choose_params_sub1,
    degree_conformance,
    double_graph,
    embed_sub1,
    interval_size_exact,
    is_independent,
    residual_is_bound_sub1,
)

from plg._assembly import double_with_pairs

from conftest import brute_mis, enumerate_independent_sets, random_simple_graph


def test_double_k2():
    g = double_graph(MultiGraph(2, [(0, 1)]))
    assert g.vertex_count == 4
    assert g.distinct_edge_count() == 6  # K4
    assert brute_mis(g) == 1


def test_double_isolated():
    g = double_graph(MultiGraph(2))
    assert sorted(g.degrees()) == [1, 1, 1, 1]
    assert brute_mis(g) == 2


def test_double_path():
    p3 = MultiGraph(3, [(0, 1), (1, 2)])
    g = double_graph(p3)
    assert g.vertex_count == 6
    assert brute_mis(p3) == 2
    assert brute_mis(g) == 2


def test_double_degree_rule():
    rng = random.Random(8)
    for _ in range(20):
        g0 = random_simple_graph(rng, rng.randint(1, 8), 0.5)
        g = double_graph(g0)
        d0 = g0.degrees()
        d = g.degrees()
        for i in range(g0.vertex_count):
            assert d[2 * i] == d[2 * i + 1] == 2 * d0[i] + 1
        assert brute_mis(g) == brute_mis(g0)


def test_double_rejects_multigraph():
    with pytest.raises(InputError):
        double_graph(MultiGraph(2, {(0, 1): 2}))
    with pytest.raises(InputError):
        double_graph(MultiGraph(1, {(0, 0): 1}))


def test_double_with_pairs_moves_loops_to_matching():
    # A loop unit becomes 4 units on its pair's matching edge: both copies
    # keep degree 2*deg + 1 and no copy has a loop.
    g = double_with_pairs(MultiGraph(2, {(0, 0): 1, (0, 1): 1}))
    assert g.edge_dict() == {(0, 1): 5, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1}
    assert g.degrees().tolist() == [7, 7, 3, 3]
    with pytest.raises(InputError):
        double_with_pairs(MultiGraph(2, {(0, 1): 2}))


def test_choose_params_x_value():
    assert choose_params_sub1(4, 0.5).x == pytest.approx(0.25)


def test_chosen_x_satisfies_width_inequality():
    # (1-beta)*x + x^(1-beta) - 1 <= 0 guarantees the top interval is wide
    # enough; x = (1/2)^(1/(1-beta)) always clears it.
    for beta in (0.05, 0.3, 0.5, 0.8, 0.95):
        x = 0.5 ** (1 / (1 - beta))
        assert (1 - beta) * x + x ** (1 - beta) - 1 <= 1e-12


def test_choose_params_beta_half_n4():
    params = choose_params_sub1(4, 0.5)
    assert params.alpha == pytest.approx(0.5 * math.log(16))
    assert params.delta == 16
    assert params.x * params.delta == pytest.approx(4.0)
    assert params.bumps == 0


def test_choose_params_conditions_beta08_n100():
    params = choose_params_sub1(100, 0.8)
    p = PowerLawParams(params.alpha, 0.8)
    assert params.x * params.delta + 1e-9 >= 100
    assert interval_size_exact(p, params.a_x, params.delta) >= 100


def test_choose_params_rejects_bad_input():
    with pytest.raises(InputError):
        choose_params_sub1(5, 0.5)  # odd
    with pytest.raises(InputError):
        choose_params_sub1(4, 1.0)


def test_residual_bound_g3_example():
    # n = 4 at beta = 1/2: x = 1/4, alpha = ln(4n)/2 = ln 4, delta = 16
    from plg import Sub1Params

    sp = Sub1Params(4, 0.5, 0)
    assert sp == choose_params_sub1(4, 0.5)
    assert sp.alpha == pytest.approx(math.log(4))
    assert (sp.x, sp.delta, sp.a_x, sp.y_split, sp.g3_cut) == (0.25, 16, 4, 0.25, 3)
    rb = residual_is_bound_sub1(sp)
    assert rb["g3_bound"] == pytest.approx(math.exp(math.log(4) / 1.5) / 0.5)
    assert rb["g3_bound"] == pytest.approx(5.04, abs=0.01)


def test_g1_bound_scales_with_sqrt_delta_beta_half():
    # sweep alpha = ln(4n)/2 over [2, 8] (n = e^(2 alpha)/4, even):
    # g1_bound / sqrt(delta) stays bounded for beta=1/2
    from plg import Sub1Params

    worst = 0.0
    for alpha in [2 + 0.5 * i for i in range(13)]:
        sp = Sub1Params(2 * round(math.exp(2 * alpha) / 8), 0.5, 0)
        assert sp.alpha == pytest.approx(alpha, abs=0.02)
        rb = residual_is_bound_sub1(sp)
        worst = max(worst, rb["g1_bound"] / math.sqrt(sp.delta))
    assert worst < 6.0  # frozen sweep max is ~4.9 (4*sqrtD from i_y1 + ~1 from i_y2)


def test_embed_k2_every_is_maps(c5):
    k2 = MultiGraph(2, [(0, 1)])
    g, rep = embed_sub1(k2, 0.5)
    assert len(rep["witness"]) == 1
    for members in enumerate_independent_sets(k2):
        assert is_independent(g, [2 * i for i in members])


def test_embed_empty3_witness():
    g, rep = embed_sub1(MultiGraph(3), 0.5)
    assert len(rep["witness"]) == 3
    assert is_independent(g, rep["witness"])


def test_embed_c5_conformance_and_bounds(c5):
    g, rep = embed_sub1(c5, 0.5)
    assert degree_conformance(g, PowerLawParams(rep["params"]["alpha"], 0.5), rep["parity_deficits"]) == {}
    assert len(rep["parity_deficits"]) <= 2
    sd = math.sqrt(rep["params"]["delta"])
    assert rep["is_upper_bounds"]["G1"] <= 4 * sd
    assert rep["is_upper_bounds"]["G2"] <= rep["bounds"]["g3_bound"] + 2


def test_embed_refuses_a_nonconforming_output(c5, monkeypatch):
    # The report holds no conformance entry: assembly raises rather than
    # return an output whose degree histogram does not conform.
    import plg._assembly

    monkeypatch.setattr(plg._assembly, "degree_conformance", lambda *args: {3: [1, 0]})
    with pytest.raises(InternalError, match="does not conform"):
        embed_sub1(c5, 0.5)


def test_embed_pair_degrees_equal(c5):
    g, rep = embed_sub1(c5, 0.5)
    deg = g.degrees()
    for i in range(5):
        # both pair members hit their slots; slots differ by at most one
        assert abs(int(deg[2 * i]) - int(deg[2 * i + 1])) <= 1


def test_embed_decomposition_small():
    # m=2 at beta=0.5 keeps the output small enough for the oracle
    k2 = MultiGraph(2, [(0, 1)])
    g, rep = embed_sub1(k2, 0.5)
    assert g.vertex_count <= 26
    total = brute_mis(g)
    bound = (
        brute_mis(k2)
        + rep["is_upper_bounds"]["G1"]
        + rep["is_upper_bounds"]["G2"]
    )
    assert total <= bound


def test_embed_part_sizes_sum_to_n_exact(c5):
    for beta in (0.3, 0.5, 0.8):
        g, rep = embed_sub1(c5, beta)
        p = PowerLawParams(rep["params"]["alpha"], beta)
        assert g.vertex_count == interval_size_exact(p, 1, p.delta)
        assert sum(hi - lo for lo, hi in (part["range"] for part in rep["parts"].values())) == g.vertex_count


def test_embed_no_loops_or_foreign_fill_on_embedded(c5):
    g, rep = embed_sub1(c5, 0.5)
    m = 5
    for i in range(2 * m):
        assert not g.has_loop(i)
    # fill multi-edges only on the matching edge; surplus edges go outward
    for (u, v), mult in g.edge_dict().items():
        if u < 2 * m and v < 2 * m and mult > 1:
            assert v == u + 1 and u % 2 == 0


def test_embed_rejects_multigraph():
    with pytest.raises(InputError):
        embed_sub1(MultiGraph(2, {(0, 1): 2}), 0.5)


def test_embed_resource_guard():
    from plg import ResourceLimitError

    # x = (1/2)^(1/(1-beta)) explodes as beta -> 1; the guard names the counts
    with pytest.raises(ResourceLimitError, match="edge units"):
        embed_sub1(MultiGraph(6, [(0, 1), (2, 3), (1, 4)]), 0.9)


def test_params_dict_roundtrip():
    from plg import Sub1Params

    params = choose_params_sub1(10, 0.5)
    record = params.to_dict()
    assert record["n_embedded"] == 10 and "n" not in record
    assert Sub1Params.from_dict({**record, "extra": 1}) == params
