import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from plg import MultiGraph, exact_mis, greedy_maximal_is, is_independent
from plg import solver

from conftest import brute_mis, random_simple_graph


def test_c5(c5):
    res = exact_mis(c5)
    assert res.size == 2
    assert res.optimal
    assert is_independent(c5, res.witness)


def test_petersen(petersen):
    assert brute_mis(petersen) == 4  # oracle over 2^10 subsets
    res = exact_mis(petersen)
    assert res.size == 4
    assert res.optimal


def test_edgeless():
    g = MultiGraph(9)
    res = exact_mis(g)
    assert res.size == 9
    assert res.witness == list(range(9))


def test_loops_excluded():
    g = MultiGraph(3, {(0, 0): 1, (1, 2): 1})
    res = exact_mis(g)
    assert res.size == 1
    assert 0 not in res.witness


def test_against_oracle_random():
    rng = random.Random(2)
    for _ in range(60):
        g = random_simple_graph(rng, rng.randint(1, 13), rng.random())
        res = exact_mis(g)
        assert res.optimal
        assert res.size == brute_mis(g)
        assert is_independent(g, res.witness)
        assert len(res.witness) == res.size


def test_relabeling_invariance():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 11)
        g = random_simple_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {}
        for (u, v), m in g.edge_dict().items():
            a, b = perm[u], perm[v]
            edges[(min(a, b), max(a, b))] = m
        h = MultiGraph(n, edges)
        assert exact_mis(g).size == exact_mis(h).size


def test_budget_exhaustion_returns_best_found():
    rng = random.Random(4)
    g = random_simple_graph(rng, 30, 0.2)
    res = exact_mis(g, budget=5)
    assert not res.optimal
    assert is_independent(g, res.witness)
    assert res.nodes_explored >= 5


def test_witness_deterministic():
    rng = random.Random(13)
    g = random_simple_graph(rng, 12, 0.35)
    a = exact_mis(g)
    b = exact_mis(g)
    assert a.witness == b.witness


def test_greedy_maximal_is():
    rng = random.Random(6)
    for _ in range(25):
        g = random_simple_graph(rng, rng.randint(1, 12), 0.4)
        s = greedy_maximal_is(g)
        assert is_independent(g, s)
        adj = g.adjacency_sets()
        covered = set(s) | {u for v in s for u in adj[v]}
        assert covered == set(range(g.vertex_count))  # maximality


def _greedy_clique_cover_bound_reference(mask: int, adj: list[int]) -> int:
    """The clique-cover bound as first written (first fit over all cliques per
    vertex), kept as the oracle for the clique-at-a-time kernel."""
    cliques_masks: list[int] = []
    cliques_adj: list[int] = []
    m = mask
    while m:
        lsb = m & -m
        v = lsb.bit_length() - 1
        m ^= lsb
        placed = False
        for i in range(len(cliques_masks)):
            # v joins a clique iff adjacent to all its members.
            if cliques_masks[i] & ~adj[v] == 0:
                cliques_masks[i] |= lsb
                cliques_adj[i] &= adj[v]
                placed = True
                break
        if placed:
            continue
        cliques_masks.append(lsb)
        cliques_adj.append(adj[v])
    return len(cliques_masks)


def _random_adjacency(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 70), st.floats(0, 1), st.integers(0, 2**32), st.data())
def test_clique_cover_bound_matches_first_fit(n, p, seed, data):
    adj = _random_adjacency(random.Random(seed), n, p)
    mask = data.draw(st.integers(0, (1 << n) - 1), label="mask")
    assert solver._greedy_clique_cover_bound(mask, adj) == _greedy_clique_cover_bound_reference(mask, adj)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 22),
    st.floats(0, 1),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 21), max_size=3),
    st.one_of(st.none(), st.integers(1, 60)),
)
def test_exact_mis_matches_first_fit_bound(n, p, seed, loops, budget):
    # The bound values are the same, so the search is too: every result field
    # but the time agrees with a solve under the reference bound, also when a
    # small budget cuts the search short.
    g = random_simple_graph(random.Random(seed), n, p)
    edges = g.edge_dict()
    for v in loops:
        if v < n:
            edges[(v, v)] = 1
    g = MultiGraph(n, edges)
    kw = {} if budget is None else {"budget": budget}
    got = exact_mis(g, **kw)
    with mock.patch.object(solver, "_greedy_clique_cover_bound", _greedy_clique_cover_bound_reference):
        want = exact_mis(g, **kw)
    assert (got.size, got.witness, got.optimal, got.nodes_explored) == (
        want.size, want.witness, want.optimal, want.nodes_explored
    )


def test_exact_mis_budget_exhausted_matches_first_fit_bound():
    g = random_simple_graph(random.Random(4), 30, 0.2)
    got = exact_mis(g, budget=40)
    with mock.patch.object(solver, "_greedy_clique_cover_bound", _greedy_clique_cover_bound_reference):
        want = exact_mis(g, budget=40)
    assert not got.optimal
    assert (got.size, got.witness, got.nodes_explored) == (want.size, want.witness, want.nodes_explored)
