import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from plg import MultiGraph, exact_mis, greedy_maximal_is, is_independent
from plg import solver

from conftest import brute_mis, random_simple_graph, reference_mis


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
    g = _component_union(4, [(60, 0.08)], 0, 0)
    got = exact_mis(g, budget=3)
    with mock.patch.object(solver, "_greedy_clique_cover_bound", _greedy_clique_cover_bound_reference):
        want = exact_mis(g, budget=3)
    assert not got.optimal
    assert (got.size, got.witness, got.nodes_explored) == (want.size, want.witness, want.nodes_explored)


def _component_union(seed: int, parts: list[tuple[int, float]], isolated: int, loops: int) -> MultiGraph:
    """Disjoint random components, then isolated vertices, then self-loops
    on random vertices: the cases the solver's reductions split off."""
    rng = random.Random(seed)
    edges: dict[tuple[int, int], int] = {}
    offset = 0
    for n, p in parts:
        for (u, v), m in random_simple_graph(rng, n, p).edge_dict().items():
            edges[(u + offset, v + offset)] = m
        offset += n
    n_total = offset + isolated
    for _ in range(loops if n_total else 0):
        v = rng.randrange(n_total)
        edges[(v, v)] = 1
    return MultiGraph(n_total, edges)


def _brute_mis_per_component(g: MultiGraph) -> int:
    """``brute_mis`` summed over the connected components of g."""
    adj = g.adjacency_sets()
    seen: set[int] = set()
    total = 0
    for root in range(g.vertex_count):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v] - seen:
                seen.add(u)
                stack.append(u)
        index = {v: i for i, v in enumerate(comp)}
        edges = {(index[u], index[v]): m for (u, v), m in g.edge_dict().items() if u in index}
        total += brute_mis(MultiGraph(len(comp), edges))
    return total


def _assert_witness(g: MultiGraph, res) -> None:
    assert is_independent(g, res.witness)
    assert res.witness == sorted(set(res.witness)) and len(res.witness) == res.size


_PARTS = st.lists(st.tuples(st.integers(1, 14), st.floats(0, 1)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), _PARTS, st.integers(0, 3), st.integers(0, 3))
def test_exact_mis_matches_brute_force_per_component(seed, parts, isolated, loops):
    g = _component_union(seed, parts, isolated, loops)
    res = exact_mis(g)
    _assert_witness(g, res)
    assert res.optimal and res.size == _brute_mis_per_component(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(20, 44), st.floats(0.05, 0.3), st.integers(1, 40))
def test_exact_mis_out_of_budget_is_a_real_set(seed, n, p, budget):
    # Sparse graphs need branching; a small budget stops the search, and the
    # witness must still be an independent set: at least as large as the
    # greedy one, at most the independence number.
    g = _component_union(seed, [(n, p)], 0, 1)
    res = exact_mis(g, budget=budget)
    full = exact_mis(g)
    _assert_witness(g, res)
    _assert_witness(g, full)
    assert full.optimal and full.size == reference_mis(g)
    assert len(greedy_maximal_is(g)) <= res.size <= full.size
    assert not res.optimal or res.size == full.size


def test_exact_mis_reports_exhausted_budget():
    g = _component_union(4, [(60, 0.08)], 0, 0)
    res = exact_mis(g, budget=3)
    assert not res.optimal
    _assert_witness(g, res)
    assert len(greedy_maximal_is(g)) <= res.size <= reference_mis(g)


def test_exact_mis_on_sparse_cycle_with_chords():
    # A cycle plus as many random chords: the embed-beta1 inputs whose exact
    # solve once dominated the pipeline.
    rng = random.Random(3)
    n = 60
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(edges) < 2 * n:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    g = MultiGraph(n, sorted(edges))
    res = exact_mis(g)
    _assert_witness(g, res)
    assert res.optimal and res.size == reference_mis(g)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.booleans(), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=4))
def test_exact_mis_unfolds_paths_and_cycles_with_chords(n, cycle, chords):
    # A path or cycle is all degree-2 vertices, so its folds nest; a few
    # chords make some vertices branch and others fold around them.
    edges = {(i, i + 1) for i in range(n - 1)}
    if cycle and n > 2:
        edges.add((0, n - 1))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v and max(u, v) < n}
    g = MultiGraph(n, sorted(edges))
    res = exact_mis(g)
    _assert_witness(g, res)
    assert res.optimal and res.size == reference_mis(g)
