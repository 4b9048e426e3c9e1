"""Shared test helpers: independent brute-force oracles and graph builders."""

from __future__ import annotations

import random

import numpy as np
import pytest

from plg import MultiGraph


def brute_mis(g: MultiGraph) -> int:
    """Independent maximum-independent-set oracle: plain include/exclude
    recursion over loop-free vertices, no bounds beyond the trivial count."""
    adj = g.adjacency_sets()
    elig = [v for v in range(g.vertex_count) if not g.has_loop(v)]
    best = 0

    def rec(i: int, cur: int, curset: set[int]):
        nonlocal best
        if cur + (len(elig) - i) <= best:
            return
        if i == len(elig):
            best = max(best, cur)
            return
        v = elig[i]
        if not (curset & adj[v]):
            curset.add(v)
            rec(i + 1, cur + 1, curset)
            curset.discard(v)
        rec(i + 1, cur, curset)

    rec(0, 0, set())
    return best


def reference_mis(g: MultiGraph) -> int:
    """Independence number by plain branch and bound over bitsets, with no
    reductions: the oracle for graphs too large for ``brute_mis``.  The bound
    is a first-fit clique cover; branching takes a vertex of maximum degree."""
    n = g.vertex_count
    adj = [0] * n
    eligible = (1 << n) - 1
    for u, v in g.edge_dict():
        if u == v:
            eligible &= ~(1 << u)
        else:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    best = 0

    def cover(mask: int) -> int:
        cliques = 0
        while mask:
            cliques += 1
            cand = mask
            while cand:
                lsb = cand & -cand
                mask ^= lsb
                cand = (cand ^ lsb) & adj[lsb.bit_length() - 1]
        return cliques

    def dfs(mask: int, size: int) -> None:
        nonlocal best
        if size + cover(mask) <= best:
            return
        if not mask:
            best = size
            return
        v = max((w for w in range(n) if mask >> w & 1), key=lambda w: (adj[w] & mask).bit_count())
        dfs(mask & ~(adj[v] | 1 << v), size + 1)
        dfs(mask & ~(1 << v), size)

    dfs(eligible, 0)
    return best


def enumerate_independent_sets(g: MultiGraph) -> list[list[int]]:
    """All independent sets of a small simple graph, exhaustively."""
    adj = g.adjacency_sets()
    n = g.vertex_count
    out: list[list[int]] = []
    for bits in range(1 << n):
        members = [v for v in range(n) if bits >> v & 1]
        if any(g.has_loop(v) for v in members):
            continue
        if all(u not in adj[v] for i, v in enumerate(members) for u in members[i + 1 :]):
            out.append(members)
    return out


def random_simple_graph(rng: random.Random, n: int, p: float) -> MultiGraph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return MultiGraph(n, edges)


def random_multigraph(rng: random.Random, n: int, edge_count: int) -> MultiGraph:
    edges: dict[tuple[int, int], int] = {}
    for _ in range(edge_count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u > v:
            u, v = v, u
        edges[(u, v)] = edges.get((u, v), 0) + rng.randint(1, 3)
    return MultiGraph(n, edges)


@pytest.fixture
def c5() -> MultiGraph:
    return MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def petersen() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return MultiGraph(10, outer + inner + spokes)


def assert_valid_cover(g: MultiGraph, cert) -> None:
    """Clique cover sanity: partition into ranges, every pair adjacent."""
    pos = 0
    for c in cert.cliques:
        assert c.start == pos
        for u in range(c.start, c.stop):
            for v in range(u + 1, c.stop):
                assert g.multiplicity(u, v) >= 1, (u, v)
        pos = c.stop
    assert pos == g.vertex_count


def realized_degrees(d, cert) -> np.ndarray:
    """The targets d, with the certificate's parity deficit vertex one lower."""
    out = np.array(d, dtype=np.int64)
    if cert.parity_deficit_vertex is not None:
        out[cert.parity_deficit_vertex] -= 1
    return out


def degrees_match(g: MultiGraph, d, cert) -> bool:
    return np.array_equal(np.sort(g.degrees()), np.sort(realized_degrees(d, cert)))
