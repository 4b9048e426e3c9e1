"""Exact maximum-independent-set solver used as the verification oracle.

Branch and bound over bitset candidate masks.  Vertices with self-loops are
excluded up front (they are adjacent to themselves).  The upper bound at each
node is the size of a first-fit clique cover of the candidate set (ascending
ids), built one clique at a time with bitset operations; branching picks the
candidate of maximum degree (ties to the lowest id) and explores the include
branch first.  Within a fixed budget of node expansions the result is optimal;
past it, the best witness found so far is returned with ``optimal=False``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .graph import MultiGraph

DEFAULT_BUDGET = 100_000_000


@dataclass
class SolveResult:
    size: int
    witness: list[int]
    optimal: bool
    nodes_explored: int
    time_ms: int


def _greedy_clique_cover_bound(mask: int, adj: list[int]) -> int:
    """Number of cliques a first-fit pass in ascending id needs to cover the
    vertices in mask.

    A vertex joins the first clique whose members are all its neighbours, so
    clique 0 depends on nothing else, and each later clique is the greedy
    clique of the vertices the earlier ones rejected.  The cliques are built
    one at a time: ``cand`` holds the remaining vertices adjacent to every
    member so far, and its lowest vertex joins next.  Each vertex is visited
    once.
    """
    cliques = 0
    while mask:
        cliques += 1
        cand = mask
        while cand:
            lsb = cand & -cand
            mask ^= lsb
            cand = (cand ^ lsb) & adj[lsb.bit_length() - 1]
    return cliques


def greedy_maximal_is(g: MultiGraph) -> list[int]:
    """Maximal independent set by ascending-id greedy; loop vertices skipped."""
    adj = g.adjacency_sets()
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in range(g.vertex_count):
        if v in blocked or g.has_loop(v):
            continue
        chosen.append(v)
        blocked.update(adj[v])
    return chosen


def exact_mis(g: MultiGraph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Maximum independent set of g by branch and bound.

    Deterministic: identical inputs give identical witnesses, resolved by
    (size, lexicographically smallest witness).
    """
    t0 = time.perf_counter()
    n = g.vertex_count
    adj = [0] * n
    for (u, v), _m in g.edge_dict().items():
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    eligible = 0
    for v in range(n):
        if not g.has_loop(v):
            eligible |= 1 << v

    best_size = 0
    best_set: list[int] = []
    nodes = 0
    exhausted = False

    def consider(chosen: list[int]):
        nonlocal best_size, best_set
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_set = sorted(chosen)
        elif len(chosen) == best_size:
            cand = sorted(chosen)
            if cand < best_set:
                best_set = cand

    def dfs(mask: int, chosen: list[int]):
        nonlocal nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if mask == 0:
            consider(chosen)
            return
        if len(chosen) + _greedy_clique_cover_bound(mask, adj) < best_size + 1:
            return
        # Branch on the max-degree candidate, lowest id first on ties.
        best_v, best_d = -1, -1
        m = mask
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            m ^= lsb
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        v = best_v
        chosen.append(v)
        dfs(mask & ~(adj[v] | (1 << v)), chosen)
        chosen.pop()
        dfs(mask & ~(1 << v), chosen)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 1000))
    try:
        dfs(eligible, [])
    finally:
        sys.setrecursionlimit(old_limit)

    return SolveResult(
        size=best_size,
        witness=best_set,
        optimal=not exhausted,
        nodes_explored=nodes,
        time_ms=int((time.perf_counter() - t0) * 1000),
    )
