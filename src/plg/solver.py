"""Exact maximum-independent-set solvers.

``exact_mis`` is the verification oracle and returns a witness: branch and
bound over bitset candidate masks.  Vertices with self-loops are
excluded up front (they are adjacent to themselves).  The upper bound at each
node is the size of a first-fit clique cover of the candidate set (ascending
ids), built one clique at a time with bitset operations; branching picks the
candidate of maximum degree (ties to the lowest id) and explores the include
branch first.  Within a fixed budget of node expansions the result is optimal;
past it, the best witness found so far is returned with ``optimal=False``.

``mis_size`` returns the size alone, by branch and reduce (Akiba and Iwata,
TCS 2016): at every node it first takes every vertex whose neighbourhood is
a clique of at most two vertices (degree 0, degree 1, or degree 2 with
adjacent neighbours), folds every other degree-2 vertex, and then solves
each connected component on its own; the bound and the branching are
``exact_mis``'s.
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


def _branch_vertex(mask: int, adj: list[int]) -> int:
    """The candidate of maximum degree in mask, lowest id first on ties."""
    best_v, best_d = -1, -1
    m = mask
    while m:
        lsb = m & -m
        v = lsb.bit_length() - 1
        m ^= lsb
        d = (adj[v] & mask).bit_count()
        if d > best_d:
            best_v, best_d = v, d
    return best_v


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
    adj, eligible = _adjacency_bitsets(g)

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
        v = _branch_vertex(mask, adj)
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


def _adjacency_bitsets(g: MultiGraph) -> tuple[list[int], int]:
    """Loop-free adjacency bitsets of g and the mask of its loop-free
    vertices (a vertex with a self-loop is in no independent set)."""
    n = g.vertex_count
    adj = [0] * n
    eligible = (1 << n) - 1
    u, v, _mult = g.arrays()
    for a, b in zip(u.tolist(), v.tolist()):
        if a == b:
            eligible &= ~(1 << a)
        else:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj, eligible


def mis_size(g: MultiGraph, budget: int = DEFAULT_BUDGET) -> tuple[int, bool]:
    """(size, optimal): the independence number of g by branch and reduce.

    Within ``budget`` search nodes the size is exact and ``optimal`` is True.
    Past it, ``optimal`` is False and the size is that of an independent set
    the search did find (at least the ascending greedy one).
    """
    adj, eligible = _adjacency_bitsets(g)
    # (vertex, adjacency before a fold changed it), undone on backtrack.
    trail: list[tuple[int, int]] = []
    nodes = 0
    exhausted = False

    def reduce(mask: int) -> tuple[int, int]:
        """Apply the degree rules until none is left: (independence number
        gained, remaining mask).  A vertex whose neighbours in mask form a
        clique of at most two is taken; a degree-2 vertex v with non-adjacent
        neighbours u, w is folded: u and w leave, v takes their joint
        neighbourhood, and one is gained."""
        taken = 0
        changed = True
        while changed:
            changed = False
            m = mask
            while m:
                lsb = m & -m
                m ^= lsb
                v = lsb.bit_length() - 1
                nb = adj[v] & mask
                rest = nb & (nb - 1)
                if rest & (rest - 1):
                    continue  # degree 3 or more
                taken += 1
                changed = True
                u = nb & -nb
                if rest == 0 or adj[u.bit_length() - 1] & nb:
                    mask &= ~(nb | lsb)
                    m &= ~nb
                    continue
                joint = (adj[u.bit_length() - 1] | adj[rest.bit_length() - 1]) & mask & ~(nb | lsb)
                trail.append((v, adj[v]))
                adj[v] = joint
                while joint:
                    x = (joint & -joint).bit_length() - 1
                    joint &= joint - 1
                    if not adj[x] & lsb:
                        trail.append((x, adj[x]))
                        adj[x] |= lsb
                mask &= ~nb
                m &= ~nb
        return taken, mask

    def components(mask: int) -> list[int]:
        comps = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                lsb = frontier & -frontier
                frontier ^= lsb
                new = adj[lsb.bit_length() - 1] & mask & ~comp
                comp |= new
                frontier |= new
            comps.append(comp)
            mask &= ~comp
        return comps

    def solve(mask: int, lower: int) -> int:
        """The size of an independent set found in mask: the independence
        number of mask, unless that is at most ``lower`` (or the budget ran
        out)."""
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
        if exhausted:
            return 0
        mark = len(trail)
        try:
            return branch(mask, lower)
        finally:
            while len(trail) > mark:
                x, old = trail.pop()
                adj[x] = old

    def branch(mask: int, lower: int) -> int:
        taken, mask = reduce(mask)
        lower -= taken
        if not mask:
            return taken
        comps = components(mask)
        if len(comps) > 1:
            # Smallest first; each must beat lower less the others' best.
            comps.sort(key=int.bit_count)
            bounds = [_greedy_clique_cover_bound(c, adj) for c in comps]
            rest = sum(bounds)
            found = 0
            for comp, bound in zip(comps, bounds):
                rest -= bound
                need = lower - found - rest
                if bound <= need:
                    break
                got = solve(comp, need)
                found += got
                if got <= need:
                    break
            return taken + found
        if _greedy_clique_cover_bound(mask, adj) <= lower:
            return taken
        v = _branch_vertex(mask, adj)
        inc = 1 + solve(mask & ~(adj[v] | (1 << v)), lower - 1)
        exc = solve(mask & ~(1 << v), max(lower, inc))
        return taken + max(inc, exc)

    greedy = len(greedy_maximal_is(g))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * g.vertex_count + 1000))
    try:
        size = solve(eligible, greedy - 1)
    finally:
        sys.setrecursionlimit(old_limit)
    return max(size, greedy), not exhausted
