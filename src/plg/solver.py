"""Exact maximum independent set, with a witness.

``exact_mis`` is branch and reduce over bitset candidate masks (Akiba and
Iwata, TCS 2016).  Vertices with self-loops are excluded up front (they are
adjacent to themselves).  At every search node it first takes every vertex
whose neighbourhood is a clique of at most two vertices (degree 0, degree 1,
or degree 2 with adjacent neighbours), folds every other degree-2 vertex, and
then solves each connected component on its own.  The upper bound is the size
of a first-fit clique cover (ascending ids), built one clique at a time with
bitset operations; branching picks the candidate of maximum degree (ties to
the lowest id) and explores the include branch first.  The search must beat
the ascending greedy maximal independent set, ``greedy_maximal_is``, and
hands back the set it found, with each fold undone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import MultiGraph

DEFAULT_BUDGET = 100_000_000
# One adjacency bitset per vertex holds up to n^2/8 bytes (n^2/16 on a path):
# 128 MiB at most at this cap.
SOLVER_VERTEX_CAP = 1 << 15


@dataclass
class SolveResult:
    size: int
    witness: list[int]
    optimal: bool
    nodes_explored: int


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
    """Maximum independent set of g by branch and reduce, with a witness.

    Within ``budget`` search nodes the result is optimal.  Past it,
    ``optimal`` is False and the witness is the larger of the ascending
    greedy set and the best set the search found.  Deterministic: identical
    inputs give identical witnesses.  Raises ``ResourceLimitError``, before
    allocating, when g has more than ``SOLVER_VERTEX_CAP`` vertices.
    """
    if g.vertex_count > SOLVER_VERTEX_CAP:
        raise ResourceLimitError(f"graph has {g.vertex_count} vertices (cap {SOLVER_VERTEX_CAP})")
    adj, eligible = _adjacency_bitsets(g)
    # (vertex, adjacency before a fold changed it), undone on backtrack.
    trail: list[tuple[int, int]] = []
    nodes = 0
    exhausted = False

    def reduce(mask: int) -> tuple[int, list[tuple[int, int]], int]:
        """Apply the degree rules until none is left: (vertices taken, folds,
        remaining mask).  A vertex whose neighbours in mask form a clique of
        at most two is taken; a degree-2 vertex v with non-adjacent
        neighbours u, w is folded, recorded as (v, {u, w}): u and w leave, v
        takes their joint neighbourhood, and a solution of the folded graph
        with v stands for one with u and w instead."""
        taken = 0
        folds: list[tuple[int, int]] = []
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
                changed = True
                u = nb & -nb
                if rest == 0 or adj[u.bit_length() - 1] & nb:
                    taken |= lsb
                    mask &= ~(nb | lsb)
                    m &= ~nb
                    continue
                joint = (adj[u.bit_length() - 1] | adj[rest.bit_length() - 1]) & mask & ~(nb | lsb)
                folds.append((v, nb))
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
        return taken, folds, mask

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
        """An independent set found in mask, as a bitmask: a maximum one,
        unless its size is at most ``lower`` (or the budget ran out)."""
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
        if exhausted:
            return 0
        mark = len(trail)
        taken, folds, mask = reduce(mask)
        found = taken | branch(mask, lower - taken.bit_count() - len(folds))
        while len(trail) > mark:
            x, old = trail.pop()
            adj[x] = old
        # Undo the folds, last first: v in the set gives way to u and w,
        # otherwise v joins it.
        for v, uw in reversed(folds):
            found ^= 1 << v | (uw if found >> v & 1 else 0)
        return found

    def branch(mask: int, lower: int) -> int:
        if not mask:
            return 0
        comps = components(mask)
        if len(comps) > 1:
            # Smallest first; each must beat lower less the others' best.
            comps.sort(key=int.bit_count)
            bounds = [_greedy_clique_cover_bound(c, adj) for c in comps]
            rest = sum(bounds)
            found = 0
            for comp, bound in zip(comps, bounds):
                rest -= bound
                need = lower - found.bit_count() - rest
                if bound <= need:
                    break
                got = solve(comp, need)
                found |= got
                if got.bit_count() <= need:
                    break
            return found
        if _greedy_clique_cover_bound(mask, adj) <= lower:
            return 0
        v = _branch_vertex(mask, adj)
        inc = 1 << v | solve(mask & ~(adj[v] | (1 << v)), lower - 1)
        exc = solve(mask & ~(1 << v), max(lower, inc.bit_count()))
        return exc if exc.bit_count() > inc.bit_count() else inc

    greedy = greedy_maximal_is(g)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * g.vertex_count + 1000))
    try:
        found = solve(eligible, len(greedy) - 1)
    finally:
        sys.setrecursionlimit(old_limit)
    witness = greedy
    if found.bit_count() >= len(greedy):
        witness = []
        while found:
            lsb = found & -found
            witness.append(lsb.bit_length() - 1)
            found ^= lsb
    return SolveResult(size=len(witness), witness=witness, optimal=not exhausted, nodes_explored=nodes)


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
