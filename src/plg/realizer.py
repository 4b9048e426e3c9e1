"""Realize degree sequences as multigraphs covered by explicit cliques.

Construction: walk the sorted sequence, cutting a clique of size d[p]+1 at each
start position p (the tail clique takes whatever remains), then consume the
residual degree inside each clique deterministically.

The fill is specified by a unit rule:

  * take the two members of highest residual r1 >= r2 (ties broken by lowest
    vertex id) and the third-highest residual r3 (0 if none), and add
    step = max(1, r2 - r3) multi-edge units between them;
  * when a single member remains positive, add self-loops two units at a time;
  * a final odd unit becomes a pending half-edge, joined to the next clique's
    pending half-edge by one cross-clique edge.

It is implemented by run-length events over groups of equal residual (see
``_fill_clique``): with T the group at the top level L and U the group at the
next level L2 (0 when none), one event moves

  * a lone top member against the level below it: L // 2 loops with nothing
    below; one edge of weight L2 - L3 to a lone U member (L3 the level under
    U); else one unit to each of the min(L - L2, |U|) lowest ids of U;
  * an even group: its consecutive pairs get L - L2 units and it lands on U;
  * an odd group of k >= 3: floor((L - L2)/2) periods of two levels, each a
    unit on (g0,g1), (g2,g3), ..., (g0,g_{k-1}), (g1,g2), (g3,g4), ...; at one
    level above U, (g0,g1), ..., (g_{k-3},g_{k-2}) get a unit and join U,
    leaving g_{k-1} alone on top.

These give exactly the unit rule's edges, multiplicities and pending vertex,
with Python work per event rather than per unit.

A group's pairs are not re-listed at each event.  The members are laid out
once by (residual, id), and every event keeps their levels non-decreasing
along that layout, so T is always a suffix and U the run under it.  A round
of T's consecutive pairs is one add to an array of link weights, and units
between the last member and a range of others one range add to a second
array; what both owe is emitted at the end, and before a merged run whose
ids interleave is re-sorted.

If the degree total is odd, one target is lowered by 1 before filling (the
highest-index vertex whose residual allows it), recorded as the parity
deficit.  The clique list is a certificate: its length upper-bounds the
maximum independent set of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceLimitError
from .graph import EdgeArrays, MultiGraph
from .model import PowerLawParams, _floored_counts, cover_ceiling_sum

# Materialization cap on distinct edges, shared with the embedders: the
# interval at alpha = 10, beta = 1 alone needs 156,445,379 clique edges.
DEFAULT_EDGE_CAP = 10_000_000
# Longest sequence that can pass that cap: every clique of s >= 2 members has
# at least s/2 edges, and only the tail clique can have one member.
SEQUENCE_CAP = 2 * DEFAULT_EDGE_CAP + 1


@dataclass
class CliqueCoverCertificate:
    """Ordered clique cover of 0..m-1 by consecutive index ranges."""

    cliques: list[range]
    start_indices: list[int]
    parity_deficit: int
    parity_deficit_vertex: int | None
    target_degrees: np.ndarray
    realized_degrees: np.ndarray
    pending_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.cliques)

    def shifted(self, offset: int) -> "CliqueCoverCertificate":
        """Same cover with all vertex ids moved by ``offset`` (for assembly)."""
        return CliqueCoverCertificate(
            cliques=[range(c.start + offset, c.stop + offset) for c in self.cliques],
            start_indices=[p + offset for p in self.start_indices],
            parity_deficit=self.parity_deficit,
            parity_deficit_vertex=(
                None
                if self.parity_deficit_vertex is None
                else self.parity_deficit_vertex + offset
            ),
            target_degrees=self.target_degrees,
            realized_degrees=self.realized_degrees,
            pending_edges=[(u + offset, v + offset) for u, v in self.pending_edges],
        )

    def to_json_dict(self) -> dict:
        return {
            "clique_sizes": [len(c) for c in self.cliques],
            "p_values": list(self.start_indices),
            "parity_deficit": self.parity_deficit,
            "parity_deficit_vertex": self.parity_deficit_vertex,
            "is_upper_bound": self.size,
        }


def interval_degree_sequence(p: PowerLawParams, a: int, b: int) -> np.ndarray:
    """Sorted degree sequence of the interval [a, b]: y_i copies of each i,
    empty when a > b.  Raises ``InputError`` when a < 1 or b > delta, and
    ``ResourceLimitError``, before allocating it, when the interval spans
    or holds more than ``SEQUENCE_CAP`` degrees."""
    if a < 1 or b > p.delta:
        raise InputError(f"need 1 <= {a} <= {b} <= delta={p.delta}")
    if b - a + 1 > SEQUENCE_CAP:
        raise ResourceLimitError(f"interval [{a}, {b}] spans {b - a + 1} degrees (cap {SEQUENCE_CAP})")
    counts = _floored_counts(p, a, b)
    # The max first: a sum of counts past the cap could overflow int64.
    if len(counts) and (counts.max() > SEQUENCE_CAP or counts.sum() > SEQUENCE_CAP):
        raise ResourceLimitError(f"interval [{a}, {b}] holds more than {SEQUENCE_CAP} vertices")
    return np.repeat(np.arange(a, b + 1, dtype=np.int64), counts)


def _clique_walk(d: np.ndarray) -> tuple[list[range], list[int]]:
    m = len(d)
    cliques: list[range] = []
    starts: list[int] = []
    p = 0
    while p < m:
        size = min(int(d[p]) + 1, m - p)
        starts.append(p)
        cliques.append(range(p, p + size))
        p += size
    return cliques, starts


def _pick_deficit_vertex(d: np.ndarray, cliques: list[range]) -> int:
    # Residuals are non-decreasing inside a clique, so the last member of the
    # last clique with any slack is the highest-index vertex we can lower.
    for c in reversed(cliques):
        last = c.stop - 1
        if int(d[last]) - (len(c) - 1) >= 1:
            return last
    raise AssertionError("odd degree total implies a positive residual somewhere")


def clique_pairs(starts, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member pairs (u < v) of the cliques range(start, start + size), as
    (u, v, clique index) int64 arrays; cliques of fewer than two members
    contribute none.

    Order contract: pairs come clique by clique in the given order, and
    lexicographically by (u, v) inside a clique.  For cliques given as
    ascending disjoint ranges, as a clique walk makes them, the keys
    u * base + v are therefore strictly increasing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.maximum(np.asarray(sizes, dtype=np.int64), 0)
    # Member x of a clique pairs with each of the ``later`` members after it.
    clique = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(len(clique)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    x = starts[clique] + rank
    later = sizes[clique] - 1 - rank
    row = np.cumsum(later) - later  # where x's pairs begin
    u = np.repeat(x, later)
    v = np.arange(len(u)) - np.repeat(row - x - 1, later)
    return u, v, np.repeat(clique, later)


def _emit(ids: list[int], link: list[int], star: list[int], us: list[int], vs: list[int], ws: list[int]) -> None:
    """Append what every link and star pair owes, and zero both arrays."""
    acc = [0, 0]
    owed = 0
    for p in range(len(ids) - 1):
        acc[p & 1] += link[p]
        owed += star[p]
        if acc[p & 1]:
            us.append(ids[p])
            vs.append(ids[p + 1])
            ws.append(acc[p & 1])
        if owed:
            us.append(ids[p])
            vs.append(ids[-1])
            ws.append(owed)
    link[:] = star[:] = [0] * len(ids)


def _fill_clique(
    members: range,
    residuals: list[int],
    us: list[int],
    vs: list[int],
    ws: list[int],
) -> int | None:
    """Consume residuals inside one clique by the unit rule of the module
    docstring, appending fill batches as pairs (us[i], vs[i]) of
    multiplicity ws[i]; returns the pending vertex, if any.

    ``ids`` holds the members of positive residual sorted by (residual,
    id), and ``runs`` is a stack of [first position, level]: a run ends
    where the next begins, and the bottom run, at level 0, collects the
    members that are done.  Each pass moves the top run T = [a, n) down in
    one event, as the unit rule would over many units; U is the run under
    it (level 0 when none).

    Owed weights are kept by position.  Link p is the pair (ids[p],
    ids[p+1]) and owes the sum of ``link[q]`` over q <= p of p's parity,
    so a round of T's consecutive pairs is one add at ``link[a]``.  The
    pair (ids[p], ids[-1]) owes the prefix sum of ``star`` at p, so a lone
    top member's units on U's lowest ids, or an odd period's (g0, g_last),
    are one range add.  Both are
    emitted at the end, and before a merged run whose ids interleave is
    re-sorted.  Pairs may be emitted more than once; callers sum them.
    """
    order = sorted((r, v) for v, r in zip(members, residuals) if r > 0)
    ids = [v for _, v in order]
    n = len(ids)
    link = [0] * n
    star = [0] * n
    runs = [[0, 0]]
    for p, (r, _) in enumerate(order):
        if r != runs[-1][1]:
            runs.append([p, r])

    def settle(i: int) -> None:
        # Run i joins the run under it when their levels meet; the merged
        # ids are sorted if the two interleave, after emitting what is owed.
        lo, hi = runs[i - 1], runs[i]
        if lo[1] != hi[1]:
            return
        if lo[1] and ids[hi[0] - 1] > ids[hi[0]]:
            _emit(ids, link, star, us, vs, ws)
            end = runs[i + 1][0] if i + 1 < len(runs) else n
            ids[lo[0] : end] = sorted(ids[lo[0] : end])
        del runs[i]

    while len(runs) > 1:
        (b, below), (a, top) = runs[-2], runs[-1]
        under = len(runs) - 2
        if a == n - 1:
            if below == 0:
                break
            # t pairs with U's lowest ids: w units with a lone u, until u
            # reaches the level under U; else one unit with each of the j
            # lowest, until t reaches U's level or U runs out.
            j, w = (1, below - runs[under - 1][1]) if a - b == 1 else (min(top - below, a - b), 1)
            star[b] += w
            star[b + j] -= w
            runs[under][1] -= w
            runs[-1][1] -= j * w
            if j < a - b:
                runs.insert(under + 1, [b + j, below])
                settle(under + 2)
            settle(under)
        elif (n - a) % 2 == 0:
            # Rounds of consecutive pairs until the group lands on U.
            link[a] += top - below
            runs[-1][1] = below
            settle(under + 1)
        elif top - below >= 2:
            # Odd group: each period of two levels pairs (g0,g1), (g2,g3), ...,
            # then (g0, g_last), then (g1,g2), (g3,g4), ...: every link once.
            f = (top - below) // 2
            link[a] += f
            link[a + 1] += f
            star[a] += f
            star[a + 1] -= f
            runs[-1][1] -= 2 * f
            settle(under + 1)
        else:
            # One level above U: all but the last member pair off onto U,
            # leaving the last alone on top.
            link[a] += 1
            runs[-1][1] = below
            runs.append([n - 1, top])
            settle(under + 1)
    _emit(ids, link, star, us, vs, ws)
    top = runs[-1][1]
    if top >= 2:
        us.append(ids[-1])
        vs.append(ids[-1])
        ws.append(top // 2)
    return ids[-1] if top % 2 else None


def _fill_edges(
    cliques: list[range], residuals: list[int], m: int
) -> tuple[EdgeArrays, list[tuple[int, int]]]:
    """All cliques' fill edges, repeats summed, with the cross edges that join
    consecutive pending vertices (also returned as a list)."""
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    pendings: list[int] = []
    for c in cliques:
        pending = _fill_clique(c, residuals[c.start : c.stop], us, vs, ws)
        if pending is not None:
            pendings.append(pending)
    if len(pendings) % 2 != 0:
        raise AssertionError("pending half-edges must pair up after parity fix")
    cross = list(zip(pendings[::2], pendings[1::2]))
    us += pendings[::2]
    vs += pendings[1::2]
    ws += [1] * len(cross)
    # Events repeat pairs: summing them here, and dropping the lists on
    # return, keeps the final build to the clique edges plus distinct pairs.
    fill = MultiGraph(m, EdgeArrays(
        np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws, dtype=np.int64)
    ))
    return fill.arrays(), cross


def realize(
    degrees: np.ndarray | list[int], materialize: bool = True
) -> tuple[MultiGraph | None, CliqueCoverCertificate]:
    """Build a multigraph with the given sorted degree sequence and its cover.

    With ``materialize=False`` only the cover, parity accounting and realized
    degrees are computed (identical to the materialized ones); the graph is
    returned as None.  Use it when the edge set would be too large to store:
    materializing more than ``DEFAULT_EDGE_CAP`` clique edges raises
    ResourceLimitError before anything is allocated.
    """
    edges, cert = _realize_columns(degrees, materialize)
    if edges is None:
        return None, cert
    return MultiGraph(len(cert.target_degrees), edges), cert


def _realize_columns(
    degrees: np.ndarray | list[int], materialize: bool = True
) -> tuple[EdgeArrays | None, CliqueCoverCertificate]:
    """``realize`` with the edges as columns sorted by key ``u * m + v``
    (m the sequence length), which a ``MultiGraph`` takes with no sort."""
    target = np.asarray(degrees, dtype=np.int64)
    if target.ndim != 1 or len(target) == 0:
        raise InputError("degree sequence must be a non-empty 1-d array")
    if (target < 1).any():
        raise InputError("degrees must be >= 1")
    if (np.diff(target) < 0).any():
        raise InputError("degree sequence must be sorted non-decreasing")

    m = len(target)
    cliques, starts = _clique_walk(target)
    sizes = np.array([len(c) for c in cliques], dtype=np.int64)
    if materialize:
        clique_edges = int((sizes * (sizes - 1) // 2).sum())
        if clique_edges > DEFAULT_EDGE_CAP:
            raise ResourceLimitError(
                f"realization would have {clique_edges} clique edges (cap {DEFAULT_EDGE_CAP})"
            )

    effective = target.copy()
    deficit_vertex: int | None = None
    if int(target.sum()) % 2 == 1:
        deficit_vertex = _pick_deficit_vertex(target, cliques)
        effective[deficit_vertex] -= 1

    cert = CliqueCoverCertificate(
        cliques=cliques,
        start_indices=starts,
        parity_deficit=0 if deficit_vertex is None else 1,
        parity_deficit_vertex=deficit_vertex,
        target_degrees=target,
        realized_degrees=effective,
    )

    if not materialize:
        return None, cert

    residuals = effective - np.repeat(sizes - 1, sizes)
    if (residuals < 0).any():
        raise AssertionError("negative residual: sortedness violated")
    fill, cert.pending_edges = _fill_edges(cliques, residuals.tolist(), m)
    # Clique edges have multiplicity 1 and come sorted.  Fill units on a
    # clique pair add to it; loops and cross edges are inserted at their
    # sorted positions, so the graph is built without a sort.
    u, v = clique_pairs(starts, sizes)[:2]
    key = u * m + v
    fill_key = fill.u * m + fill.v
    pos = np.searchsorted(key, fill_key)
    on_pair = np.zeros(len(pos), dtype=bool)
    if len(key):
        on_pair = key[np.minimum(pos, len(key) - 1)] == fill_key
    del key
    mult = np.ones(len(u), dtype=np.int64)
    mult[pos[on_pair]] += fill.mult[on_pair]
    off = ~on_pair
    return EdgeArrays(*(np.insert(c, pos[off], f[off]) for c, f in zip((u, v, mult), fill))), cert


@dataclass(frozen=True)
class CliqueCoverBound:
    """Closed-form independent-set bound for an interval's realization."""

    integral_form: float
    ceiling_sum: int


def clique_cover_bound(p: PowerLawParams, a: int, b: int) -> CliqueCoverBound:
    """Integral bound for the cliques covering [a, b], plus the exact
    per-degree ceiling sum it relaxes.

    integral_form = (e^a/beta)(a^-beta - (b+1)^-beta)
                    + e^a/a^(beta+1) - e^a/(b+1)^(beta+1) + (b+1-a)
    """
    if not (1 <= a <= b <= p.delta):
        raise InputError(f"need 1 <= {a} <= {b} <= delta={p.delta}")
    ea = math.exp(p.alpha)
    bb = p.beta
    integral = (
        ea / bb * (a**-bb - (b + 1) ** -bb)
        + ea / a ** (bb + 1)
        - ea / (b + 1) ** (bb + 1)
        + (b + 1 - a)
    )
    return CliqueCoverBound(integral, cover_ceiling_sum(p, a, b))
