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

A group's pairs are not re-listed at each event.  Each level's group is a
chain (``_Chain``): its ascending ids, one link per consecutive pair, and
two running accumulators indexed by a link's absolute parity.  A link
records a snapshot, and owes ``acc[parity] - snapshot`` units.  An even
round adds to one accumulator; an odd period adds to both and emits only
(g0, g_last); the one-level-above case adds to one and flushes only the
split-off last link; removing U's lowest ids flushes only the link it
breaks.  A merge of non-interleaved chains re-indexes the shorter one onto
the longer one's accumulators, an interleaved merge flushes both and
rebuilds, and a chain is flushed when its level reaches 0.

If the degree total is odd, one target is lowered by 1 before filling (the
highest-index vertex whose residual allows it), recorded as the parity
deficit.  The clique list is a certificate: its length upper-bounds the
maximum independent set of the output.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceLimitError
from .graph import EdgeArrays, MultiGraph
from .model import PowerLawParams, _floored_counts, cover_ceiling_sum

# Materialization cap on distinct edges, shared with the embedders: the
# interval at alpha = 10, beta = 1 alone needs 156,445,379 clique edges.
DEFAULT_EDGE_CAP = 10_000_000


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
    empty when a > b.  Raises ``InputError`` when a < 1 or b > delta."""
    if a < 1 or b > p.delta:
        raise InputError(f"need 1 <= {a} <= {b} <= delta={p.delta}")
    return np.repeat(np.arange(a, b + 1, dtype=np.int64), _floored_counts(p, a, b))


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


class _Chain:
    """A level's group as a chain: ascending member ids, one link per
    consecutive pair, and two running accumulators.  Link i has absolute
    index ``off + i``; its parity picks the accumulator it draws on, and it
    owes ``acc[parity] - snaps[i]`` units not yet emitted."""

    __slots__ = ("ids", "snaps", "off", "acc")

    def __init__(
        self, ids: list[int], snaps: list[int] | None = None, off: int = 0, acc: list[int] | None = None
    ):
        self.ids = ids
        self.snaps = [0] * (len(ids) - 1) if snaps is None else snaps
        self.off = off
        self.acc = [0, 0] if acc is None else acc

    def flush(self, lo: int, hi: int, us: list[int], vs: list[int], ws: list[int]) -> None:
        """Emit what links lo..hi-1 owe."""
        ids, snaps, acc, off = self.ids, self.snaps, self.acc, self.off
        for i in range(lo, hi):
            w = acc[(off + i) & 1] - snaps[i]
            if w:
                us.append(ids[i])
                vs.append(ids[i + 1])
                ws.append(w)

    def rebased(self, acc: list[int], off: int) -> list[int]:
        """Snapshots that keep every link's owed weight when the chain's links
        start at absolute index ``off`` and draw on ``acc``."""
        flip = (off - self.off) & 1
        snaps = self.snaps[:]
        for rel in range(min(2, len(snaps))):
            p = (self.off + rel) & 1
            shift = acc[p ^ flip] - self.acc[p]
            if shift:
                snaps[rel::2] = [s + shift for s in snaps[rel::2]]
        return snaps


def _merge(a: _Chain, b: _Chain, us: list[int], vs: list[int], ws: list[int]) -> _Chain:
    """One chain of the members of a and b.  When one lies wholly below the
    other, the longer keeps its links and the shorter is re-indexed onto its
    accumulators; interleaved chains are flushed and rebuilt."""
    if a.ids[-1] < b.ids[0]:
        lo, hi = a, b
    elif b.ids[-1] < a.ids[0]:
        lo, hi = b, a
    else:
        a.flush(0, len(a.snaps), us, vs, ws)
        b.flush(0, len(b.snaps), us, vs, ws)
        return _Chain(sorted(a.ids + b.ids))
    if len(lo.ids) >= len(hi.ids):
        off = lo.off + len(lo.ids)
        lo.snaps.append(lo.acc[(off - 1) & 1])
        lo.snaps += hi.rebased(lo.acc, off)
        lo.ids += hi.ids
        return lo
    off = hi.off - len(lo.ids)
    hi.snaps[:0] = lo.rebased(hi.acc, off) + [hi.acc[(hi.off - 1) & 1]]
    hi.ids[:0] = lo.ids
    hi.off = off
    return hi


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

    Residuals are held as levels: ``groups[r]`` is the chain (``_Chain``) of
    members with residual r, ``levels`` the ascending list of positive r.
    Each pass moves the top group T (level ``top``) down in one event, as
    the unit rule would over many units; U is the group at ``below``, the
    next level (0 when none).

    A group's matching is never listed while the group survives: a round
    of its consecutive pairs (g0,g1), (g2,g3), ... adds to the accumulator
    of those links' parity, and a link's weight is emitted only when the
    link breaks (U loses its lowest ids, the last member of an odd group
    splits off, or two interleaved groups merge) or when its group reaches
    level 0.  A merge of non-interleaved groups re-indexes the shorter
    chain onto the longer one's accumulators.  Pairs may still be emitted
    more than once; callers sum them.
    """
    ids_at: dict[int, list[int]] = {}
    for v, r in zip(members, residuals):
        if r > 0:
            ids_at.setdefault(r, []).append(v)
    groups = {r: _Chain(ids) for r, ids in ids_at.items()}
    levels = sorted(groups)

    def drop(chain: _Chain, level: int) -> None:
        if level <= 0:
            chain.flush(0, len(chain.snaps), us, vs, ws)
            return
        have = groups.get(level)
        if have is None:
            groups[level] = chain
            bisect.insort(levels, level)
        else:
            groups[level] = _merge(have, chain, us, vs, ws)

    while levels:
        top = levels.pop()
        group = groups.pop(top)
        below = levels[-1] if levels else 0
        ids = group.ids
        k = len(ids)
        if k == 1:
            t = ids[0]
            if not levels:
                if top >= 2:
                    us.append(t)
                    vs.append(t)
                    ws.append(top // 2)
                return t if top % 2 else None
            under = groups[below]
            if len(under.ids) == 1:
                # t pairs with the lone u until u reaches the level below it.
                del groups[levels.pop()]
                step = below - (levels[-1] if levels else 0)
                us.append(t)
                vs.append(under.ids[0])
                ws.append(step)
                drop(under, below - step)
                drop(group, top - step)
            else:
                # t pairs once with each of the j lowest ids of U, one unit
                # each, until t reaches U's level or U runs out.  The j ids
                # leave as a chain of their own; only the link to the rest
                # of U breaks.
                j = min(top - below, len(under.ids))
                if j < len(under.ids):
                    under.flush(j - 1, j, us, vs, ws)
                    moved = _Chain(under.ids[:j], under.snaps[: j - 1], under.off, under.acc[:])
                    del under.ids[:j], under.snaps[:j]
                    under.off += j
                else:
                    del groups[levels.pop()]
                    moved = under
                us.extend([t] * j)
                vs.extend(moved.ids)
                ws.extend([1] * j)
                drop(moved, below - 1)
                drop(group, top - j)
        elif k % 2 == 0:
            # Rounds of consecutive pairs until the group lands on U.
            group.acc[group.off & 1] += top - below
            drop(group, below)
        elif top - below >= 2:
            # Odd group: each period of two levels pairs (g0,g1), (g2,g3), ...,
            # then (g0, g_last), then (g1,g2), (g3,g4), ...: every link once.
            f = (top - below) // 2
            group.acc[0] += f
            group.acc[1] += f
            us.append(ids[0])
            vs.append(ids[-1])
            ws.append(f)
            drop(group, top - 2 * f)
        else:
            # One level above U: all but the last member pair off onto U,
            # leaving the last alone on top.
            group.acc[group.off & 1] += 1
            group.flush(k - 2, k - 1, us, vs, ws)
            last = ids.pop()
            group.snaps.pop()
            drop(group, below)
            groups[top] = _Chain([last])
            levels.append(top)
    return None


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
