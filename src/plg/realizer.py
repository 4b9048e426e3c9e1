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
deficit.  The cover is a certificate: its clique count upper-bounds the
maximum independent set of the output.  ``CliqueCoverCertificate`` holds
what defines it, the clique sizes in order, the first vertex (``offset``,
set by assembly when it places a part) and the deficit vertex; starts and
ranges derive from them.  Its ``to_dict`` is the report's certificate
entry, which ``plg verify`` rebuilds from the entry's cliques.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceLimitError
from .graph import EdgeArrays, MultiGraph
from .model import PowerLawParams, _floored_counts, cover_ceiling_sum, degree_count, interval_size_exact

# Materialization cap on distinct edges, shared with the embedders: the
# interval at alpha = 10, beta = 1 alone needs 156,445,379 clique edges.
DEFAULT_EDGE_CAP = 10_000_000
# Longest sequence that can pass that cap: every clique of s >= 2 members has
# at least s/2 edges, and only the tail clique can have one member.
SEQUENCE_CAP = 2 * DEFAULT_EDGE_CAP + 1


@dataclass
class CliqueCoverCertificate:
    """Ordered clique cover of the vertices offset, offset + 1, ...: clique j
    holds the ``sizes[j]`` vertices after those of cliques 0 .. j-1.
    ``parity_deficit_vertex`` is the vertex whose target an odd degree total
    lowered by one, counted from ``offset`` (None when the total is even)."""

    sizes: np.ndarray
    offset: int = 0
    parity_deficit_vertex: int | None = None

    @property
    def size(self) -> int:
        return len(self.sizes)

    @property
    def starts(self) -> np.ndarray:
        return self.offset + np.cumsum(self.sizes) - self.sizes

    @property
    def cliques(self) -> list[range]:
        return [range(s, s + k) for s, k in zip(self.starts.tolist(), self.sizes.tolist())]

    def to_dict(self) -> dict:
        """The report's certificate entry: each clique as [start, stop) and
        the deficit vertex, both as vertex ids."""
        starts, v = self.starts, self.parity_deficit_vertex
        return {
            "cliques": np.stack([starts, starts + self.sizes], axis=1).tolist(),
            "parity_deficit_vertex": None if v is None else self.offset + v,
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
    # y_a is the largest count, so the span times it bounds the total; past
    # the cap, y_a and then the exact floor-block sum decide, with no array.
    top = degree_count(p, a)
    if (b - a + 1) * top > SEQUENCE_CAP and (top > SEQUENCE_CAP or interval_size_exact(p, a, b) > SEQUENCE_CAP):
        raise ResourceLimitError(f"interval [{a}, {b}] holds more than {SEQUENCE_CAP} vertices")
    return np.repeat(np.arange(a, b + 1, dtype=np.int64), _floored_counts(p, a, b))


def _clique_walk(d: np.ndarray) -> np.ndarray:
    """Clique sizes of the walk over the sorted sequence d: a clique of
    d[p] + 1 members at each start p, the tail taking what remains."""
    m = len(d)
    sizes = []
    p = 0
    while p < m:
        sizes.append(min(int(d[p]) + 1, m - p))
        p += sizes[-1]
    return np.array(sizes, dtype=np.int64)


def _pick_deficit_vertex(d: np.ndarray, sizes: np.ndarray) -> int:
    # Residuals are non-decreasing inside a clique, so the last member of the
    # last clique with any slack is the highest-index vertex we can lower.
    last = np.cumsum(sizes) - 1
    slack = np.flatnonzero(d[last] - (sizes - 1) >= 1)
    if len(slack) == 0:
        raise AssertionError("odd degree total implies a positive residual somewhere")
    return int(last[slack[-1]])


def _member_rows(x, later, before, after, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Write rows member by member into the int64 columns ``u`` and ``v``:
    for member x[i], ``before[i]`` rows, its pairs (x, x + 1), ...,
    (x, x + later[i]), then ``after[i]`` rows; returns each member's first
    row.  All of x's rows hold u = x and v counting up by one to its last
    pair, so a single row before the pairs is the loop (x, x); rows after
    them are the caller's to fill."""
    rows = later + before + after
    first = np.cumsum(rows) - rows
    u[:] = np.repeat(x, rows)
    np.subtract(np.arange(len(u)), np.repeat(first + before - x - 1, rows), out=v)
    return first


class PartColumns(NamedTuple):
    """A realization's edges before they are laid out: its cover, its fill
    units inside cliques, summed, as (u, v, mult) columns of pairs u < v and
    loops u = v, and its cross edges as a (2, k) array of pairs p < q.  The
    units and cross edges count vertices from the cover's first member."""

    cert: CliqueCoverCertificate
    units: EdgeArrays
    cross: np.ndarray

    @property
    def rows(self) -> int:
        """Distinct edges: every clique pair, loop and cross edge."""
        sizes = self.cert.sizes
        pairs = int((sizes * (sizes - 1) // 2).sum())
        return pairs + int(np.count_nonzero(self.units.u == self.units.v)) + self.cross.shape[1]

    def write(self, out: EdgeArrays) -> None:
        """Write the edges, vertex ids moved by the cover's offset, into the
        columns ``out`` of ``rows`` entries, in key order: member x's loop,
        its pairs with the later members of its clique, then its cross edge.
        Fill units on a clique pair add to the pair's multiplicity 1."""
        sizes, offset = self.cert.sizes, self.cert.offset
        x = np.arange(int(sizes.sum()))
        later = np.repeat(np.cumsum(sizes), sizes) - 1 - x
        fu, fv, fw = self.units
        loop = fu == fv
        lu, pu, pv = fu[loop], fu[~loop], fv[~loop]
        before = np.zeros(len(x), dtype=np.int64)
        before[lu] = 1
        after = np.zeros(len(x), dtype=np.int64)
        after[self.cross[0]] = 1
        first = _member_rows(x + offset, later, before, after, out.u, out.v)
        p, q = self.cross
        out.v[first[p] + before[p] + later[p]] = q + offset
        out.mult[:] = 1
        out.mult[first[pu] + before[pu] + pv - pu - 1] += fw[~loop]
        out.mult[first[lu]] = fw[loop]


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


def _fill_edges(sizes: np.ndarray, residuals: np.ndarray) -> tuple[EdgeArrays, np.ndarray]:
    """All cliques' fill units inside them, repeats summed, and the cross
    edges that join consecutive pending vertices, as a (2, k) array.  A
    clique with no positive residual emits nothing and is skipped."""
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    pendings: list[int] = []
    stops = np.cumsum(sizes)
    starts = stops - sizes
    busy = np.maximum.reduceat(residuals, starts) > 0
    res = residuals.tolist()
    for start, stop in zip(starts[busy].tolist(), stops[busy].tolist()):
        pending = _fill_clique(range(start, stop), res[start:stop], us, vs, ws)
        if pending is not None:
            pendings.append(pending)
    if len(pendings) % 2 != 0:
        raise AssertionError("pending half-edges must pair up after parity fix")
    # Events repeat pairs: summing them here, and dropping the lists on
    # return, keeps the layout to the clique edges plus distinct units.
    fill = MultiGraph(len(residuals), EdgeArrays(
        np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws, dtype=np.int64)
    ))
    return fill.arrays(), np.array(pendings, dtype=np.int64).reshape(-1, 2).T


def clique_cover(degrees: np.ndarray | list[int]) -> CliqueCoverCertificate:
    """The clique cover, parity deficit included, that ``realize`` certifies
    its multigraph with, for a sorted degree sequence, without building any
    edge: it serves sequences whose edges would not fit in memory."""
    target = np.asarray(degrees, dtype=np.int64)
    if target.ndim != 1 or len(target) == 0:
        raise InputError("degree sequence must be a non-empty 1-d array")
    if (target < 1).any():
        raise InputError("degrees must be >= 1")
    if (np.diff(target) < 0).any():
        raise InputError("degree sequence must be sorted non-decreasing")
    sizes = _clique_walk(target)
    cert = CliqueCoverCertificate(sizes)
    if int(target.sum()) % 2 == 1:
        cert.parity_deficit_vertex = _pick_deficit_vertex(target, sizes)
    return cert


def realize(degrees: np.ndarray | list[int]) -> tuple[MultiGraph, CliqueCoverCertificate]:
    """Build a multigraph with the given sorted degree sequence and its
    cover.  More than ``DEFAULT_EDGE_CAP`` clique edges raise
    ResourceLimitError before anything is allocated."""
    cols = _realize_columns(degrees)
    edges = EdgeArrays(*np.empty((3, cols.rows), dtype=np.int64))
    cols.write(edges)
    return MultiGraph(int(cols.cert.sizes.sum()), edges), cols.cert


def _realize_columns(degrees: np.ndarray | list[int]) -> PartColumns:
    """``realize`` with the edges as ``PartColumns``, which write them in
    the key order u * m + v (m the sequence length) that a ``MultiGraph``
    takes with no sort."""
    cert = clique_cover(degrees)
    sizes = cert.sizes
    clique_edges = int((sizes * (sizes - 1) // 2).sum())
    if clique_edges > DEFAULT_EDGE_CAP:
        raise ResourceLimitError(f"realization would have {clique_edges} clique edges (cap {DEFAULT_EDGE_CAP})")
    residuals = np.asarray(degrees, dtype=np.int64) - np.repeat(sizes - 1, sizes)
    if cert.parity_deficit_vertex is not None:
        residuals[cert.parity_deficit_vertex] -= 1
    if (residuals < 0).any():
        raise AssertionError("negative residual: sortedness violated")
    units, cross = _fill_edges(sizes, residuals)
    return PartColumns(cert, units, cross)


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
