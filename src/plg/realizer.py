"""Realize degree sequences as multigraphs covered by explicit cliques.

Construction: walk the sorted sequence, cutting a clique of size d[p]+1 at each
start position p (the tail clique takes whatever remains), then consume the
residual degree inside each clique deterministically:

  * repeatedly add one multi-edge unit between the two highest-residual
    members (ties broken by lowest vertex id);
  * when a single member remains positive, add self-loops two units at a time;
  * a final odd unit becomes a pending half-edge, joined to the next clique's
    pending half-edge by one cross-clique edge.

If the degree total is odd, one target is lowered by 1 before filling (the
highest-index vertex whose residual allows it), recorded as the parity
deficit.  The clique list is a certificate: its length upper-bounds the
maximum independent set of the output.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceLimitError
from .graph import EdgeArrays, MultiGraph
from .model import PowerLawParams, cover_ceiling_sum

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
    vertex_offset: int = 0
    pending_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.cliques)

    @property
    def is_upper_bound(self) -> int:
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
            vertex_offset=self.vertex_offset + offset,
            pending_edges=[(u + offset, v + offset) for u, v in self.pending_edges],
        )

    def to_json_dict(self) -> dict:
        return {
            "clique_sizes": [len(c) for c in self.cliques],
            "p_values": list(self.start_indices),
            "parity_deficit": self.parity_deficit,
            "parity_deficit_vertex": self.parity_deficit_vertex,
            "is_upper_bound": self.is_upper_bound,
        }


def interval_counts(p: PowerLawParams, a: int, b: int) -> np.ndarray:
    """(y_a, ..., y_b) as an int64 array."""
    a, b = max(a, 1), min(b, p.delta)
    if a > b:
        return np.zeros(0, dtype=np.int64)
    i = np.arange(a, b + 1, dtype=np.float64)
    v = math.exp(p.alpha) / i**p.beta
    c = np.round(v)
    snapped = np.abs(v - c) <= 1e-9 * np.maximum(1.0, np.abs(c))
    return np.where(snapped, c, np.floor(v)).astype(np.int64)


def interval_degree_sequence(p: PowerLawParams, a: int, b: int) -> np.ndarray:
    """Sorted degree sequence of the interval [a, b]: y_i copies of each i."""
    if not (1 <= a <= b <= p.delta):
        raise InputError(f"need 1 <= {a} <= {b} <= delta={p.delta}")
    counts = interval_counts(p, a, b)
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
    (u, v, clique index) int64 arrays grouped by clique size; cliques of
    fewer than two members contribute none."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    us, vs, ids = [], [], []
    for s in np.unique(sizes[sizes >= 2]).tolist():
        i, j = np.triu_indices(s, 1)
        which = np.flatnonzero(sizes == s)
        first = starts[which][:, None]
        us.append((first + i).ravel())
        vs.append((first + j).ravel())
        ids.append(np.repeat(which, len(i)))
    if not us:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return np.concatenate(us), np.concatenate(vs), np.concatenate(ids)


def _fill_clique(
    members: range,
    residuals: list[int],
    edges: dict[tuple[int, int], int],
) -> int | None:
    """Consume residuals inside one clique; returns the pending vertex, if any."""
    heap = [(-r, v) for v, r in zip(members, residuals) if r > 0]
    heapq.heapify(heap)
    while heap:
        r1, v1 = heapq.heappop(heap)
        r1 = -r1
        if not heap:
            if r1 >= 2:
                key = (v1, v1)
                edges[key] = edges.get(key, 0) + r1 // 2
            return v1 if r1 % 2 else None
        r2, v2 = heapq.heappop(heap)
        r2 = -r2
        third = -heap[0][0] if heap else 0
        step = max(1, r2 - third)
        key = (v1, v2) if v1 < v2 else (v2, v1)
        edges[key] = edges.get(key, 0) + step
        if r1 - step > 0:
            heapq.heappush(heap, (-(r1 - step), v1))
        if r2 - step > 0:
            heapq.heappush(heap, (-(r2 - step), v2))
    return None


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
    residual_list = residuals.tolist()
    fill: dict[tuple[int, int], int] = {}
    pendings: list[int] = []
    for c in cliques:
        pending = _fill_clique(c, residual_list[c.start : c.stop], fill)
        if pending is not None:
            pendings.append(pending)
    if len(pendings) % 2 != 0:
        raise AssertionError("pending half-edges must pair up after parity fix")
    cross = []
    for q1, q2 in zip(pendings[::2], pendings[1::2]):
        key = (q1, q2) if q1 < q2 else (q2, q1)
        fill[key] = fill.get(key, 0) + 1
        cross.append((q1, q2))
    cert.pending_edges = cross
    # Clique edges have multiplicity 1; the graph sums the fill units onto them.
    u, v, _ = clique_pairs(starts, sizes)
    k = len(fill)
    edges = EdgeArrays(
        np.concatenate([u, np.fromiter((e[0] for e in fill), np.int64, k)]),
        np.concatenate([v, np.fromiter((e[1] for e in fill), np.int64, k)]),
        np.concatenate([np.ones(len(u), dtype=np.int64), np.fromiter(fill.values(), np.int64, k)]),
    )
    return MultiGraph(m, edges), cert


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
