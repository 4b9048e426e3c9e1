"""Shared internals for assembling a full power-law graph around an embedded core.

Both embedders follow the same plan: double the input so every vertex sits in
a 2-clique with a matching edge, hand each pair two consecutive degree slots
from the top interval [ceil(x*delta), delta], blow up the matching edge to hit
the smaller slot, route the odd surplus half-edge (when the pair straddles a
degree boundary) to a fill vertex, and realize the remaining degree classes
with the interval realizer.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InternalError
from .graph import EdgeArrays, MultiGraph, is_independent
from .model import PowerLawParams
from .realizer import _realize_columns
from .report import degree_conformance, upper_bounds


def double_with_pairs(g: MultiGraph) -> MultiGraph:
    """The pair-clique doubling: v_i becomes adjacent v_{i,1}=2i, v_{i,2}=2i+1.

    Cross edges copy g's adjacency between all four copy pairs, so copies have
    degree 2*deg(v)+1 and the matching {2i, 2i+1} supports multi-edge fill.
    Each self-loop unit becomes 4 extra units on the pair's matching edge,
    which keeps both copies at 2*deg+1 without putting self-loops on
    embedded vertices.  A multi-edge raises ``InputError``.
    """
    n = g.vertex_count
    u, v, mult = g.arrays()
    loop = u == v
    if (~loop & (mult != 1)).any():
        raise InputError("doubling is defined for graphs without multi-edges")
    a, b = 2 * u[~loop], 2 * v[~loop]
    cols = np.ones((3, n + 4 * len(a)), dtype=np.int64)
    cols[0, :n] = 2 * np.arange(n)
    cols[1, :n] = cols[0, :n] + 1
    cols[2, u[loop]] += 4 * mult[loop]
    copies = cols[:2, n:].reshape(2, 4, len(a))
    copies[0] = a + np.array([[0], [0], [1], [1]])
    copies[1] = b + np.array([[0], [1], [0], [1]])
    return MultiGraph(2 * n, EdgeArrays(*cols))


def assign_pair_slots(
    slots: np.ndarray, pair_degrees: list[int]
) -> tuple[list[tuple[int, int]], np.ndarray] | None:
    """Give each pair two consecutive feasible slots, smallest degrees first.

    ``pair_degrees`` must be ascending.  Returns (per-pair slot targets,
    leftover slot degrees) or None when the slots cannot accommodate the
    pairs (callers then raise alpha and retry).

    Pair j takes slots ptr_j and ptr_j + 1, where ptr_j is the first slot at
    or above both its degree (lb_j) and ptr_(j-1) + 2; unrolled, that is
    ptr_j = 2j + max over i <= j of (lb_i - 2i), one running maximum.
    """
    need = np.asarray(pair_degrees, dtype=np.int64)
    two_j = 2 * np.arange(len(need), dtype=np.int64)
    ptr = np.maximum.accumulate(np.searchsorted(slots, need) - two_j) + two_j
    if len(ptr) and ptr[-1] + 1 >= len(slots):
        return None
    targets = list(zip(slots[ptr].tolist(), slots[ptr + 1].tolist()))
    left = np.ones(len(slots), dtype=bool)
    left[ptr] = left[ptr + 1] = False
    return targets, slots[left]


def slot_targets(doubled: MultiGraph, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Seat every pair {2i, 2i+1} of ``doubled`` on two slots, smallest pair
    degree first (ties by pair index).

    Returns ((m, 2) int64 slot targets in pair order, leftover slot degrees),
    or None when the slots cannot take every pair.
    """
    pair_deg = doubled.degrees()[0::2]
    order = np.argsort(pair_deg, kind="stable")
    assigned = assign_pair_slots(slots, pair_deg[order])
    if assigned is None:
        return None
    seated, leftover = assigned
    targets = np.empty((len(order), 2), dtype=np.int64)
    targets[order] = np.array(seated, dtype=np.int64).reshape(-1, 2)
    return targets, leftover


def first_fit(trial, limit: int, start: int = 0):
    """``trial(t)`` at the least t in [start, limit] where it is not None,
    for start <= limit, found by doubling the step from ``start`` (trying
    start, start + 1, start + 2, start + 4, ...) and then bisecting, so
    ``trial`` must be monotone: once not None, not None at every larger t.
    That makes the result the least t in [0, limit] whenever trial(start - 1)
    is None.  Raises ``InternalError`` when ``trial(limit)`` is None."""
    lo, hi, got = start - 1, start, trial(start)
    while got is None:
        if hi >= limit:
            raise InternalError(f"no fit within {limit} steps")
        lo, hi = hi, min(limit, start + (2 * (hi - start) or 1))
        got = trial(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        at_mid = trial(mid)
        if at_mid is None:
            lo = mid
        else:
            hi, got = mid, at_mid
    return got


def map_witness(walks: np.ndarray, source: list[int]) -> np.ndarray:
    """First pair members 2i of the walks i (rows of ``walks``) that stay
    inside ``source``: the image of an independent set of the base graph."""
    return 2 * np.flatnonzero(np.isin(walks, source).all(axis=1))


def assemble(
    p: PowerLawParams,
    doubled: MultiGraph,
    block: str,
    targets: np.ndarray,
    parts: list[tuple[str, np.ndarray]],
    walks: np.ndarray,
    witness_source: list[int],
) -> tuple[MultiGraph, dict]:
    """Assemble the power-law graph: the doubled ``block`` first, then each
    residual part, realized from its (name, targets) in order.

    Pair fill: the matching edge of pair i gets multiplicity raised by
    t1 - deg, putting both members at the lower slot t1; when t2 = t1 + 1 the
    second member's surplus half-edge is routed to a vertex of the first part
    with targets (the last part when none has any), whose realize target was
    lowered by 1 to receive it.  The witness is ``map_witness(walks,
    witness_source)``, checked independent in the output.

    Returns (graph, entries), where entries are the report entries assembly
    settles, under their JSON keys: ``parts``, ``is_upper_bounds``,
    ``certificates``, ``parity_deficits`` and ``witness`` (see
    ``plg.report``).  Raises InputError when the surplus part cannot take
    every surplus half-edge with its targets kept at 1 or more, and
    ``InternalError`` when the output's degree histogram does not conform.
    """
    n_embed = doubled.vertex_count
    deg = doubled.degrees()
    t1, t2 = targets.T
    d1 = deg[0::2]
    if (deg[1::2] != d1).any():
        raise AssertionError("pair members must have equal doubled degree")
    if (t1 < d1).any():
        raise AssertionError("slot below doubled degree; feasibility broken")
    if not np.isin(t2 - t1, (0, 1)).all():
        raise AssertionError("pair slots must be equal or adjacent degrees")
    raised = 2 * np.flatnonzero(t1 > d1)
    seconds = 2 * np.flatnonzero(t2 != t1) + 1
    surplus_count = len(seconds)

    # Route surpluses into the receiving part: lower its largest targets by
    # one unit each (round-robin when there are more surpluses than vertices).
    names = [name for name, _ in parts]
    fills = [np.asarray(t, dtype=np.int64) for _, t in parts]
    recv = next((i for i, t in enumerate(fills) if len(t)), len(parts) - 1)
    recv_units = np.zeros(len(fills[recv]), dtype=np.int64)
    receivers = np.zeros(0, dtype=np.int64)
    if surplus_count:
        if len(fills[recv]) == 0:
            raise InputError(f"no fill vertices in part {names[recv]} to take surplus half-edges")
        order = np.argsort(fills[recv], kind="stable")[::-1]
        receivers = order[np.arange(surplus_count) % len(order)]
        recv_units = np.bincount(receivers, minlength=len(fills[recv]))
        fills[recv] = fills[recv] - recv_units
        if (fills[recv] < 1).any():
            raise InputError(
                f"{surplus_count} surplus half-edges cannot be routed into part "
                f"{names[recv]} without dropping a fill target below 1"
            )

    # Realize each part on its own index space; it is written into place below.
    offset = n_embed
    part_ranges = {block: (0, n_embed)}
    certs: dict[str, dict] = {}
    deficits: list[list[int]] = []  # [vertex, target] pairs
    labels = dict.fromkeys(range(n_embed), "embedded")
    recv_position = np.zeros(0, dtype=np.int64)
    blocks = []
    for i, (name, fill) in enumerate(zip(names, fills)):
        part_ranges[name] = (offset, offset + len(fill))
        if len(fill) == 0:
            continue
        srt = np.argsort(fill, kind="stable")
        cols = _realize_columns(fill[srt])
        cols.cert.offset = offset
        if i == recv:
            # recv_position[j] = final vertex id of the part's j-th pre-sort entry
            recv_position = np.empty(len(srt), dtype=np.int64)
            recv_position[srt] = np.arange(len(srt)) + offset
        blocks.append(cols)
        certs[name] = cols.cert.to_dict()
        local = cols.cert.parity_deficit_vertex
        if local is not None:
            intended = int(fill[srt[local]])
            if i == recv:
                # A receiver's realize target was pre-lowered; the routed edge
                # restores it, so the deficit is against the original class.
                intended += int(recv_units[srt[local]])
            deficits.append([offset + local, intended])
        labels.update(dict.fromkeys(range(offset, offset + len(fill)), f"residual-{name}"))
        offset += len(fill)

    # The head holds every edge with an endpoint in [0, n_embed): the doubled
    # block, the raised matching units and the routed surplus edges to their
    # receivers.  Each part's edges lie above it, in vertex order, so the
    # columns are sized once and filled in key order, and the final build
    # needs no sort.
    du, dv, dm = doubled.arrays()
    k, r = len(du), len(du) + len(raised)
    head_rows = np.ones((3, r + surplus_count), dtype=np.int64)
    head_rows[:, :k] = du, dv, dm
    head_rows[:, k:r] = raised, raised + 1, (t1 - d1)[raised // 2]
    head_rows[:2, r:] = seconds, recv_position[receivers]
    head = MultiGraph(offset, EdgeArrays(*head_rows)).arrays()
    stops = np.cumsum([len(head.u)] + [cols.rows for cols in blocks])
    out = np.empty((3, stops[-1]), dtype=np.int64)
    out[:, : stops[0]] = head
    for cols, start, stop in zip(blocks, stops, stops[1:]):
        cols.write(EdgeArrays(*out[:, start:stop]))
    graph = MultiGraph(offset, EdgeArrays(*out), labels)

    witness = map_witness(walks, witness_source).tolist()
    if not is_independent(graph, witness):
        raise InternalError("mapped witness is not independent in the output")
    mismatched = degree_conformance(graph, p, deficits)
    if mismatched:
        raise InternalError(f"output degree histogram does not conform: {mismatched}")
    counts = upper_bounds(block, part_ranges, {name: len(cert["cliques"]) for name, cert in certs.items()})
    entries = {
        "parts": {name: {"range": [lo, hi]} for name, (lo, hi) in part_ranges.items()},
        "is_upper_bounds": counts,
        "certificates": certs,
        "parity_deficits": deficits,
        "witness": witness,
    }
    return graph, entries
