import heapq
import itertools
import os
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plg import (
    MultiGraph,
    PowerLawParams,
    ResourceLimitError,
    clique_cover,
    clique_cover_bound,
    degree_counts,
    embed_beta1,
    embed_sub1,
    exact_mis,
    interval_degree_sequence,
    realize,
)
from plg import _assembly
from plg.cli import main
from plg.graph import EdgeArrays
from plg.realizer import _fill_clique, _realize_columns

from conftest import assert_valid_cover, brute_mis, degrees_match, random_simple_graph, realized_degrees

degree_seqs = st.lists(st.integers(1, 9), min_size=1, max_size=14).map(sorted)


def test_interval_sequence_alpha2_beta1():
    p = PowerLawParams(2.0, 1.0)
    assert list(interval_degree_sequence(p, 1, 2)) == [1] * 7 + [2] * 3
    full = interval_degree_sequence(p, 1, 7)
    assert len(full) == 16
    assert int(full.sum()) == int(
        (np.arange(1, 8) * degree_counts(p)).sum()
    )


def test_interval_sequence_single_class():
    p = PowerLawParams(2.0, 1.0)
    assert list(interval_degree_sequence(p, 2, 2)) == [2, 2, 2]


def test_realize_two_matchings():
    g, cert = realize([1, 1, 1, 1])
    assert cert.size == 2
    assert [list(c) for c in cert.cliques] == [[0, 1], [2, 3]]
    assert exact_mis(g).size == 2
    assert brute_mis(g) == 2


def test_realize_triangle():
    g, cert = realize([2, 2, 2])
    assert cert.size == 1
    assert exact_mis(g).size == 1


def test_realize_mixed_example():
    g, cert = realize([1, 1, 2, 2, 2])
    assert [list(c) for c in cert.cliques] == [[0, 1], [2, 3, 4]]
    assert cert.parity_deficit_vertex is None
    assert brute_mis(g) == 2


def test_parity_regression_uniform_tail():
    # Odd total whose tail clique is uniform: the deficit must move to a
    # vertex with slack instead of going negative inside the tail.
    g, cert = realize([1, 2, 2, 2, 2])
    assert cert.parity_deficit_vertex is not None
    assert sorted(g.degrees()) == [1, 1, 2, 2, 2]
    assert degrees_match(g, [1, 2, 2, 2, 2], cert)


def test_degree_exactness_random():
    rng = random.Random(17)
    for _ in range(120):
        d = sorted(rng.randint(1, 9) for _ in range(rng.randint(1, 16)))
        g, cert = realize(d)
        assert degrees_match(g, d, cert)
        target = np.array(d)
        realized = np.sort(g.degrees())
        diff = target - realized
        assert int(diff.sum()) == (1 if sum(d) % 2 else 0)
        assert (diff >= 0).all() and (diff <= 1).all()
        assert int((diff == 1).sum()) == (cert.parity_deficit_vertex is not None)
        assert_valid_cover(g, cert)


def test_p_recurrence():
    rng = random.Random(23)
    for _ in range(60):
        d = sorted(rng.randint(1, 7) for _ in range(rng.randint(1, 20)))
        cert = clique_cover(d)
        starts = cert.starts.tolist()
        assert starts[0] == 0
        for i in range(len(starts) - 1):
            # full cliques follow p(i+1) = p(i) + d[p(i)] + 1
            assert starts[i + 1] == starts[i] + d[starts[i]] + 1
        tail = cert.cliques[-1]
        assert len(tail) == min(d[tail.start] + 1, len(d) - tail.start)


@settings(max_examples=120, deadline=None)
@given(degree_seqs)
def test_modes_agree(d):
    # The cover alone is the one the materialized realization certifies.
    g, cert_full = realize(d)
    cert_fast = clique_cover(d)
    assert cert_fast.to_dict() == cert_full.to_dict()
    assert degrees_match(g, d, cert_fast)


def test_certificate_soundness_small():
    rng = random.Random(31)
    for _ in range(100):
        d = sorted(rng.randint(1, 8) for _ in range(rng.randint(1, 14)))
        g, cert = realize(d)
        assert brute_mis(g) <= cert.size


def test_cover_bound_examples():
    p = PowerLawParams(2.0, 1.0)
    assert clique_cover_bound(p, 1, 1).ceiling_sum == 7
    top = PowerLawParams(2.0, 1.0)
    assert clique_cover_bound(top, top.delta, top.delta).ceiling_sum == 1


def test_bound_chain_on_grid():
    # certificate length <= per-class ceiling sum <= integral form + 2
    for beta in (0.3, 0.5, 0.8, 1.0):
        for alpha in (1.0, 2.0, 3.0):
            p = PowerLawParams(alpha, beta)
            for a, b in [(1, p.delta), (2, min(10, p.delta)), (1, max(1, p.delta // 2))]:
                if a > b:
                    continue
                d = interval_degree_sequence(p, a, b)
                if len(d) == 0:
                    continue
                cert = clique_cover(d)
                bound = clique_cover_bound(p, a, b)
                assert cert.size <= bound.ceiling_sum
                assert bound.ceiling_sum <= bound.integral_form + 2


def test_realize_vs_bound_alpha3():
    p = PowerLawParams(3.0, 0.5)
    d = interval_degree_sequence(p, 2, 10)
    cert = clique_cover(d)
    bound = clique_cover_bound(p, 2, 10)
    assert cert.size <= bound.ceiling_sum <= bound.integral_form + 2


def test_realize_input_validation():
    with pytest.raises(ValueError):
        realize([])
    with pytest.raises(ValueError):
        realize([0, 1])
    with pytest.raises(ValueError):
        realize([3, 1])


def test_certificate_json_shape():
    _, cert = realize([1, 1, 2, 2, 2])
    assert cert.to_dict() == {"cliques": [[0, 2], [2, 5]], "parity_deficit_vertex": None}
    cert.offset = 10
    assert cert.to_dict()["cliques"] == [[10, 12], [12, 15]]
    _, odd = realize([1, 2, 2, 2, 2])
    odd.offset = 10
    assert odd.to_dict()["parity_deficit_vertex"] == 10 + odd.parity_deficit_vertex


def test_realize_cap_raises_before_allocating():
    # The full interval at alpha = 10, beta = 1 needs 156,445,379 clique edges;
    # the cap is checked from the clique sizes alone, before any edge exists.
    p = PowerLawParams(10.0, 1.0)
    d = interval_degree_sequence(p, 1, p.delta)
    cert = clique_cover(d)
    assert sum(len(c) * (len(c) - 1) // 2 for c in cert.cliques) == 156_445_379
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="156445379 clique edges"):
        realize(d)
    assert main(["realize", "--alpha", "10", "--beta", "1", "--from", "1",
                 "--to", str(p.delta), "--out", os.devnull]) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "alpha, beta, to",
    [
        ("30", "1", "1"),  # y_1 = e^30, about 1.07e13 vertices of degree 1
        ("20", "1", "1"),  # y_1 = 485,165,195: 3.61 GiB before the edge cap
        ("10", "0.5", "485165195"),  # delta = e^20 degrees, one vertex each
    ],
)
def test_realize_refuses_oversized_interval_before_allocating(tmp_path, capsys, alpha, beta, to):
    out, cert = tmp_path / "out.plg", tmp_path / "cert.json"
    argv = ["realize", "--alpha", alpha, "--beta", beta, "--from", "1", "--to", to]
    start = time.perf_counter()
    assert main([*argv, "--out", str(out), "--cert", str(cert)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: interval [1, ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# -- the residual fill against the unit-by-unit heap -----------------------


def _heap_fill_clique(
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


def _run_length_fill(members: range, residuals: list[int]):
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    pending = _fill_clique(members, residuals, us, vs, ws)
    mult: dict[tuple[int, int], int] = {}
    for u, v, w in zip(us, vs, ws):
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + w
    return mult, pending


_values = st.integers(0, 60)
_residual_shapes = st.one_of(
    st.lists(_values, min_size=1, max_size=40),
    # long equal runs, of odd and of even length
    st.lists(st.tuples(_values, st.integers(1, 15)), min_size=1, max_size=4).map(
        lambda runs: [r for r, n in runs for _ in range(n)][:40]
    ),
    # ladders of consecutive values, climbing or falling
    st.tuples(st.integers(0, 30), st.integers(1, 30), st.booleans()).map(
        lambda t: list(range(t[0], t[0] + t[1]))[:: -1 if t[2] else 1]
    ),
    # a single vertex far above the rest
    st.tuples(st.lists(st.integers(0, 4), max_size=39), st.integers(20, 60), st.integers(0, 39)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] :]
    ),
)


@settings(max_examples=600, deadline=None)
@given(_residual_shapes, st.booleans(), st.integers(0, 10**6))
@example([5, 5, 5], False, 0)
@example([4, 4, 4, 4], False, 0)
@example(list(range(1, 21)), False, 3)
@example([60, 1, 1, 1], False, 0)
@example([1, 60, 2, 2], True, 0)
def test_run_length_fill_matches_heap(residuals, ordered, offset):
    if ordered:
        residuals = sorted(residuals)
    members = range(offset, offset + len(residuals))
    expected: dict[tuple[int, int], int] = {}
    pending = _heap_fill_clique(members, residuals, expected)
    assert _run_length_fill(members, residuals) == (expected, pending)


# The 564-member clique of the 2,956-vertex part that bench seed 1's first
# embed-sub1 call realizes: a ladder with its last member lowered by the
# parity fix.
_BENCH_LADDER = list(range(154, 717)) + [715]


def _ladder(start: int, length: int, step: int, falling: bool, lowered: bool) -> list[int]:
    values = list(range(start, start + step * length, step))
    if lowered and values[-1] > 0:
        values[-1] -= 1
    return values[::-1] if falling else values


_level = st.integers(0, 400)
_chain_shapes = st.one_of(
    st.lists(_level, min_size=1, max_size=200),
    # climbing and falling ladders, one member per level or every other level
    st.builds(_ladder, st.integers(0, 200), st.integers(1, 200), st.integers(1, 2), st.booleans(), st.booleans()),
    # interleaved levels: ids cycle through a few levels, so groups that
    # meet on a level hold alternating ids
    st.tuples(st.lists(st.integers(1, 400), min_size=2, max_size=4), st.integers(2, 200)).map(
        lambda t: [t[0][i % len(t[0])] for i in range(t[1])]
    ),
    # equal runs, of odd and of even length
    st.lists(st.tuples(_level, st.integers(1, 60)), min_size=1, max_size=6).map(
        lambda runs: [r for r, n in runs for _ in range(n)][:200]
    ),
    # a ladder of low values with one vertex far above the rest
    st.tuples(st.integers(1, 199), st.integers(100, 400), st.integers(0, 199), st.booleans()).map(
        lambda t: (lambda low: low[: t[2]] + [t[1]] + low[t[2] :])(_ladder(0, t[0], 1, t[3], False))
    ),
)


@settings(max_examples=400, deadline=None)
@given(_chain_shapes, st.booleans(), st.integers(0, 10**6))
@example(_BENCH_LADDER, False, 0)
@example([3, 1, 3, 1, 3, 1, 3], False, 0)
@example([9, 2, 2, 2, 2, 2], False, 0)
def test_chain_fill_matches_heap(residuals, ordered, offset):
    if ordered:
        residuals = sorted(residuals)
    members = range(offset, offset + len(residuals))
    expected: dict[tuple[int, int], int] = {}
    pending = _heap_fill_clique(members, residuals, expected)
    assert _run_length_fill(members, residuals) == (expected, pending)


def test_ladder_fill_emits_each_pair_about_once():
    # A group's matching is not re-listed while the group survives: the
    # ladder above appends one entry per pair, plus one for the pair its
    # lowered last member is emitted on before the re-sort.
    members = range(len(_BENCH_LADDER))
    expected: dict[tuple[int, int], int] = {}
    _heap_fill_clique(members, _BENCH_LADDER, expected)
    us: list[int] = []
    _fill_clique(members, _BENCH_LADDER, us, [], [])
    assert len(expected) == 842
    assert len(us) <= len(expected) + 1


def _heap_realize(d):
    """realize() with the heap fill: the fill units summed per pair in a
    dict, then the cross edges joining consecutive pending vertices."""
    cert = clique_cover(d)
    residuals = (realized_degrees(d, cert) - np.repeat(cert.sizes - 1, cert.sizes)).tolist()
    fill: dict[tuple[int, int], int] = {}
    pendings = []
    for c in cert.cliques:
        pending = _heap_fill_clique(c, residuals[c.start : c.stop], fill)
        if pending is not None:
            pendings.append(pending)
    cross = list(zip(pendings[::2], pendings[1::2]))
    for q1, q2 in cross:
        key = (min(q1, q2), max(q1, q2))
        fill[key] = fill.get(key, 0) + 1
    u, v = np.array([pair for c in cert.cliques for pair in itertools.combinations(c, 2)], dtype=np.int64).reshape(-1, 2).T
    k = len(fill)
    edges = EdgeArrays(
        np.concatenate([u, np.fromiter((e[0] for e in fill), np.int64, k)]),
        np.concatenate([v, np.fromiter((e[1] for e in fill), np.int64, k)]),
        np.concatenate([np.ones(len(u), dtype=np.int64), np.fromiter(fill.values(), np.int64, k)]),
    )
    return MultiGraph(len(d), edges), cross


def _recorded_parts(monkeypatch) -> list[tuple[np.ndarray, EdgeArrays]]:
    """Record the (degree sequence, edge columns) of every part that
    ``_assembly`` realizes, the columns as the part writes them at offset 0."""
    seen = []
    realize_columns = _assembly._realize_columns

    def recording(d):
        cols = realize_columns(d)
        edges = EdgeArrays(*np.empty((3, cols.rows), dtype=np.int64))
        cols.write(edges)
        seen.append((np.array(d), edges))
        return cols

    monkeypatch.setattr(_assembly, "_realize_columns", recording)
    return seen


def _realized_sequences(monkeypatch, embed) -> list[np.ndarray]:
    parts = _recorded_parts(monkeypatch)
    embed()
    monkeypatch.undo()
    return [d for d, _ in parts]


@pytest.mark.parametrize(
    "embed",
    [
        lambda: embed_sub1(random_simple_graph(random.Random(1), 20, 0.2), 0.8),
        lambda: embed_beta1(random_simple_graph(random.Random(2), 64, 0.064), 4, 7),
    ],
    ids=["embed-sub1", "embed-beta1"],
)
def test_realize_matches_heap_reference(monkeypatch, embed):
    # The interval sequences the benchmark's embedders realize: beta = 0.8 on
    # 20 input vertices, and d = 4 over 64 vertices.
    sequences = _realized_sequences(monkeypatch, embed)
    assert len(sequences) == 2 and max(map(len, sequences)) > 1000
    for d in sequences:
        g, cert = realize(d)
        ref, cross = _heap_realize(d)
        for got, want in zip(g.arrays(), ref.arrays()):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert [tuple(e) for e in _realize_columns(d).cross.T.tolist()] == cross


# -- sort-free final builds ----------------------------------------------------


def _recorded_builds(monkeypatch, module) -> list:
    """Record the (vertex_count, edges) of every MultiGraph that ``module``
    builds."""
    calls = []

    class Recording(MultiGraph):
        def __init__(self, vertex_count, edges=None, labels=None):
            calls.append((vertex_count, edges))
            super().__init__(vertex_count, edges, labels)

    monkeypatch.setattr(module, "MultiGraph", Recording)
    return calls


def _keys_strictly_increase(vertex_count, edges) -> bool:
    u, v, _ = edges
    key = np.minimum(u, v) * vertex_count + np.maximum(u, v)
    return bool((key[1:] > key[:-1]).all())


@pytest.mark.parametrize(
    "embed",
    [
        lambda: embed_sub1(random_simple_graph(random.Random(1), 20, 0.2), 0.8),
        lambda: embed_beta1(random_simple_graph(random.Random(2), 64, 0.064), 4, 7),
    ],
    ids=["embed-sub1", "embed-beta1"],
)
def test_final_builds_receive_sorted_keys(monkeypatch, embed):
    # realize and assemble hand their final MultiGraph already sorted columns,
    # so a return to concatenate-then-sort fails here.
    from plg import realizer

    realized = _recorded_builds(monkeypatch, realizer)
    assembled = _recorded_builds(monkeypatch, _assembly)
    parts = _recorded_parts(monkeypatch)
    graph, _ = embed()
    assert graph == MultiGraph(assembled[-1][0], assembled[-1][1], graph.labels)
    assert isinstance(assembled[-1][1], EdgeArrays) and len(assembled[-1][1].u) > 1000
    assert _keys_strictly_increase(*assembled[-1])
    # The realizer builds only each part's summed fill; the parts reach the
    # final build as columns.
    assert len(realized) == 2 and len(parts) == 2
    for d, edges in parts:
        assert isinstance(edges, EdgeArrays) and len(edges.u) > 100
        assert _keys_strictly_increase(len(d), edges)


class _NumpyWithoutJoins:
    """numpy, but ``insert`` and ``concatenate`` raise."""

    def __getattr__(self, name):
        if name in ("insert", "concatenate"):
            def refuse(*args, **kwargs):
                raise AssertionError(f"np.{name} called")

            return refuse
        return getattr(np, name)


def test_embed_sub1_final_build_without_joins(monkeypatch):
    # Parts are written into the final columns in place: with no np.insert
    # or np.concatenate in the realizer and assembly, the final build still
    # gets every edge, in strictly increasing key order.
    from plg import realizer

    def run():
        return embed_sub1(random_simple_graph(random.Random(1), 20, 0.2), 0.8)

    want, _ = run()
    assembled = _recorded_builds(monkeypatch, _assembly)
    for module in (realizer, _assembly):
        monkeypatch.setattr(module, "np", _NumpyWithoutJoins())
    graph, _ = run()
    assert graph == want
    n, edges = assembled[-1]
    assert isinstance(edges, EdgeArrays) and len(edges.u) > 1000
    assert _keys_strictly_increase(n, edges)


@pytest.mark.parametrize("d", [[1, 1], [2, 2, 2], [1, 2, 3, 3, 3, 5, 5, 5], list(range(1, 30)), [7] * 9])
def test_realize_final_build_sorted_small(monkeypatch, d):
    from plg import realizer

    realized = _recorded_builds(monkeypatch, realizer)
    g, cert = realize(np.array(d))
    n, edges = realized[-1]
    assert _keys_strictly_increase(n, edges)
    assert degrees_match(g, d, cert)
