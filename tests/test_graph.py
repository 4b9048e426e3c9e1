import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plg import InputError, MultiGraph, ParseError, degree_sequence, is_independent, read_graph, write_graph
from plg import graph as graph_module
from plg.graph import EdgeArrays, _format_edges, _graph_bytes, _read_canonical, _read_lines

from conftest import random_multigraph


def test_triangle_degrees():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert degree_sequence(g) == [2, 2, 2]


def test_self_loop_counts_two():
    g = MultiGraph(1, {(0, 0): 1})
    assert degree_sequence(g) == [2]


def test_multiplicity_sums():
    g = MultiGraph(2, {(0, 1): 3})
    assert degree_sequence(g) == [3, 3]


def test_handshake_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_multigraph(rng, rng.randint(1, 12), rng.randint(0, 20))
        assert sum(degree_sequence(g)) == 2 * g.total_multiplicity()


def test_independence_examples():
    k3 = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_independent(k3, [0])
    assert not is_independent(k3, [0, 1])
    looped = MultiGraph(1, {(0, 0): 1})
    assert not is_independent(looped, [0])


def test_independence_monotone():
    rng = random.Random(5)
    for _ in range(30):
        g = random_multigraph(rng, 8, 10)
        members = [v for v in range(8) if rng.random() < 0.5]
        if is_independent(g, members):
            for drop in members:
                assert is_independent(g, [v for v in members if v != drop])


def test_independence_matches_pairwise_oracle():
    # Small member sets take the pair-lookup branch, large ones the edge scan.
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 30)
        g = random_multigraph(rng, n, rng.randint(0, 40))
        adj = g.adjacency_sets()
        members = rng.sample(range(n), rng.randint(0, n))
        expect = not any(g.has_loop(v) for v in members) and all(
            b not in adj[a] for i, a in enumerate(members) for b in members[i + 1 :]
        )
        assert is_independent(g, members) == expect


def test_independence_rejects_bad_vertex():
    g = MultiGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        is_independent(g, [5])


def test_read_examples():
    g = read_graph("p plg 2 1\ne 0 1 3\n")
    assert degree_sequence(g) == [3, 3]
    g = read_graph("p plg 1 1\ne 0 0 1\n")
    assert degree_sequence(g) == [2]


@pytest.mark.parametrize(
    "text, line",
    [
        ("p plg 2 1\ne 0 5 1\n", 2),  # endpoint out of range
        ("p plg 2 1\ne 1 0 1\n", 2),  # endpoints out of order
        ("p plg 2 1\ne 0 1 0\n", 2),  # non-positive multiplicity
        ("p plg 2 1\ne 0 1\n", 2),  # malformed line
        ("p plg 2 2\ne 0 1 1\ne 0 1 2\n", 3),  # duplicate edge
        ("e 0 1 1\n", 1),  # missing header
        ("p plg 2 1\nz 0 1 1\n", 2),  # unknown line type
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_graph(text)
    assert err.value.line_no == line


def test_round_trip_seeded_100_vertices():
    rng = random.Random(42)
    g = random_multigraph(rng, 100, 300)
    g.labels[3] = "embedded"
    g.labels[7] = "residual-G1"
    text = write_graph(g)
    again = read_graph(text)
    assert again == g
    assert write_graph(again) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.data())
def test_round_trip_property(n, data):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = data.draw(st.dictionaries(pair, st.integers(1, 4), max_size=12))
    edges = {}
    for (u, v), m in raw.items():
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + m
    g = MultiGraph(n, edges)
    assert read_graph(write_graph(g)) == g


# -- the vectorised reader against the line parser ------------------------------


def _outcome(parse, text):
    try:
        return parse(text), None
    except InputError as err:  # a ParseError, or the constructor's int64 refusal
        return None, (str(err), getattr(err, "line_no", None))


def _field_edit(edit):
    """Mutation that rewrites one whitespace-separated field of one line."""

    def mutate(lines, data):
        i = data.draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(" ")
        j = data.draw(st.integers(0, len(parts) - 1))
        parts[j] = edit(parts[j], data)
        lines[i] = " ".join(parts)
        return lines

    return mutate


def _line_edit(edit):
    def mutate(lines, data):
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = edit(lines[i], data)
        return lines

    return mutate


def _blank_line(lines, data):
    lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", " ", "\t"])))
    return lines


def _huge_header(lines, data):
    n = data.draw(st.sampled_from([2**31, 2**31 + 7, 3_037_000_500, 2**40, 2**63 + 1]))
    return [re.sub(r"^p plg [0-9]+ ", f"p plg {n} ", line) for line in lines]


def _drop_edge_line(lines, data):
    edge_lines = [i for i, line in enumerate(lines) if line.startswith("e ")]
    if edge_lines:
        del lines[data.draw(st.sampled_from(edge_lines))]
    return lines


def _extra_edge_line(lines, data):
    u = data.draw(st.integers(0, 9))
    v = data.draw(st.integers(u, 9))
    lines.insert(data.draw(st.integers(1, len(lines))), f"e {u} {v} {data.draw(st.integers(1, 3))}")
    return lines


def _edit_kind(prefix, edit):
    """Mutation that rewrites one line starting with ``prefix``, if any."""

    def mutate(lines, data):
        chosen = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        if chosen:
            i = data.draw(st.sampled_from(chosen))
            lines[i : i + 1] = edit(lines[i], data)
        return lines

    return mutate


def _insert_char(s, data):
    i = data.draw(st.integers(0, len(s)))
    return s[:i] + data.draw(st.sampled_from(["\x0b", "\x1c", "\u2028"])) + s[i:]


def _swap_edge_lines(lines, data):
    edge_lines = [i for i, line in enumerate(lines) if line.startswith("e ")]
    if len(edge_lines) > 1:
        i, j = data.draw(st.lists(st.sampled_from(edge_lines), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    return lines


def _reverse_endpoints(line, data):
    return [re.sub(r"^(e\s+)(\S+)(\s+)(\S+)", r"\1\4\3\2", line)]


def _label_vertex_out_of_range(line, data):
    return [re.sub(r"^(l\s+)\S+", lambda m: m[1] + str(data.draw(st.integers(10, 12))), line)]


MUTATIONS = {
    "none": lambda lines, data: lines,
    "extra space": _line_edit(lambda s, data: s.replace(" ", "  ", 1)),
    "leading space": _line_edit(lambda s, data: " " + s),
    "trailing space": _line_edit(lambda s, data: s + " "),
    "tab": _line_edit(lambda s, data: s.replace(" ", "\t", 1)),
    "plus sign": _field_edit(lambda f, data: "+" + f),
    "leading zeros": _field_edit(lambda f, data: "00" + f),
    "negative": _field_edit(lambda f, data: "-" + f),
    "non-integer": _field_edit(lambda f, data: f + "x"),
    "blank line": _blank_line,
    "huge header n": _huge_header,
    "missing edge line": _drop_edge_line,
    "extra edge line": _extra_edge_line,
    "e inside field": _field_edit(lambda f, data: f + "e" + f),
    "decimal point": _field_edit(lambda f, data: f + ".0"),
    "19-digit field": _field_edit(lambda f, data: str(data.draw(st.integers(10**18, 2**63 - 1)))),
    "2^63 field": _field_edit(lambda f, data: str(2**63)),
    "separator char": _line_edit(_insert_char),
    "label tag with space": _edit_kind("l ", lambda line, data: [line + " b"]),
    "label vertex out of range": _edit_kind("l ", _label_vertex_out_of_range),
    "swapped edge lines": _swap_edge_lines,
    "duplicated edge line": _edit_kind("e ", lambda line, data: [line, line]),
    "u > v edge line": _edit_kind("e ", _reverse_endpoints),
}


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3), st.booleans(), st.data())
def test_fast_reader_agrees_with_line_parser(seed, names, crlf, data):
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 10), rng.randint(0, 12))
    for v in rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)):
        g.labels[v] = rng.choice(["embedded", "residual-G1", "x", "naïve", "l", "e", "1"])
    lines = write_graph(g).split("\n")[:-1]
    for name in names:
        lines = MUTATIONS[name](lines, data)
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    fast = _read_canonical(text)
    slow, slow_err = _outcome(_read_lines, text)
    if fast is not None:
        assert slow_err is None and fast == slow
    assert _outcome(read_graph, text) == (slow, slow_err)
    if not names and not crlf:
        assert fast == g


def test_round_trip_seeded_loops_multi_edges_labels():
    rng = random.Random(2024)
    for n, edge_count, top in [(1, 3, 3), (12, 40, 5), (300, 2000, 10**6), (5000, 20000, 10**17)]:
        edges: dict[tuple[int, int], int] = {}
        for _ in range(edge_count):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            if rng.random() < 0.1:
                v = u
            edges[(u, v)] = edges.get((u, v), 0) + rng.randint(1, top)
        labels = {v: rng.choice(["embedded", "residual-G1", "residual-G2"]) for v in range(0, n, 3)}
        g = MultiGraph(n, edges, labels)
        text = write_graph(g)
        assert text == write_graph(_read_lines(text))
        assert _read_canonical(text) == g == read_graph(text)
        assert write_graph(read_graph(text)) == text


@pytest.mark.parametrize(
    "text, u, v, m",
    [
        ("p plg 2147483648 1\ne 2147483646 2147483647 3\n", 2147483646, 2147483647, 3),
        ("p plg 3037000500 1\ne 3037000498 3037000498 2\n", 3037000498, 3037000498, 2),
        ("p plg 1099511627776 2\ne 0 7 1\ne 5 1000000 2\n", 5, 1000000, 2),
    ],
)
def test_huge_header_keys_do_not_overflow(text, u, v, m):
    g = read_graph(text)
    assert _read_canonical(text) == g == _read_lines(text)
    assert g.multiplicity(u, v) == m
    assert g.multiplicity(u, v + 1) == 0
    assert g.multiplicity(0, g.vertex_count - 1) == 0
    assert write_graph(g) == text


# -- the digit-table writer against the per-place writer -----------------------

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _per_place_format_edges(cols: EdgeArrays) -> str:
    """The writer before the digit table, verbatim: one line per edge, digit
    places written by numpy one place at a time."""
    if len(cols.u) == 0:
        return ""
    widths = [np.maximum(np.searchsorted(_POW10, c, side="right"), 1) for c in cols]
    line_len = 2 + sum(w + 1 for w in widths)
    ends = np.cumsum(line_len)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    pos = ends - line_len
    out[pos] = ord("e")
    for c, w in zip(cols, widths):
        out[pos + 1] = ord(" ")
        last = pos + w + 1  # the field's last digit
        val = c.copy()
        for k in range(int(w.max())):
            # Place k from the right, in every field that has one.
            sel = slice(None) if k < w.min() else np.flatnonzero(w > k)
            out[last[sel] - k] = ord("0") + val[sel] % 10
            val //= 10
        pos = last
    out[ends - 1] = ord("\n")
    return out.tobytes().decode("ascii")


# Chunk edges of the base-10^4 writer, and 18- and 19-digit values.
_EDGE_VALUES = [0, 1, 9, 10, 9_999, 10_000, 10_001, 10**8 - 1, 10**8, 10**12, 10**17, 10**18 - 1, 10**18, 2**63 - 1]
_column_value = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.integers(0, 10**5),
    st.integers(0, 2**63 - 1),
)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda k: st.tuples(*[st.lists(_column_value, min_size=k, max_size=k)] * 3)
    )
)
@example(([], [], []))
@example((_EDGE_VALUES, _EDGE_VALUES[::-1], _EDGE_VALUES))
@example(([0] * 3, [0] * 3, [0] * 3))
@example(([2**63 - 1], [2**63 - 1], [2**63 - 1]))
def test_digit_table_writer_matches_per_place_writer(cols):
    arrays = EdgeArrays(*(np.array(c, dtype=np.int64) for c in cols))
    assert _format_edges(arrays) == _per_place_format_edges(arrays)


def test_writer_fields_at_chunk_edges():
    g = MultiGraph(10**8 + 1, {(0, 9_999): 10_000, (10_000, 10**8): 10**18 - 1, (10**8, 10**8): 2**63 - 1})
    assert write_graph(g) == (
        "p plg 100000001 3\n"
        "e 0 9999 10000\n"
        "e 10000 100000000 999999999999999999\n"
        "e 100000000 100000000 9223372036854775807\n"
    )


@pytest.mark.parametrize("block_bytes", [1, 40, 1 << 10, 1 << 20])
def test_graph_bytes_match_per_place_writer_across_blocks(monkeypatch, block_bytes):
    # Lines are formatted a block of rows at a time into one buffer; every
    # block size, down to one row per block, gives the same text.
    monkeypatch.setattr(graph_module, "_WRITE_BLOCK_BYTES", block_bytes)
    rng = random.Random(block_bytes)
    for n, edge_count, top in [(1, 0, 1), (1, 3, 3), (40, 150, 10**5), (10**6, 300, 2**62)]:
        edges = {}
        for _ in range(edge_count):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            edges[(u, v)] = rng.randint(1, top)
        labels = {v: rng.choice(["embedded", "residual-G1", "étiquette"]) for v in range(0, min(n, 40), 7)}
        g = MultiGraph(n, edges, labels)
        text = (
            f"p plg {n} {g.distinct_edge_count()}\n"
            + _per_place_format_edges(g.arrays())
            + "".join(f"l {w} {labels[w]}\n" for w in sorted(labels))
        )
        assert bytes(_graph_bytes(g)) == text.encode("utf-8")
        assert write_graph(g) == text
        assert _format_edges(g.arrays()) == _per_place_format_edges(g.arrays())
