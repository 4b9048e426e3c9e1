import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plg import InputError, MultiGraph, ParseError, degree_sequence, is_independent, read_graph, write_graph
from plg import graph as graph_module
from plg.cli import _write_graph_file
from plg.graph import EdgeArrays, _edge_blocks, _graph_blocks, _read_canonical, _read_lines

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
        ("p plg 2 1\ne 0 1 1\nl 0 embedded\n", 3),  # a label line of an earlier version
        # Integer fields are an optional sign and ASCII digits.
        ("p plg 20 1\ne 1_0 1_1 1\n", 2),
        ("p plg 1_2 0\n", 1),
        ("p plg 2 1\ne \u0660 \u0661 1\n", 2),  # Arabic-Indic digits
        ("p plg 2 1\ne 0 1 \uff11\n", 2),  # a fullwidth digit
        (b"p plg 2 1\ne 0 1 1\nl 0 \xff\n", 3),  # not UTF-8
        (b"\xffp plg 1 0\n", 1),
        (b"p plg 2 0\r\n\x0bl 0 \xc3\n", 3),  # str.splitlines counts \x0b as a line break
        ("p plg 1 0\nl 0 a\ud800\n", 2),  # a str with a lone surrogate has no UTF-8 bytes
        ("p plg 1 0\ud800\n", 1),
        ("p plg 2 1\ne 0 1 1\n\udc80", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_graph(text)
    assert err.value.line_no == line


def test_round_trip_seeded_100_vertices():
    rng = random.Random(42)
    g = random_multigraph(rng, 100, 300)
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


def _header_count_off_by_one(lines, data):
    step = data.draw(st.sampled_from([-1, 1]))
    return [re.sub(r"^(p plg [0-9]+ )([0-9]+)$", lambda m: m[1] + str(int(m[2]) + step), line) for line in lines]


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


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")

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
    "header edge count off by one": _header_count_off_by_one,
    "missing edge line": _drop_edge_line,
    "extra edge line": _extra_edge_line,
    "e inside field": _field_edit(lambda f, data: f + "e" + f),
    "decimal point": _field_edit(lambda f, data: f + ".0"),
    "19-digit field": _field_edit(lambda f, data: str(data.draw(st.integers(10**18, 2**63 - 1)))),
    "2^63 field": _field_edit(lambda f, data: str(2**63)),
    "separator char": _line_edit(_insert_char),
    "underscore in field": _field_edit(lambda f, data: f[:1] + "_" + f[1:]),
    "non-ASCII digits": _field_edit(lambda f, data: f.translate(_ARABIC_INDIC)),
    "swapped edge lines": _swap_edge_lines,
    "duplicated edge line": _edit_kind("e ", lambda line, data: [line, line]),
    "u > v edge line": _edit_kind("e ", _reverse_endpoints),
    "label line": _line_edit(lambda s, data: s + "\nl 0 embedded"),
    "20-digit zero-padded field": _field_edit(lambda f, data: "0" * 19 + "1"),
    "fourth edge field": _edit_kind("e ", lambda line, data: [line + " " + str(data.draw(st.integers(0, 9)))]),
}
# Each of these edits alone, where it changes the text, leaves text that the
# writer emits for no graph.
NEVER_CANONICAL = {
    "header edge count off by one",
    "swapped edge lines",
    "duplicated edge line",
    "u > v edge line",
    "label line",
}


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3), st.booleans(), st.data())
def test_fast_reader_agrees_with_line_parser(seed, names, crlf, data):
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 10), rng.randint(0, 12))
    lines = write_graph(g).split("\n")[:-1]
    for name in names:
        lines = MUTATIONS[name](lines, data)
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    refused = len(names) == 1 and names[0] in NEVER_CANONICAL and text != write_graph(g)
    slow, slow_err = _outcome(_read_lines, text.encode())
    # A line per block, one or a few lines per block, and the default.
    for block_bytes in (1, 20, 64, graph_module._READ_BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_READ_BLOCK_BYTES", block_bytes)
            fast = _read_canonical(text.encode())
            assert fast is None or not refused
            if fast is not None:
                assert slow_err is None and fast == slow
            assert _outcome(read_graph, text) == (slow, slow_err)
        if not names and not crlf:
            assert fast == g


@pytest.mark.parametrize(
    "text",
    [
        "p plg 3 1\ne 0 1 1",  # no final line break
        "p plg 2 1\ne 0 1 1\ne\n",  # rendered rows followed by a line with no field
        "p plg 20 1\ne 1_0 1_1 1\n",  # digit runs split by an underscore
        "p plg 2 1\ne \u0660 \u0661 1\n",  # digits that are not ASCII
        # Label lines, which the format no longer has: the labelled file of
        # an earlier version, and texts whose label lines that version
        # refused or read.
        "p plg 2 1\ne 0 1 1\nl 0 embedded\n",
        "p plg 3 0\nl 1 a\nl 1 b\n",
        "p plg 3 0\nl 2 a\nl 1 a\n",
        "p plg 3 0\nl 0 a\nl 1 a",
        "p plg 12 0\nl 9 a\nl 10 a\nl 011 a\n",
        "p plg 2 0\nl abcdefghijklmnopqr x\n",
        b"p plg 2 0\nl " + b"\x94" * 18 + b" x\n",
        "p plg 10000000000000000000 0\nl 9999999999999999999 x\n",
        "p plg 2 0\nl 0 a\nzz",
        "p plg 2 0\nl 0 a\x1cb\nl 1 a\x1cb\n",
        "p plg 2 1\ne 0 1 1\nx\nl 0 a\n",
        "p plg 1 0\nl",
        "p plg 2 1\ne 0 1 1\nl0",
        "p plg 2 0\nl 0 a b\n",
        "p plg 2 0\nl 0 a b 1 c\n",
        "p plg 2 0\nl 0  a\n",
        # One case per check that the whole-text render stands for.
        "p plg 3 2\ne 0 1 1\n",  # a header edge count one too high
        "p plg 3 1\ne 0 1 1\ne 1 2 1\n",  # and one too low
        "p plg 3 2\ne 1 2 1\ne 0 1 1\n",  # two swapped edge lines
        "p plg 3 2\ne 0 1 1\ne 0 1 1\n",  # a repeated edge line
        "p plg 3 1\ne 0 1 1\ne 0 1 1\n",
        "p plg 3 1\ne 1 0 1\n",  # u > v
    ],
)
def test_fast_reader_refuses_text_it_does_not_render(text):
    data = text if isinstance(text, bytes) else text.encode()
    assert _read_canonical(data) is None
    assert _outcome(read_graph, data) == _outcome(_read_lines, data)


def test_round_trip_seeded_loops_multi_edges_labels(monkeypatch):
    rng = random.Random(2024)
    for n, edge_count, top in [(1, 3, 3), (12, 40, 5), (300, 2000, 10**6), (5000, 20000, 10**17)]:
        edges: dict[tuple[int, int], int] = {}
        for _ in range(edge_count):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            if rng.random() < 0.1:
                v = u
            edges[(u, v)] = edges.get((u, v), 0) + rng.randint(1, top)
        g = MultiGraph(n, edges)
        text = write_graph(g)
        assert text == write_graph(_read_lines(text.encode()))
        # Blocks of a few lines, of a few hundred, and the default.
        for block_bytes in (256, 4096, graph_module._READ_BLOCK_BYTES):
            monkeypatch.setattr(graph_module, "_READ_BLOCK_BYTES", block_bytes)
            assert _read_canonical(text.encode()) == g == read_graph(text)
            assert write_graph(read_graph(text)) == text
        # The format has no label lines: a file of an earlier version reads
        # as this graph once its 'l' lines are deleted.
        labelled = text + "".join(f"l {v} embedded\n" for v in range(0, n, 3))
        with pytest.raises(ParseError, match="unknown line type 'l'") as err:
            read_graph(labelled)
        assert err.value.line_no == text.count("\n") + 1
        assert read_graph("".join(line for line in labelled.splitlines(True) if not line.startswith("l "))) == g


def test_read_renders_edges_and_labels_once(monkeypatch):
    # A canonical read of many blocks renders its edge rows once; a text
    # with a label line ends its digit runs off the rows of three and goes
    # to the line parser with no render.
    rng = random.Random(26)
    n = 400
    g = MultiGraph(n, {tuple(sorted((rng.randrange(n), rng.randrange(n)))): rng.randint(1, 3) for _ in range(600)})
    text = write_graph(g).encode()
    edge_calls = []
    edge_blocks = graph_module._edge_blocks
    monkeypatch.setattr(graph_module, "_READ_BLOCK_BYTES", 64)
    monkeypatch.setattr(graph_module, "_edge_blocks", lambda cols: edge_calls.append(len(cols.u)) or edge_blocks(cols))
    assert read_graph(text) == g
    assert edge_calls == [g.distinct_edge_count()]
    with pytest.raises(ParseError, match="unknown line type 'l'"):
        read_graph(text + b"l 0 embedded\n")
    assert edge_calls == [g.distinct_edge_count()]


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
    assert _read_canonical(text.encode()) == g == _read_lines(text.encode())
    assert g.multiplicity(u, v) == m
    assert g.multiplicity(u, v + 1) == 0
    assert g.multiplicity(0, g.vertex_count - 1) == 0
    assert write_graph(g) == text


@pytest.mark.parametrize(
    "make",
    [lambda: MultiGraph(2.5), lambda: MultiGraph("2")],
    ids=["float n", "str n"],
)
def test_vertex_count_and_label_ids_must_be_integers(make):
    with pytest.raises(InputError, match="integer"):
        make()


def test_integer_types_are_stored_as_int():
    g = MultiGraph(np.int64(3), [(0, 2)])
    assert type(g.vertex_count) is int and g.vertex_count == 3
    assert write_graph(g) == "p plg 3 1\ne 0 2 1\n" and read_graph(write_graph(g)) == g


def _run_values(text: str) -> list[int]:
    """At each character, the value of the digit run ending there, else 0."""
    out, run = [], ""
    for ch in text:
        run = run + ch if ch.isdigit() else ""
        out.append(int(run) if run else 0)
    return out


_digit_run = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=19).filter(lambda s: int(s) < 2**63),
    st.integers(0, 2**63 - 1).map(str),
)
_separator = st.text(alphabet=" \ne", min_size=1, max_size=3)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=" \ne", max_size=2), st.lists(st.tuples(_digit_run, _separator)), st.booleans())
@example("", [], False)
@example(" ", [("9" * 18, "\n"), (str(2**63 - 1), "e"), ("0" * 19, " ")], True)
def test_digit_runs_match_python_int(lead, pieces, end_on_digit):
    # Runs of 1-19 digits with values below 2^63, each followed by a separator.
    text = lead + "".join(run + sep for run, sep in pieces)
    if end_on_digit and pieces:
        text = text[: -len(pieces[-1][1])]
    got = graph_module._digit_runs(np.frombuffer(text.encode(), dtype=np.uint8))
    assert [int(x) for x in got] == _run_values(text)


def test_later_neighbour_counts_match_brute_force():
    rng = random.Random(5)
    for n in (1, 7, 40, 2**40):
        span = min(n, 40)
        edges = [tuple(sorted((rng.randrange(span), rng.randrange(span)))) for _ in range(rng.randrange(60))]
        g = MultiGraph(n, edges)
        u = [rng.randrange(span + 3) for _ in range(200)]
        stop = [x + rng.randrange(-2, span + 50) for x in u]
        want = [sum(g.multiplicity(x, v) > 0 for v in range(x + 1, t)) for x, t in zip(u, stop)]
        assert g.later_neighbour_counts(u, stop).tolist() == want


# -- the digit-table writer against the per-place writer -----------------------

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _format_edges(cols: EdgeArrays) -> str:
    """The digit-table writer's edge lines, its blocks joined."""
    return b"".join(_edge_blocks(cols)).decode("ascii")


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


@pytest.mark.parametrize("block_bytes", [1, 40, 1 << 10, 1 << 18, 1 << 20])
def test_graph_bytes_match_per_place_writer_across_blocks(monkeypatch, tmp_path, block_bytes):
    # Lines are formatted and yielded a block of rows at a time; every block
    # size, down to one row per block, gives the same text, joined or
    # written to a file.
    monkeypatch.setattr(graph_module, "_WRITE_BLOCK_BYTES", block_bytes)
    rng = random.Random(block_bytes)
    for n, edge_count, top in [(1, 0, 1), (1, 3, 3), (40, 150, 10**5), (10**6, 300, 2**62)]:
        edges = {}
        for _ in range(edge_count):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            edges[(u, v)] = rng.randint(1, top)
        g = MultiGraph(n, edges)
        text = f"p plg {n} {g.distinct_edge_count()}\n" + _per_place_format_edges(g.arrays())
        assert b"".join(_graph_blocks(g)) == text.encode("ascii")
        assert write_graph(g) == text
        _write_graph_file(tmp_path / "g.plg", g)
        assert (tmp_path / "g.plg").read_bytes() == text.encode("ascii")
        assert _format_edges(g.arrays()) == _per_place_format_edges(g.arrays())


# -- ordered builds and exact degrees -------------------------------------------


def _reference_build(n, u, v, mult):
    """The graph, or the InputError message, of the constructor that swaps
    every row to u <= v first: the first row out of range or of non-positive
    multiplicity is refused, otherwise repeated pairs are summed."""
    rows = [(min(a, b), max(a, b), m) for a, b, m in zip(u, v, mult)]
    for a, b, m in rows:
        if a < 0 or b >= n or m <= 0:
            if a < 0 or b >= n:
                return f"edge ({a},{b}) out of range for n={n}"
            return f"edge ({a},{b}) has non-positive multiplicity {m}"
    summed: dict[tuple[int, int], int] = {}
    for a, b, m in rows:
        summed[(a, b)] = summed.get((a, b), 0) + m
    return sorted((a, b, m) for (a, b), m in summed.items())


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8), st.integers(-1, 4)), max_size=12),
    st.booleans(),
)
@example(3, [(0, 1, 1), (0, 2, 2), (1, 1, 1)], False)  # in order: kept as given
@example(3, [(1, 0, 1), (0, 2, 2)], False)  # a row with u > v
@example(3, [(0, 1, 1), (0, 1, 2)], False)  # a repeated pair
@example(3, [(0, 2, 1), (0, 1, 1)], False)  # keys out of order
@example(3, [(0, 1, 1), (1, 3, 1)], False)  # an end out of range
@example(3, [(0, 1, 1), (1, 2, 0)], False)  # a multiplicity of 0
def test_ordered_build_matches_swapping_build(n, rows, ordered):
    # Rows already in order skip the swap; every input gives the graph or
    # the InputError the swapping build gives.
    if ordered:
        rows = sorted({(min(a, b), max(a, b)): m for a, b, m in rows}.items())
        rows = [(a, b, m) for (a, b), m in rows]
    cols = EdgeArrays(*(np.array([r[i] for r in rows], dtype=np.int64) for i in range(3)))
    want = _reference_build(n, *cols)
    if isinstance(want, str):
        with pytest.raises(InputError) as err:
            MultiGraph(n, cols)
        assert str(err.value) == want
    else:
        assert list(MultiGraph(n, cols).edges()) == want


def test_ordered_build_keeps_the_given_columns():
    u, v, m = (np.array(c, dtype=np.int64) for c in ([0, 0, 1], [1, 2, 1], [1, 3, 2]))
    g = MultiGraph(3, EdgeArrays(u, v, m))
    assert all(mine is given for mine, given in zip(g.arrays(), (u, v, m)))
    assert not any(c.flags.writeable for c in (u, v, m))
    # Out-of-order rows are copied: the given columns stay as they were.
    a, b = np.array([1, 0], dtype=np.int64), np.array([0, 2], dtype=np.int64)
    g = MultiGraph(3, EdgeArrays(a, b, np.ones(2, dtype=np.int64)))
    assert list(g.edges()) == [(0, 1, 1), (0, 2, 1)] and a.flags.writeable and a[0] == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple),
                st.one_of(st.integers(1, 3), st.integers(1, 2**63 - 1)),
                max_size=8,
            ),
        )
    )
)
@example((2, {(0, 1): 2**53 + 1}))
@example((1, {(0, 0): 2**62 - 1}))
@example((2, {(0, 0): 2**62}))
@example((3, {(0, 1): 2**62, (0, 2): 2**62}))
def test_degrees_are_exact(case):
    # Degrees are summed as integers: exact up to 2^63 - 1, refused past it.
    n, edges = case
    exact = [0] * n
    for (a, b), m in edges.items():
        exact[a] += m
        exact[b] += m
    g = MultiGraph(n, edges)
    if max(exact) >= 2**63:
        with pytest.raises(InputError, match="2\\^63"):
            g.degrees()
    else:
        assert g.degrees().dtype == np.int64 and g.degrees().tolist() == exact


@pytest.mark.parametrize(
    "text, degrees",
    [
        ("p plg 2 1\ne 0 1 9007199254740993\n", [2**53 + 1, 2**53 + 1]),
        ("p plg 2 1\ne 0 0 4611686018427387904\n", None),
    ],
    ids=["2^53+1", "loop-2^62"],
)
def test_degrees_of_read_files(text, degrees):
    g = read_graph(text)
    if degrees is None:
        with pytest.raises(InputError, match="vertex 0 has a degree of 2\\^63 or more"):
            g.degrees()
    else:
        assert g.degrees().tolist() == degrees
