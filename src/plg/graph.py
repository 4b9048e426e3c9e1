"""Undirected multigraphs with self-loops, plus a deterministic edge-list text format.

Degree convention: a self-loop contributes 2 to its vertex's degree per
multiplicity unit.  A vertex carrying a self-loop is adjacent to itself and
therefore never belongs to an independent set; multi-edges are equivalent to
single edges for independence.

Storage is columnar: three int64 arrays ``(u, v, mult)``, one entry per
distinct edge with ``u <= v``, sorted by the key ``u * base + v`` (``base`` is
the vertex count whenever its square fits in int64), and that key array
itself.  Degrees, the text format, pair lookups and independence tests run
as numpy passes over these arrays.  Columns that arrive with strictly
increasing keys keep their order with no sort; others are sorted and their
repeated pairs summed.

The writer formats a line per edge with no per-digit work, into one byte
buffer sized from the fields' digit counts: lines are laid out a block of
rows at a time in a uint8 matrix, each field is filled four digits at a
time by gathering 4-byte words of a fixed table of ASCII digit rows, and
each block is copied in with the zero bytes left where a value is shorter
than its field dropped.

Canonical text is what the writer emits.  The reader keeps its lenient
numpy parse of a text only if re-emitting the graph reproduces the text
byte for byte; any other text goes to the line parser.
"""

from __future__ import annotations

import re
import warnings
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InputError, ParseError

# Largest key base whose keys u * base + v (u, v < base) stay below 2^63.
_MAX_KEY_BASE = 3_037_000_499
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class EdgeArrays(NamedTuple):
    """Edges as equal-length integer columns: entry i is edge (u[i], v[i])
    with multiplicity mult[i].  The third ``MultiGraph`` constructor form;
    ``MultiGraph.arrays()`` returns the graph's own, sorted and read-only."""

    u: np.ndarray
    v: np.ndarray
    mult: np.ndarray


def _edge_columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, mult) int64 columns of any constructor edge form, in input order."""
    try:
        if isinstance(edges, EdgeArrays):
            cols = [np.asarray(c, dtype=np.int64) for c in edges]
            if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
                raise InputError("edge arrays must be 1-d and of equal length")
            return cols[0], cols[1], cols[2]
        if not edges:
            return _EMPTY, _EMPTY, _EMPTY
        if isinstance(edges, dict):
            k = len(edges)
            u = np.fromiter((e[0] for e in edges), np.int64, k)
            v = np.fromiter((e[1] for e in edges), np.int64, k)
            return u, v, np.fromiter(edges.values(), np.int64, k)
        pairs = np.array([tuple(e) for e in edges], dtype=np.int64)
        if len(pairs) == 0:
            return _EMPTY, _EMPTY, _EMPTY
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InputError("edges must be (u, v) pairs")
        return pairs[:, 0], pairs[:, 1], np.ones(len(pairs), dtype=np.int64)
    except OverflowError:
        raise InputError("edge endpoints and multiplicities must fit in int64") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class MultiGraph:
    """Undirected multigraph on vertices 0..n-1 with positive edge multiplicities.

    The edge set is fixed at construction, given as a dict {(u, v): mult},
    an iterable of (u, v) pairs (multiplicity 1 each) or ``EdgeArrays``;
    repeated pairs, in either orientation, sum their multiplicities.  Labels
    are optional per-vertex text tags used by the embedders to record
    provenance ("embedded", "residual-G1", ...).
    """

    __slots__ = ("vertex_count", "_u", "_v", "_mult", "_edges", "_base", "labels", "_degrees")

    def __init__(
        self,
        vertex_count: int,
        edges: dict[tuple[int, int], int] | Iterable[tuple[int, int]] | EdgeArrays | None = None,
        labels: dict[int, str] | None = None,
    ):
        if vertex_count < 0:
            raise InputError("vertex_count must be non-negative")
        n = self.vertex_count = int(vertex_count)
        a, b, mult = _edge_columns(edges)
        u, v = np.minimum(a, b), np.maximum(a, b)
        if len(u) and (u.min() < 0 or v.max() >= n or mult.min() <= 0):
            i = int(np.argmax((u < 0) | (v >= n) | (mult <= 0)))
            if u[i] < 0 or v[i] >= n:
                raise InputError(f"edge ({u[i]},{v[i]}) out of range for n={vertex_count}")
            raise InputError(f"edge ({u[i]},{v[i]}) has non-positive multiplicity {mult[i]}")
        base = n if n <= _MAX_KEY_BASE else int(v.max(initial=0)) + 1
        if base > _MAX_KEY_BASE:
            raise InputError(f"vertex ids above {_MAX_KEY_BASE - 1} are not supported")
        key = u * base + v
        if len(key) > 1 and not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, u, v, mult = key[order], u[order], v[order], mult[order]
            first = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                starts = np.flatnonzero(first)
                mult = np.add.reduceat(mult, starts)
                key, u, v = key[starts], u[starts], v[starts]
        self._base = base
        self._edges = _frozen(key)
        self._u, self._v = _frozen(u), _frozen(v)
        self._mult = _frozen(np.array(mult, dtype=np.int64))
        self.labels = dict(labels) if labels else {}
        for w in self.labels:
            if not (0 <= w < n):
                raise InputError(f"label on unknown vertex {w}")
        self._degrees: np.ndarray | None = None

    # -- queries ------------------------------------------------------------

    def arrays(self) -> EdgeArrays:
        """The sorted, read-only (u, v, mult) columns."""
        return EdgeArrays(self._u, self._v, self._mult)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, multiplicity) with u <= v, in sorted order."""
        yield from zip(self._u.tolist(), self._v.tolist(), self._mult.tolist())

    def edge_dict(self) -> dict[tuple[int, int], int]:
        return dict(zip(zip(self._u.tolist(), self._v.tolist()), self._mult.tolist()))

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if not (0 <= u and v < self._base):
            return 0
        key = u * self._base + v
        i = int(np.searchsorted(self._edges, key))
        if i < len(self._edges) and self._edges[i] == key:
            return int(self._mult[i])
        return 0

    def multiplicities(self, a, b) -> np.ndarray:
        """Vectorised ``multiplicity``: int64 array, 0 where (a[i], b[i]) is absent."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        if len(self._edges) == 0:
            return out
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ok = (lo >= 0) & (hi < self._base)
        key = np.where(ok, lo * self._base + hi, -1)
        idx = np.minimum(np.searchsorted(self._edges, key), len(self._edges) - 1)
        found = ok & (self._edges[idx] == key)
        out[found] = self._mult[idx[found]]
        return out

    def distinct_edge_count(self) -> int:
        return len(self._edges)

    def total_multiplicity(self) -> int:
        return int(self._mult.sum())

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees; self-loops count 2 per multiplicity unit."""
        if self._degrees is None:
            # bincount sums in float64, exact for degrees below 2^53.
            n = self.vertex_count
            deg = np.bincount(self._u, weights=self._mult, minlength=n)
            deg += np.bincount(self._v, weights=self._mult, minlength=n)
            self._degrees = deg.astype(np.int64)
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self.degrees()[v])

    def has_loop(self, v: int) -> bool:
        return self.multiplicity(v, v) > 0

    def adjacency_sets(self) -> list[set[int]]:
        """Distinct neighbours per vertex, self excluded."""
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in zip(self._u.tolist(), self._v.tolist()):
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def is_simple(self) -> bool:
        return bool((self._u != self._v).all() and (self._mult == 1).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
            and np.array_equal(self._mult, other._mult)
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.vertex_count, self._u.tobytes(), self._v.tobytes(), self._mult.tobytes()))

    def __repr__(self):
        return f"MultiGraph(n={self.vertex_count}, edges={len(self._edges)})"


def degree_sequence(g: MultiGraph) -> list[int]:
    """Degrees sorted non-decreasing. Sum equals twice the total multiplicity."""
    return sorted(int(d) for d in g.degrees())


def is_independent(g: MultiGraph, members: Iterable[int]) -> bool:
    """True iff no edge joins two distinct members and no member has a self-loop.

    Raises InputError on out-of-range vertex ids.
    """
    s = set(members)
    for v in s:
        if not (0 <= v < g.vertex_count):
            raise InputError(f"vertex {v} out of range")
        if g.has_loop(v):
            return False
    if len(s) < 2:
        return True
    mem = np.fromiter(s, np.int64, len(s))
    # Look up whichever side is smaller: member pairs or the edge arrays.
    if len(s) * (len(s) - 1) // 2 <= g.distinct_edge_count():
        i, j = np.triu_indices(len(mem), 1)
        return not g.multiplicities(mem[i], mem[j]).any()
    inside = np.zeros(g.vertex_count, dtype=bool)
    inside[mem] = True
    u, v, _ = g.arrays()
    return not (inside[u] & inside[v] & (u != v)).any()


# -- text format ------------------------------------------------------------
#
# Header:   p plg <vertex_count> <distinct_edge_count>
# Edges:    e <u> <v> <multiplicity>       (u <= v, zero-based, one line per
#                                           distinct edge, sorted)
# Labels:   l <v> <tag>                    (optional, sorted by v)
#
# Canonical text is exactly what ``write_graph`` and ``_graph_bytes`` emit,
# through the digit-table writer ``_text_buffer`` (base-10^4 chunks gathered
# from ``_UNITS_WORDS`` and ``_HIGH_WORDS``, compacted block by block); the
# writer is the format's only definition.  ``read_graph`` checks a text's
# claim to be canonical by re-emitting the graph its lenient numpy parse
# gives, and hands any text that the writer does not reproduce (extra
# whitespace, CRLF, signs, unsorted lines, any error) to the line parser,
# the only producer of ParseError.

_HEADER = re.compile(rb"p plg ([0-9]+) [0-9]+\n")
_CHUNK = 10_000  # the writer's digit chunk, four places
_WRITE_BLOCK_BYTES = 1 << 20  # the writer's line matrix, per block of rows


def _digit_rows() -> tuple[np.ndarray, np.ndarray]:
    """Two (2 * _CHUNK, 4) uint8 tables of ASCII digit rows.  Row r < _CHUNK
    is r's "leading" variant, with zero bytes in place of leading zeros;
    row _CHUNK + r is its "inner" variant, zero-padded with real '0's.  The
    first table writes 0 as '0' (a value's units chunk), the second writes
    it as nothing (a chunk above the value's highest digit)."""
    r = np.arange(_CHUNK)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    inner = (r // place % 10 + ord("0")).astype(np.uint8)
    high = np.concatenate([np.where(r >= place, inner, 0).astype(np.uint8), inner])
    units = high.copy()
    units[0, -1] = ord("0")
    return _frozen(units), _frozen(high)


_UNITS_ROWS, _HIGH_ROWS = _digit_rows()
# The same rows as 4-byte words, written a whole chunk at a time.
_UNITS_WORDS, _HIGH_WORDS = (t.view(np.uint32).ravel() for t in (_UNITS_ROWS, _HIGH_ROWS))


def _top_width(width: int) -> int:
    """Digits in the most significant chunk of a ``width``-digit field."""
    return width - 4 * ((width - 1) // 4)


def _word_column(mat: np.ndarray, start: int) -> np.ndarray:
    """Bytes start..start+3 of every row of ``mat``, as one (unaligned)
    uint32 column."""
    return np.ndarray((len(mat),), dtype=np.uint32, buffer=mat, offset=start, strides=(mat.strides[0],))


def _write_field(mat: np.ndarray, stop: int, col: np.ndarray, width: int) -> None:
    """Write ``col`` right-aligned into the ``width`` columns of ``mat`` that
    end at ``stop``, four digits at a time, least significant chunk first.

    Every chunk is written as a whole 4-byte word, so a top chunk of fewer
    than four digits also writes zero bytes over the 4 - top width columns
    before the field: callers write fields from right to left and restore
    the separators after."""
    val, table = col, _UNITS_WORDS
    for _ in range((width - 1) // 4):
        # A chunk with digits above it takes its inner row, others their
        # leading row: idx = min(val, val % 10^4 + 10^4).
        high = val // _CHUNK
        idx = (high - 1) * _CHUNK
        np.subtract(val, idx, out=idx)
        np.minimum(val, idx, out=idx)
        _word_column(mat, stop - 4)[:] = np.take(table, idx)
        stop, val, table = stop - 4, high, _HIGH_WORDS
    # The top chunk has no digits above it: its leading row's zero bytes
    # fall before the field.
    _word_column(mat, stop - 4)[:] = np.take(table, val)


def _text_buffer(cols: EdgeArrays, head: bytes = b"", tail: bytes = b"") -> np.ndarray:
    """``head``, one line 'e <u> <v> <mult>' per edge, then ``tail``, as one
    uint8 array.

    The array is allocated once, at the text's exact length: each line is
    five bytes plus its fields' digit counts.  Lines are laid out a block of
    rows at a time in a uint8 matrix, each field as wide as its column's
    largest value, with zero bytes where a shorter value has no digit.
    Fields are filled four digits at a time by gathering words of the
    digit tables (base-10^4 chunks), and each block is copied in with its
    zero bytes dropped.
    """
    rows = len(cols.u)
    widths = [len(str(int(c.max()))) if rows else 1 for c in cols]
    size = len(head) + len(tail) + 5 * rows
    for c, w in zip(cols, widths):
        size += rows + sum(int(np.count_nonzero(c >= 10**p)) for p in range(1, w))
    out = np.empty(size, dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    pos = len(head)
    # Zero bytes before the 'e' leave room for the first field's top word.
    template = [0] * max(0, 2 - _top_width(widths[0])) + [ord("e")]
    marks = [len(template) - 1]
    for w in widths:
        marks.append(len(template))
        template += [ord(" ")] + [0] * w
    template.append(ord("\n"))
    block = max(1, _WRITE_BLOCK_BYTES // len(template))
    # Fields overwrite all of their own columns and at most the 'e' and
    # separators before them, so the rest of the template is set once.
    mat = np.empty((min(rows, block), len(template)), dtype=np.uint8)
    mat[:] = template
    for lo in range(0, rows, block):
        part = mat[: min(block, rows - lo)]
        stop = len(template) - 1
        for c, w in zip(cols[::-1], widths[::-1]):
            _write_field(part, stop, c[lo : lo + block], w)
            stop -= 1 + w
        for i in marks:
            part[:, i] = template[i]
        text = part.tobytes().translate(None, b"\0")
        out[pos : pos + len(text)] = np.frombuffer(text, dtype=np.uint8)
        pos += len(text)
    if pos + len(tail) != size:
        raise AssertionError("edge text length differs from its digit count")
    out[pos:] = np.frombuffer(tail, dtype=np.uint8)
    return out


def _format_edges(cols: EdgeArrays) -> str:
    """One line 'e <u> <v> <mult>' per edge."""
    return str(_text_buffer(cols).data, "ascii")


def _graph_bytes(g: MultiGraph) -> np.ndarray:
    """The canonical text of ``g`` as a uint8 array of UTF-8 bytes (ASCII
    but for labels), built in one buffer."""
    header = f"p plg {g.vertex_count} {g.distinct_edge_count()}\n"
    labels = "".join(f"l {w} {g.labels[w]}\n" for w in sorted(g.labels))
    return _text_buffer(g.arrays(), header.encode("ascii"), labels.encode("utf-8"))


def write_graph(g: MultiGraph) -> str:
    return str(_graph_bytes(g), "utf-8")


def _read_canonical(text: str) -> MultiGraph | None:
    """The graph of ``text`` if ``write_graph`` reproduces ``text`` exactly
    from it, else None.  The parse is lenient (numpy's text reader over the
    edge lines with their 'e's deleted, ``str.split`` over the label lines)
    and checks only what the constructor checks.  It is sound: a tag split
    on whitespace holds none, and every line separator is whitespace, so the
    line parser reads a text equal to a graph's rendering to that graph."""
    try:
        data = text.encode("utf-8")
        head = _HEADER.match(data)
        if head is None:
            return None
        cut = data.find(b"\nl ", head.end() - 1) + 1 or len(data)  # first label line
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.fromstring(data[head.end() : cut].translate(None, b"e"), dtype=np.int64, sep=" ")
        labels = {}
        for line in data[cut:].decode("utf-8").splitlines():
            _, w, tag = line.split()
            labels[int(w)] = tag
        g = MultiGraph(int(head[1]), EdgeArrays(*table.reshape(-1, 3).T), labels)
        del table  # the graph holds copies; free it before re-emitting
    except (DeprecationWarning, ValueError):  # InputError and UnicodeError are ValueErrors
        return None
    return g if np.array_equal(_graph_bytes(g), np.frombuffer(data, dtype=np.uint8)) else None


def read_graph(text: str) -> MultiGraph:
    g = _read_canonical(text)
    return g if g is not None else _read_lines(text)


def _read_lines(text: str) -> MultiGraph:
    """Line-by-line parser for any valid text; raises ParseError otherwise."""
    n = None
    declared_edges = None
    edges: dict[tuple[int, int], int] = {}
    labels: dict[int, str] = {}
    saw_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if not saw_header:
            if kind != "p":
                raise ParseError("expected header 'p plg <n> <edges>'", line_no)
            if len(parts) != 4 or parts[1] != "plg":
                raise ParseError("malformed header", line_no)
            try:
                n, declared_edges = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", line_no) from None
            if n < 0 or declared_edges < 0:
                raise ParseError("negative header fields", line_no)
            saw_header = True
            continue
        if kind == "e":
            if len(parts) != 4:
                raise ParseError("edge line needs 'e u v multiplicity'", line_no)
            try:
                u, v, m = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer edge fields", line_no) from None
            if u > v:
                raise ParseError(f"edge endpoints out of order: {u} > {v}", line_no)
            if not (0 <= u and v < n):
                raise ParseError(f"endpoint out of range: ({u},{v})", line_no)
            if m <= 0:
                raise ParseError(f"non-positive multiplicity {m}", line_no)
            if (u, v) in edges:
                raise ParseError(f"duplicate edge ({u},{v})", line_no)
            edges[(u, v)] = m
        elif kind == "l":
            if len(parts) != 3:
                raise ParseError("label line needs 'l v tag'", line_no)
            try:
                v = int(parts[1])
            except ValueError:
                raise ParseError("non-integer label vertex", line_no) from None
            if not (0 <= v < n):
                raise ParseError(f"label vertex {v} out of range", line_no)
            if v in labels:
                raise ParseError(f"duplicate label for vertex {v}", line_no)
            labels[v] = parts[2]
        elif kind == "p":
            raise ParseError("duplicate header", line_no)
        else:
            raise ParseError(f"unknown line type {kind!r}", line_no)
    if not saw_header:
        raise ParseError("empty input: missing header", 1)
    if len(edges) != declared_edges:
        raise ParseError(
            f"header declares {declared_edges} edges, found {len(edges)}", 1
        )
    return MultiGraph(n, edges, labels)
