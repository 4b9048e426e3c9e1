"""Undirected multigraphs with self-loops, plus a deterministic edge-list text format.

Degree convention: a self-loop contributes 2 to its vertex's degree per
multiplicity unit.  A vertex carrying a self-loop is adjacent to itself and
therefore never belongs to an independent set; multi-edges are equivalent to
single edges for independence.

Storage is columnar: three int64 arrays ``(u, v, mult)``, one entry per
distinct edge with ``u <= v``, sorted by the key ``u * base + v`` (``base`` is
the vertex count whenever its square fits in int64), and that key array
itself.  Degrees, the text format, pair lookups and independence tests run
as numpy passes over these arrays.  Columns that arrive with u <= v and
strictly increasing keys are kept as they are, with no copy and no sort;
others are sorted and their repeated pairs summed.

The writer formats a line per edge with no per-digit work and yields the
text a block at a time: lines are laid out a block of rows at a time in a
uint8 matrix, each field is filled four digits at a time by gathering
4-byte words of a fixed table of ASCII digit rows, and each block is
yielded with the zero bytes left where a value is shorter than its field
dropped.  The label lines follow as one bytes object, each run of
consecutive lines with one tag rendered by one ``%`` format.  Files are
written block by block; no whole-text buffer is built.

A graph is checked in full and fixed when it is built, labels included,
and its text is a function of it alone.  So canonical text is what the
writer emits, and the reader proves a text canonical with one comparison:
it parses the edge fields a block at a time and the label fields with
``str.split``, builds the graph, and keeps it only if the graph's render
is the whole text.  Any other text goes to the line parser.
"""

from __future__ import annotations

import operator
import re
from itertools import groupby
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InputError, ParseError

# Largest key base whose keys u * base + v (u, v < base) stay below 2^63.
_MAX_KEY_BASE = 3_037_000_499
_INT64_LIMIT = 1 << 63
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False
# A tag the line parser reads back whole: one str.split field (re's \s is
# str.isspace) with no lone surrogate, which UTF-8 cannot encode.
_TAG = re.compile("[^\\s\ud800-\udfff]+")


class EdgeArrays(NamedTuple):
    """Edges as equal-length integer columns: entry i is edge (u[i], v[i])
    with multiplicity mult[i].  The third ``MultiGraph`` constructor form;
    ``MultiGraph.arrays()`` returns the graph's own, sorted and read-only.
    A graph keeps int64 columns given in its own order (u <= v, keys
    strictly increasing) without copying them, and makes them read-only."""

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
    provenance ("embedded", "residual-G1", ...), fixed at construction too.
    """

    __slots__ = ("vertex_count", "_u", "_v", "_mult", "_edges", "_base", "_labels", "_degrees")

    def __init__(
        self,
        vertex_count: int,
        edges: dict[tuple[int, int], int] | Iterable[tuple[int, int]] | EdgeArrays | None = None,
        labels: dict[int, str] | None = None,
    ):
        try:
            n = self.vertex_count = operator.index(vertex_count)
        except TypeError:
            raise InputError(f"vertex_count {vertex_count!r} is not an integer") from None
        if n < 0:
            raise InputError("vertex_count must be non-negative")
        u, v, mult = _edge_columns(edges)
        if not (u <= v).all():
            u, v = np.minimum(u, v), np.maximum(u, v)
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
        self._mult = _frozen(mult)
        labels = dict(labels) if labels else {}
        if labels:
            if not set(map(type, labels)) <= {int}:
                # Other integer types are stored as int; any other id is refused.
                try:
                    labels = dict(zip(map(operator.index, labels), labels.values()))
                except TypeError:
                    raise InputError("label ids must be integers") from None
            ids = sorted(labels)  # one pass: the embedders and the reader give ids in order
            low, high = ids[0], ids[-1]
            if low < 0 or high >= n:
                raise InputError(f"label on unknown vertex {low if low < 0 else high}")
            if high >= _INT64_LIMIT:
                raise InputError("labelled vertex ids must be below 2^63")
            for tag in dict.fromkeys(labels.values()):
                if not isinstance(tag, str) or not _TAG.fullmatch(tag):
                    raise InputError(f"label tag {tag!r} is not one whitespace-free UTF-8 string")
        self._labels = labels
        self._degrees: np.ndarray | None = None

    # -- queries ------------------------------------------------------------

    @property
    def labels(self) -> MappingProxyType:
        """The vertex labels {v: tag}, read-only."""
        return MappingProxyType(self._labels)

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

    def later_neighbour_counts(self, u, stop) -> np.ndarray:
        """Per i, how many of the vertices u[i] + 1 .. stop[i] - 1 share an
        edge with u[i] >= 0.  Two binary searches on the sorted keys: the
        edges (u, v) with u < v < stop are the keys in
        [u * base + u + 1, u * base + min(stop, base)), and a vertex u >=
        base is no edge's lower endpoint."""
        u = np.minimum(np.asarray(u, dtype=np.int64), self._base)
        row = u * self._base
        hi = np.searchsorted(self._edges, row + np.minimum(stop, self._base))
        return np.maximum(hi - np.searchsorted(self._edges, row + u + 1), 0)

    def distinct_edge_count(self) -> int:
        return len(self._edges)

    def total_multiplicity(self) -> int:
        return int(self._mult.sum())

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees as exact int64; self-loops count 2 per
        multiplicity unit.  Raises ``InputError`` when a degree is 2^63 or
        more."""
        if self._degrees is None:
            # Each row counts once at either end (u is sorted, so its counts
            # are the gaps between each vertex's first row), then the rows of
            # multiplicity above 1 add the rest.  Those extras cannot wrap
            # int64 while their count times their largest stays below 2^61;
            # past that they are summed as Python ints.
            n = self.vertex_count
            deg = np.diff(np.searchsorted(self._u, np.arange(n + 1))) + np.bincount(self._v, minlength=n)
            heavy = np.flatnonzero(self._mult != 1)
            extra, ends = self._mult[heavy] - 1, (self._u[heavy], self._v[heavy])
            if len(heavy) and int(extra.max()) > (1 << 61) // len(heavy):
                exact, weights = deg.tolist(), extra.tolist()
                for end in ends:
                    for x, w in zip(end.tolist(), weights):
                        exact[x] += w
                top = max(exact)
                if top >= _INT64_LIMIT:
                    raise InputError(f"vertex {exact.index(top)} has a degree of 2^63 or more")
                deg = np.array(exact, dtype=np.int64)
            else:
                for end in ends:
                    np.add.at(deg, end, extra)
            self._degrees = deg
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
            and self._labels == other._labels
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
    u, v, _ = g.arrays()
    return not (np.isin(u, mem) & np.isin(v, mem) & (u != v)).any()


# -- text format ------------------------------------------------------------
#
# Header:   p plg <vertex_count> <distinct_edge_count>
# Edges:    e <u> <v> <multiplicity>       (u <= v, zero-based, one line per
#                                           distinct edge, sorted)
# Labels:   l <v> <tag>                    (optional, sorted by v)
#
# Canonical text is exactly what ``_graph_blocks`` yields and
# ``write_graph`` joins: the header, the edge lines of the digit-table
# writer ``_edge_blocks`` (base-10^4 chunks gathered from ``_UNITS_WORDS``
# and ``_HIGH_WORDS``, one bytes object per block of about
# ``_WRITE_BLOCK_BYTES``), then ``_label_text``; the writer is the format's
# only definition, and ``MultiGraph`` refuses any graph it could not write
# (a tag the line parser would not read back whole, say).  ``read_graph``
# parses a text's fields (``_digit_runs`` for each block of edge lines,
# ``str.split`` for the labels), builds the graph, and keeps it only if
# ``_graph_blocks`` of it lies in place over the whole text.
# Any text that the writer does not reproduce (extra whitespace, CRLF,
# signs, leading zeros, unsorted lines, any error) goes to the line
# parser, the only producer of ParseError.

_HEADER = re.compile(rb"p plg ([0-9]+) [0-9]+\n")
_CHUNK = 10_000  # the writer's digit chunk, four places
_WRITE_BLOCK_BYTES = 1 << 18  # the writer's line matrix, per block of rows
_READ_BLOCK_BYTES = 1 << 18  # the reader's edge text, per block of lines
_MIN_EDGE_LINE = len(b"e 0 0 1\n")


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


def _edge_blocks(cols: EdgeArrays) -> Iterator[bytes]:
    """One line 'e <u> <v> <mult>' per edge, yielded as ASCII bytes a block
    of rows at a time.

    Lines are laid out in a uint8 matrix of about ``_WRITE_BLOCK_BYTES``,
    each field as wide as its column's largest value, with zero bytes where
    a shorter value has no digit.  Fields are filled four digits at a time
    by gathering words of the digit tables (base-10^4 chunks), and each
    block is yielded with its zero bytes dropped.
    """
    rows = len(cols.u)
    if not rows:
        return
    widths = [len(str(int(c.max()))) for c in cols]
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
        yield part.tobytes().translate(None, b"\0")


def _label_text(labels: dict[int, str]) -> bytes:
    """The lines 'l <v> <tag>' in vertex order, each run of consecutive
    lines with one tag rendered by one ``%`` format."""
    out = []
    for tag, run in groupby(sorted(labels), labels.__getitem__):
        run = tuple(run)
        out.append((b"l %d " + tag.encode().replace(b"%", b"%%") + b"\n") * len(run) % run)
    return b"".join(out)


def _graph_blocks(g: MultiGraph) -> Iterator[bytes]:
    """The canonical text of ``g`` as UTF-8 bytes (ASCII but for labels):
    the header, the edge lines a block at a time, then the label lines."""
    yield f"p plg {g.vertex_count} {g.distinct_edge_count()}\n".encode("ascii")
    yield from _edge_blocks(g.arrays())
    yield _label_text(g._labels)


def write_graph(g: MultiGraph) -> str:
    return b"".join(_graph_blocks(g)).decode("utf-8")


def _digit_runs(a: np.ndarray) -> np.ndarray:
    """At each byte of the uint8 array ``a``, the value of the run of ASCII
    digits that ends there; 0 at every other byte.

    The writer's place-value chunking in reverse.  Each byte first holds its
    own digit, then the value of the run of at most 2, 4, 8 and 16 digits
    ending at it: where the run ending at byte i is longer than w, its
    2w-digit value is the w-digit value at i plus 10^w times the w-digit
    value at i - w.  The values are built in uint16, then uint32, then
    uint64, and a last uint64 step covers runs of 17 to 19 digits; a
    longer run wraps.  The steps stop once no run is longer than w."""
    d = a - np.uint8(ord("0"))
    digit = d < 10
    val = np.multiply(d, digit, dtype=np.uint16)
    # more[i]: the run ending at byte i is longer than w, i.e. bytes i-w..i
    # are all digits.
    more = np.zeros_like(digit)
    np.logical_and(digit[1:], digit[:-1], out=more[1:])
    w = 1
    for dtype in (np.uint16, np.uint16, np.uint32, np.uint64, np.uint64):
        if not more.any():
            break
        val = val.astype(dtype, copy=False)
        # Arithmetic on the mask: a masked ufunc branches on every byte.
        step = more[w:].astype(dtype)
        step *= dtype(10**w)
        step *= val[:-w]
        val[w:] += step
        more[w:] &= more[:-w]
        w *= 2
    return val


def _laid_out(data: bytes, pos: int, blocks: Iterable[bytes]) -> int:
    """Where ``blocks``, laid end to end from ``pos``, end if ``data`` holds
    them there, else -1.  Each block is compared in place."""
    for block in blocks:
        if not data.startswith(block, pos):
            return -1
        pos += len(block)
    return pos


def _read_canonical(data: bytes) -> MultiGraph | None:
    """The graph of ``data`` if the writer reproduces ``data`` exactly from
    it, else None.

    The edge text is read in blocks of about ``_READ_BLOCK_BYTES`` cut at
    line breaks: a block's rows are the values of its digit runs, three per
    line, and go into columns sized for the shortest edge line.  The label
    text is split with ``str.split``, three fields to a line.  The graph
    built from them is kept only if its render is the whole of ``data``:
    the writer renders each line from one row or label alone, so an
    unsorted, repeated or u > v line, a wrong header or any other byte
    renders differently."""
    try:
        head = _HEADER.match(data)
        if head is None:
            return None
        cut = data.find(b"l", head.end())  # the first label line: no edge line holds an 'l'
        if cut < 0:
            cut = len(data)
        text = np.frombuffer(data, dtype=np.uint8)
        cols = np.empty((3, (cut - head.end()) // _MIN_EDGE_LINE), dtype=np.int64)
        rows = 0
        lo = head.end()
        while lo < cut:
            hi = data.rfind(b"\n", lo, min(lo + _READ_BLOCK_BYTES, cut)) + 1
            if hi <= lo:  # a line longer than a block
                hi = data.find(b"\n", lo, cut) + 1 or cut
            block = text[lo:hi]
            digit = block - np.uint8(ord("0")) < 10
            vals = _digit_runs(block)[np.flatnonzero(digit[:-1] > digit[1:])].astype(np.int64)
            if len(vals) % 3:
                return None
            cols[:, rows : rows + len(vals) // 3] = vals.reshape(-1, 3).T
            rows += len(vals) // 3
            lo = hi
        fields = data[cut:].decode().split()
        g = MultiGraph(int(head[1]), EdgeArrays(*cols[:, :rows]), dict(zip(map(int, fields[1::3]), fields[2::3])))
    except ValueError:  # InputError and UnicodeError are ValueErrors
        return None
    return g if _laid_out(data, 0, _graph_blocks(g)) == len(data) else None


def read_graph(data: bytes | str) -> MultiGraph:
    """The graph of a text in the format above, given as UTF-8 bytes (a str
    is encoded first, a lone surrogate to bytes that are not UTF-8).
    Raises ``ParseError`` on a malformed text."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    g = _read_canonical(data)
    return g if g is not None else _read_lines(data)


def _read_lines(data: bytes) -> MultiGraph:
    """Line-by-line parser for any valid text; raises ParseError otherwise,
    on bytes that are not UTF-8 too."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first bad byte, counted as str.splitlines counts.
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError("text is not UTF-8", line_no) from None
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
            if max(v, m) >= _INT64_LIMIT:
                raise ParseError("edge fields must be below 2^63", line_no)
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
