"""Checks of plg outputs that are computed apart from the program.

Graph files are parsed with this module's own reader, degree counts come from
direct floored numpy sums, cliques and independence are tested on sorted edge
keys, and the beta = 1 embedded block is recomputed as W·A·Wᵀ.  The only plg
call here regenerates the seeded expander, whose own properties are then
checked independently.  Every check raises ``CheckError`` on a mismatch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SNAP_TOL = 1e-9
COUNTS_LIMIT = 100_000  # plg dist lists the counts only up to this delta
_CHUNK = 1 << 20


class CheckError(Exception):
    """An output that breaks a property the program claims."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# -- the power-law distribution ------------------------------------------------


def floor_snap(x: float) -> int:
    """floor(x), except that x within 1e-9 (relative) of an integer snaps to it."""
    c = round(x)
    if abs(x - c) <= SNAP_TOL * max(1.0, abs(c)):
        return int(c)
    return math.floor(x)


def level_counts(alpha: float, beta: float, lo: int, hi: int) -> np.ndarray:
    """y_i = floor(e^alpha / i^beta) with the snap rule, for i in [lo, hi]."""
    i = np.arange(lo, hi + 1, dtype=np.float64)
    v = math.exp(alpha) / np.power(i, beta)
    c = np.rint(v)
    return np.where(np.abs(v - c) <= SNAP_TOL * np.maximum(1.0, np.abs(c)), c, np.floor(v)).astype(
        np.int64
    )


def floored_sums(alpha: float, beta: float, a: int, b: int) -> tuple[int, int]:
    """(sum y_i, sum i*y_i) over [a, b], in chunks so memory stays flat."""
    size = volume = 0
    for lo in range(a, b + 1, _CHUNK):
        hi = min(b, lo + _CHUNK - 1)
        y = level_counts(alpha, beta, lo, hi)
        size += int(y.sum())
        volume += int((y * np.arange(lo, hi + 1, dtype=np.int64)).sum())
    return size, volume


def check_dist(alpha: float, beta: float, interval: tuple[float, float], stdout: str) -> None:
    """``plg dist`` output against direct floored sums."""
    rec = json.loads(stdout)
    delta = floor_snap(math.exp(alpha / beta))
    require(rec["delta"] == delta, f"delta {rec['delta']} != {delta}")
    n, vol = floored_sums(alpha, beta, 1, delta)
    require(rec["n_exact"] == n, f"n_exact {rec['n_exact']} != {n}")
    require(rec["edge_half_sum_exact"] == vol / 2.0, "edge_half_sum_exact differs")
    if delta <= COUNTS_LIMIT:
        expect = level_counts(alpha, beta, 1, delta)
        require(np.array_equal(np.asarray(rec["counts"], dtype=np.int64), expect), "counts differ")
    else:
        require("counts" not in rec, "counts listed above the size limit")
    x, y = interval
    a, b = floor_snap(x * delta) + 1, min(floor_snap(y * delta), delta)
    size, volume = floored_sums(alpha, beta, a, b) if a <= b else (0, 0)
    bounds = rec["bounds"]
    require(bounds["size"]["exact"] == size, f"interval size {bounds['size']['exact']} != {size}")
    if beta == 1 or y == 1.0:
        require(bounds["volume"]["exact"] == volume, "interval volume differs")


# -- graph text -----------------------------------------------------------------


@dataclass
class Graph:
    """A parsed graph file: edge columns sorted by (u, v), plus label lines."""

    n: int
    u: np.ndarray
    v: np.ndarray
    m: np.ndarray
    labels: list[str]

    @property
    def keys(self) -> np.ndarray:
        return self.u * self.n + self.v


def parse_graph(text: str) -> Graph:
    """Parse the ``p plg`` text format and check its structure."""
    header, _, rest = text.partition("\n")
    head = header.split()
    require(len(head) == 4 and head[:2] == ["p", "plg"], "bad header")
    n, declared = int(head[2]), int(head[3])
    cut = 0 if rest.startswith("l ") else (rest.find("\nl ") + 1 or len(rest))
    edge_text, label_text = rest[:cut], rest[cut:]
    require(edge_text.count("\n") == declared == edge_text.count("e "), "edge line count")
    cols = np.fromstring(edge_text.replace("e", " "), dtype=np.int64, sep=" ").reshape(-1, 3)
    g = Graph(n, cols[:, 0].copy(), cols[:, 1].copy(), cols[:, 2].copy(), label_text.splitlines())
    require(bool((g.u >= 0).all() and (g.u <= g.v).all() and (g.v < n).all()), "endpoint range")
    require(bool((g.m >= 1).all()), "non-positive multiplicity")
    require(bool((np.diff(g.keys) > 0).all()), "edges not sorted or repeated")
    return g


def format_graph(g: Graph) -> str:
    """Inverse of ``parse_graph``; used to write tampered copies."""
    lines = [f"p plg {g.n} {len(g.u)}"]
    lines += [f"e {a} {b} {c}" for a, b, c in zip(g.u.tolist(), g.v.tolist(), g.m.tolist())]
    return "\n".join(lines + g.labels) + "\n"


def with_edges(g: Graph, u, v, m) -> Graph:
    """A copy of g with the given edge columns, re-sorted."""
    u, v, m = (np.asarray(c, dtype=np.int64) for c in (u, v, m))
    order = np.argsort(u * g.n + v, kind="stable")
    return Graph(g.n, u[order], v[order], m[order], g.labels)


def degrees(g: Graph) -> np.ndarray:
    """Per-vertex degree; a self-loop counts 2 per unit."""
    return np.bincount(g.u, g.m, g.n).astype(np.int64) + np.bincount(g.v, g.m, g.n).astype(np.int64)


def has_edges(g: Graph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    want = lo * g.n + hi
    keys = g.keys
    pos = np.clip(np.searchsorted(keys, want), 0, max(len(keys) - 1, 0))
    return (keys[pos] == want) if len(keys) else np.zeros(len(want), dtype=bool)


def check_histogram(g: Graph, alpha: float, beta: float, delta: int, deficits) -> None:
    """Degree histogram equals y_1..y_delta, up to the declared parity deficits."""
    require(delta == floor_snap(math.exp(alpha / beta)), "delta does not match alpha, beta")
    require(len(deficits) <= 2, "more than two parity deficits")
    deg = degrees(g)
    expect = np.zeros(delta + 2, dtype=np.int64)
    expect[1 : delta + 1] = level_counts(alpha, beta, 1, delta)
    for vertex, target in deficits:
        require(deg[vertex] == target - 1, f"deficit vertex {vertex} not at {target - 1}")
        expect[target] -= 1
        expect[target - 1] += 1
    actual = np.bincount(deg, minlength=len(expect))
    require(len(actual) == len(expect) and np.array_equal(actual, expect), "degree histogram")


def check_cliques(g: Graph, cliques) -> None:
    """Every [start, stop) range is a complete subgraph."""
    by_size: dict[int, list[int]] = {}
    for start, stop in cliques:
        by_size.setdefault(stop - start, []).append(start)
    for size, starts in by_size.items():
        if size < 2:
            continue
        i, j = np.triu_indices(size, 1)
        base = np.asarray(starts, dtype=np.int64)[:, None]
        ok = has_edges(g, (base + i).ravel(), (base + j).ravel())
        require(bool(ok.all()), f"clique of size {size} is missing an edge")


def check_independent(g: Graph, members) -> None:
    inside = np.zeros(g.n, dtype=bool)
    inside[np.asarray(members, dtype=np.int64)] = True
    require(not bool((inside[g.u] & inside[g.v]).any()), "witness is not independent")


def induced_on_evens(g: Graph, count: int) -> set[tuple[int, int]]:
    """Edges among the vertices 2i, i < count, as pairs (i, j); loops included."""
    sel = (g.v < 2 * count) & (g.u % 2 == 0) & (g.v % 2 == 0)
    return set(zip((g.u[sel] // 2).tolist(), (g.v[sel] // 2).tolist()))


def check_embedding(g: Graph, rep: dict, beta: float) -> None:
    """Histogram, every certificate clique, the pair cliques and the witness."""
    params = rep["params"]
    check_histogram(g, params["alpha"], beta, params["delta"], rep["parity_deficits"])
    for cert in rep["certificates"].values():
        check_cliques(g, cert["cliques"])
    core = "Gprime" if rep["kind"] == "sub1" else "D"
    lo, hi = rep["parts"][core]["range"]
    check_cliques(g, [(s, s + 2) for s in range(lo, hi, 2)])
    check_independent(g, rep["witness"])


def check_sub1(edges: list[tuple[int, int]], beta: float, out_text: str, report_text: str) -> None:
    """``plg embed-sub1`` output: the induced subgraph on {2i} is the input."""
    g, rep = parse_graph(out_text), json.loads(report_text)
    require(rep["kind"] == "sub1" and rep["params"]["beta"] == beta, "report kind or beta")
    check_embedding(g, rep, beta)
    count = rep["params"]["n_embedded"] // 2
    require(induced_on_evens(g, count) == set(edges), "induced subgraph on {2i} is not the input")


def walk_rule(n: int, edges, h_edges, d: int, k: int) -> set[tuple[int, int]]:
    """Adjacency of the k-walk product: M = W·A·Wᵀ, i~j iff M_ij > 0 or s_i or s_j.

    Walks are listed in lexicographic order over the expander h; W is the
    walk/vertex incidence matrix, A the input's adjacency and s_i = M_ii > 0.
    """
    nbrs = [[] for _ in range(n)]
    for a, b in h_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    walks = [[v] for v in range(n)]
    for _ in range(k - 1):
        walks = [w + [x] for w in walks for x in sorted(nbrs[w[-1]])]
    require(len(walks) == n * d ** (k - 1), "walk count")
    w = np.zeros((len(walks), n))
    for i, walk in enumerate(walks):
        w[i, walk] = 1.0
    a = np.zeros((n, n))
    for x, y in edges:
        a[x, y] = a[y, x] = 1.0
    mm = w @ a @ w.T
    s = np.diag(mm) > 0
    adj = (mm > 0) | s[:, None] | s[None, :]
    i, j = np.nonzero(np.triu(adj, 1))
    return set(zip(i.tolist(), j.tolist()))


def check_expander(h, n: int, d: int, ex: dict) -> list[tuple[int, int]]:
    """The regenerated expander is d-regular and simple, with the reported lambda."""
    h_edges = [(a, b) for a, b, mult in h.graph.edges() if a != b and mult == 1]
    require(len(h_edges) == h.graph.distinct_edge_count() == n * d // 2, "expander not simple")
    a = np.zeros((n, n))
    for x, y in h_edges:
        a[x, y] = a[y, x] = 1.0
    require(bool((a.sum(axis=1) == d).all()), "expander not d-regular")
    ev = np.linalg.eigvalsh(a / d)
    lam = max(ev[-2], abs(ev[0]))
    for name, val in (("lambda_1", ev[-2]), ("lambda_min", ev[0]), ("lambda", lam)):
        require(abs(ex[name] - val) <= 1e-9, f"{name} {ex[name]} != eigvalsh {val}")
    return h_edges


def check_beta1(
    edges: list[tuple[int, int]], n: int, out_text: str, report_text: str, regenerate
) -> None:
    """``plg embed-beta1`` output: the induced subgraph on {2i} follows the
    walk-product rule over the expander ``regenerate(n, d, seed)``."""
    g, rep = parse_graph(out_text), json.loads(report_text)
    require(rep["kind"] == "beta1", "report kind")
    check_embedding(g, rep, 1.0)
    ex = rep["extras"]
    d, k = ex["d"], ex["k"]
    require(ex["n_base"] == n, "n_base")
    h_edges = check_expander(regenerate(n, d, ex["seed"]), n, d, ex)
    rule = walk_rule(n, edges, h_edges, d, k)
    require(ex["n_d"] == n * d ** (k - 1), "n_d")
    require(induced_on_evens(g, ex["n_d"]) == rule, "induced subgraph on {2i} breaks the walk rule")


def check_verify(expect_ok: bool, rc: int, stdout: str) -> None:
    """``plg verify`` result: the printed verdict matches the exit code."""
    rec = json.loads(stdout)
    require(rec["ok"] == expect_ok == (rc == 0), f"verify said ok={rec['ok']} with exit {rc}")
    require(rec["ok"] == all(c["ok"] for c in rec["checks"]), "verdict disagrees with its checks")
