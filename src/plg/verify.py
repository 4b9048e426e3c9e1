"""End-to-end re-verification of embedding outputs against their reports.

Every check recomputes from first principles: histogram against the
distribution definition, clique covers against the assembled edges, witness
independence and its mapping from the recorded source, every parameter and
bound from the defining fields, by the function the embedder wrote them
with, and the embedded block.  Each recomputed entry is
compared with the report's by one rule, ``_leaf_mismatch``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._assembly import map_witness
from .embed_beta1 import Beta1Params, beta1_leaves, walk_block
from .embed_sub1 import Sub1Params, double_graph, sub1_leaves
from .errors import InputError, ResourceLimitError
from .graph import MultiGraph, is_independent
from .model import PowerLawParams
from .realizer import CliqueCoverCertificate
from .report import BLOCKS, INPUT_EXTRAS, KEYS, SCHEMA, degree_conformance, upper_bounds

_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    # An infinite difference is never close, though the tolerance is then infinite too.
    return math.isfinite(a - b) and abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _leaf_mismatch(got, want, path: str) -> str:
    """The first leaf of the report's ``got`` at ``path`` that differs from
    the recomputed ``want``, as a failure detail, or "" when none does.
    Tables must have the same keys and lists the same length; a float
    matches a number within the relative tolerance (``_close``), a plain int
    only an equal plain int, a bool only the same bool, and any other leaf
    an equal one.  This is the one rule by which every check compares a
    report entry with what it recomputed."""
    if isinstance(want, dict) and isinstance(got, dict):
        unknown = sorted(got.keys() - want.keys())
        if unknown:
            return f"{path}: {unknown[0]} is not a recomputed entry"
        return next(filter(None, (_leaf_mismatch(got[key], val, f"{path}/{key}") for key, val in want.items())), "")
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: report {len(got)} entries, recomputed {len(want)}"
        # Equal lists of plain ints, or of lists of them (a certificate's
        # cliques), match whole: they are most of a report's bulk.
        if got == want and _int_leaves(got) and _int_leaves(want):
            return ""
        return next(filter(None, (_leaf_mismatch(g, w, f"{path}/{i}") for i, (g, w) in enumerate(zip(got, want)))), "")
    if isinstance(want, float) and type(got) in (int, float):
        same = _close(got, want)
    elif type(want) is int:
        same = type(got) is int and got == want
    else:
        same = isinstance(got, bool) == isinstance(want, bool) and got == want
    return "" if same else f"{path}: report {got}, recomputed {want}"


def _all_ints(values) -> bool:
    return set(map(type, values)) <= {int}


def _int_leaves(values: list) -> bool:
    """Whether ``values`` holds only plain ints, or only lists of them."""
    if set(map(type, values)) == {list}:
        values = itertools.chain.from_iterable(values)
    return _all_ints(values)


def _ints(values, what: str) -> list:
    """``values``, read as integers, as a list of plain ints (no bool or float), else ``TypeError``."""
    values = list(values)
    if not _all_ints(values):
        raise TypeError(f"{what} must be integers")
    return values


def _check(name: str):
    """Make a check body, which returns "" on pass or a failure detail, a
    function that returns the check's record.  Report data the body cannot
    use fails the check instead of raising: a missing key, or a value of the
    wrong type, range or size (``InputError`` among them), one that divides
    by zero or is too large for a float, or one past a size cap.
    ``InternalError`` and ``AssertionError`` still propagate."""

    def decorate(body):
        @functools.wraps(body)
        def check(*args) -> dict:
            try:
                detail = body(*args)
            except KeyError as exc:
                detail = f"report lacks key {exc}"
            except (ArithmeticError, AttributeError, IndexError, TypeError, ValueError, ResourceLimitError) as exc:
                detail = str(exc) or type(exc).__name__
            return {"check": name, "ok": not detail, "detail": detail}

        return check

    return decorate


@_check("conformance")
def _check_conformance(plg: MultiGraph, rep: dict) -> str:
    params = rep["params"]
    p = PowerLawParams(params["alpha"], params.get("beta", 1.0))
    deficits = [list(t) for t in rep["parity_deficits"]]
    if len(deficits) > 2:
        return "more than 2 deficits declared"
    if not all(len(d) == 2 and _all_ints(d) for d in deficits):
        return "deficits must be [vertex, degree] pairs"
    bad = degree_conformance(plg, p, deficits)
    if bad:
        worst = min(bad)
        return f"degree bucket {worst}: expected {bad[worst][0]}, found {bad[worst][1]}"
    for v, t in deficits:
        if not (0 <= v < plg.vertex_count and plg.degree(v) == t - 1):
            return f"deficit vertex {v} does not have degree {t - 1}"
    return ""


@_check("parts")
def _check_parts(plg: MultiGraph, rep: dict) -> str:
    ranges = {name: _ints(part["range"], f"{name}: range") for name, part in rep["parts"].items()}
    pos = 0
    for lo, hi in sorted(ranges.values()):
        if lo != pos:
            return f"gap or overlap at vertex {pos}"
        pos = hi
    if pos != plg.vertex_count:
        return f"parts cover {pos} vertices, graph has {plg.vertex_count}"
    built = {name: {"range": [lo, hi]} for name, (lo, hi) in ranges.items()}
    return _leaf_mismatch(rep["parts"], built, "parts")


@_check("certificates")
def _check_certificates(plg: MultiGraph, rep: dict) -> str:
    """Each certificate's cliques tile its part in order and are complete in
    the graph, the certificate is the dict of the ``CliqueCoverCertificate``
    its cliques define, and its deficit vertex, if any, lies in the part and
    is declared in ``parity_deficits``; each declared deficit is one
    certificate's.  ``is_upper_bounds`` then holds each part's clique count,
    by ``report.upper_bounds``."""
    ranges = {name: _ints(part["range"], f"{name}: range") for name, part in rep["parts"].items()}
    for name, cert in rep["certificates"].items():
        lo, hi = ranges[name]
        cliques, v = cert["cliques"], cert["parity_deficit_vertex"]
        _ints(itertools.chain([] if v is None else [v], *cliques), f"{name}: clique ends and deficit vertex")
        start, stop = np.array(cliques, dtype=np.int64).reshape(len(cliques), 2).T
        # Cliques are checked in order, so only those before the first
        # misaligned one are tested for missing edges.
        misaligned = np.flatnonzero((start != np.append(lo, stop[:-1])) | (stop > hi))
        aligned = misaligned[0] if len(misaligned) else len(cliques)
        start, stop = start[:aligned], stop[:aligned]
        # The aligned cliques' members are listed below; a forged report
        # must not size them past the graph, so their span and pair count
        # are checked first.
        outside = np.flatnonzero((start < 0) | (stop > plg.vertex_count))
        if len(outside):
            j = outside[0]
            return f"{name}: clique [{start[j]},{stop[j]}) lies outside the graph's {plg.vertex_count} vertices"
        sizes = stop - start
        exact = sizes.astype(object)  # a forged size can pass sqrt(2^63)
        pairs = int((exact * (exact - 1) // 2).sum())
        if pairs > plg.distinct_edge_count():
            return f"{name}: cliques need {pairs} distinct edges, the graph has {plg.distinct_edge_count()}"
        # Member u of a clique [s, t) has an edge to each of u+1 .. t-1
        # exactly when it has t - 1 - u of them, so rows are counted, not
        # pairs listed.  Members come clique by clique in ascending order,
        # so the first short row holds the first missing pair.
        rows = np.maximum(sizes, 0)
        row_stop = np.repeat(stop, rows)
        u = np.arange(len(row_stop)) + np.repeat(start - (np.cumsum(rows) - rows), rows)
        short = np.flatnonzero(plg.later_neighbour_counts(u, row_stop) < row_stop - 1 - u)
        if len(short):
            x = u[short[0]]
            later = np.arange(x + 1, row_stop[short[0]])
            return f"{name}: missing clique edge ({x},{later[plg.multiplicities(x, later) < 1][0]})"
        if aligned < len(cliques):
            start, stop = cliques[aligned]
            return f"{name}: clique [{start},{stop}) misaligned with part [{lo},{hi})"
        covered = (stop[-1] if len(stop) else lo) - lo
        if covered != hi - lo:
            return f"{name}: cliques cover {covered} of {hi - lo} vertices"
        built = CliqueCoverCertificate(sizes, lo, None if v is None else v - lo).to_dict()
        mismatch = _leaf_mismatch(cert, built, f"certificates/{name}")
        if mismatch:
            return mismatch
        if v is not None and not (lo <= v < hi and v in [d[0] for d in rep["parity_deficits"]]):
            return f"{name}: parity deficit vertex {v} is not a declared deficit in [{lo},{hi})"
    block, certs = BLOCKS[rep["kind"]], rep["certificates"]
    named = {cert["parity_deficit_vertex"] for cert in certs.values()} - {None}
    for v, _ in rep["parity_deficits"]:
        if v not in named:
            return f"parity deficit vertex {v} is no certificate's deficit vertex"
    for name, (lo, hi) in ranges.items():
        if name not in certs and name != block and hi != lo:
            return f"{name}: part of {hi - lo} vertices has no certificate"
    counts = upper_bounds(block, ranges, {name: len(cert["cliques"]) for name, cert in certs.items()})
    return _leaf_mismatch(rep["is_upper_bounds"], counts, "is_upper_bounds")


# What each kind's embedded block doubles.
_BLOCK_SOURCES = {"sub1": "input", "beta1": "walk product"}


@_check("embedded")
def _check_embedded(plg: MultiGraph, rep: dict, block_source) -> str:
    """The kind's block is the doubling ``doubled`` and the report's extras
    hold the ``claims`` of its rebuild, all from ``block_source``, the
    ``_embedded_source`` tuple or the exception its build raised (raised
    again here): the block is [0, 2m), the extras match the claims leaf for
    leaf (``_leaf_mismatch``), and every edge inside the block has its
    multiplicity in ``doubled``, or at least that on a pair edge {2i, 2i+1},
    which the fill raises.  So the block's independent sets are those of
    ``doubled``."""
    block, (doubled, _, claims) = BLOCKS[rep["kind"]], _built(block_source)
    n_embed = doubled.vertex_count
    if list(rep["parts"][block]["range"]) != [0, n_embed]:
        return f"{block} is not the block [0,{n_embed})"
    mismatch = _leaf_mismatch({key: rep["extras"][key] for key in claims}, claims, "extras")
    if mismatch:
        return mismatch
    du, dv, dm = doubled.arrays()
    got = plg.multiplicities(du, dv)
    pair = (du % 2 == 0) & (dv == du + 1)
    unjoined = np.flatnonzero(pair & (got == 0))
    if len(unjoined):
        i = du[unjoined[0]]
        return f"pair ({i},{i + 1}) not joined"
    lost = np.where(pair, got < dm, got != dm)
    u, v, _ = plg.arrays()
    u, v = u[v < n_embed], v[v < n_embed]
    extra = doubled.multiplicities(u, v) == 0
    eu, ev = np.concatenate([du[lost], u[extra]]), np.concatenate([dv[lost], v[extra]])
    if len(eu):
        k = np.lexsort((ev, eu))[0]
        return f"block differs from the doubled {_BLOCK_SOURCES[rep['kind']]} at edge ({eu[k]},{ev[k]})"
    return ""


def _embedded_source(rep: dict, original: MultiGraph):
    """The doubling the embedded block must equal, the walks its witness
    maps and the extras its rebuild fixes.  Kind "sub1": ``double_graph``
    of the input, which refuses an input the embedder would refuse as too
    large before doubling it, walked one vertex at a time, and no extras.
    Kind "beta1": the doubled ``walk_block`` of the input at the report's
    (d, seed, k), once n_base is checked against the input, and its
    ``report_extras``; a refusal raises ``InputError("walk product: …")``."""
    if rep["kind"] == "sub1":
        return double_graph(original), np.arange(original.vertex_count)[:, None], {}
    ex = rep["extras"]
    try:
        if ex["n_base"] != original.vertex_count:
            raise InputError(f"n_base {ex['n_base']} is not the input's {original.vertex_count} vertices")
        wp = walk_block(original, ex["d"], ex["seed"], ex["k"])
    except (InputError, ResourceLimitError) as exc:
        raise InputError(f"walk product: {exc}") from exc
    return wp.doubled(), wp.walks, wp.report_extras()


def _built(block_source):
    """``block_source``, an ``_embedded_source`` tuple, or the exception its
    build raised, raised again."""
    if isinstance(block_source, Exception):
        raise block_source
    return block_source


@_check("witness")
def _check_witness(plg: MultiGraph, rep: dict, original: MultiGraph, block_source) -> str:
    """The witness is independent in the output and is exactly the image of
    its source, an independent set of the input, under the walks of
    ``block_source`` (as in ``_check_embedded``)."""
    walks = _built(block_source)[1]
    witness = _ints(rep["witness"], "witness")
    if not is_independent(plg, witness):
        return "witness not independent in output"
    source = rep["extras"].get("witness_source_vertices")
    if source is None:
        return "witness source missing"
    if not is_independent(original, _ints(source, "witness source")):
        return "witness source not independent in input"
    image = map_witness(walks, source).tolist()
    mismatch = _leaf_mismatch(witness, image, "witness")
    if mismatch or rep["kind"] != "beta1":
        return mismatch
    return _leaf_mismatch(rep["extras"]["witness_walk_count"], len(image), "extras/witness_walk_count")


@_check("bounds")
def _check_bounds(plg: MultiGraph, rep: dict) -> str:
    """The params and the bounds are those that ``sub1_leaves`` or
    ``beta1_leaves``, which the embedder wrote them with, give for the
    record the params' defining fields rebuild (and, kind "beta1", the
    extras' is_g, n_base, d, k, lambda_1 and lambda_min), leaf for leaf
    (``_leaf_mismatch``), and the extras hold no key outside the kind's
    ``report.INPUT_EXTRAS``.  Kind "beta1" also needs n_base, d, k, seed and
    is_g to be plain ints and is_g_optimal a bool.  Every degree class
    1..delta holds a vertex, so a record whose delta exceeds the graph's
    vertex count fails first."""
    params, extras = rep["params"], rep["extras"]
    unknown = sorted(extras.keys() - set(INPUT_EXTRAS[rep["kind"]]))
    if unknown:
        return f"extras: {unknown[0]} is not a recomputed entry"
    record = (Sub1Params if rep["kind"] == "sub1" else Beta1Params).from_dict(params)
    # The params first: the bounds of a forged record can take seconds of
    # exact sums.
    mismatch = _leaf_mismatch(params, record.to_dict(), "params")
    if mismatch:
        return mismatch
    if record.delta > plg.vertex_count:
        return f"params: delta {record.delta} exceeds the graph's {plg.vertex_count} vertices"
    if rep["kind"] == "sub1":
        want = sub1_leaves(record)
    else:
        for key in ("n_base", "d", "k", "seed", "is_g"):
            _ints([extras[key]], key)
        if type(extras["is_g_optimal"]) is not bool:
            return "is_g_optimal must be a bool"
        want = beta1_leaves(record, extras)
    return _leaf_mismatch(rep["bounds"], want["bounds"], "bounds")


def verify_embedding(plg: MultiGraph, report: dict, original: MultiGraph) -> dict:
    """Re-check an embedding run: conformance, certificates, witness, bounds,
    and the embedded block: for kind "sub1" against the input's doubling, for
    kind "beta1" against the doubled walk product and its expander.  Returns
    the verdict document ``plg verify`` prints: its ``schema``, ``ok`` and
    the ``checks``' records.  A report that lacks a key or holds a value a
    check cannot use fails that check; one with a key outside
    ``report.KEYS`` fails ``schema``."""
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        detail = "unknown schema"
    elif report.get("kind") not in tuple(BLOCKS):
        detail = "unknown kind"
    else:
        detail = next((f"{key} is not a report entry" for key in report if key not in KEYS), "")
    if detail:
        checks = [{"check": "schema", "ok": False, "detail": detail}]
    else:
        # The witness and the embedded block share one rebuild of the source;
        # a refused rebuild fails both checks with the same detail.
        try:
            block_source = _embedded_source(report, original)
        except Exception as exc:
            block_source = exc
        checks = [
            _check_conformance(plg, report),
            _check_parts(plg, report),
            _check_certificates(plg, report),
            _check_witness(plg, report, original, block_source),
            _check_bounds(plg, report),
            _check_embedded(plg, report, block_source),
        ]
    return {"schema": SCHEMA, "ok": all(c["ok"] for c in checks), "checks": checks}
