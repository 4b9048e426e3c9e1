"""The embedding report: one JSON document, a plain dict that an embedder
builds once, ``plg embed-*`` writes and ``plg verify`` reads.

Its keys, ``KEYS``: ``schema``, ``kind`` ("sub1" or "beta1"), ``params``, ``parts``
({name: {"range": [lo, hi]}}), ``is_upper_bounds``, ``bounds``,
``witness``, ``parity_deficits`` ([vertex, target] pairs),
``certificates`` (each ``CliqueCoverCertificate.to_dict``) and ``extras``
(exactly the kind's ``INPUT_EXTRAS``).  The rules the embedders and the
verifier share live here: each part's IS upper bound and the degree
histogram's mismatched buckets.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError
from .graph import MultiGraph
from .model import PowerLawParams, _floored_counts, degree_counts

SCHEMA = "plg-report/2"
KEYS = ("schema", "kind", "params", "parts", "is_upper_bounds", "bounds", "witness", "parity_deficits", "certificates",
        "extras")
# Each kind's embedded block: the part its m pair cliques cover.
BLOCKS = {"sub1": "Gprime", "beta1": "D"}
# Each kind's extras, in the order written: the run's own values, which
# ``plg verify`` reads or rebuilds (the rebuild's inputs, the witness source
# and count, the walk product's claims and the trusted ``is_g_optimal``).
INPUT_EXTRAS = {
    "sub1": ("witness_source_vertices",),
    "beta1": ("n_d", "product_max_degree", "lambda", "lambda_1", "lambda_min", "lambda_bound", "expander_passes",
              "seed", "d", "k", "n_base", "is_g", "is_g_optimal", "witness_source_vertices", "witness_walk_count"),
}


def input_extras(kind: str, **values) -> dict:
    """The kind's ``INPUT_EXTRAS`` holding ``values``, in the table's order;
    values that are not exactly the table's keys raise ``InternalError``."""
    if values.keys() != set(INPUT_EXTRAS[kind]):
        raise InternalError(f"{kind} input extras {sorted(values)} are not {sorted(INPUT_EXTRAS[kind])}")
    return {key: values[key] for key in INPUT_EXTRAS[kind]}


def upper_bounds(block: str, ranges: dict, clique_counts: dict[str, int]) -> dict[str, int]:
    """Each part's IS upper bound, a clique count, from its [lo, hi) range:
    its certificate's clique count where it has one, m = size / 2 pair
    cliques for ``block`` without one, and 0 for any other part."""
    return {
        name: clique_counts[name] if name in clique_counts else (hi - lo) // 2 if name == block else 0
        for name, (lo, hi) in ranges.items()
    }


def degree_conformance(g: MultiGraph, p: PowerLawParams, deficits: list[list[int]]) -> dict[int, list[int]]:
    """The degree buckets where the histogram differs from y_i, up to the
    declared deficits, as {degree: [expected, actual]}, ascending: empty
    when the graph conforms.

    Each deficit (vertex, target) explains one vertex sitting at target-1;
    the histogram conforms iff its differences from y_i are exactly those
    the deficit list predicts.  A target outside the histogram's range
    leaves its buckets mismatched rather than failing.

    Buckets 0..delta+1 are tabulated, and degrees and deficit buckets above
    them are counted sparsely.  Two bounds keep every array within the
    graph's size, each leaving out buckets above one that must mismatch, so
    the lowest mismatched bucket is still listed:
      * with k deficits, more than 2 * (distinct edges) + k vertices put
        bucket 0 past what the deficits explain: buckets above 0 are left
        out, and no per-vertex array is built;
      * each class 1..delta holds a vertex, so when delta exceeds n + 2k + 1
        the n degrees and 2k deficit buckets leave a class up to n + 2k + 1
        empty: the classes above it are left out.
    """
    n, k = g.vertex_count, len(deficits)
    # The highest bucket listed (None: all are) and the tabulated buckets
    # 0..size-1; bucket 0 alone is counted sparsely, as n may pass int64.
    if n > 2 * g.distinct_edge_count() + k:
        listed, size = 0, 0
    elif p.delta > n + 2 * k + 1:
        listed = n + 2 * k + 1
        size = listed + 1
    else:
        listed, size = None, p.delta + 2
    classes = min(p.delta, size - 1)
    expected = np.zeros(size, dtype=np.int64)
    expected[1 : classes + 1] = degree_counts(p) if classes == p.delta else _floored_counts(p, 1, classes)
    outside: dict[int, list[int]] = {}  # bucket -> [expected, actual], outside [0, size)
    for _v, t in deficits:
        for bucket, change in ((t, -1), (t - 1, 1)):
            if 0 <= bucket < size:
                expected[bucket] += change
            else:
                outside.setdefault(bucket, [0, 0])[0] += change
    if listed == 0:
        u, v, _ = g.arrays()
        outside.setdefault(0, [0, 0])[1] = n - len(np.unique(np.concatenate([u, v])))
        actual = np.zeros(0, dtype=np.int64)
    else:
        deg = g.degrees()
        high = deg >= size
        for d, c in zip(*np.unique(deg[high], return_counts=True)):
            outside.setdefault(int(d), [0, 0])[1] = int(c)
        actual = np.bincount(deg[~high], minlength=size)
    mism = {int(i): [int(expected[i]), int(actual[i])] for i in np.flatnonzero(expected != actual)}
    mism.update({b: ea for b, ea in outside.items() if ea[0] != ea[1] and (listed is None or b <= listed)})
    return {b: mism[b] for b in sorted(mism)}
