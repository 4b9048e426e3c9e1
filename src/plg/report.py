"""Embedding reports: parameters, part decomposition, bounds, and conformance."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import MultiGraph
from .model import PowerLawParams
from .realizer import CliqueCoverCertificate

SCHEMA = "plg-report/1"
# Each kind's embedded block: the part its m pair cliques cover.
BLOCKS = {"sub1": "Gprime", "beta1": "D"}


@dataclass
class Conformance:
    """Result of comparing a graph's degree histogram to the target counts."""

    ok: bool
    deficits: list[tuple[int, int]]  # (vertex, target degree) pairs, each off by 1
    mismatched_buckets: dict[int, tuple[int, int]]  # degree -> (expected, actual)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "deficits": [list(d) for d in self.deficits],
            "mismatched_buckets": {
                str(k): list(v) for k, v in sorted(self.mismatched_buckets.items())
            },
        }


def degree_conformance(
    g: MultiGraph, p: PowerLawParams, deficits: list[tuple[int, int]]
) -> Conformance:
    """Check the histogram equals y_i for every i, up to the declared deficits.

    Each deficit (vertex, target) explains one vertex sitting at target-1;
    conformance passes iff the histogram differences are exactly those
    predicted by the deficit list.  A target outside the histogram's range
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
    from .model import _floored_counts, degree_counts

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
    mism = {int(i): (int(expected[i]), int(actual[i])) for i in np.flatnonzero(expected != actual)}
    mism.update({b: (e, a) for b, (e, a) in outside.items() if e != a and (listed is None or b <= listed)})
    mism = dict(sorted(mism.items()))
    return Conformance(ok=not mism, deficits=deficits, mismatched_buckets=mism)


@dataclass
class EmbeddingReport:
    """Everything an embedding run certifies, in recomputable form.  Part
    sizes and IS upper bounds are derived from the part ranges and the
    certificates."""

    kind: str  # "sub1" or "beta1"
    params: dict
    part_ranges: dict[str, tuple[int, int]]  # name -> [start, stop) vertex ids
    bounds_closed: dict[str, float]
    is_lower_witness: list[int]
    conformance: Conformance
    parity_deficits: list[tuple[int, int]]
    certificates: dict[str, CliqueCoverCertificate] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def part_sizes(self) -> dict[str, int]:
        return {name: hi - lo for name, (lo, hi) in self.part_ranges.items()}

    @property
    def is_upper_bounds(self) -> dict[str, float]:
        """Each part's clique count: the block's m pair cliques, each
        certificate's size, and 0 for an empty part."""
        counts = {name: cert.size for name, cert in self.certificates.items()}
        lo, hi = self.part_ranges[BLOCKS[self.kind]]
        counts[BLOCKS[self.kind]] = (hi - lo) // 2
        return {name: float(counts.get(name, 0)) for name in self.part_ranges}

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "params": self.params,
            "parts": {
                name: {
                    "range": list(self.part_ranges[name]),
                    "size": self.part_sizes[name],
                }
                for name in sorted(self.part_ranges)
            },
            "is_upper_bounds": dict(sorted(self.is_upper_bounds.items())),
            "bounds": dict(sorted(self.bounds_closed.items())),
            "witness": list(self.is_lower_witness),
            "conformance": self.conformance.to_dict(),
            "parity_deficits": [list(d) for d in self.parity_deficits],
            "certificates": {
                name: cert.to_dict() for name, cert in sorted(self.certificates.items())
            },
            "extras": self.extras,
        }

