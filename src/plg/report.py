"""Embedding reports: parameters, part decomposition, bounds, and conformance."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import MultiGraph
from .model import PowerLawParams
from .realizer import CliqueCoverCertificate

SCHEMA = "plg-report/1"


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
    """
    from .model import degree_counts

    deg = g.degrees()
    size = max(p.delta + 2, int(deg.max(initial=0)) + 1)
    expected = np.zeros(size, dtype=np.int64)
    expected[1 : p.delta + 1] = degree_counts(p)
    outside: dict[int, int] = {}  # bucket -> expected count, outside [0, size)
    for _v, t in deficits:
        for bucket, change in ((t, -1), (t - 1, 1)):
            if 0 <= bucket < size:
                expected[bucket] += change
            else:
                outside[bucket] = outside.get(bucket, 0) + change
    actual = np.bincount(deg, minlength=size)
    mism = {int(i): (int(expected[i]), int(actual[i])) for i in np.flatnonzero(expected != actual)}
    mism.update({b: (c, 0) for b, c in outside.items() if c})
    mism = dict(sorted(mism.items()))
    return Conformance(ok=not mism, deficits=deficits, mismatched_buckets=mism)


@dataclass
class EmbeddingReport:
    """Everything an embedding run certifies, in recomputable form."""

    kind: str  # "sub1" or "beta1"
    params: dict
    part_ranges: dict[str, tuple[int, int]]  # name -> [start, stop) vertex ids
    part_sizes: dict[str, int]
    is_upper_bounds: dict[str, float]
    bounds_closed: dict[str, float]
    is_lower_witness: list[int]
    conformance: Conformance
    parity_deficits: list[tuple[int, int]]
    certificates: dict[str, CliqueCoverCertificate] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

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
                name: _cert_to_dict(cert)
                for name, cert in sorted(self.certificates.items())
            },
            "extras": self.extras,
        }


def _cert_to_dict(cert: CliqueCoverCertificate) -> dict:
    d = cert.to_json_dict()
    d["cliques"] = [[c.start, c.stop] for c in cert.cliques]
    return d
