"""Per-layer spans for the traced run, recorded from outside the program.

Each traced entry point is replaced by a wrapper in every plg module (and
class) that holds it, so the callers' own name lookups reach the wrapper and
nothing inside ``src/plg`` changes.  A span records its name, parent, start,
end, the operation it belongs to and an optional work count; spans stay in
memory and are written out when the run ends.  A layer's self time is its
span time minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import sys
import time
from math import comb

from checks import floor_snap


def _levels(args, kwargs, out) -> dict[str, int]:
    """y_a of an exact-sum call over [a, b]: the number of levels it walks."""
    p, a, b = args[0], max(args[1], 1), min(args[2], args[0].delta)
    return {"model.exact_sum_levels": floor_snap(math.exp(p.alpha) / a**p.beta) if a <= b else 0}


def _clique_edges(cert) -> int:
    return sum(comb(len(c), 2) for c in cert.cliques)


def _report_pairs(rep) -> int:
    return sum(comb(stop - start, 2) for c in rep["certificates"].values() for start, stop in c["cliques"])


# (module, attribute, span name, work counts or None).  An attribute
# "Class.method" wraps the method on the class; a count function gets the
# call's args, kwargs and result and returns {metric name: count}.
TARGETS = [
    ("plg.cli", "main", "cli", None),
    ("plg.model", "totals", "model.totals", None),
    ("plg.model", "interval_size_exact", "model.exact_sums", _levels),
    ("plg.model", "interval_volume_exact", "model.exact_sums", _levels),
    ("plg.model", "degree_counts", "model.degree_counts", None),
    (
        "plg.realizer",
        "realize",
        "realizer.realize",
        lambda a, k, out: {"realizer.vertices": len(a[0]), "realizer.clique_edges": _clique_edges(out[1])},
    ),
    ("plg._assembly", "double_with_pairs", "assembly.double", None),
    ("plg._assembly", "assemble", "assembly.assemble", None),
    ("plg._assembly", "assign_pair_slots", "assembly.slot_search", lambda a, k, out: {"assembly.slot_trials": 1}),
    ("plg.graph", "MultiGraph.__init__", "graph.build", lambda a, k, out: {"graph.build_edges": len(a[0]._edges)}),
    ("plg.graph", "MultiGraph.degrees", "graph.degrees", None),
    ("plg.graph", "write_graph", "graph.write", lambda a, k, out: {"graph.write_bytes": len(out)}),
    ("plg.graph", "read_graph", "graph.read", lambda a, k, out: {"graph.read_edges": out.distinct_edge_count()}),
    ("plg.embed_sub1", "embed_sub1", "embed_sub1", None),
    ("plg.embed_beta1", "embed_beta1", "embed_beta1", None),
    (
        "plg.embed_beta1",
        "random_regular_expander",
        "embed_beta1.expander",
        lambda a, k, out: {"embed_beta1.expander_attempts": out.attempts},
    ),
    (
        "plg.embed_beta1",
        "walk_product",
        "embed_beta1.walk_product",
        lambda a, k, out: {"embed_beta1.walk_pairs": comb(out.n_d, 2)},
    ),
    ("plg.solver", "exact_mis", "solver.exact_mis", lambda a, k, out: {"solver.nodes": out.nodes_explored}),
    ("plg.solver", "greedy_maximal_is", "solver.greedy", None),
    ("plg.report", "degree_conformance", "report.conformance", None),
    ("plg.verify", "_check_conformance", "verify.conformance", None),
    ("plg.verify", "_check_parts", "verify.parts", None),
    (
        "plg.verify",
        "_check_certificates",
        "verify.certificates",
        lambda a, k, out: {"verify.certificate_pairs": _report_pairs(a[1])},
    ),
    ("plg.verify", "_check_witness", "verify.witness", None),
    ("plg.verify", "_check_bounds", "verify.bounds", None),
    ("plg._jsonio", "dumps", "jsonio.dumps", lambda a, k, out: {"jsonio.bytes": len(out)}),
]

COUNTS = [
    "model.exact_sum_levels",
    "realizer.vertices",
    "realizer.clique_edges",
    "assembly.slot_trials",
    "graph.build_edges",
    "graph.write_bytes",
    "graph.read_edges",
    "embed_beta1.expander_attempts",
    "embed_beta1.walk_pairs",
    "solver.nodes",
    "verify.certificate_pairs",
    "jsonio.bytes",
]
# Self times, as metric name -> span name.
SELF_TIMES = {
    "model.totals_s": "model.totals",
    "model.exact_sums_s": "model.exact_sums",
    "model.degree_counts_s": "model.degree_counts",
    "realizer.realize_s": "realizer.realize",
    "assembly.double_s": "assembly.double",
    "assembly.assemble_s": "assembly.assemble",
    "graph.build_s": "graph.build",
    "graph.degrees_s": "graph.degrees",
    "graph.write_s": "graph.write",
    "graph.read_s": "graph.read",
    "embed_sub1.self_s": "embed_sub1",
    "embed_beta1.self_s": "embed_beta1",
    "embed_beta1.expander_s": "embed_beta1.expander",
    "embed_beta1.walk_product_s": "embed_beta1.walk_product",
    "solver.exact_mis_s": "solver.exact_mis",
    "solver.greedy_s": "solver.greedy",
    "report.conformance_s": "report.conformance",
    "verify.conformance_s": "verify.conformance",
    "verify.parts_s": "verify.parts",
    "verify.certificates_s": "verify.certificates",
    "verify.witness_s": "verify.witness",
    "verify.bounds_s": "verify.bounds",
    "jsonio.dumps_s": "jsonio.dumps",
    "cli.self_s": "cli",
}


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "bytes" if metric.endswith("bytes") else "count"


class Tracer:
    """Span recorder; records only while ``op`` is not None."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start, end, counts]
        self._stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, self._stack[-1] if self._stack else -1, self.op, time.perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[4] = time.perf_counter()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded plg module holds it."""
        mods = [m for name, m in sys.modules.items() if name == "plg" or name.startswith("plg.")]
        for modname, attr, name, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, count)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)

    def metrics(self, ops: int) -> dict[str, float]:
        """Self time and counts per operation, for every per-layer metric."""
        covered = [0.0] * len(self.spans)
        for name, parent, _op, start, end, _c in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = {}
        counts = dict.fromkeys(COUNTS, 0)
        for (name, _p, _op, start, end, c), cov in zip(self.spans, covered):
            self_s[name] = self_s.get(name, 0.0) + (end - start - cov)
            for metric, value in (c or {}).items():
                counts[metric] += value
        out = {m: self_s.get(span, 0.0) / ops for m, span in SELF_TIMES.items()}
        out.update({m: value / ops for m, value in counts.items()})
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, op, start, end, c in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "op": op, "start": start, "end": end, "counts": c}) + "\n")
