"""Realize power-law degree intervals as multigraphs with certified-small
independent sets.

Run: python demos/02_interval_realizer.py
"""

import numpy as np

from plg import (
    PowerLawParams,
    clique_cover,
    clique_cover_bound,
    exact_mis,
    interval_degree_sequence,
    realize,
)


def section(title):
    print("\n" + "=" * 66)
    print(title)
    print("=" * 66)


section("A tiny sequence by hand")
g, cert = realize([1, 1, 2, 2, 2])
print("degree targets:   [1, 1, 2, 2, 2]")
print("realized degrees:", sorted(int(d) for d in g.degrees()))
print("clique sizes:", cert.sizes.tolist(), " first vertex:", cert.offset)
print("cliques (derived from the sizes):", [list(c) for c in cert.cliques])
print("certificate bound:", cert.size, " exact MIS:", exact_mis(g).size)
print("report entry:", cert.to_dict())

section("Odd degree totals leave one recorded parity deficit")
g, cert = realize([1, 2, 2, 2, 2])
print("targets [1,2,2,2,2] (sum 9):")
print("realized:", sorted(int(d) for d in g.degrees()))
print("deficit vertex:", cert.parity_deficit_vertex, "(one unit short)")
cert.offset = 100  # as assembly places the part at vertex 100
print("placed at 100, its report entry:", cert.to_dict())

section("Full power-law range, alpha=3, beta=1")
p = PowerLawParams(3.0, 1.0)
d = interval_degree_sequence(p, 1, p.delta)
g, cert = realize(d)
hist = np.bincount(g.degrees())
print(f"n = {g.vertex_count}, delta = {p.delta}, cliques = {cert.size}")
res = exact_mis(g)
print(f"exact MIS = {res.size} <= certificate {cert.size}")
bound = clique_cover_bound(p, 1, p.delta)
print(f"per-class ceiling sum = {bound.ceiling_sum}, integral form = {bound.integral_form:.2f}")

section("The clique cover alone scales where edges cannot be stored")
p = PowerLawParams(4.0, 0.3)
d = interval_degree_sequence(p, 1, p.delta)
cert = clique_cover(d)
print(f"alpha=4, beta=0.3: n = {len(d):,}, delta = {p.delta:,}")
print(f"cliques = {cert.size}, parity deficit vertex = {cert.parity_deficit_vertex}")
print("clique_cover builds the cover realize would certify (the edge set")
print("itself would hold ~1e11 distinct clique edges, so it is never built)")
