"""Embed an arbitrary graph into a full (alpha, beta)-PLG for beta < 1 and
verify every certified claim end to end.

Run: python demos/03_embedding_beta_below_1.py
"""

import itertools
import math

from plg import MultiGraph, double_graph, embed_sub1, exact_mis, is_independent, verify_embedding


def section(title):
    print("\n" + "=" * 66)
    print(title)
    print("=" * 66)


c5 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

section("Doubling: pairs with a perfect matching for multi-edge fill")
gd = double_graph(c5)
print("C5 doubled: n =", gd.vertex_count, " degrees =", sorted(int(x) for x in gd.degrees()))
print("IS preserved:", exact_mis(c5).size, "->", exact_mis(gd).size)

section("Embedding C5 at beta = 0.5")
g, rep = embed_sub1(c5, 0.5)
print("parameters:", {k: round(v, 4) if isinstance(v, float) else v for k, v in rep["params"].items()})
print("parts [lo, hi):", {name: part["range"] for name, part in rep["parts"].items()})
print("parity deficits [vertex, target degree]:", rep["parity_deficits"])
print("IS upper bounds:", rep["is_upper_bounds"])
print("closed forms:", {k: round(v, 2) for k, v in rep["bounds"].items()})
print("witness (copies of a maximal IS of C5):", rep["witness"])

section("Every independent set of the input maps into the output")
adj = c5.adjacency_sets()
count = 0
for bits in itertools.product([0, 1], repeat=5):
    members = [i for i in range(5) if bits[i]]
    if all(u not in adj[v] for u in members for v in members if u < v):
        mapped = [2 * i for i in members]
        assert is_independent(g, mapped)
        count += 1
print(f"checked all {count} independent sets of C5: all map to independent sets")

section("Residual bound sanity at different betas")
for beta in (0.3, 0.5, 0.8):
    g, rep = embed_sub1(c5, beta)
    sd = math.sqrt(rep["params"]["delta"])
    print(
        f"beta={beta}: |cert(G1)| = {rep['is_upper_bounds']['G1']:.0f} "
        f"(4*sqrt(delta) = {4 * sd:.1f}), |cert(G2)| = {rep['is_upper_bounds']['G2']:.0f} "
        f"(g3 bound = {rep['bounds']['g3_bound']:.2f})"
    )
print("(beta=0.8 overshoots 4*sqrt(delta): the sqrt-order residual claim")
print(" only holds for beta <= 1/2; the g3 bound holds throughout)")

section("Independent re-verification")
g, rep = embed_sub1(c5, 0.5)
result = verify_embedding(g, rep, c5)
for check in result["checks"]:
    print(f"  {check['check']:<14} {'ok' if check['ok'] else 'FAILED ' + check['detail']}")
print("verdict:", result["ok"])
