"""The beta = 1 pipeline: expander, walk product, spectral IS bracket,
embedding, and the layered estimator.

Run: python demos/04_beta1_walk_pipeline.py
"""

import math

from plg import (
    MultiGraph,
    choose_k,
    degree_one_heuristic,
    embed_beta1,
    exact_mis,
    gap_ratio,
    is_independent,
    random_regular_expander,
    verify_embedding,
    walk_product,
)
from plg.embed_beta1 import Beta1Params, layered_is_bound


def section(title):
    print("\n" + "=" * 66)
    print(title)
    print("=" * 66)


section("Expander certificates")
for n, d, seed in [(5, 4, 0), (20, 4, 7), (30, 6, 1)]:
    cert = random_regular_expander(n, d, seed)
    print(
        f"n={n:>3} d={d}: lambda = {cert.lam:.4f} "
        f"(bound 2*sqrt(d-1)/d = {cert.bound:.4f}, passes = {cert.passes})"
    )

section("Walk products amplify independence gaps")
h = random_regular_expander(5, 4, seed=1)  # K5
for name, g in [
    ("C5", MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
    ("empty5", MultiGraph(5)),
    ("K5", MultiGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])),
]:
    wp = walk_product(g, h, 2)
    loops = sum(1 for v in range(wp.n_d) if wp.product.has_loop(v))
    print(f"{name:>7}: {wp.n_d} walk vertices, {loops} self-dependent walks")

section("Choosing the walk length k")
kw = choose_k(2**16, 4)
print(f"n = 2^16, d = 4: window [{kw.k_l:.3f}, {kw.k_u:.3f}] -> k = {kw.k}, design degree {kw.delta_k}")
print("(at desk scale the window collapses to k = 1; the pipeline defaults to k = 2)")

section("Embedding the C5 walk product into an (alpha, 1)-PLG")
c5 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
g, rep = embed_beta1(c5, d=4, seed=3, k_override=2)
print("parameters:", {k: round(v, 4) if isinstance(v, float) else v for k, v in rep["params"].items()})
print("parts [lo, hi):", {name: part["range"] for name, part in rep["parts"].items()})
print(
    "spectral bracket for alpha(D):",
    (rep["bounds"]["alon_lo"], rep["bounds"]["alon_hi"]),
    " witness size:", len(rep["witness"]),
)
print("verify:", verify_embedding(g, rep, c5)["ok"])

section("Layered estimator for IS([x*delta, delta])")
for alpha in (4.0, 6.0, 8.0):
    lb = layered_is_bound(Beta1Params(math.exp(alpha), 0))
    print(
        f"alpha={alpha:.0f}: layered = {lb.exact:>5} "
        f"(naive single-interval {lb.naive:>5}, c*e^a/a at c=5 is {5 * math.exp(alpha) / alpha:8.1f})"
    )

section("The ln(n)-approximation heuristic on the assembled PLG")
got = degree_one_heuristic(g)
assert is_independent(g, got)
res = exact_mis(g, budget=2_000_000)
print(f"heuristic IS size = {len(got)}; exact = {res.size if res.optimal else 'budget-capped'}")

section("Gap amplification arithmetic")
gr = gap_ratio(0.2, 0.6, 0.05, 3)
print(f"(a,b,eps2,k) = (0.2, 0.6, 0.05, 3): ratio = {gr.ratio:.2f}")
print(f"needs expander degree d > {gr.min_expander_degree:.0f}")
