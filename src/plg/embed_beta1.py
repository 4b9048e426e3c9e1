"""The beta = 1 pipeline: expander supply, walk-product amplification, embedding
into an (alpha, 1)-PLG, and the layered independent-set estimator.

All logarithms in this module are natural; reports record that explicitly
because the quantities involved (k windows, alpha = log n_d) are sensitive to
the base.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._assembly import assemble, double_with_pairs, first_fit, slot_targets, top_interval_slots
from .errors import InputError, InternalError, ResourceLimitError
from .graph import EdgeArrays, MultiGraph
from .model import PowerLawParams, guarded_ceil, guarded_floor, interval_size_exact
from .realizer import interval_degree_sequence
from .report import EmbeddingReport
from .solver import greedy_maximal_is, mis_size

_MAX_BUMPS = 64
# Search nodes ``mis_size`` may spend on alpha of the input.
_SOLVER_BUDGET = 2_000_000
WALK_VERTEX_CAP = 200_000
# Walk pairs bound the pair matrix M = W·A·Wᵀ behind a walk product's edges:
# its work and the product's edge columns grow with them, so this cap keeps
# both bounded (about 6,300 walks).  It also bounds the expander's size, since
# a k = 1 product has one walk per vertex.
WALK_PAIR_CAP = 20_000_000
# Entries of M computed per row block.
_ROW_BLOCK_ENTRIES = 1 << 20


def check_walk_caps(n: int, d: int, k: int) -> int:
    """The walk count n*d^(k-1) of a k-walk product over a d-regular graph on
    n vertices.  Raises ``ResourceLimitError`` when it exceeds
    ``WALK_VERTEX_CAP`` or its walk pairs exceed ``WALK_PAIR_CAP``, so callers
    can refuse before building anything, and ``InputError`` unless n, d and k
    are integers and k >= 1."""
    for name, value in (("n", n), ("d", d), ("k", k)):
        if not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if k < 1:
        raise InputError("k must be >= 1")
    if n > 0 and d > 1 and k - 1 > WALK_VERTEX_CAP.bit_length():
        # d^(k-1) > cap already; a huge k would take long to raise d to.
        raise ResourceLimitError(
            f"walk product would have {n}*{d}^{k - 1} vertices (cap {WALK_VERTEX_CAP})"
        )
    count = n * d ** (k - 1)
    if count > WALK_VERTEX_CAP:
        raise ResourceLimitError(
            f"walk product would have {count} vertices (cap {WALK_VERTEX_CAP})"
        )
    pairs = count * (count - 1) // 2
    if pairs > WALK_PAIR_CAP:
        raise ResourceLimitError(
            f"walk product would have {pairs} walk pairs (cap {WALK_PAIR_CAP})"
        )
    return count


def _adjacency_matrix(g: MultiGraph) -> np.ndarray:
    """Dense symmetric float adjacency matrix of g without its loops: entry
    (u, v) is the multiplicity joining u and v."""
    u, v, mult = g.arrays()
    keep = u != v
    u, v, mult = u[keep], v[keep], mult[keep]
    a = np.zeros((g.vertex_count, g.vertex_count))
    np.add.at(a, (u, v), mult)
    np.add.at(a, (v, u), mult)
    return a


# -- expander supply ----------------------------------------------------------


@dataclass
class ExpanderCertificate:
    """A d-regular simple graph with its walk-matrix spectral certificate.

    ``lam`` is max(lambda_1, |lambda_min|) of A/d, where lambda_1 is the second
    largest and lambda_min the smallest eigenvalue; ``passes`` says whether it
    clears 2*sqrt(d-1)/d plus a 0.05 allowance (near-Ramanujan tolerance).
    """

    graph: MultiGraph
    d: int
    lam: float
    lambda_1: float
    lambda_min: float
    bound: float
    passes: bool
    seed: int
    attempts: int

    def to_dict(self) -> dict:
        return {
            "n": self.graph.vertex_count,
            "d": self.d,
            "lambda": self.lam,
            "lambda_1": self.lambda_1,
            "lambda_min": self.lambda_min,
            "bound": self.bound,
            "tolerance": 0.05,
            "passes": self.passes,
            "seed": self.seed,
            "attempts": self.attempts,
        }

    def report_extras(self) -> dict:
        """The spectral certificate under an embedding report's extras keys."""
        return {
            "lambda": self.lam,
            "lambda_1": self.lambda_1,
            "lambda_min": self.lambda_min,
            "lambda_bound": self.bound,
            "expander_passes": self.passes,
        }


def _transition_spectrum(g: MultiGraph, d: int) -> tuple[float, float]:
    """(lambda_1, lambda_min) of the walk transition matrix A/d."""
    a = _adjacency_matrix(g)
    ev = np.linalg.eigvalsh(a / d)
    return float(ev[-2]), float(ev[0])


def _pairing_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph | None:
    """One pairing-model draw with stub repair: loops and repeats go back into
    the pool and are re-shuffled until none remain.  None when the leftover
    stubs cannot be joined by any new edge (the draw failed)."""
    edges: set[tuple[int, int]] = set()
    stubs = list(np.repeat(np.arange(n), d))
    while stubs:
        retry: dict[int, int] = {}
        arr = np.array(stubs)
        rng.shuffle(arr)
        for u, v in zip(arr[0::2], arr[1::2]):
            u, v = int(u), int(v)
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                retry[u] = retry.get(u, 0) + 1
                retry[v] = retry.get(v, 0) + 1
        if retry:
            nodes = sorted(retry)
            joinable = any(
                (min(a, b), max(a, b)) not in edges
                for i, a in enumerate(nodes)
                for b in nodes[i + 1 :]
            )
            if not joinable:
                return None
        stubs = [node for node in sorted(retry) for _ in range(retry[node])]
    return MultiGraph(n, {e: 1 for e in edges})


def random_regular_expander(n: int, d: int, seed: int) -> ExpanderCertificate:
    """A random d-regular simple graph with an explicit spectral certificate.

    K_{d+1} is returned deterministically when n = d+1 (its walk matrix has
    lambda = 1/d, always passing).  Otherwise up to 32 seeded pairing-model
    candidates are tried and the first passing one is returned; if none
    passes, the best-lambda candidate is returned with passes=False.  An n
    whose C(n, 2) exceeds ``WALK_PAIR_CAP`` is refused before any draw: no
    walk product could use the expander, and its spectrum needs n x n floats.
    The seed must be a non-negative integer.
    """
    if d < 3:
        raise InputError("expander degree must be >= 3")
    if d >= n:
        raise InputError("need d < n")
    if (n * d) % 2:
        raise InputError("n*d must be even")
    if n * (n - 1) // 2 > WALK_PAIR_CAP:
        raise ResourceLimitError(
            f"expander on {n} vertices has {n * (n - 1) // 2} vertex pairs (cap {WALK_PAIR_CAP})"
        )
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    bound = 2 * math.sqrt(d - 1) / d
    if n == d + 1:
        edges = {(u, v): 1 for u in range(n) for v in range(u + 1, n)}
        g = MultiGraph(n, edges)
        l1 = lmin = -1.0 / d
        return ExpanderCertificate(
            g, d, 1.0 / d, l1, lmin, bound, 1.0 / d <= bound + 0.05, seed, 0
        )
    best: ExpanderCertificate | None = None
    for attempt in range(32):
        rng = np.random.default_rng([seed, attempt])
        g = None
        for _ in range(200):
            g = _pairing_model(n, d, rng)
            if g is not None:
                break
        if g is None:
            continue
        l1, lmin = _transition_spectrum(g, d)
        lam = max(l1, abs(lmin))
        cert = ExpanderCertificate(
            g, d, lam, l1, lmin, bound, lam <= bound + 0.05, seed, attempt + 1
        )
        if cert.passes:
            return cert
        if best is None or cert.lam < best.lam:
            best = cert
    if best is None:
        raise InternalError("pairing model produced no simple graph in 32 attempts")
    return best


# -- walk products ------------------------------------------------------------


@dataclass
class WalkProduct:
    """Graph on length-k walks of the expander; walks are adjacent iff the
    union of their vertex sets is not independent in the base graph.  A walk
    whose own vertex set is not independent carries a self-loop."""

    base: MultiGraph
    expander: ExpanderCertificate
    k: int
    walks: np.ndarray  # (n_d, k) int64, one walk per row
    product: MultiGraph

    @property
    def n_d(self) -> int:
        return self.product.vertex_count


def walk_product(g: MultiGraph, h: ExpanderCertificate, k: int) -> WalkProduct:
    """Build the k-walk product of g over the expander h.

    Walks are listed in lexicographic order, each step taking the expander's
    neighbours in ascending order.  With W the walk/vertex incidence matrix
    and A the adjacency matrix of g, M = W·A·Wᵀ counts the edges of g between
    walk i and walk j.  Walk i has a self-loop iff s_i = M[i, i] > 0, and
    walks i < j are adjacent iff M[i, j] > 0 or s_i or s_j.  M's upper
    triangle is summed in float64 row blocks from A's rows and columns
    gathered at the k walk positions: O(count^2 * k) work, against a dense
    product's O(count^2 * n).  A revisited vertex is counted twice, which
    changes no entry's sign; entries are at most k^2, so the sums are exact.

    ``check_walk_caps`` bounds the walk count n*d^(k-1) and the number of
    walk pairs before any walk is enumerated.
    """
    if not g.is_simple():
        raise InputError("walk products are defined for simple base graphs")
    if g.vertex_count != h.graph.vertex_count:
        raise InputError("base graph and expander must share a vertex set")
    n = g.vertex_count
    count = check_walk_caps(n, h.d, k)
    nbr_of, nbr = np.nonzero(_adjacency_matrix(h.graph))
    first_nbr = np.searchsorted(nbr_of, np.arange(n + 1))
    walks = np.arange(n)[:, None]
    for _ in range(k - 1):
        last = walks[:, -1]
        fan = first_nbr[last + 1] - first_nbr[last]
        parent = np.repeat(np.arange(len(walks)), fan)
        rank = np.arange(len(parent)) - (np.cumsum(fan) - fan)[parent]
        walks = np.column_stack([walks[parent], nbr[first_nbr[last[parent]] + rank]])
    if len(walks) != count:
        raise InternalError("walk enumeration does not match n*d^(k-1)")

    a = _adjacency_matrix(g)
    # s_i = M[i, i] > 0, read off A at the walk's own vertex pairs.
    loop = a[walks[:, :, None], walks[:, None, :]].any(axis=(1, 2))
    rows = max(1, _ROW_BLOCK_ENTRIES // max(1, count))
    pairs = [np.zeros((2, 0), dtype=np.int64)]
    for lo in range(0, count, rows):
        wa = sum(a[walks[lo : lo + rows, t]] for t in range(k))  # rows of W·A
        m = sum(wa[:, walks[lo:, t]] for t in range(k))  # of W·A·Wᵀ, columns >= lo
        adj = (m > 0) | loop[lo : lo + rows, None] | loop[None, lo:]
        pairs.append(np.array(np.nonzero(np.triu(adj))) + lo)
    u, v = np.concatenate(pairs, axis=1)
    product = MultiGraph(count, EdgeArrays(u, v, np.ones_like(u)))
    return WalkProduct(g, h, k, walks, product)


def walk_block(
    g: MultiGraph, d: int, seed: int, k: int
) -> tuple[ExpanderCertificate, WalkProduct, MultiGraph]:
    """What a beta = 1 embedding doubles into its block, as (h, wp, doubled):
    the expander h drawn on g's vertex set from ``seed``, the k-walk product
    wp of g over h and wp's pair doubling, whose matching edges take the
    walks' self-loops so embedded vertices stay loop-free.  The walk caps are
    checked before the expander is drawn."""
    check_walk_caps(g.vertex_count, d, k)
    h = random_regular_expander(g.vertex_count, d, seed)
    wp = walk_product(g, h, k)
    return h, wp, double_with_pairs(wp.product, loops="to_matching")


def count_walks_within(h: ExpanderCertificate, members: list[int], k: int) -> int:
    """Exact number of length-k walks of the expander confined to ``members``,
    by dynamic programming over the restricted adjacency matrix."""
    if not members:
        return 0
    a = _adjacency_matrix(h.graph)[np.ix_(members, members)].astype(np.int64)
    vec = np.ones(len(members), dtype=np.int64)
    for _ in range(k - 1):
        vec = a @ vec
    return int(vec.sum())


# -- parameter selection ------------------------------------------------------


@dataclass(frozen=True)
class KWindow:
    """Walk length window [lnln n/(3 ln d), lnln n/ln d] and the pick in it."""

    k_l: float
    k_u: float
    k: int
    delta_k: float  # d^(k-1) * 3k^2 at the picked k
    window_empty: bool

    def to_dict(self) -> dict:
        return asdict(self)


def walk_degree_bound(d: int, k: int) -> float:
    """Design bound d^(k-1) * 3k^2 for the walk product's maximum degree."""
    return d ** (k - 1) * 3.0 * k * k


def choose_k(n: int, d: int) -> KWindow:
    """Pick k in the window whose design degree bound best matches ln(n).

    Natural logarithms throughout.  Requires n >= 16 so lnln(n) > 0.
    """
    if n < 16:
        raise InputError("choose_k needs n >= 16")
    if d < 3:
        raise InputError("need d >= 3")
    lnln = math.log(math.log(n))
    k_l = lnln / (3 * math.log(d))
    k_u = lnln / math.log(d)
    lo = max(1, math.ceil(k_l))
    hi = max(1, math.floor(k_u))
    if lo > hi:
        k = max(1, math.floor(k_u))
        return KWindow(k_l, k_u, k, walk_degree_bound(d, k), True)
    target = math.log(math.log(n))
    k = min(
        range(lo, hi + 1),
        key=lambda kk: (abs(math.log(walk_degree_bound(d, kk)) - target), kk),
    )
    return KWindow(k_l, k_u, k, walk_degree_bound(d, k), False)


@dataclass(frozen=True)
class Beta1Params:
    """Embedding parameters for beta = 1: alpha = ln(n_d), x = ln(n_d)/e^alpha."""

    n_d: float
    alpha: float
    x: float
    delta: int
    a_x: int
    h: float  # sqrt(e^alpha / alpha)
    L: int  # round(alpha), at least 1
    bumps: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> Beta1Params:
        """Inverse of ``to_dict``; keys that are not fields are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _beta1_at_alpha(n_d: float, alpha: float, bumps: int) -> Beta1Params:
    delta = guarded_floor(math.exp(alpha))
    x = math.log(n_d) / math.exp(alpha)
    a_x = max(1, guarded_ceil(x * delta))
    return Beta1Params(
        n_d=n_d,
        alpha=alpha,
        x=x,
        delta=delta,
        a_x=a_x,
        h=math.sqrt(math.exp(alpha) / alpha),
        L=max(1, round(alpha)),
        bumps=bumps,
    )


def _beta1_fit(n_d: int | float, t: int) -> Beta1Params | None:
    """The parameters at the t-th bump, alpha = ln(n_d) + t*ln(1+1/n_d), if
    both interval conditions hold there against exact summation."""
    params = _beta1_at_alpha(n_d, math.log(n_d) + t * math.log1p(1.0 / n_d), t)
    cond_i = interval_size_exact(PowerLawParams(params.alpha, 1.0), params.a_x, params.delta) >= n_d
    # Condition (II): the first usable slot must reach log(n_d).  The real
    # product x*delta equals log(n_d) only when e^alpha is an integer, so the
    # integer slot floor carries the condition.
    cond_ii = params.a_x + 1e-9 >= math.log(n_d)
    return params if cond_i and cond_ii else None


def choose_params_beta1(n_d: int | float) -> Beta1Params:
    """The least bump of alpha = ln(n_d), t = 0..64, where ``_beta1_fit``
    holds."""
    if n_d < 3:
        raise InputError("need n_d >= 3")
    return first_fit(lambda t: _beta1_fit(n_d, t), _MAX_BUMPS)


# -- estimators ---------------------------------------------------------------


@dataclass(frozen=True)
class LayeredBound:
    """Layered cover estimate for IS([x*delta, delta]) in an (alpha,1)-PLG."""

    exact: int
    asymptotic: float
    naive: int
    layers: tuple[tuple[int, int, int], ...]  # (lo, hi, term) per layer

    def to_dict(self) -> dict:
        return {
            "exact": self.exact,
            "asymptotic": self.asymptotic,
            "naive": self.naive,
            "layers": [list(t) for t in self.layers],
        }


def layered_is_bound(params: Beta1Params) -> LayeredBound:
    """Sum over L layers [x*delta*h^j, x*delta*h^(j+1)) of
    ceil(layer population / layer floor), with exact populations.

    Layer boundaries are ceil(x*delta*h^j) clipped to delta, the last forced
    to delta; with h = sqrt(e^alpha/alpha) only the first two layers are
    non-empty (x*delta*h^2 = delta).  The asymptotic comparison value is
    (e^a/L)*(1 - a/e^a)/(1 - (a/e^a)^(1/L)).
    """
    p = PowerLawParams(params.alpha, 1.0)
    d = params.delta
    xd = params.x * d
    bounds = [guarded_ceil(xd * params.h**j) for j in range(params.L)]
    bounds.append(d + 1)  # forced final boundary: last layer ends at delta
    layers = []
    total = 0
    for j in range(params.L):
        lo = max(params.a_x, bounds[j])
        hi = min(d, bounds[j + 1] - 1) if j < params.L - 1 else d
        if lo > hi:
            layers.append((lo, hi, 0))
            continue
        pop = interval_size_exact(p, lo, hi)
        term = -(-pop // max(1, bounds[j]))
        layers.append((lo, hi, term))
        total += term
    naive_pop = interval_size_exact(p, params.a_x, d)
    naive = -(-naive_pop // params.a_x)
    a = params.alpha
    ratio = a / math.exp(a)
    asym = math.exp(a) / params.L * (1 - ratio) / (1 - ratio ** (1.0 / params.L))
    return LayeredBound(total, asym, naive, tuple(layers))


def alon_interval(
    is_g: int, n: int, d: int, lambda_1: float, lambda_min: float, k: int
) -> tuple[float, float]:
    """Spectral bracket for the independence number of the k-walk product.

    [is*d^(k-1)*max(0, r + lambda_min*(1-r))^(k-1), is*d^(k-1)*(r + lambda_1*(1-r))^(k-1)]
    with r = is/n.  Both ends bound the number of k-walks confined to an
    independent set of size is (Alon, Feige, Wigderson and Zuckerman,
    "Derandomized graph products", STOC 1995).  The lower one holds only for a
    non-negative base: a negative base says nothing, and an even power would
    turn it into a spurious positive bound, so it is clamped at 0 first.
    """
    if not (0 <= is_g <= n):
        raise InputError("need 0 <= is_g <= n")
    if not (-1 <= lambda_min <= lambda_1 <= 1):
        raise InputError("eigenvalues must satisfy -1 <= lambda_min <= lambda_1 <= 1")
    r = is_g / n
    scale = is_g * d ** (k - 1)
    lo = scale * max(0.0, r + lambda_min * (1 - r)) ** (k - 1)
    hi = scale * (r + lambda_1 * (1 - r)) ** (k - 1)
    return lo, hi


def beta1_bounds(params: Beta1Params, extras: dict) -> tuple[dict[str, float], LayeredBound]:
    """The report's closed bounds table, from ``params`` and the extras'
    is_g, n_base, d, lambda_1, lambda_min and k, with the layered estimate
    behind its ``layered_*`` entries."""
    layered = layered_is_bound(params)
    lo, hi = alon_interval(
        extras["is_g"], extras["n_base"], extras["d"], extras["lambda_1"], extras["lambda_min"], extras["k"]
    )
    return {
        "layered_exact": float(layered.exact),
        "layered_asymptotic": layered.asymptotic,
        "layered_naive": float(layered.naive),
        "alon_lo": lo,
        "alon_hi": hi,
    }, layered


@dataclass(frozen=True)
class GapRatio:
    """Amplified approximation-gap ratio between the two instance classes."""

    ratio: float
    min_expander_degree: float  # the d > 16/(b-a)^2 requirement

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "min_expander_degree": self.min_expander_degree}


def gap_ratio(a: float, b: float, eps2: float, k: int) -> GapRatio:
    """(b/a) * ((b-eps2)/(a+eps2))^(k-1), with the minimal expander degree
    16/(b-a)^2 that makes eps2 achievable."""
    if not (0 < a < b < 1):
        raise InputError("need 0 < a < b < 1")
    if eps2 < 0 or b - eps2 <= 0 or a + eps2 <= 0:
        raise InputError("need eps2 >= 0 with b-eps2 > 0 and a+eps2 > 0")
    ratio = (b / a) * ((b - eps2) / (a + eps2)) ** (k - 1)
    return GapRatio(ratio, 16.0 / (b - a) ** 2)


def amplification_feasibility(
    b: float, eps2: float, n: int, d: int, k: int, eps: float
) -> dict:
    """Both sides of the feasibility inequalities, evaluated (not asserted):
    (b+eps2)^(k-1) > (log(n*d^(k-1)))^(-1/eps) and its log-n restatement."""
    if eps <= 0:
        raise InputError("eps must be positive")
    lhs = (b + eps2) ** (k - 1)
    rhs = math.log(n * d ** (k - 1)) ** (-1.0 / eps)
    b_prime = 1.0 / (b + eps2)
    alt_lhs = math.log(n) ** (1.0 / eps) * (
        1 + (k - 1) * math.log(d) / math.log(n)
    ) ** (1.0 / eps)
    alt_rhs = b_prime ** (k - 1)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs > rhs,
        "log_form_lhs": alt_lhs,
        "log_form_rhs": alt_rhs,
        "eps": eps,
    }


def degree_one_heuristic(g: MultiGraph) -> list[int]:
    """Independent set of loop-free degree-1 vertices, one per matched pair.

    Greedy in id order; returns at least half the degree-1 vertices, which on
    an (alpha,1)-PLG is a ln(n)-factor approximation.
    """
    deg = g.degrees()
    adj = g.adjacency_sets()
    chosen: list[int] = []
    in_set: set[int] = set()
    for v in range(g.vertex_count):
        if deg[v] != 1 or g.has_loop(v):
            continue
        (u,) = adj[v] or {v}
        if u in in_set:
            continue
        chosen.append(v)
        in_set.add(v)
    return chosen


# -- the embedding ------------------------------------------------------------


def embed_beta1(
    g: MultiGraph, d: int, seed: int, k_override: int | None = None
) -> tuple[MultiGraph, EmbeddingReport]:
    """Embed the walk product of g into a full (alpha, 1)-PLG.

    Pipeline: ``walk_block`` (expander on g's vertex set, k-walk product D,
    pair doubling of D), slot assignment in [x*delta, delta], leftover slots
    realized as G1, the low interval [1, x*delta) realized as G2.

    k defaults to 2 at desk scale; the asymptotic window is reported
    alongside whenever the input is large enough to define it.
    """
    if not g.is_simple():
        raise InputError("embedding requires a simple input graph")
    n = g.vertex_count
    k = 2 if k_override is None else k_override
    h, wp, doubled = walk_block(g, d, seed, k)
    window = choose_k(n, d) if n >= 16 else None
    dgraph = wp.product
    n_d = dgraph.vertex_count

    # The doubling needs 2*n_d slots at degrees covering the doubled walk
    # degrees (up to ~4*n_d on dense products), twice what condition (I) asks
    # for.  Bump steps scale as 1/n_d while the needed growth of e^alpha does
    # not, so the bumps are found by doubling and bisection (``first_fit``)
    # rather than one step at a time.
    def trial(t: int):
        params = _beta1_fit(float(n_d), t)
        if params is None:
            return None
        seated = slot_targets(doubled, top_interval_slots(PowerLawParams(params.alpha, 1.0), params.a_x))
        return None if seated is None else (params, seated)

    params, (pair_targets, leftover) = first_fit(trial, 1 << 30)
    p = PowerLawParams(params.alpha, 1.0)

    g2_targets = (
        interval_degree_sequence(p, 1, params.a_x - 1)
        if params.a_x > 1
        else np.zeros(0, dtype=np.int64)
    )
    # Witness: walks confined to a maximal independent set of g are pairwise
    # non-adjacent in D; their first pair members stay independent in the PLG.
    witness_source = greedy_maximal_is(g)
    graph, assembled = assemble(
        p, doubled, "D", pair_targets, [("G1", leftover), ("G2", g2_targets)], wp.walks, witness_source
    )
    dp_count = count_walks_within(h, witness_source, k)
    if dp_count != len(assembled["is_lower_witness"]):
        raise InternalError("walk DP count disagrees with enumeration")

    is_g, is_g_optimal = mis_size(g, budget=_SOLVER_BUDGET)
    extras = {
        "log_base": "natural",
        **h.report_extras(),
        "seed": seed,
        "d": d,
        "k": k,
        "n_base": n,
        "k_window": window.to_dict() if window else None,
        "n_d": n_d,
        "delta_k_design": walk_degree_bound(d, k),
        "product_max_degree": int(dgraph.degrees().max()) if n_d else 0,
        "is_g": is_g,
        "is_g_optimal": is_g_optimal,
    }
    bounds, layered = beta1_bounds(params, extras)
    lo, hi = bounds["alon_lo"], bounds["alon_hi"]
    # Feasibility inequality sides are reported, never asserted: they encode
    # asymptotic viability and only bite at large n.  The instance's own
    # independence ratio stands in for the class constant b; eps = 0.5.
    extras.update(
        gap_ratio={
            "bracket_lo": lo,
            "bracket_hi": hi,
            "bracket_ratio": hi / lo if lo > 0 else None,
            "eps2_surrogate": h.lam,
            "k": k,
        },
        feasibility=amplification_feasibility(b=is_g / n, eps2=h.lam, n=n, d=d, k=k, eps=0.5),
        witness_source_vertices=sorted(witness_source),
        witness_walk_count=dp_count,
        layered=layered.to_dict(),
    )
    report = EmbeddingReport(
        kind="beta1", params=params.to_dict(), bounds_closed=bounds, **assembled, extras=extras
    )
    return graph, report
