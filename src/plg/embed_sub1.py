"""Embedding of an arbitrary simple graph into a full (alpha, beta)-PLG, beta < 1.

Layout: the doubled input occupies the smallest degree slots of the top
interval [x*delta, delta]; the leftover top slots together with the full
classes [ceil(e^(alpha/(beta+1))), x*delta - 1] form the fill part G2; the
classes [1, ceil(e^(alpha/(beta+1))) - 1] form G1.  Both fill parts come from
the interval realizer, so their clique covers certify independent-set upper
bounds, and every independent set of the input maps to one of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._assembly import assemble, double_with_pairs, first_fit, slot_targets
from ._jsonio import Record
from .errors import InputError, InternalError, ResourceLimitError
from .graph import MultiGraph
from .model import PowerLawParams, guarded_ceil, interval_size_exact, interval_volume_exact
from .realizer import DEFAULT_EDGE_CAP, interval_degree_sequence
from .report import BLOCKS, SCHEMA, input_extras
from .solver import greedy_maximal_is

_MAX_BUMPS = 64

# The construction scales like delta/(1-beta) vertices and ~vol/2 distinct
# edges with x = (1/2)^(1/(1-beta)); betas near 1 explode.  Materialization is
# guarded rather than letting the process exhaust memory.
DEFAULT_VERTEX_CAP = 2_000_000


def double_graph(g: MultiGraph) -> MultiGraph:
    """Replace each vertex by an adjacent pair; cross edges copy adjacency.

    Copies have degree 2*deg(v)+1, the output has the same maximum
    independent set size as the input, and the pair edges form a perfect
    matching available for multi-edge degree fill.  Defined for simple
    graphs only: a self-loop or multi-edge raises ``InputError``.  Raises
    ``ResourceLimitError`` before building anything when the copies alone
    pass ``DEFAULT_VERTEX_CAP``.
    """
    if not g.is_simple():
        raise InputError("embedding requires a simple input graph")
    if 2 * g.vertex_count > DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(
            f"output would have at least {2 * g.vertex_count} vertices (cap {DEFAULT_VERTEX_CAP})"
        )
    return double_with_pairs(g)


@dataclass(frozen=True)
class Sub1Params(Record):
    """Embedding parameters for the beta < 1 construction, defined by
    (n_embedded, beta, bumps): x = (1/2)^(1/(1-beta)) and alpha =
    beta*ln(n/x) + bumps*beta*ln(1+1/n), which fix the rest.  Raises
    ``InputError`` unless n and bumps are ints, beta is in (0, 1) and n is
    even and >= 2."""

    n_embedded: int  # doubled vertex count to embed
    beta: float
    x: float = field(init=False)
    alpha: float = field(init=False)
    delta: int = field(init=False)
    a_x: int = field(init=False)  # first degree slot of the top interval
    y_split: float = field(init=False)  # delta^(-1/2)
    g3_cut: int = field(init=False)  # ceil(e^(alpha/(beta+1)))
    bumps: int

    def __post_init__(self):
        n, beta = self.n_embedded, self.beta
        if type(n) is not int or type(self.bumps) is not int:
            raise InputError("n_embedded and bumps must be integers")
        if not 0 < beta < 1:
            raise InputError("beta must be in (0, 1)")
        if n < 2 or n % 2:
            raise InputError("n must be even and >= 2 (a doubled vertex count)")
        x = 0.5 ** (1.0 / (1.0 - beta))
        alpha = beta * math.log(n / x) + self.bumps * (beta * math.log1p(1.0 / n))
        delta = PowerLawParams(alpha, beta).delta
        self._set_derived(
            x=x, alpha=alpha, delta=delta, a_x=max(1, guarded_ceil(x * delta)),
            y_split=delta**-0.5, g3_cut=guarded_ceil(math.exp(alpha / (beta + 1))),
        )


def choose_params_sub1(n: int, beta: float) -> Sub1Params:
    """The least bump t = 0..64 where ``Sub1Params(n, beta, t)`` satisfies
    n <= x*delta and n <= |[x*delta, delta]| for its floored distribution.

    Each step multiplies e^(alpha/beta) by (1+1/n); needing more than 64
    indicates a bug.
    """

    def trial(t: int) -> Sub1Params | None:
        params = Sub1Params(n, beta, t)
        p = PowerLawParams(params.alpha, beta)
        if params.x * params.delta + 1e-9 < n or interval_size_exact(p, params.a_x, params.delta) < n:
            return None
        return params

    return first_fit(trial, _MAX_BUMPS)


def residual_is_bound_sub1(params: Sub1Params) -> dict[str, float]:
    """The report's bounds table: the displayed closed forms i_y1 and i_y2
    for IS over [1, y*delta) and [y*delta, x*delta] at y = delta^(-1/2),
    their sum g1_bound, and g3_bound = e^(alpha/(beta+1))/(1-beta)."""
    a, b = params.alpha, params.beta
    d = params.delta
    ea = math.exp(a)
    yd = math.sqrt(d)  # y*delta at y = delta^(-1/2)
    xd = params.x * d
    i_y1 = ea / b * (1 - (yd + 1) ** -b) + ea * (1 - (yd + 1) ** -(b + 1)) + yd
    scale = math.exp(a * (1 - 1 / b)) * math.sqrt(d)  # e^(a(1-1/b)) / y
    i_y2 = scale * ((xd ** (1 - b) - yd ** (1 - b)) / (1 - b) + yd**-b - xd**-b) + 1
    g3 = math.exp(a / (b + 1)) / (1 - b)
    return {"g1_bound": i_y1 + i_y2, "g3_bound": g3, "i_y1": i_y1, "i_y2": i_y2}


def sub1_leaves(params: Sub1Params) -> dict[str, dict]:
    """Every report entry ``params`` fix: ``params`` and ``bounds``.  The
    embedder writes them and ``plg verify`` compares them with this
    function's output for the rebuilt record."""
    return {"params": params.to_dict(), "bounds": residual_is_bound_sub1(params)}


def embed_sub1(g: MultiGraph, beta: float) -> tuple[MultiGraph, dict]:
    """Embed the simple graph g into a full (alpha, beta)-PLG, beta < 1,
    and return it with its report (see ``plg.report``).

    Raises ``ResourceLimitError`` when the output would pass
    ``DEFAULT_VERTEX_CAP`` vertices or ``DEFAULT_EDGE_CAP`` edge units."""
    if g.vertex_count < 1:
        raise InputError("need at least one vertex")
    gd = double_graph(g)
    params = choose_params_sub1(gd.vertex_count, beta)
    p = PowerLawParams(params.alpha, beta)
    n_total = interval_size_exact(p, 1, p.delta)
    edge_units = interval_volume_exact(p, 1, p.delta) // 2
    if n_total > DEFAULT_VERTEX_CAP or edge_units > DEFAULT_EDGE_CAP:
        raise ResourceLimitError(
            f"output would have {n_total} vertices and ~{edge_units} edge units "
            f"(caps {DEFAULT_VERTEX_CAP}, {DEFAULT_EDGE_CAP})"
        )

    seated = slot_targets(gd, interval_degree_sequence(p, params.a_x, p.delta))
    if seated is None:
        raise InternalError("slot assignment infeasible despite satisfied conditions")
    pair_targets, leftover = seated

    # The split point e^(alpha/(beta+1)) can exceed x*delta at small n (high
    # beta); G1 is then clipped so the residual classes stay a partition.
    cut = min(params.g3_cut, params.a_x)
    g2_targets = np.concatenate([interval_degree_sequence(p, cut, params.a_x - 1), leftover])
    g1_targets = interval_degree_sequence(p, 1, cut - 1)
    witness_source = greedy_maximal_is(g)
    graph, assembled = assemble(
        p,
        gd,
        BLOCKS["sub1"],
        pair_targets,
        [("G2", g2_targets), ("G1", g1_targets)],
        np.arange(g.vertex_count)[:, None],
        witness_source,
    )

    extras = input_extras("sub1", witness_source_vertices=sorted(witness_source))
    return graph, {"schema": SCHEMA, "kind": "sub1", **sub1_leaves(params), **assembled, "extras": extras}
