"""Power-law multigraphs with certified-small independent sets.

Construction toolkit for (alpha, beta) power-law multigraphs: distribution
calculators, degree-interval realization with clique-cover certificates, the
two hardness-style embeddings (beta < 1 and beta = 1), an exact MIS solver
used as the verification oracle, and an end-to-end verifier.
"""

from .embed_beta1 import (
    Beta1Params,
    ExpanderCertificate,
    KWindow,
    WalkProduct,
    alon_interval,
    choose_k,
    choose_params_beta1,
    count_walks_within,
    degree_one_heuristic,
    embed_beta1,
    gap_ratio,
    layered_is_bound,
    random_regular_expander,
    walk_degree_bound,
    walk_product,
)
from .embed_sub1 import (
    Sub1Params,
    choose_params_sub1,
    double_graph,
    embed_sub1,
    residual_is_bound_sub1,
)
from .errors import (
    InputError,
    InternalError,
    ParseError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .graph import MultiGraph, degree_sequence, is_independent, read_graph, write_graph
from .model import (
    BoundPair,
    PowerLawParams,
    cover_ceiling_sum,
    degree_count,
    degree_counts,
    interval_size_bounds,
    interval_size_exact,
    interval_volume_bounds,
    interval_volume_exact,
    totals,
    zeta,
)
from .realizer import (
    CliqueCoverCertificate,
    clique_cover,
    clique_cover_bound,
    interval_degree_sequence,
    realize,
)
from .report import degree_conformance
from .solver import SolveResult, exact_mis, greedy_maximal_is
from .verify import verify_embedding

__all__ = [
    "Beta1Params",
    "BoundPair",
    "CliqueCoverCertificate",
    "ExpanderCertificate",
    "InputError",
    "InternalError",
    "KWindow",
    "MultiGraph",
    "ParseError",
    "PowerLawParams",
    "ResourceLimitError",
    "SolveResult",
    "Sub1Params",
    "UnsupportedCaseError",
    "WalkProduct",
    "alon_interval",
    "choose_k",
    "choose_params_beta1",
    "choose_params_sub1",
    "clique_cover",
    "clique_cover_bound",
    "count_walks_within",
    "cover_ceiling_sum",
    "degree_conformance",
    "degree_count",
    "degree_counts",
    "degree_one_heuristic",
    "degree_sequence",
    "double_graph",
    "embed_beta1",
    "embed_sub1",
    "exact_mis",
    "gap_ratio",
    "greedy_maximal_is",
    "interval_degree_sequence",
    "interval_size_bounds",
    "interval_size_exact",
    "interval_volume_bounds",
    "interval_volume_exact",
    "is_independent",
    "layered_is_bound",
    "random_regular_expander",
    "read_graph",
    "realize",
    "residual_is_bound_sub1",
    "totals",
    "verify_embedding",
    "walk_degree_bound",
    "walk_product",
    "write_graph",
    "zeta",
]
