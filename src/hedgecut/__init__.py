"""Hedge graph connectivity toolkit.

A hedge graph is a labeled multigraph whose same-labeled edges (hedges)
fail as a unit.  This package models such graphs, contracts and relabels
hedges, computes global hedge connectivity with re-checkable cut
certificates, and adjudicates a catalog of structural claims on random
and hand-built instances.
"""

from .adjacency import (
    Relabeling,
    adjacency_graph,
    greedy_relabel,
    max_adjacency_degree,
)
from .audit import (
    UNIVERSAL_IDS,
    AuditVerdict,
    GeneratorParams,
    SearchResult,
    TheoremId,
    audit_theorem,
    format_verdict,
    instance_digest,
    parse_verdict,
    random_instance,
    search_counterexample,
    verify_certificate,
)
from .connectivity import (
    CutCertificate,
    brute_force_connectivity,
    default_trial_count,
    hedge_connectivity,
    min_label_degree_bound,
    ordinary_edge_min_cut,
    randomized_connectivity,
    randomized_contraction_cut,
    validate_certificate,
)
from .contraction import (
    ContractionStep,
    ContractionTrace,
    cleanup,
    contract_edge,
    contract_hedge,
    contraction_sequence,
)
from .graph import (
    GraphError,
    HedgeGraph,
    HedgeView,
    build_graph,
    degree_summary,
    graph_rank_nullity,
    hedge_view,
    is_connected,
    label_degree,
    remove_hedges,
)
from .hgformat import ParseError, emit, parse
from .rng import Rng, mix

__version__ = "1.0.0"

__all__ = [
    "AuditVerdict",
    "ContractionStep",
    "ContractionTrace",
    "CutCertificate",
    "GeneratorParams",
    "GraphError",
    "HedgeGraph",
    "HedgeView",
    "ParseError",
    "Relabeling",
    "Rng",
    "SearchResult",
    "TheoremId",
    "UNIVERSAL_IDS",
    "adjacency_graph",
    "audit_theorem",
    "brute_force_connectivity",
    "build_graph",
    "cleanup",
    "contract_edge",
    "contract_hedge",
    "contraction_sequence",
    "default_trial_count",
    "degree_summary",
    "emit",
    "format_verdict",
    "graph_rank_nullity",
    "greedy_relabel",
    "hedge_connectivity",
    "hedge_view",
    "instance_digest",
    "is_connected",
    "label_degree",
    "max_adjacency_degree",
    "min_label_degree_bound",
    "mix",
    "ordinary_edge_min_cut",
    "parse",
    "parse_verdict",
    "random_instance",
    "randomized_connectivity",
    "randomized_contraction_cut",
    "remove_hedges",
    "search_counterexample",
    "validate_certificate",
    "verify_certificate",
]
