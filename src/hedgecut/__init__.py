"""Hedge graph connectivity toolkit.

A hedge graph is a labeled multigraph whose same-labeled edges (hedges)
fail as a unit.  This package models such graphs, contracts and relabels
hedges, computes global hedge connectivity with re-checkable cut
certificates, and adjudicates a catalog of structural claims on random
and hand-built instances.

Importing the package loads the graph model, the HG1 format and the
connectivity kernels; the auditor, the generator, contraction and
relabeling load on first use of one of their names (PEP 562).
"""

from importlib import import_module

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

# the public names of the modules that load on first use, by module
_LAZY = {name: module for module, names in (
    ("adjacency", ("Relabeling", "adjacency_graph", "greedy_relabel", "max_adjacency_degree")),
    ("audit", ("UNIVERSAL_IDS", "AuditVerdict", "SearchResult", "TheoremId", "audit_theorem", "format_verdict",
               "instance_digest", "parse_verdict", "search_counterexample", "verify_certificate")),
    ("contraction", ("ContractionStep", "ContractionTrace", "cleanup", "contract_edge", "contract_hedge",
                     "contraction_sequence")),
    ("generator", ("GeneratorParams", "random_instance")),
) for name in names}


def __getattr__(name: str):
    """Import the module that defines a deferred public name, and keep the name here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


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
