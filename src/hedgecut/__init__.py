"""Hedge graph connectivity toolkit.

A hedge graph is a labeled multigraph whose same-labeled edges (hedges)
fail as a unit.  This package models such graphs, contracts and relabels
hedges, computes global hedge connectivity with re-checkable cut
certificates, and adjudicates a catalog of structural claims on random
and hand-built instances.

Importing the package loads the graph model, the HG1 format and the
connectivity kernels; the auditor, the generator, contraction and
relabeling load on first use of one of their names (PEP 562).

Each public name is declared once outside its definition: in the
``__all__`` of the eager module that defines it, which this package
star-imports, or in ``_LAZY``.  The package ``__all__`` is their union.
"""

from importlib import import_module

# a star import binds the names of its module's __all__, and the module itself for the list below
from .connectivity import *
from .graph import *
from .hgformat import *
from .rng import *

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

__all__ = connectivity.__all__ + graph.__all__ + hgformat.__all__ + rng.__all__ + list(_LAZY)
