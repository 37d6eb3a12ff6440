"""The public surface: the exported names, and the functions the benchmark traces."""

import ast
import importlib
from pathlib import Path

import hedgecut

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_exported_names():
    assert sorted(hedgecut.__all__) == [
        "AuditVerdict", "ContractionStep", "ContractionTrace", "CutCertificate",
        "GeneratorParams", "GraphError", "HedgeGraph", "HedgeView",
        "ParseError", "Relabeling", "Rng", "SearchResult",
        "TheoremId", "UNIVERSAL_IDS", "adjacency_graph", "audit_theorem",
        "brute_force_connectivity", "build_graph", "cleanup", "contract_edge",
        "contract_hedge", "contraction_sequence", "default_trial_count", "degree_summary",
        "emit", "format_verdict", "graph_rank_nullity", "greedy_relabel",
        "hedge_connectivity", "hedge_view", "instance_digest", "is_connected",
        "label_degree", "max_adjacency_degree", "min_label_degree_bound", "mix",
        "ordinary_edge_min_cut", "parse", "parse_verdict", "random_instance",
        "randomized_connectivity", "randomized_contraction_cut", "remove_hedges",
        "search_counterexample", "validate_certificate", "verify_certificate",
    ]
    for name in hedgecut.__all__:
        assert hasattr(hedgecut, name), name


def test_traced_functions_exist():
    # the benchmark's --trace run wraps these by name; read its table, do not run it
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    assert targets
    for module_name, functions in targets.items():
        module = importlib.import_module(f"hedgecut.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"hedgecut.{module_name}.{name}"
