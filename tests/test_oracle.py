"""Connectivity checked against an independent vertex-bipartition oracle.

A hedge cut separates some vertex bipartition, and every bipartition is
separated by removing the labels of its crossing edges.  So the hedge
connectivity is the minimum, over all 2^(n-1) - 1 bipartitions, of the
number of labels with an edge crossing it.  The oracle below computes
that from the raw edge list with bit masks and shares no code with the
package's connectivity kernel.  The singleton-hedge min cut is checked
against networkx's Stoer-Wagner, on simple graphs and on multigraphs
with parallel edges and loops, and every rank, the connectivity test
and the classes a hedge contraction merges against networkx's
components, where networkx is installed.
"""

import random

import pytest

from conftest import singleton_label_graphs
from hedgecut import (
    GeneratorParams,
    brute_force_connectivity,
    build_graph,
    contract_edge,
    contract_hedge,
    contraction_sequence,
    graph_rank_nullity,
    hedge_view,
    is_connected,
    ordinary_edge_min_cut,
    random_instance,
    randomized_connectivity,
    randomized_contraction_cut,
    remove_hedges,
    validate_certificate,
)


def bipartition_oracle(n, edges):
    """Least number of labels crossing a bipartition with vertex 0 on side A."""
    best = None
    for side_b in range(1, 1 << (n - 1)):
        side_b <<= 1  # vertex 0 stays on side A
        crossing = {lab for u, v, lab in edges if (side_b >> u & 1) != (side_b >> v & 1)}
        if best is None or len(crossing) < best:
            best = len(crossing)
    return best


# (n range, extra edges, labels): sparse trees, denser graphs, many labels
FAMILIES = [((2, 6), (0, 3), (1, 4)), ((6, 10), (4, 14), (2, 6)), ((5, 10), (2, 10), (5, 12))]


@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_enumeration_matches_oracle(family):
    n_range, extra, labels = FAMILIES[family]
    for seed in range(40):
        g = random_instance(GeneratorParams(n_range, extra, labels, seed=1000 * family + seed))
        assert g.n <= 10
        lam = bipartition_oracle(g.n, g.edges)
        cert = brute_force_connectivity(g, cap=g.num_labels)
        assert cert.size == lam, (family, seed)
        assert validate_certificate(g, cert)
        for t in range(3):
            trial = randomized_contraction_cut(g, seed * 7 + t)
            assert trial.size >= lam
            assert validate_certificate(g, trial)
        best = randomized_connectivity(g, trials=6, base_seed=seed)
        assert best.size >= lam
        assert validate_certificate(g, best)


def test_edge_min_cut_matches_networkx():
    # with one label per edge the hedge connectivity is the edge connectivity
    nx = pytest.importorskip("networkx")
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(5, 30)
        pairs = {(rng.randrange(v), v) for v in range(1, n)}  # a random tree
        for _ in range(rng.randint(0, 2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            pairs.add((u, v))
        edges = [(u, v, f"e{i}") for i, (u, v) in enumerate(sorted(pairs))]
        graphs.append(build_graph(n, edges))
    # contract_edge results: parallel edges sum into one weight, loops drop out
    graphs += singleton_label_graphs()
    for g in graphs:
        cert = ordinary_edge_min_cut(g)
        graph = nx.Graph()
        for u, v, _ in g.edges:
            if u != v:
                weight = graph.get_edge_data(u, v, {"weight": 0})["weight"]
                graph.add_edge(u, v, weight=weight + 1)
        assert cert.size == nx.stoer_wagner(graph)[0], g
        assert validate_certificate(g, cert)


def test_ranks_match_networkx_components():
    # rank = vertices - components and nullity = edges - rank, for every
    # hedge and the whole graph, also after contractions (loops, parallels)
    # and after a removal (often disconnected); the connectivity test and
    # the classes a hedge contraction merges match the same components
    nx = pytest.importorskip("networkx")

    def multigraph(vertices, pairs):
        multi = nx.MultiGraph()
        multi.add_nodes_from(vertices)
        multi.add_edges_from(pairs)
        return multi

    def rank_nullity(vertices, pairs):
        rank = len(vertices) - nx.number_connected_components(multigraph(vertices, pairs))
        return rank, len(pairs) - rank

    hedges = loops = parallels = disconnected = 0
    for seed in range(60):
        g = random_instance(GeneratorParams((2, 12), (0, 10), (1, 6), seed=5000 + seed))
        rng = random.Random(seed)
        graphs = [g, contract_hedge(g, rng.randrange(g.num_labels)),
                  contract_edge(g, rng.randrange(g.m))[0],
                  remove_hedges(g, [rng.randrange(g.num_labels)])]
        for h in graphs:
            all_pairs = [(u, v) for u, v, _ in h.edges]
            assert graph_rank_nullity(h) == rank_nullity(range(h.n), all_pairs)
            assert is_connected(h) == nx.is_connected(multigraph(range(h.n), all_pairs))
            disconnected += not is_connected(h)
            for lab in range(h.num_labels):
                pairs = [(u, v) for u, v, el in h.edges if el == lab]
                vertices = {x for pair in pairs for x in pair}
                rank, nullity = rank_nullity(vertices, pairs)
                view = hedge_view(h, lab)
                assert (view.span, view.rank, view.nullity) == (len(vertices) - rank, rank, nullity)
                order = [lab, *(other for other in range(h.num_labels) if other != lab)]
                vmap = contraction_sequence(h, order).steps[0].vertex_map
                classes = {}
                for v in range(h.n):
                    classes.setdefault(vmap[v], set()).add(v)
                components = nx.connected_components(multigraph(range(h.n), pairs))
                assert sorted(map(sorted, classes.values())) == sorted(map(sorted, components))
                hedges += 1
            loops += any(u == v for u, v, _ in h.edges)
            parallels += len({frozenset((u, v)) for u, v, _ in h.edges}) < h.m
    assert hedges > 400 and loops > 10 and parallels > 10 and disconnected > 10, (
        hedges, loops, parallels, disconnected)
