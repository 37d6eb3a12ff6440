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
components, where networkx is installed.  Above the enumeration cap,
where the bipartition oracle cannot reach, every exact route is checked
against a 0/1 program that scipy's HiGHS solves, where scipy is installed.
"""

import random

import pytest

from conftest import singleton_label_graphs
from hedgecut import (
    GeneratorParams,
    HedgeGraph,
    brute_force_connectivity,
    build_graph,
    contract_edge,
    contract_hedge,
    contraction_sequence,
    graph_rank_nullity,
    hedge_connectivity,
    hedge_view,
    is_connected,
    ordinary_edge_min_cut,
    random_instance,
    randomized_connectivity,
    randomized_contraction_cut,
    remove_hedges,
    validate_certificate,
)
from hedgecut.graph import _hedge_views


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
            # stats and the audit read every view from one grouping by label
            assert _hedge_views(h) == [hedge_view(h, lab) for lab in range(h.num_labels)]
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


def milp_connectivity(n, edges):
    """Least number of labels crossing a bipartition, as a 0/1 program: x_v is
    vertex v's side (x_0 = 0, 1 <= sum x <= n - 1), y_l is 1 when label l is cut,
    and y_l >= |x_u - x_v| for each non-loop edge (u, v, l); minimize sum y."""
    pytest.importorskip("scipy", minversion="1.9")  # milp came in 1.9
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    num = 1 + max(lab for _, _, lab in edges)
    rows = []
    for u, v, lab in edges:
        if u != v:
            for a, b in ((u, v), (v, u)):  # y_l - x_a + x_b >= 0
                row = np.zeros(n + num)
                row[n + lab], row[a], row[b] = 1, -1, 1
                rows.append(row)
    rows.append(np.r_[np.ones(n), np.zeros(num)])
    lower = np.r_[np.zeros(len(rows) - 1), 1]
    upper = np.r_[np.full(len(rows) - 1, np.inf), n - 1]
    result = milp(np.r_[np.zeros(n), np.ones(num)], integrality=np.ones(n + num),
                  bounds=Bounds(0, np.r_[0, np.ones(n + num - 1)]),
                  constraints=LinearConstraint(np.vstack(rows), lower, upper))
    assert result.success, result.message
    return round(result.fun)


def _planted_halves(seed, cross):
    """Two halves of 20-34 vertices, each 5 random spanning trees split into 2 labels
    by edge parity, joined by ``cross`` <= 4 labels of 1-3 edges: 21-24 labels.
    Removing at most 4 labels leaves a tree of each half whole, so only all the
    cross labels cut: the connectivity is ``cross``.  Trees may share edges."""
    rng = random.Random(seed)
    sizes = (rng.randint(20, 34), rng.randint(20, 34))
    verts = list(range(sum(sizes)))
    rng.shuffle(verts)
    halves = [verts[:sizes[0]], verts[sizes[0]:]]
    edges = []
    for h, half in enumerate(halves):
        for t in range(5):
            order = rng.sample(half, len(half))
            edges += [(order[rng.randrange(i)], order[i], 10 * h + 2 * t + i % 2) for i in range(1, len(order))]
    for c in range(cross):
        edges += [(rng.choice(halves[0]), rng.choice(halves[1]), 20 + c) for _ in range(rng.randint(1, 3))]
    return HedgeGraph(len(verts), tuple(edges), tuple(f"l{lab}" for lab in range(20 + cross)))


def test_answers_above_the_cap_match_milp():
    # the default dispatch runs trials here (not exact), enumeration with the cap
    # raised and the singleton-hedge min cut are exact; every answer is a valid
    # cut, so never below the optimum, and an exact one equals it
    graphs = [(_planted_halves(10 * cross + seed, cross), cross) for cross in range(1, 5) for seed in range(3)]
    for seed in range(4):  # one label per edge: random dense graphs of 39-52 edges
        g = random_instance(GeneratorParams((10, 16), (25, 45), (1, 1), seed=seed))
        graphs.append((HedgeGraph(g.n, tuple((u, v, i) for i, (u, v, _) in enumerate(g.edges)),
                                  tuple(f"e{i}" for i in range(g.m))), None))
    lams, exact = [], []
    for g, planted in graphs:
        assert g.num_labels > 20
        lams.append(lam := milp_connectivity(g.n, g.edges))
        assert planted in (None, lam)
        certs = [hedge_connectivity(g)]
        if g.num_labels < g.m:
            certs.append(brute_force_connectivity(g, cap=g.num_labels))
        for cert in certs:
            assert validate_certificate(g, cert)
            assert cert.size == lam if cert.exact else cert.size >= lam, (g.n, g.num_labels, cert)
            exact.append(cert.exact)
    assert exact.count(True) == 16 and exact.count(False) == 12 and max(lams[12:]) >= 4  # the full sweep runs too
