import pytest

from hedgecut import (
    GeneratorParams,
    adjacency_graph,
    build_graph,
    contract_hedge,
    degree_summary,
    greedy_relabel,
    hedge_view,
    label_degree,
    max_adjacency_degree,
    random_instance,
)


def adjacent_pairs(adj):
    """The adjacency graph's edges (r, t), r < t, in ascending order."""
    return tuple((r, t) for r, ns in enumerate(adj) for t in sorted(ns) if r < t)


@pytest.fixture
def chain():
    return build_graph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")])


class TestAdjacencyGraph:
    def test_triangle_is_k3(self, triangle):
        assert adjacent_pairs(adjacency_graph(triangle)) == ((0, 1), (0, 2), (1, 2))

    def test_c4alt_is_k2(self, c4alt):
        assert adjacent_pairs(adjacency_graph(c4alt)) == ((0, 1),)

    def test_chain_is_path(self, chain):
        assert adjacent_pairs(adjacency_graph(chain)) == ((0, 1), (1, 2))

    def test_simple_and_irreflexive(self, spider):
        for i, ns in enumerate(adjacency_graph(spider)):
            assert i not in ns

    def test_degrees(self, triangle, chain, single_label_path):
        assert len(adjacency_graph(triangle)[triangle.label_id("a")]) == 2
        assert len(adjacency_graph(chain)[chain.label_id("b")]) == 2
        assert len(adjacency_graph(chain)[chain.label_id("a")]) == 1
        assert len(adjacency_graph(single_label_path)[0]) == 0
        assert max_adjacency_degree(chain) == 2
        assert max_adjacency_degree(single_label_path) == 0

    def test_matches_pairwise_predicate(self, spider, c4alt, chain):
        # two hedges are adjacent iff their vertex sets intersect, also on the
        # loops and parallel edges a contraction leaves
        graphs = [spider, c4alt, chain]
        for seed in range(20):
            g = random_instance(GeneratorParams((2, 9), (0, 6), (1, 5), seed=seed))
            graphs += [g, contract_hedge(g, seed % g.num_labels)]
        assert any(u == v for h in graphs for u, v, _ in h.edges)
        assert any(len({frozenset((u, v)) for u, v, _ in h.edges}) < h.m for h in graphs)
        for g in graphs:
            adj = adjacency_graph(g)
            assert len(adj) == g.num_labels
            vertex_sets = [hedge_view(g, lab).vertex_set for lab in range(g.num_labels)]
            for r in range(g.num_labels):
                for t in range(g.num_labels):
                    if r != t:
                        assert (t in adj[r]) == bool(vertex_sets[r] & vertex_sets[t])


class TestGreedyRelabel:
    def test_c4alt_needs_two(self, c4alt):
        assert greedy_relabel(c4alt).num_colors == 2

    def test_triangle_needs_three(self, triangle):
        assert greedy_relabel(triangle).num_colors == 3

    def test_spider_two_colors_despite_degree_three(self, spider):
        relabeling = greedy_relabel(spider)
        assert relabeling.num_colors == 2
        assert max_adjacency_degree(spider) == 3

    def test_proper(self, c4alt, triangle, spider):
        for g in (c4alt, triangle, spider):
            relabeling = greedy_relabel(g)
            for r, t in adjacent_pairs(adjacency_graph(g)):
                assert relabeling.colors[r] != relabeling.colors[t]

    def test_at_least_max_label_degree(self, c4alt, triangle, spider):
        # hedges meeting at one vertex form a clique, so q >= Delta_L
        for g in (c4alt, triangle, spider):
            assert greedy_relabel(g).num_colors >= degree_summary(g)[1]

    def test_greedy_bound(self, c4alt, triangle, spider):
        for g in (c4alt, triangle, spider):
            assert greedy_relabel(g).num_colors <= max_adjacency_degree(g) + 1

    def test_per_vertex_adjacency_lower_bound(self, spider, triangle):
        for g in (spider, triangle):
            adj = adjacency_graph(g)
            for u, v, lab in g.edges:
                for vertex in (u, v):
                    assert len(adj[lab]) >= label_degree(g, vertex) - 1

    def test_colors_are_dense_from_zero(self, spider, triangle):
        for g in (spider, triangle):
            relabeling = greedy_relabel(g)
            assert set(relabeling.colors) == set(range(relabeling.num_colors))
