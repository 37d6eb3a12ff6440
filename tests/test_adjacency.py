import pytest

from hedgecut import (
    adjacency_graph,
    build_graph,
    degree_summary,
    greedy_relabel,
    hedge_view,
    label_degree,
    max_adjacency_degree,
)


@pytest.fixture
def chain():
    return build_graph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")])


class TestAdjacencyGraph:
    def test_triangle_is_k3(self, triangle):
        adj = adjacency_graph(triangle)
        assert adj.edges == ((0, 1), (0, 2), (1, 2))

    def test_c4alt_is_k2(self, c4alt):
        assert adjacency_graph(c4alt).edges == ((0, 1),)

    def test_chain_is_path(self, chain):
        assert adjacency_graph(chain).edges == ((0, 1), (1, 2))

    def test_simple_and_irreflexive(self, spider):
        adj = adjacency_graph(spider)
        for i, ns in enumerate(adj.neighbors):
            assert i not in ns

    def test_degrees(self, triangle, chain, single_label_path):
        assert adjacency_graph(triangle).degree(triangle.label_id("a")) == 2
        assert adjacency_graph(chain).degree(chain.label_id("b")) == 2
        assert adjacency_graph(chain).degree(chain.label_id("a")) == 1
        assert adjacency_graph(single_label_path).degree(0) == 0
        assert max_adjacency_degree(chain) == 2
        assert max_adjacency_degree(single_label_path) == 0

    def test_matches_pairwise_predicate(self, spider, c4alt, chain):
        # two hedges are adjacent iff their vertex sets intersect
        for g in (spider, c4alt, chain):
            adj = adjacency_graph(g)
            vertex_sets = [hedge_view(g, lab).vertex_set for lab in range(g.num_labels)]
            for r in range(g.num_labels):
                for t in range(g.num_labels):
                    if r != t:
                        assert (t in adj.neighbors[r]) == bool(vertex_sets[r] & vertex_sets[t])


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
            adj = adjacency_graph(g)
            for r, t in adj.edges:
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
                    assert adj.degree(lab) >= label_degree(g, vertex) - 1

    def test_colors_are_dense_from_zero(self, spider, triangle):
        for g in (spider, triangle):
            relabeling = greedy_relabel(g)
            assert set(relabeling.colors) == set(range(relabeling.num_colors))
