import pytest

from hedgecut import (
    GeneratorParams,
    GraphError,
    build_graph,
    cleanup,
    contract_edge,
    contract_hedge,
    contraction_sequence,
    graph_rank_nullity,
    hedge_view,
    random_instance,
    remove_hedges,
)
from hedgecut.graph import HedgeGraph


def _derived(g, merged, keep):
    """The graph ``g`` becomes after merging the vertex pairs ``merged`` and
    keeping the edges ``keep(index, edge)`` selects, built from scratch:
    classes numbered by minimum member, ascending; kept edges in stored
    order; surviving label names in id order.  Returns it and the class map.
    """
    adj = [[] for _ in range(g.n)]
    for u, v in merged:
        adj[u].append(v)
        adj[v].append(u)
    low = [None] * g.n  # minimum member of each vertex's class
    for s in range(g.n):
        if low[s] is None:
            low[s] = s
            queue = [s]
            for x in queue:
                for y in adj[x]:
                    if low[y] is None:
                        low[y] = s
                        queue.append(y)
    cls = [sorted(set(low)).index(c) for c in low]
    kept = [e for i, e in enumerate(g.edges) if keep(i, e)]
    used = sorted({lab for _, _, lab in kept})
    edges = tuple((cls[u], cls[v], used.index(lab)) for u, v, lab in kept)
    return HedgeGraph(max(cls) + 1, edges, tuple(g.labels[lab] for lab in used)), cls


class TestContractEdge:
    def test_c4alt_contract_first_a(self, c4alt):
        g, w = contract_edge(c4alt, 0)
        assert g.n == 3
        assert w == 0
        assert g.edges == ((0, 1, 1), (1, 2, 0), (2, 0, 1))
        assert g.labels == ("a", "b")  # the a-edge (2,3,a) survives
        assert not any(u == v for u, v, _ in g.edges)

    def test_triangle_contract_makes_parallels(self, triangle):
        g, w = contract_edge(triangle, 0)
        assert g.n == 2 and w == 0
        assert sorted(g.labels[lab] for _, _, lab in g.edges) == ["b", "c"]
        assert all({u, v} == {0, 1} for u, v, _ in g.edges)

    def test_path_same_label(self):
        g0 = build_graph(3, [(0, 1, "a"), (1, 2, "a")])
        g, w = contract_edge(g0, 0)
        assert g.n == 2 and w == 0
        assert g.edges == ((0, 1, 0),)
        assert g.labels == ("a",)

    def test_label_dropped_when_last_edge_contracted(self, p3):
        g, _ = contract_edge(p3, 0)
        assert g.labels == ("b",)

    def test_merged_vertex_is_min_id(self):
        g0 = build_graph(3, [(2, 1, "a"), (0, 1, "b")])
        g, w = contract_edge(g0, 0)
        assert w == 1
        assert g.edges == ((0, 1, 0),)  # the b-edge now ends at the merged vertex

    def test_loop_rejected(self):
        loopy = HedgeGraph(2, ((0, 0, 0), (0, 1, 0)), ("a",))
        with pytest.raises(GraphError, match="loop"):
            contract_edge(loopy, 0)

    def test_bad_index(self, p3):
        with pytest.raises(GraphError, match="out of range"):
            contract_edge(p3, 9)


class TestContractHedge:
    def test_c4alt_hedge_a(self, c4alt):
        g = contract_hedge(c4alt, "a")
        assert g.n == 2
        assert g.labels == ("b",)
        assert len(g.edges) == 2  # parallel b-edges, kept without cleanup
        assert all({u, v} == {0, 1} for u, v, _ in g.edges)

    def test_single_label_connected_collapses_to_point(self, single_label_path):
        g = contract_hedge(single_label_path, "s")
        assert g.n == 1 and g.m == 0 and g.labels == ()

    def test_spider_hedge_b(self, spider):
        g = contract_hedge(spider, "b")
        assert g.n == 4
        assert sorted(g.labels) == ["a1", "a2", "a3"]
        assert all(u == 0 or v == 0 for u, v, _ in g.edges)  # three pendant legs

    def test_other_label_loops_kept(self):
        # contracting j turns (2,0,i) into an i-loop, which must survive
        g0 = build_graph(3, [(0, 1, "j"), (1, 2, "j"), (2, 0, "i")])
        g = contract_hedge(g0, "j")
        assert g.n == 1
        assert g.edges == ((0, 0, 0),)
        assert g.labels == ("i",)

    def test_contracted_label_loops_deleted(self):
        loopy = HedgeGraph(2, ((0, 1, 0), (1, 1, 0), (0, 1, 1)), ("i", "k"))
        g = contract_hedge(loopy, "i")
        assert g.labels == ("k",)
        assert g.edges == ((0, 0, 0),)

    def test_accounting(self, c4alt, triangle, spider, twoi, pendants):
        for g in (c4alt, triangle, spider, twoi, pendants):
            for name in g.labels:
                view = hedge_view(g, name)
                after = contract_hedge(g, name)
                assert g.n - after.n == view.rank
                assert g.m - after.m == len(view.edges)
                assert name not in after.labels

    def test_order_independent_of_edge_contraction_order(self, spider, c4alt):
        # whole-hedge contraction equals repeated single-edge contraction
        def others(h, name):
            return [(u, v, h.labels[lab]) for u, v, lab in h.edges if h.labels[lab] != name]

        for g, name in ((spider, "b"), (c4alt, "a")):
            whole = contract_hedge(g, name)
            for reverse in (False, True):
                current = g
                while True:
                    lab = current.label_id(name) if name in current.labels else None
                    picks = [i for i, (u, v, el) in enumerate(current.edges)
                             if lab is not None and el == lab and u != v]
                    if not picks:
                        break
                    current, _ = contract_edge(current, picks[-1] if reverse else picks[0])
                assert current.n == whole.n
                assert others(current, name) == others(whole, name)

    def test_unknown_label(self, c4alt):
        with pytest.raises(GraphError, match="unknown label"):
            contract_hedge(c4alt, "zzz")


class TestDerivedGraphOracle:
    def test_min_member_numbering(self):
        # {0, 3} keeps id 0; numbering classes by maximum member would give (0, 1), (1, 2)
        g = build_graph(4, [(0, 3, "a"), (1, 2, "b"), (2, 3, "c")])
        assert contract_hedge(g, "a") == HedgeGraph(3, ((1, 2, 0), (2, 0, 1)), ("b", "c"))

    def test_every_contraction_and_removal(self, c4alt, triangle, p3, spider, twoi,
                                           pendants, single_label_path):
        graphs = [c4alt, triangle, p3, spider, twoi, pendants, single_label_path,
                  build_graph(4, [(0, 3, "a"), (1, 2, "b"), (2, 3, "c")])]
        for seed in range(60):
            g = random_instance(GeneratorParams((2, 9), (0, 6), (1, 5), seed=seed))
            graphs += [g, contract_edge(g, seed % g.m)[0], contract_hedge(g, seed % g.num_labels)]
        assert any(u == v for h in graphs for u, v, _ in h.edges)
        assert any(len({frozenset((u, v)) for u, v, _ in h.edges}) < h.m for h in graphs)
        checked = 0
        for g in graphs:
            for i, (u, v, _) in enumerate(g.edges):
                if u != v:
                    want, cls = _derived(g, [(u, v)], lambda j, e: j != i)
                    assert contract_edge(g, i) == (want, cls[u])
                    checked += 1
            for lab in range(g.num_labels):
                pairs = [(u, v) for u, v, e_lab in g.edges if e_lab == lab]
                assert contract_hedge(g, lab) == _derived(g, pairs, lambda j, e: e[2] != lab)[0]
                assert remove_hedges(g, [lab]) == _derived(g, [], lambda j, e: e[2] != lab)[0]
                checked += 2
        assert checked > 1000


class TestCleanup:
    def test_c4alt_after_hedge_contraction(self, c4alt):
        contracted = contract_hedge(c4alt, "a")
        assert contracted == HedgeGraph(2, ((0, 1, 0), (1, 0, 0)), ("b",))
        assert cleanup(contracted) == HedgeGraph(2, ((0, 1, 0),), ("b",))

    def test_distinct_labels_untouched(self, triangle):
        contracted, _ = contract_edge(triangle, 0)
        assert cleanup(contracted) is contracted

    def test_same_label_loops_merge(self):
        loopy = HedgeGraph(1, ((0, 0, 0), (0, 0, 0), (0, 0, 1)), ("x", "y"))
        assert cleanup(loopy) == HedgeGraph(1, ((0, 0, 0), (0, 0, 1)), ("x", "y"))

    def test_idempotent(self, c4alt):
        once = cleanup(contract_hedge(c4alt, "a"))
        assert cleanup(once) is once


class TestContractionSequence:
    def test_c4alt_rank_consumed(self, c4alt):
        trace = contraction_sequence(c4alt, ["a", "b"])
        assert [s.rank_consumed for s in trace.steps] == [2, 1]
        assert trace.total_rank_consumed == graph_rank_nullity(c4alt)[0]

    def test_c4alt_nullity_consumed(self, c4alt):
        trace = contraction_sequence(c4alt, ["a", "b"])
        assert [s.nullity_consumed for s in trace.steps] == [0, 1]
        assert trace.total_nullity_consumed == graph_rank_nullity(c4alt)[1]

    def test_single_label_graph(self, single_label_path):
        trace = contraction_sequence(single_label_path, ["s"])
        assert len(trace.steps) == 1
        assert trace.steps[0].rank_consumed == 3
        assert max(trace.steps[-1].vertex_map) == 0

    def test_static_sums_differ_but_sequence_telescopes(self, c4alt):
        static = sum(hedge_view(c4alt, name).rank for name in c4alt.labels)
        assert static == 4  # the static reading over-counts
        for order in (["a", "b"], ["b", "a"]):
            assert contraction_sequence(c4alt, order).total_rank_consumed == 3

    def test_vertex_count_drops_by_rank_each_step(self, c4alt, triangle, p3, spider, twoi,
                                                  pendants, single_label_path):
        # Each step on its own: replay it with contract_hedge and measure its
        # hedge with hedge_view, so a miscount cannot hide in a telescoped sum.
        graphs = [c4alt, triangle, p3, spider, twoi, pendants, single_label_path]
        for seed in range(60):
            g = random_instance(GeneratorParams((2, 9), (0, 6), (1, 5), seed=seed))
            graphs += [g, contract_edge(g, seed % g.m)[0], contract_hedge(g, seed % g.num_labels)]
        assert any(u == v for h in graphs for u, v, _ in h.edges)
        assert any(len({frozenset((u, v)) for u, v, _ in h.edges}) < h.m for h in graphs)
        for i, g in enumerate(graphs):
            current = g
            trace = contraction_sequence(g, list(g.labels)[::-1 if i % 2 else 1])
            for step in trace.steps:
                view = hedge_view(current, step.label)
                nxt = contract_hedge(current, step.label)
                assert (step.rank_consumed, step.nullity_consumed) == (view.rank, view.nullity)
                assert current.n - nxt.n == step.rank_consumed
                assert len(step.vertex_map) == current.n
                assert set(step.vertex_map) == set(range(nxt.n))
                vmap = step.vertex_map
                assert nxt.edges == tuple((vmap[u], vmap[v], nxt.label_id(current.labels[lab]))
                                          for u, v, lab in current.edges
                                          if current.labels[lab] != step.label)
                current = nxt
            assert (current.n, current.m, current.labels) == (max(vmap) + 1, 0, ())

    def test_bad_permutation(self, c4alt):
        with pytest.raises(GraphError, match="permutation"):
            contraction_sequence(c4alt, ["a"])
        with pytest.raises(GraphError, match="permutation"):
            contraction_sequence(c4alt, ["a", "a"])
        with pytest.raises(GraphError, match="unknown label"):
            contraction_sequence(c4alt, ["a", "zzz"])

    def test_final_graph_of_connected_input_is_a_point(self, triangle, spider):
        for g in (triangle, spider):
            trace = contraction_sequence(g, list(g.labels))
            assert max(trace.steps[-1].vertex_map) == 0

    def test_builds_no_graph(self, monkeypatch):
        # a trace is its steps; the final vertex count is the last vertex map's
        graphs = [random_instance(GeneratorParams((2, 9), (0, 6), (1, 5), seed=seed))
                  for seed in range(20)]
        built = []
        post_init = HedgeGraph.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(HedgeGraph, "__post_init__", counted)
        for g in graphs:
            contraction_sequence(g, list(g.labels))
        assert built == []
        contract_hedge(graphs[0], 0)  # the count does see a derived graph
        assert len(built) == 1
