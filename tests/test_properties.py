"""Randomized structural properties over small generated instances."""

from hypothesis import given, settings, strategies as st

from hedgecut import (
    adjacency_graph,
    brute_force_connectivity,
    build_graph,
    cleanup,
    contract_hedge,
    contraction_sequence,
    degree_summary,
    emit,
    graph_rank_nullity,
    greedy_relabel,
    hedge_view,
    is_connected,
    label_degree,
    max_adjacency_degree,
    min_label_degree_bound,
    ordinary_edge_min_cut,
    parse,
    randomized_contraction_cut,
    remove_hedges,
    validate_certificate,
)


@st.composite
def hedge_graphs(draw, max_n=8, max_labels=5, distinct_labels=False):
    """Connected simple instance: a random parent tree plus extra edges."""
    n = draw(st.integers(2, max_n))
    tree = sorted((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    non_tree = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(tree)]
    extras = draw(st.lists(st.sampled_from(non_tree), unique=True, max_size=3)) if non_tree else []
    pairs = tree + sorted(extras)
    if distinct_labels:
        names = [f"e{i}" for i in range(len(pairs))]
    else:
        names = [f"l{draw(st.integers(0, max_labels - 1))}" for _ in pairs]
    return build_graph(n, [(u, v, name) for (u, v), name in zip(pairs, names)])


@given(hedge_graphs())
def test_hedges_partition_edges(g):
    assert sum(len(hedge_view(g, lab).edges) for lab in range(g.num_labels)) == g.m


@given(hedge_graphs())
def test_hedge_rank_nullity_consistency(g):
    for lab in range(g.num_labels):
        view = hedge_view(g, lab)
        assert 1 <= view.span <= len(view.vertex_set)
        assert view.rank == len(view.vertex_set) - view.span
        assert view.nullity == len(view.edges) - view.rank >= 0


@given(hedge_graphs())
def test_vertex_degree_sum_equality(g):
    lhs = sum(len(hedge_view(g, lab).vertex_set) for lab in range(g.num_labels))
    assert lhs == sum(label_degree(g, v) for v in range(g.n))


@given(st.data(), hedge_graphs())
def test_contraction_telescopes(data, g):
    order = data.draw(st.permutations(range(g.num_labels)))
    rank, nullity = graph_rank_nullity(g)
    trace = contraction_sequence(g, order)
    assert trace.total_rank_consumed == rank
    assert trace.total_nullity_consumed == nullity
    assert max(trace.steps[-1].vertex_map) == 0  # generated instances are connected


@settings(deadline=None)
@given(hedge_graphs(max_n=7))
def test_connectivity_bounded_by_min_degree(g):
    cert = brute_force_connectivity(g)
    assert cert.exact
    assert 1 <= cert.size <= min_label_degree_bound(g)
    assert validate_certificate(g, cert)


@settings(deadline=None)
@given(hedge_graphs(max_n=7), st.integers(0, 2**32))
def test_randomized_never_beats_exact(g, seed):
    cert = randomized_contraction_cut(g, seed)
    assert validate_certificate(g, cert)
    assert cert.size >= brute_force_connectivity(g).size


@settings(deadline=None)
@given(hedge_graphs(max_n=7, distinct_labels=True))
def test_deterministic_min_cut_agrees_with_enumeration(g):
    assert ordinary_edge_min_cut(g).size == brute_force_connectivity(g).size


@given(hedge_graphs())
def test_format_round_trip(g):
    assert parse(emit(g)) == g
    assert emit(parse(emit(g))) == emit(g)


@given(hedge_graphs())
def test_cleanup_is_idempotent_after_contraction(g):
    assert cleanup(g) is g  # input graphs are simple
    once = cleanup(contract_hedge(g, 0))
    assert cleanup(once) is once


@given(hedge_graphs())
def test_contract_hedge_accounting(g):
    for lab in range(g.num_labels):
        view = hedge_view(g, lab)
        result = contract_hedge(g, lab)
        assert result.n == g.n - view.rank
        assert result.m == g.m - len(view.edges)
        assert g.labels[lab] not in result.labels


@given(hedge_graphs())
def test_relabel_proper_and_bounded(g):
    relabeling = greedy_relabel(g)
    for r, neighbors in enumerate(adjacency_graph(g)):
        for t in neighbors:
            assert relabeling.colors[r] != relabeling.colors[t]
    assert relabeling.num_colors >= degree_summary(g)[1]
    assert relabeling.num_colors <= max_adjacency_degree(g) + 1


@given(hedge_graphs())
def test_removing_every_hedge_isolates_all_vertices(g):
    bare = remove_hedges(g, range(g.num_labels))
    assert bare.m == 0 and bare.n == g.n
    assert not is_connected(bare)
