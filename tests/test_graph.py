import pytest
from hypothesis import given, settings, strategies as st

from hedgecut import (
    GeneratorParams,
    GraphError,
    HedgeGraph,
    TheoremId,
    build_graph,
    contract_edge,
    degree_summary,
    graph_rank_nullity,
    hedge_view,
    is_connected,
    label_degree,
    random_instance,
    randomized_connectivity,
    remove_hedges,
    search_counterexample,
)


class TestBuildGraph:
    def test_triangle(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert triangle.labels == ("a", "b", "c")

    def test_labels_interned_in_first_appearance_order(self, c4alt):
        assert c4alt.labels == ("a", "b")
        assert c4alt.edges == ((0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1))

    def test_rejects_loop(self):
        with pytest.raises(GraphError, match="loop"):
            build_graph(2, [(0, 0, "a")])

    def test_rejects_duplicate_pair_even_with_other_label(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(2, [(0, 1, "a"), (1, 0, "b")])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2, "a")])

    def test_rejects_empty_edge_list_with_vertices(self):
        with pytest.raises(GraphError, match="empty edge list"):
            build_graph(2, [])

    def test_rejects_bad_label_token(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 1, "has space")])
        # HG1 text reads "#" as the start of a comment, so emit could not write this graph
        with pytest.raises(GraphError, match="label name 'a#b' must be"):
            build_graph(3, [(0, 1, "a#b"), (1, 2, "c")])

    def test_single_vertex_no_edges_allowed(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0 and g.labels == ()

    def test_disconnected_input_accepted(self):
        g = build_graph(4, [(0, 1, "a"), (2, 3, "b")])
        assert not is_connected(g)

    def test_value_type_rejects_unused_label(self):
        with pytest.raises(GraphError, match="at least one edge"):
            HedgeGraph(2, ((0, 1, 0),), ("a", "b"))

    def test_value_type_rejects_repeated_label_name(self):
        with pytest.raises(GraphError, match="^label names must be unique$"):
            HedgeGraph(2, ((0, 1, 0), (0, 1, 1)), ("a", "a"))

    def test_non_str_label_names_rejected(self):
        # GraphError, not a TypeError from the whitespace scan or from
        # interning an unhashable name
        with pytest.raises(GraphError, match="label name 5 must be"):
            HedgeGraph(2, ((0, 1, 0),), (5,))
        with pytest.raises(GraphError, match=r"label name \['a'\] must be"):
            build_graph(2, [(0, 1, ["a"])])

    def test_label_lookup(self, c4alt):
        assert c4alt.label_id("b") == 1
        assert c4alt.label_id(0) == 0
        with pytest.raises(GraphError, match="unknown label"):
            c4alt.label_id("zzz")


C4ALT = build_graph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "a"), (3, 0, "b")])


@pytest.mark.parametrize("call, args, message, edge", [
    (build_graph, (2.5, [(0, 1, "a")]), "vertex count must be an int of at least 1, not 2.5", None),
    (build_graph, (True, []), "vertex count must be an int of at least 1, not True", None),
    (build_graph, (3, [(0, 1.0, "a")]), r"endpoint out of range: \(0, 1.0\)", 0),
    (build_graph, (3, [(0, True, "a")]), r"endpoint out of range: \(0, True\)", 0),
    (build_graph, (3, [(0, "1", "a")]), r"endpoint out of range: \(0, '1'\)", 0),
    (build_graph, (3, [(0, None, "a"), (1, 2, "b")]), r"endpoint out of range: \(0, None\)", 0),
    (build_graph, ("3", []), "vertex count must be an int of at least 1, not '3'", None),
    (HedgeGraph, (2, ((0, 1, 0.0),), ("a",)), "label id out of range: 0.0", 0),
    (HedgeGraph, (3, ((0, 1, 0), (0, 1.0, 0)), ("a",)), r"out of range: \(0, 1.0\)", 1),
    (hedge_view, (C4ALT, 1.5), "unknown label id 1.5", None),
    (hedge_view, (C4ALT, True), "unknown label id True", None),
    (remove_hedges, (C4ALT, [None]), "unknown label id None", None),
    (contract_edge, (C4ALT, 1.0), "edge index 1.0 out of range", None),
    (contract_edge, (C4ALT, True), "edge index True out of range", None),
    (label_degree, (C4ALT, 1.0), "vertex 1.0 out of range", None),
    (label_degree, (C4ALT, True), "vertex True out of range", None),
    (randomized_connectivity, (C4ALT, 2.0), "nonnegative int, not 2.0", None),
    (randomized_connectivity, (C4ALT, True), "nonnegative int, not True", None),
    (search_counterexample, (TheoremId.VD_EQUALITY, GeneratorParams(), 2.0),
     "at least one trial .*, not 2.0", None),
    (search_counterexample, (TheoremId.VD_EQUALITY, GeneratorParams(), True),
     "at least one trial .*, not True", None),
    (random_instance, (GeneratorParams((2.0, 3)),), "vertex count range must satisfy 2 <= lo", None),
    (random_instance, (GeneratorParams(extra_range=(0, 1.5)),), "extra edge range must satisfy", None),
    (random_instance, (GeneratorParams(label_range=(1, True)),), "label count range must satisfy", None),
    (random_instance, (GeneratorParams(seed=1.5),), "generator seed must be an int, not 1.5", None),
    (random_instance, (GeneratorParams(seed=True),), "generator seed must be an int, not True", None),
    (search_counterexample, (TheoremId.VD_EQUALITY, GeneratorParams((2, 3.0)), 3),
     "vertex count range must satisfy", None),
    (search_counterexample, (TheoremId.VD_EQUALITY, GeneratorParams(seed=1.5), 3),
     "generator seed must be an int, not 1.5", None),
], ids=["float-n", "bool-n", "float-endpoint", "bool-endpoint", "str-endpoint", "none-endpoint",
        "str-n", "float-label-id", "equal-int-twin", "float-ref", "bool-ref", "none-ref",
        "float-edge-index", "bool-edge-index", "float-vertex", "bool-vertex",
        "float-trials", "bool-trials", "float-search-trials", "bool-search-trials",
        "float-n-range", "float-extra-range", "bool-label-range", "float-seed", "bool-seed",
        "float-search-n-range", "float-search-seed"])
def test_non_int_ids_rejected(call, args, message, edge):
    # vertex counts, endpoints, label ids, edge indices, vertices, trial counts,
    # generator range bounds and seeds are ints; a bool is not one.
    # The faulty edge is blamed, not an earlier edge that compares equal.
    with pytest.raises(GraphError, match=message) as err:
        call(*args)
    assert err.value.edge == edge


def _reference_build(n, triples):
    """What build_graph must do, written independently of it.

    Returns ("ok", edges, names) or ("fault", kind, edge index or None).
    The checks run in the documented layer order: build_graph's pass over
    the edges (loop, repeated pair, then interning, which fails for an
    unhashable name), then HedgeGraph's vertex count, endpoint ranges and
    label names.
    """
    if n >= 2 and not triples:
        return ("fault", "empty edge list", None)
    pairs = []
    names = []
    for i, (u, v, name) in enumerate(triples):
        if u == v:
            return ("fault", "loop", i)
        if {u, v} in pairs:
            return ("fault", "duplicate", i)
        pairs.append({u, v})
        try:
            hash(name)
        except TypeError:
            return ("fault", "label name", None)
        if name not in names:
            names.append(name)
    if n < 1:
        return ("fault", "vertex count", None)
    for i, (u, v, _) in enumerate(triples):
        if u not in range(n) or v not in range(n):
            return ("fault", "out of range", i)
    for name in names:
        if type(name) is not str or name == "" or any(ch.isspace() or ch == "#" for ch in name):
            return ("fault", "label name", None)
    edges = tuple((u, v, names.index(name)) for u, v, name in triples)
    return ("ok", edges, tuple(names))


_good_names = st.sampled_from(["a", "b", "c", "x_1"])
_BAD_NAMES = ["", " ", "a b", "\t", "b\u00a0", "a#b", "#", 0, None, ("a",), ["a"]]
_bad_names = st.sampled_from(_BAD_NAMES)


@st.composite
def _edge_lists(draw):
    """n and simple triples with up to two faults spliced in.

    A fault is an endpoint out of range, a loop, a pair repeated in either
    orientation or a bad name (empty, whitespace, '#', not a str, unhashable);
    n may also be below 1.
    """
    n = draw(st.integers(-1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    triples = [(v, u, draw(_good_names)) if draw(st.booleans()) else (u, v, draw(_good_names))
               for u, v in chosen]
    for fault in draw(st.lists(st.sampled_from(["range", "loop", "repeat", "name"]), max_size=2)):
        w = draw(st.integers(0, max(n, 1) - 1))
        if fault == "range":
            edge = draw(st.sampled_from([(w, max(n, 1)), (-1, w)]))
        elif fault == "loop":
            edge = (w, w)
        elif fault == "repeat" and triples:
            u, v, _ = draw(st.sampled_from(triples))
            edge = draw(st.sampled_from([(u, v), (v, u)]))
        elif fault == "name" and triples:
            i = draw(st.integers(0, len(triples) - 1))
            triples[i] = (*triples[i][:2], draw(_bad_names))
            continue
        else:
            continue
        triples.insert(draw(st.integers(0, len(triples))), (*edge, draw(_good_names)))
    return n, triples


def _check_against_reference(n, triples):
    expected = _reference_build(n, triples)
    try:
        g = build_graph(n, triples)
    except GraphError as exc:
        assert expected[0] == "fault", f"rejected valid input: {exc}"
        assert expected[1] in str(exc)
        assert exc.edge == expected[2]
        return
    assert expected[0] == "ok", f"accepted input with a fault: {expected}"
    assert (g.edges, g.labels) == expected[1:]


@settings(max_examples=500, deadline=None)
@given(_edge_lists())
def test_build_graph_matches_reference(case):
    _check_against_reference(*case)


@pytest.mark.parametrize("name", _BAD_NAMES, ids=repr)
def test_build_graph_matches_reference_on_each_bad_name(name):
    # the property test draws one bad name among several fault kinds, so one seed can miss a name rule
    _check_against_reference(3, [(0, 1, "a"), (1, 2, name)])


class TestHedgeView:
    def test_c4alt_hedge_a(self, c4alt):
        view = hedge_view(c4alt, "a")
        assert view.span == 2
        assert view.rank == 2
        assert view.nullity == 0
        assert view.vertex_set == frozenset(range(4))

    def test_triangle_single_edge_hedge(self, triangle):
        view = hedge_view(triangle, "a")
        assert (view.span, view.rank, view.nullity) == (1, 1, 0)

    def test_single_label_connected_graph(self, single_label_path):
        view = hedge_view(single_label_path, "s")
        assert view.span == 1
        assert view.rank == single_label_path.n - 1

    def test_components_ordered_by_min_vertex(self):
        # two components, the higher one listed first: span counts both
        g = build_graph(6, [(4, 5, "a"), (0, 1, "a"), (2, 3, "b")])
        view = hedge_view(g, "a")
        assert (view.span, view.rank) == (2, 2)

    def test_loop_vertex_is_singleton_component(self, c4alt):
        # loops connect nothing: a one-loop hedge has rank 0
        loopy = HedgeGraph(2, ((0, 0, 0), (0, 1, 1)), ("x", "y"))
        view = hedge_view(loopy, "x")
        assert view.span == 1
        assert view.rank == 0
        assert view.nullity == 1


class TestRankNullity:
    def test_connected_cycle(self, c4alt):
        assert graph_rank_nullity(c4alt) == (3, 1)

    def test_triangle(self, triangle):
        assert graph_rank_nullity(triangle) == (2, 1)

    def test_two_disjoint_edges(self):
        g = build_graph(4, [(0, 1, "a"), (2, 3, "b")])
        assert graph_rank_nullity(g) == (2, 0)


class TestLabelDegrees:
    def test_c4alt(self, c4alt):
        assert label_degree(c4alt, 0) == 2
        assert degree_summary(c4alt) == (2, 2, 8)

    def test_p3(self, p3):
        assert degree_summary(p3) == (1, 2, 4)

    def test_triangle_vertexwise(self, triangle):
        assert all(label_degree(triangle, v) == 2 for v in range(3))

    def test_single_label_star(self):
        # the center sees one distinct label, not three
        g = build_graph(4, [(0, 1, "s"), (0, 2, "s"), (0, 3, "s")])
        assert degree_summary(g) == (1, 1, 4)

    def test_rainbow_star(self):
        g = build_graph(4, [(0, 1, "a"), (0, 2, "b"), (0, 3, "c")])
        assert degree_summary(g) == (1, 3, 6)

    def test_loop_counts_its_label_once(self):
        g = HedgeGraph(2, ((0, 0, 0), (0, 1, 0)), ("c",))
        assert label_degree(g, 0) == 1

    def test_out_of_range(self, p3):
        with pytest.raises(GraphError):
            label_degree(p3, 3)


class TestRemoveHedges:
    def test_c4alt_minus_a(self, c4alt):
        g = remove_hedges(c4alt, ["a"])
        assert g.m == 2
        assert g.labels == ("b",)
        assert not is_connected(g)

    def test_triangle_minus_two(self, triangle):
        g = remove_hedges(triangle, ["a", "b"])
        assert g.m == 1
        assert not is_connected(g)

    def test_remove_nothing_is_identity(self, c4alt):
        assert remove_hedges(c4alt, []) is c4alt

    def test_remove_all_labels_leaves_isolated_vertices(self, triangle):
        g = remove_hedges(triangle, ["a", "b", "c"])
        assert g.m == 0
        assert g.n == 3
        assert g.labels == ()

    def test_unknown_label(self, triangle):
        with pytest.raises(GraphError, match="unknown label"):
            remove_hedges(triangle, ["zzz"])


class TestIsConnected:
    def test_single_vertex(self):
        assert is_connected(build_graph(1, []))

    def test_c4alt(self, c4alt):
        assert is_connected(c4alt)

    def test_after_removal(self, c4alt):
        assert not is_connected(remove_hedges(c4alt, ["a"]))
