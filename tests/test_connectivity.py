import time
import tracemalloc

import pytest

from hedgecut import (
    CutCertificate,
    GraphError,
    brute_force_connectivity,
    build_graph,
    contract_hedge,
    default_trial_count,
    hedge_connectivity,
    hedge_view,
    is_connected,
    min_label_degree_bound,
    ordinary_edge_min_cut,
    randomized_connectivity,
    randomized_contraction_cut,
    validate_certificate,
)


@pytest.fixture
def disconnected():
    return build_graph(4, [(0, 1, "a"), (2, 3, "b")])


@pytest.fixture
def k2():
    return build_graph(2, [(0, 1, "a")])


@pytest.mark.parametrize("call", [
    min_label_degree_bound,
    brute_force_connectivity,
    ordinary_edge_min_cut,
    lambda g: randomized_contraction_cut(g, 0),
    randomized_connectivity,
    lambda g: hedge_connectivity(g, method="random"),
], ids=["degree_bound", "brute", "edge_min_cut", "one_trial", "trials", "random_dispatch"])
def test_every_entry_point_rejects_a_single_vertex(call):
    with pytest.raises(GraphError, match="^connectivity is undefined for a single vertex$"):
        call(build_graph(1, []))


class TestDegreeBound:
    def test_examples(self, c4alt, triangle, p3, spider, single_label_path):
        assert min_label_degree_bound(c4alt) == 2
        assert min_label_degree_bound(triangle) == 2
        assert min_label_degree_bound(p3) == 1
        assert min_label_degree_bound(spider) == 1
        assert min_label_degree_bound(single_label_path) == 1

    def test_single_vertex_rejected(self):
        g = build_graph(1, [])
        with pytest.raises(GraphError, match="single vertex"):
            min_label_degree_bound(g)

    def test_disconnected_rejected(self, disconnected):
        with pytest.raises(GraphError, match="connected"):
            min_label_degree_bound(disconnected)


class TestBruteForce:
    def test_alternating_cycle_has_one_label_cut(self, c4alt):
        cert = brute_force_connectivity(c4alt)
        assert cert.size == 1
        assert cert.labels == {c4alt.label_id("a")}
        assert cert.side_a == {0, 3}
        assert cert.side_b == {1, 2}
        assert cert.exact and cert.method == "brute"
        assert validate_certificate(c4alt, cert)

    def test_triangle_needs_two(self, triangle):
        cert = brute_force_connectivity(triangle)
        assert cert.size == 2
        # smallest subsets first, ties by label id, so {a, b} wins
        assert cert.labels == {0, 1}
        assert cert.side_a == {0, 2} and cert.side_b == {1}
        assert validate_certificate(triangle, cert)

    def test_single_edge(self, k2):
        cert = brute_force_connectivity(k2)
        assert cert.size == 1 and cert.exact

    def test_disconnected_is_zero(self, disconnected):
        cert = brute_force_connectivity(disconnected)
        assert cert.size == 0 and cert.exact and cert.method == "brute"
        assert cert.side_a == {0, 1} and cert.side_b == {2, 3}
        assert validate_certificate(disconnected, cert)

    def test_cap_enforced(self, triangle):
        with pytest.raises(GraphError, match="cap"):
            brute_force_connectivity(triangle, cap=2)

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError, match="single vertex"):
            brute_force_connectivity(build_graph(1, []))

    def test_never_exceeds_degree_bound(self, c4alt, triangle, p3, spider, twoi, pendants):
        for g in (c4alt, triangle, p3, spider, twoi, pendants):
            assert brute_force_connectivity(g).size <= min_label_degree_bound(g)


class TestOrdinaryMinCut:
    def test_triangle(self, triangle):
        cert = ordinary_edge_min_cut(triangle)
        assert cert.size == 2
        assert cert.exact and cert.method == "fastpath"
        assert validate_certificate(triangle, cert)

    def test_path(self, p3):
        cert = ordinary_edge_min_cut(p3)
        assert cert.size == 1
        assert validate_certificate(p3, cert)

    def test_cycle_with_distinct_labels(self):
        g = build_graph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 0, "d")])
        cert = ordinary_edge_min_cut(g)
        assert cert.size == 2
        assert validate_certificate(g, cert)

    def test_agrees_with_enumeration(self):
        graphs = [
            build_graph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 0, "d"), (0, 2, "e")]),
            build_graph(5, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 4, "d"), (4, 0, "e"),
                            (1, 3, "f")]),
        ]
        for g in graphs:
            assert ordinary_edge_min_cut(g).size == brute_force_connectivity(g).size

    def test_requires_singleton_hedges(self, c4alt):
        with pytest.raises(GraphError, match="exactly one edge"):
            ordinary_edge_min_cut(c4alt)

    def test_side_a_holds_vertex_zero(self, triangle):
        assert 0 in ordinary_edge_min_cut(triangle).side_a

    def test_memory_is_linear(self):
        # an n x n weight matrix alone would take about 1.3 MB at n = 400
        n = 400
        g = build_graph(n, [(v, (v + 1) % n, f"e{v}") for v in range(n)])
        tracemalloc.start()
        try:
            cert = ordinary_edge_min_cut(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.size == 2
        assert peak < 1_000_000, peak


class TestRandomized:
    def test_single_trial_is_valid(self, c4alt, triangle, spider):
        for g in (c4alt, triangle, spider):
            cert = randomized_contraction_cut(g, seed=9)
            assert cert.method == "randomized" and not cert.exact
            assert validate_certificate(g, cert)

    def test_single_trial_deterministic(self, triangle):
        assert randomized_contraction_cut(triangle, 5) == randomized_contraction_cut(triangle, 5)

    def test_best_of_trials_finds_small_cut(self, c4alt):
        cert = randomized_connectivity(c4alt, trials=16, base_seed=42)
        assert cert.size == 1
        assert validate_certificate(c4alt, cert)

    def test_never_below_true_minimum(self, c4alt, triangle, spider, twoi, pendants):
        for g in (c4alt, triangle, spider, twoi, pendants):
            cert = randomized_connectivity(g, trials=32, base_seed=7)
            assert cert.size >= brute_force_connectivity(g).size
            assert validate_certificate(g, cert)

    def test_deterministic_for_fixed_budget(self, triangle):
        a = randomized_connectivity(triangle, trials=12, base_seed=3)
        b = randomized_connectivity(triangle, trials=12, base_seed=3)
        assert a == b

    def test_zero_trials_falls_back_to_degree_bound(self, c4alt):
        cert = randomized_connectivity(c4alt, trials=0)
        assert cert.method == "fastpath" and not cert.exact
        assert cert.size == min_label_degree_bound(c4alt)
        assert validate_certificate(c4alt, cert)

    def test_negative_trials_rejected(self, c4alt):
        with pytest.raises(GraphError, match="nonnegative"):
            randomized_connectivity(c4alt, trials=-1)

    def test_disconnected_rejected(self, disconnected):
        with pytest.raises(GraphError, match="connected"):
            randomized_contraction_cut(disconnected, 0)
        with pytest.raises(GraphError, match="connected"):
            randomized_connectivity(disconnected)

    def test_no_safe_hedge_still_yields_cut(self, single_label_path):
        # the only hedge spans everything, so no contraction happens at all
        cert = randomized_contraction_cut(single_label_path, 0)
        assert cert.size == 1
        assert cert.side_a == {0}
        assert validate_certificate(single_label_path, cert)

    def test_default_trial_count(self):
        assert default_trial_count(1) == 1
        assert default_trial_count(2) == 8
        assert default_trial_count(8) == 256


class TestDispatch:
    def test_disconnected(self, disconnected):
        cert = hedge_connectivity(disconnected)
        assert cert.size == 0 and cert.exact and cert.method == "fastpath"

    def test_single_label(self, single_label_path):
        cert = hedge_connectivity(single_label_path)
        assert cert.size == 1 and cert.exact and cert.method == "fastpath"
        assert cert.labels == {0}

    def test_degree_one_vertex(self, p3, twoi):
        cert = hedge_connectivity(p3)
        assert cert.size == 1 and cert.exact and cert.method == "fastpath"
        cert = hedge_connectivity(twoi)
        assert cert.labels == {twoi.label_id("i")}
        assert cert.side_a == {0, 3} and cert.side_b == {1, 2, 4}
        assert validate_certificate(twoi, cert)

    def test_singleton_hedges_use_deterministic_cut(self, triangle):
        cert = hedge_connectivity(triangle)
        assert cert.size == 2 and cert.exact and cert.method == "fastpath"

    def test_small_label_count_uses_enumeration(self, c4alt):
        cert = hedge_connectivity(c4alt)
        assert cert.method == "brute" and cert.exact
        assert cert.size == 1

    def test_large_label_count_uses_trials(self, c4alt):
        cert = hedge_connectivity(c4alt, cap=1, base_seed=42)
        assert cert.method == "randomized" and not cert.exact
        assert cert.size == 1
        assert validate_certificate(c4alt, cert)

    def test_forced_methods(self, p3, disconnected):
        assert hedge_connectivity(p3, method="brute").method == "brute"
        assert hedge_connectivity(p3, method="random", trials=4).method == "randomized"
        assert hedge_connectivity(disconnected, method="random").size == 0

    def test_unknown_method_rejected(self, p3):
        with pytest.raises(GraphError, match="unknown method"):
            hedge_connectivity(p3, method="magic")

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError, match="single vertex"):
            hedge_connectivity(build_graph(1, []))

    def test_exact_results_match_enumeration(self, c4alt, triangle, p3, spider, twoi, pendants):
        for g in (c4alt, triangle, p3, spider, twoi, pendants):
            cert = hedge_connectivity(g)
            assert validate_certificate(g, cert)
            if cert.exact:
                assert cert.size == brute_force_connectivity(g).size


class TestValidateCertificate:
    def test_rejects_overlapping_sides(self, c4alt):
        cert = brute_force_connectivity(c4alt)
        bad = type(cert)(cert.labels, cert.side_a | {1}, cert.side_b, cert.method, cert.exact)
        assert not validate_certificate(c4alt, bad)

    def test_rejects_incomplete_cover(self, c4alt):
        cert = brute_force_connectivity(c4alt)
        bad = type(cert)(cert.labels, cert.side_a - {0}, cert.side_b, cert.method, cert.exact)
        assert not validate_certificate(c4alt, bad)

    def test_rejects_noncut(self, triangle):
        bad = CutCertificate(frozenset({0}), frozenset({0}), frozenset({1, 2}), "brute", False)
        assert not validate_certificate(triangle, bad)

    def test_rejects_unknown_label(self, p3):
        bad = CutCertificate(frozenset({7}), frozenset({0}), frozenset({1, 2}), "brute", False)
        assert not validate_certificate(p3, bad)

    def test_rejects_crossing_edge(self, c4alt):
        # removing hedge a disconnects, but this split separates a b-edge
        bad = CutCertificate(frozenset({0}), frozenset({0}), frozenset({1, 2, 3}), "brute", True)
        assert not validate_certificate(c4alt, bad)

    def test_rejects_empty_side(self, c4alt):
        bad = CutCertificate(frozenset({0, 1}), frozenset(range(4)), frozenset(), "brute", False)
        assert not validate_certificate(c4alt, bad)


def test_large_stars_listed_centre_first():
    # every edge names the centre first, so a union-find without path
    # compression (graph._forest, or graph._join behind the connectivity
    # test, hedge contraction and cut sides) grows one long chain and
    # each find walks all of it
    leaves = 20_000
    two = build_graph(leaves + 1, [(0, v, "ab"[v % 2]) for v in range(1, leaves + 1)])
    start = time.perf_counter()
    assert is_connected(two)
    for method in ("auto", "brute"):  # the degree-1 fast path, then one enumeration pass
        cert = hedge_connectivity(two, method=method)
        assert (cert.size, cert.exact) == (1, True)
        assert validate_certificate(two, cert)
    assert contract_hedge(two, "a").n == leaves // 2 + 1
    assert time.perf_counter() - start < 3.0
    one = build_graph(leaves + 1, [(0, v, "s") for v in range(1, leaves + 1)])
    start = time.perf_counter()
    view = hedge_view(one, "s")
    assert (view.span, view.rank) == (1, leaves)
    point = contract_hedge(one, "s")
    assert (point.n, point.m) == (1, 0)
    assert time.perf_counter() - start < 3.0
