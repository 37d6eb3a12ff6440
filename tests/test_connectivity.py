import heapq
import itertools
import random
import sys
import time
import tracemalloc

import pytest

from hedgecut import (
    CutCertificate,
    GeneratorParams,
    GraphError,
    HedgeGraph,
    brute_force_connectivity,
    build_graph,
    connectivity,
    contract_edge,
    contract_hedge,
    contraction,
    default_trial_count,
    hedge_connectivity,
    hedge_view,
    is_connected,
    min_label_degree_bound,
    ordinary_edge_min_cut,
    random_instance,
    randomized_connectivity,
    randomized_contraction_cut,
    remove_hedges,
    validate_certificate,
)
from hedgecut.rng import Rng, mix
from conftest import singleton_label_graphs


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

    def test_disconnected_gives_empty_exact_cut(self, disconnected):
        cert = ordinary_edge_min_cut(disconnected)
        assert (cert.size, cert.labels, cert.exact, cert.method) == (0, frozenset(), True, "fastpath")
        assert (cert.side_a, cert.side_b) == ({0, 1}, {2, 3})

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

    @pytest.mark.parametrize("closed, size", [(True, 2), (False, 1)], ids=["cycle", "path"])
    def test_sweep_stops_at_the_lower_bound(self, closed, size, monkeypatch):
        # phase 0 already cuts 2 on a cycle (no bridge) and 1 on a path (a bridge),
        # so one sweep suffices; all n - 1 phases pop about n^2 / 2 times
        n = 2000
        g = build_graph(n, [(v, (v + 1) % n, f"e{v}") for v in range(n if closed else n - 1)])
        pops = []

        def counted(heap, _pop=heapq.heappop):
            pops.append(1)
            return _pop(heap)
        monkeypatch.setattr(heapq, "heappop", counted)
        cert = ordinary_edge_min_cut(g)
        assert cert.size == size
        assert validate_certificate(g, cert)
        assert len(pops) <= 2 * n, len(pops)

    def test_sweep_stops_at_once_at_connectivity_3(self, monkeypatch):
        # the cycle-space bound proves 3 on a circular ladder, which phase 0 cuts;
        # all 399 phases pop about 110,000 times
        g = _ladder(200)
        pops = []

        def counted(heap, _pop=heapq.heappop):
            pops.append(1)
            return _pop(heap)
        monkeypatch.setattr(heapq, "heappop", counted)
        cert = ordinary_edge_min_cut(g)
        assert cert.size == 3
        assert validate_certificate(g, cert)
        assert len(pops) < 1000, len(pops)


def _bridge_test_graphs() -> list[HedgeGraph]:
    """120 seeded connected graphs, one edge per label, with parallel edges and loops,
    and a ``contract_edge`` result of each, which adds parallels and loops of its own."""
    graphs = []
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]  # a random tree
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
        pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2))]  # parallels
        pairs += [(w, w) for w in rng.sample(range(n), rng.randint(0, min(2, n)))]  # loops
        g = HedgeGraph(n, tuple((u, v, i) for i, (u, v) in enumerate(pairs)),
                       tuple(f"e{i}" for i in range(len(pairs))))
        graphs.append(g)
        if n > 2:
            graphs.append(contract_edge(g, rng.randrange(n - 1))[0])  # a tree edge
    return graphs


def _ladder(k: int) -> HedgeGraph:
    """The circular ladder on 2k vertices, one label per edge: 3-regular, connectivity 3."""
    pairs = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return build_graph(2 * k, [(u, v, f"e{i}") for i, (u, v) in enumerate(pairs)])


def test_has_bridge_matches_brute_force():
    # a bridge is a non-loop edge whose removal alone disconnects the graph; it always
    # gets the cycle-space value 0, so the bound is 1 exactly when one exists, and a
    # lone bridge is the answer once a _join pass confirms it
    graphs = _bridge_test_graphs()
    results = [connectivity._small_cut(g.n, g.edges) for g in graphs]
    answers = [lower == 1 for _, lower in results]
    for g, answer, (cut, _) in zip(graphs, answers, results):
        bridges = {lab for lab, (u, v, _) in enumerate(g.edges)
                   if u != v and not is_connected(remove_hedges(g, [lab]))}
        assert answer == bool(bridges), g
        if answer:
            assert cut == (frozenset(bridges) if len(bridges) == 1 else None), g
    links = [[(min(u, v), max(u, v)) for u, v, _ in g.edges if u != v] for g in graphs]
    assert 60 <= sum(answers) <= len(graphs) - 60  # both answers are well covered
    assert sum(len(set(pairs)) < len(pairs) for pairs in links) >= 150  # parallel edges
    assert sum(len(pairs) < g.m for pairs, g in zip(links, graphs)) >= 150  # loops
    assert sum(cut is not None and lower == 1 for cut, lower in results) >= 40  # lone bridges


def test_has_bridge_is_iterative_on_long_paths():
    n = 20_000
    path = [(v, v + 1, f"e{v}") for v in range(n - 1)]
    assert connectivity._small_cut(n, build_graph(n, path).edges) == (None, 1)  # all bridges
    cycle = build_graph(n, path + [(n - 1, 0, "back")])
    assert connectivity._small_cut(n, cycle.edges) == (None, 2)  # one class of n values
    lasso = build_graph(n, path[:-1] + [(n - 2, 0, "back"), (n - 2, n - 1, "tail")])
    assert connectivity._small_cut(n, lasso.edges) == (frozenset({lasso.label_id("tail")}), 1)


def _min_cut_corpus() -> list[HedgeGraph]:
    """Singleton graphs with parallel edges and loops, and circular ladders (the last 9)."""
    return singleton_label_graphs() + _bridge_test_graphs() + [_ladder(k) for k in range(3, 12)]


def test_singleton_min_cut_builds_no_forest(monkeypatch):
    # the min cut's certificate takes its side from the edges, not from one forest per label
    calls = []
    forest = connectivity._forest
    monkeypatch.setattr(connectivity, "_forest", lambda pairs: calls.append(1) or forest(pairs))
    graphs = [g for g in singleton_label_graphs() if min_label_degree_bound(g) >= 2]
    assert len(graphs) >= 10  # hedge_connectivity sends these to the min cut
    for g in graphs:
        assert ordinary_edge_min_cut(g) == hedge_connectivity(g)
    assert calls == []


class _Draws:
    """An ``Rng`` stand-in whose values repeat or xor to one another, so values collide."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def next_u64(self) -> int:
        return next(self._draws)


@pytest.mark.parametrize("draws", [
    None,
    lambda: itertools.repeat(1),
    lambda: itertools.cycle([1, 2, 3]),
    lambda: itertools.chain([1, 2, 3], (1 << i for i in itertools.count(2))),  # 3 = 1 ^ 2
], ids=["seeded", "one-value", "three-values", "one-xor"])
def test_small_cut_keeps_the_sweeps_certificate(draws, monkeypatch):
    # a unique min cut is every exact method's answer, and the sweep stops only at a
    # proven bound, so the answer is the full sweep's for every draw, colliding ones too
    if draws:
        monkeypatch.setattr(connectivity, "Rng", lambda seed: _Draws(draws()))
    graphs = _min_cut_corpus()
    results = [connectivity._small_cut(g.n, g.edges) for g in graphs]
    certs = [ordinary_edge_min_cut(g) for g in graphs]
    monkeypatch.setattr(connectivity, "_small_cut", lambda n, edges: (None, 1))
    assert certs == [ordinary_edge_min_cut(g) for g in graphs]  # the full sweep's answers
    assert all(lower <= cert.size for (_, lower), cert in zip(results, certs))


def test_small_cut_answers_and_bounds():
    graphs = _min_cut_corpus()
    results = [connectivity._small_cut(g.n, g.edges) for g in graphs]
    direct = [len(cut) for cut, _ in results if cut is not None]
    assert direct.count(1) >= 40 and direct.count(2) >= 20, direct
    bounds = [lower for _, lower in results]
    assert bounds[-9:] == [3] * 9  # the ladders
    assert sum(lower == ordinary_edge_min_cut(g).size == 3 for g, lower in zip(graphs, bounds)) > 9


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


def _reference_trial(n, forests, seed):
    """The contraction trial as it was before hedges joining every class were retired:
    every step rebuilds each label whose stored length fails the bound and lists the
    safe ones.  It calls ``connectivity._forest`` so a wrapper sees both kernels."""
    rng = Rng(seed)
    cls = list(range(n))
    members = [[v] for v in range(n)]
    count = n
    live = dict(enumerate(forests))
    while count > 2:
        safe = []
        for lab, pairs in live.items():
            if count - len(pairs) < 2:
                pairs = live[lab] = connectivity._forest((cls[u], cls[v]) for u, v in pairs)
            if count - len(pairs) >= 2:
                safe.append(lab)
        if not safe:
            break
        for u, v in live.pop(safe[rng.below(len(safe))]):
            a, b = cls[u], cls[v]
            if a == b:
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for x in members[b]:
                cls[x] = a
            members[a] += members[b]
            count -= 1
    return frozenset(lab for lab, pairs in live.items()
                     if any(cls[u] != cls[v] for u, v in pairs))


def _flat(n, edges):
    """Per-label forests of an edge list, and its raw per-label pairs (loops and
    parallels kept), over the labels it uses; both join what each label joins."""
    used = sorted({lab for _, _, lab in edges})
    raw = [[(u, v) for u, v, lab in edges if lab == used_lab] for used_lab in used]
    return [(n, [connectivity._forest(pairs) for pairs in raw]), (n, raw)]


def _two_halves(seed):
    """Two halves of 6-15 vertices, each 3 random spanning trees split into 2 labels,
    joined by 1-3 cross labels of 1-3 edges: the cross labels are the small cuts.
    Trees may share edges, so labels may run parallel."""
    rng = random.Random(seed)
    sizes = (rng.randint(6, 15), rng.randint(6, 15))
    verts = list(range(sum(sizes)))
    rng.shuffle(verts)
    halves = [verts[:sizes[0]], verts[sizes[0]:]]
    edges = []
    for h, half in enumerate(halves):
        for t in range(3):
            order = rng.sample(half, len(half))
            for i in range(1, len(order)):
                edges.append((order[rng.randrange(i)], order[i], 6 * h + 2 * t + i % 2))
    cross = rng.randint(1, 3)
    for c in range(cross):
        for _ in range(rng.randint(1, 3)):
            edges.append((rng.choice(halves[0]), rng.choice(halves[1]), 12 + c))
    return HedgeGraph(len(verts), tuple(edges), tuple(f"l{lab}" for lab in range(12 + cross)))


def _trial_inputs():
    """Flat inputs of random instances, their hedge and edge contractions (loops and
    parallel edges), and the two-halves family."""
    graphs = [random_instance(GeneratorParams((2, 12), (0, 8), (1, 6), seed=seed))
              for seed in range(60)] + [_two_halves(seed) for seed in range(20)]
    inputs = [(g.n, connectivity._hedge_forests(g)) for g in graphs]
    for i, g in enumerate(graphs[:60]):
        inputs += _flat(*contraction._contract(g, i % g.num_labels))
        inputs += _flat(*contraction._contract_edge(g, i % g.m))  # random instances have no loops
    return [(n, forests) for n, forests in inputs if n >= 2]


def test_trial_matches_reference_kernel():
    # retiring a hedge that joins every class, and bounding ranks by non-loop class
    # pairs first, change no draw: every trial returns the reference's labels
    inputs = _trial_inputs()
    seeds = [mix(7, t) for t in range(5)]
    trials = [(n, forests, seed) for n, forests in inputs for seed in seeds]
    assert len(trials) >= 1000
    cuts = [connectivity._contraction_trial(*trial) for trial in trials]
    assert cuts == [_reference_trial(*trial) for trial in trials]
    assert sum(len(cut) >= 2 for cut in cuts) >= 300  # not only pendant vertices


def test_trial_retires_spanning_hedges_and_builds_fewer_forests(monkeypatch):
    # a _forest result of count - 1 pairs joins every current class; the reference
    # rebuilds such a hedge at every later step, the kernel retires it into the cut
    spanning = []  # per _forest call: does the result join every current class?
    forest = connectivity._forest

    def counted(pairs):
        kept = forest(pairs)
        spanning.append(len(kept) == sys._getframe(1).f_locals["count"] - 1)
        return kept

    g = _two_halves(3)
    forests = connectivity._hedge_forests(g)
    monkeypatch.setattr(connectivity, "_forest", counted)
    runs = {}
    for kernel in (_reference_trial, connectivity._contraction_trial):
        spanning.clear()
        cuts = [kernel(g.n, forests, mix(0, t)) for t in range(8)]
        runs[kernel] = (cuts, len(spanning), sum(spanning))
    (ref_cuts, ref_calls, ref_spanning), (cuts, calls, retired) = runs.values()
    assert cuts == ref_cuts
    assert calls < ref_calls, (calls, ref_calls)
    assert 0 < retired < ref_spanning, (retired, ref_spanning)


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
