import heapq
import itertools
import json
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

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
    graph,
    hedge_connectivity,
    hedge_view,
    is_connected,
    min_label_degree_bound,
    ordinary_edge_min_cut,
    parse,
    random_instance,
    randomized_connectivity,
    randomized_contraction_cut,
    remove_hedges,
    validate_certificate,
)
from hedgecut.rng import Rng, mix
from conftest import singleton_label_graphs
from test_oracle import FAMILIES


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

    @pytest.mark.parametrize("cap", [True, False, 2.5, 20.0, None, "3"])
    @pytest.mark.parametrize("call", [
        brute_force_connectivity,
        hedge_connectivity,
        lambda g, cap: hedge_connectivity(g, method="brute", cap=cap),
        lambda g, cap: hedge_connectivity(g, method="random", cap=cap),
    ], ids=["brute", "auto", "forced_brute", "forced_random"])
    def test_cap_must_be_an_int(self, call, cap, c4alt):
        # unchecked, cap=True would mean 1 and send a 2-label graph to trials, 2.5
        # would be compared with the label count and None or "3" raise TypeError;
        # the cap is checked first, so even a single vertex gets the cap message
        for g in (c4alt, build_graph(1, [])):
            with pytest.raises(GraphError, match=r"^enumeration cap must be an int, not "):
                call(g, cap=cap)

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


def test_small_cut_answer_takes_one_union_find_pass(monkeypatch):
    # _small_cut returns its candidate unconfirmed, and the one _merge pass over the
    # edges it keeps both confirms it and gives the certificate's sides
    pool = [parse(inst["text"]) for inst in json.loads(EXACT_POOL.read_text(encoding="ascii"))["instances"]]
    graphs = [g for g in pool if g.num_labels == g.m]
    assert len(graphs) == 16
    graphs += [g for g in singleton_label_graphs() if connectivity._small_cut(g.n, g.edges)[0] is not None]
    assert len(graphs) >= 16 + 10
    passes = []
    for module in (graph, connectivity):
        join = module._join
        monkeypatch.setattr(module, "_join", lambda *args, join=join: passes.append(args) or join(*args))
    certs = []
    for g in graphs:
        assert connectivity._connected(g)  # the connectivity check is not counted
        passes.clear()
        certs.append(ordinary_edge_min_cut(g))
        assert len(passes) == 1, (g, certs[-1])
    monkeypatch.setattr(connectivity, "_small_cut", lambda n, edges: (None, 1))
    assert certs == [ordinary_edge_min_cut(g) for g in graphs]  # the full sweep's answers


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


@pytest.mark.parametrize("call", [
    lambda g, seed: randomized_connectivity(g, 8, seed),
    lambda g, seed: randomized_connectivity(g, 0, seed),
    lambda g, seed: randomized_connectivity(g, None, seed),
    lambda g, seed: randomized_contraction_cut(g, seed),
    lambda g, seed: hedge_connectivity(g, method="random", base_seed=seed),
    lambda g, seed: hedge_connectivity(g, method="random", trials=0, base_seed=seed),
], ids=["trials", "zero_trials", "default_trials", "one_trial", "random_dispatch", "random_zero"])
@pytest.mark.parametrize("seed", [1.5, None, "7", True, False, 2.0])
def test_trial_seed_must_be_an_int(call, seed, c4alt, monkeypatch):
    # like the cap and the trial count, and like the generator's seed: a seed that is
    # no int (a bool included) is refused before any trial runs, whatever the count
    calls = []
    monkeypatch.setattr(connectivity, "_contraction_trial", lambda *args: calls.append(args))
    with pytest.raises(GraphError, match=f"^trial seed must be an int, not {re.escape(repr(seed))}$"):
        call(c4alt, seed)
    assert calls == []


@pytest.mark.parametrize("route, cap", [
    ("disconnected", 20), ("p3", 20), ("triangle", 20), ("c4alt", 20), ("c4alt", 1),
], ids=["empty_cut", "degree_bound", "min_cut", "enumeration", "trials"])
@pytest.mark.parametrize("trials, seed, message", [
    (None, 1.5, "trial seed must be an int, not 1.5"),
    (None, None, "trial seed must be an int, not None"),
    (8, "7", "trial seed must be an int, not '7'"),
    (0, True, "trial seed must be an int, not True"),
    (-3, 0, "trial count must be a nonnegative int, not -3"),
    (-3, 1.5, "trial count must be a nonnegative int, not -3"),
    (2.0, 0, "trial count must be a nonnegative int, not 2.0"),
    (True, 0, "trial count must be a nonnegative int, not True"),
    ("8", 0, "trial count must be a nonnegative int, not '8'"),
], ids=["seed_float", "seed_none", "seed_str", "seed_bool", "count_negative", "both_bad",
        "count_float", "count_bool", "count_str"])
def test_hedge_connectivity_checks_trial_arguments_on_every_route(route, cap, trials, seed, message,
                                                                  request, monkeypatch):
    # the trial count and seed are refused on entry, like the cap, whichever route the
    # graph would take and whichever method is asked for, before any trial runs
    g = request.getfixturevalue(route)
    expected = {"disconnected": "fastpath", "p3": "fastpath", "triangle": "fastpath", "c4alt": "brute"}[route]
    assert hedge_connectivity(g, cap=cap).method == (expected if cap == 20 else "randomized")
    calls = []
    monkeypatch.setattr(connectivity, "_contraction_trial", lambda *args: calls.append(args))
    for method in ("auto", "brute", "random"):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            hedge_connectivity(g, method=method, cap=cap, trials=trials, base_seed=seed)
    assert calls == []


@pytest.mark.parametrize("route", ["single_vertex", "disconnected", "p3"])
def test_unknown_method_is_refused_before_the_graph_is_read(route, request, monkeypatch):
    # the method is checked on entry with the cap and the trial arguments, so no
    # connectivity pass runs and a single vertex gets the method's message too
    g = build_graph(1, []) if route == "single_vertex" else request.getfixturevalue(route)
    calls = []
    monkeypatch.setattr(connectivity, "is_connected", lambda g: calls.append(g))
    monkeypatch.setattr(connectivity, "_proven", None)
    for method in ("magic", "", "Auto", None):
        with pytest.raises(GraphError, match=f"^unknown method {re.escape(repr(method))}$"):
            hedge_connectivity(g, method=method)
    assert calls == []


@pytest.mark.parametrize("route", ["single_vertex", "disconnected"])
@pytest.mark.parametrize("call, message", [
    (lambda g: randomized_connectivity(g, -1), "trial count must be a nonnegative int, not -1"),
    (lambda g: randomized_connectivity(g, 2.0), "trial count must be a nonnegative int, not 2.0"),
    (lambda g: randomized_connectivity(g, 8, 1.5), "trial seed must be an int, not 1.5"),
    (lambda g: randomized_connectivity(g, None, True), "trial seed must be an int, not True"),
    (lambda g: randomized_contraction_cut(g, 1.5), "trial seed must be an int, not 1.5"),
    (lambda g: randomized_contraction_cut(g, True), "trial seed must be an int, not True"),
], ids=["count_negative", "count_float", "seed_float", "seed_bool", "one_trial_float", "one_trial_bool"])
def test_trial_arguments_are_refused_before_the_graph_is_read(route, call, message, request, monkeypatch):
    # like hedge_connectivity's: a graph no trial can run on does not hide a bad argument
    g = build_graph(1, []) if route == "single_vertex" else request.getfixturevalue(route)
    calls = []
    monkeypatch.setattr(connectivity, "is_connected", lambda g: calls.append(g))
    monkeypatch.setattr(connectivity, "_proven", None)
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call(g)
    assert calls == []


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


def test_trial_limit_only_drops_cuts_that_cannot_win():
    # a trial given a limit returns None only once its cut is sure to hold at least
    # that many labels; otherwise it returns the cut the unlimited trial returns
    dropped = kept = 0
    for n, forests in _trial_inputs():
        for t in range(3):
            full = connectivity._contraction_trial(n, forests, mix(5, t))
            for limit in range(1, 5):
                cut = connectivity._contraction_trial(n, forests, mix(5, t), limit)
                assert cut == full or (cut is None and len(full) >= limit), (n, t, limit)
                dropped += cut is None
                kept += cut is not None and len(cut) >= limit
    assert dropped >= 300 and kept >= 300, (dropped, kept)


def _reference_connectivity(g, trials, base_seed):
    """``randomized_connectivity`` as it was before trials stopped early: the whole
    budget runs, with no limit, unless a trial finds a one-label cut."""
    forests = connectivity._hedge_forests(g)
    best = None
    for t in range(default_trial_count(g.num_labels) if trials is None else trials):
        labels = connectivity._contraction_trial(g.n, forests, mix(base_seed, t))
        if best is None or len(labels) < len(best):
            best = labels
            if len(best) == 1:
                break
    if best is None:
        return connectivity._degree_bound_certificate(g, connectivity._vertex_label_sets(g.n, g.edges))
    return connectivity._certificate(g, best, "randomized", False)


def test_trial_loop_matches_the_full_budget():
    # skipped trials could not change the answer: every certificate is the full budget's
    graphs = [random_instance(GeneratorParams(*FAMILIES[f], seed=1000 * f + seed))
              for f in range(len(FAMILIES)) for seed in range(40)]
    for g in graphs + [_two_halves(seed) for seed in range(20)]:
        for trials in (0, 1, 8, None):
            assert randomized_connectivity(g, trials, 3) == _reference_connectivity(g, trials, 3)


def _packed(g):
    return list(connectivity._packing(g.n, connectivity._hedge_forests(g)))


def test_trial_loop_stops_at_the_packing_bound(monkeypatch):
    # on two-halves graphs of connectivity 2 and 3, the default budget is cut short
    # exactly when the packing proves the connectivity
    trial = connectivity._contraction_trial
    calls = []
    monkeypatch.setattr(connectivity, "_contraction_trial",
                        lambda *args: calls.append(args) or trial(*args))
    stopped = []
    for seed in range(40):
        g = _two_halves(seed)
        lam = brute_force_connectivity(g).size
        if lam in (2, 3):
            calls.clear()
            assert randomized_connectivity(g).size == lam
            short = len(calls) < default_trial_count(g.num_labels)
            assert short == (len(_packed(g)) == lam), (seed, len(calls))
            stopped += [lam] * short
    assert stopped.count(2) >= 5 and 3 in stopped, stopped


def test_packing_sets_are_disjoint_spanning_and_at_most_the_connectivity():
    graphs = [random_instance(GeneratorParams(*FAMILIES[f], seed=1000 * f + seed))
              for f in range(len(FAMILIES)) for seed in range(40)]
    reached = 0
    for g in graphs + [_two_halves(seed) for seed in range(20)]:
        sets, forests = _packed(g), connectivity._hedge_forests(g)
        big_first = sorted(range(g.num_labels), key=lambda lab: -len(forests[lab]))
        for i, mask in enumerate(sets):
            assert not any(mask & other for other in sets[:i])
            others = [lab for lab in range(g.num_labels) if not mask >> lab & 1]
            assert is_connected(remove_hedges(g, others)), bin(mask)
            labs = [lab for lab in big_first if mask >> lab & 1]
            for visit in (labs, labs[::-1]):  # re-joined until neither order drops a label
                assert connectivity._join(g.n, forests, (), visit)[2] == mask
        lam = brute_force_connectivity(g, cap=g.num_labels).size
        assert 1 <= len(sets) <= lam
        reached += len(sets) == lam >= 2
    assert reached >= 5, reached


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


def _reference_brute(g):
    """Subset enumeration as it was before the label index: every subset builds its
    label mask and scans the spanning sets found so far, and only the labels that
    merged in a test are recorded.  It calls ``connectivity._join`` so a wrapper sees
    both kernels."""
    if not is_connected(g):
        return connectivity._certificate(g, frozenset(), "brute", True)
    bound = min_label_degree_bound(g)
    forests = connectivity._hedge_forests(g)
    big_first = sorted(range(g.num_labels), key=lambda lab: -len(forests[lab]))
    spanning = []
    for k in range(1, bound + 1):
        for combo in itertools.combinations(range(g.num_labels), k):
            mask = 0
            for lab in combo:
                mask |= 1 << lab
            for tree in spanning:
                if not tree & mask:
                    break
            else:
                _, parts, used = connectivity._join(g.n, forests, combo, big_first)
                if parts > 1:
                    return connectivity._certificate(g, frozenset(combo), "brute", True)
                spanning.insert(0, used)


EXACT_POOL = Path(__file__).resolve().parent.parent / "bench" / "data" / "exact.json"


def test_enumeration_matches_reference_kernel(c4alt, triangle, p3, spider, twoi, pendants,
                                              single_label_path, disconnected, k2):
    # the label index and the second spanning set skip more subsets but test the
    # rest in the same order, so every certificate is the reference's
    graphs = [c4alt, triangle, p3, spider, twoi, pendants, single_label_path, disconnected, k2]
    graphs += singleton_label_graphs()
    graphs += [random_instance(GeneratorParams(*family, seed=1000 * f + seed))
               for f, family in enumerate(FAMILIES) for seed in range(40)]
    pool = [parse(inst["text"]) for inst in json.loads(EXACT_POOL.read_text(encoding="ascii"))["instances"]]
    enumerated = [g for g in pool if g.num_labels != g.m]
    assert len(enumerated) == 80
    graphs += enumerated
    random_graphs = [random_instance(GeneratorParams(*params, seed=seed))
                     for params in (((2, 11), (0, 55), (1, 18)), ((8, 11), (30, 55), (12, 18)))
                     for seed in range(200)]
    graphs += random_graphs
    certs = [brute_force_connectivity(g, cap=g.num_labels) for g in graphs]
    assert certs == [_reference_brute(g) for g in graphs]
    sizes = {cert.size for cert in certs[-len(random_graphs):]}
    assert sizes == set(range(1, 8)), sizes
    assert max(g.num_labels for g in random_graphs) == 18


def _planted(seed, trees, cross):
    """Two halves of 7 vertices, each ``trees`` random spanning trees of one label
    apiece, joined by ``cross`` labels of 1-2 edges: those labels are the cut.
    Trees may share edges, so labels may run parallel."""
    rng = random.Random(seed)
    verts = list(range(14))
    rng.shuffle(verts)
    halves = [verts[:7], verts[7:]]
    edges = []
    for h, half in enumerate(halves):
        for t in range(trees):
            order = rng.sample(half, len(half))
            edges += [(order[rng.randrange(i)], order[i], h * trees + t) for i in range(1, len(order))]
    for c in range(cross):
        edges += [(rng.choice(halves[0]), rng.choice(halves[1]), 2 * trees + c)
                  for _ in range(rng.randint(1, 2))]
    return HedgeGraph(14, tuple(edges), tuple(f"l{lab}" for lab in range(2 * trees + cross)))


def test_enumeration_records_disjoint_spanning_sets_and_tests_fewer(monkeypatch):
    # a second pass without the subset and the labels that merged finds a disjoint
    # spanning set, so fewer subsets are tested; a set is recorded only when its pass
    # left one class, so each recorded set alone connects the graph
    g = _planted(4, trees=5, cross=4)
    passes, recorded = [], []
    join = connectivity._join

    def counted(n, forests, removed, order=None):
        result = join(n, forests, removed, order)
        passes.append((tuple(removed), result[1]))
        caller = sys._getframe(1).f_locals
        if "holds" in caller:
            recorded[:] = [sum(1 << lab for lab, bits in enumerate(caller["holds"]) if bits >> j & 1)
                           for j in range(caller["found"])]
        return result

    monkeypatch.setattr(connectivity, "_join", counted)
    ref = _reference_brute(g)
    ref_passes = len(passes)
    passes.clear()
    cert = brute_force_connectivity(g)
    assert cert == ref and cert.size == 4
    assert len(passes) < ref_passes, (len(passes), ref_passes)
    second = [parts for removed, parts in passes if removed == ()]
    assert 1 in second and any(parts > 1 for parts in second), second
    assert len(recorded) == sum(parts == 1 for _, parts in passes)
    for mask in recorded:
        others = [lab for lab in range(g.num_labels) if not mask >> lab & 1]
        assert is_connected(remove_hedges(g, others)), bin(mask)


def test_enumeration_computes_no_degree_bound(monkeypatch):
    # smallest subsets first, enumeration returns at depth lambda, at most the
    # minimum label degree, so no label-degree pass bounds its depth
    graphs = [build_graph(3, [(0, 1, "a"), (1, 2, "b"), (0, 2, "c")]), _planted(4, trees=5, cross=4)]
    refs = [_reference_brute(g) for g in graphs]
    sets = connectivity._vertex_label_sets
    calls = []
    monkeypatch.setattr(connectivity, "_vertex_label_sets", lambda *args: calls.append(args) or sets(*args))
    assert [brute_force_connectivity(g) for g in graphs] == refs
    assert [cert.size for cert in refs] == [2, 4] and calls == []


def test_enumeration_runs_no_second_pass_that_leaves_a_vertex_unlabelled(monkeypatch):
    # a search for a disjoint spanning set cannot succeed when a vertex keeps no label,
    # so every such pass that runs visits labels touching every vertex; the answers are
    # the reference's, which runs no such pass
    pool = [parse(inst["text"]) for inst in json.loads(EXACT_POOL.read_text(encoding="ascii"))["instances"]]
    graphs = [g for g in pool if g.num_labels != g.m]
    assert len(graphs) == 80
    graphs.append(_planted(4, trees=5, cross=4))
    refs = [_reference_brute(g) for g in graphs]
    second = []
    join = connectivity._join

    def counted(n, forests, removed, order=None):
        result = join(n, forests, removed, order)
        if removed == ():
            touched = {x for lab in order for pair in forests[lab] for x in pair}
            assert len(touched) == n, (n, sorted(touched))
            second.append(result[1])
        return result

    monkeypatch.setattr(connectivity, "_join", counted)
    assert [brute_force_connectivity(g) for g in graphs] == refs
    assert 1 in second and any(parts > 1 for parts in second), second


def _kept_component(g, labels):
    """Vertex 0's component once ``labels`` are removed, by a union-find of the test's own."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, lab in g.edges:
        if lab not in labels:
            parent[find(u)] = find(v)
    return frozenset(v for v in range(g.n) if find(v) == find(0))


def test_every_routes_sides_are_the_component_of_vertex_0(monkeypatch):
    # enumeration, the trials and the sweep each hand _certificate the partition
    # their cut leaves, and build no second union-find over the kept edges for it;
    # side_a is still vertex 0's component once the cut labels are removed
    pool = [parse(inst["text"]) for inst in json.loads(EXACT_POOL.read_text(encoding="ascii"))["instances"]]
    enumerated = [g for g in pool if g.num_labels != g.m]
    swept = [g for g in pool if g.num_labels == g.m] + singleton_label_graphs()
    assert len(enumerated) == 80 and len(swept) == 16 + 30
    # with vertex ids reversed, some sweeps leave vertex 1 outside side_a
    swept += [HedgeGraph(g.n, tuple((g.n - 1 - u, g.n - 1 - v, lab) for u, v, lab in g.edges), g.labels)
              for g in swept]
    oracle = [random_instance(GeneratorParams(*family, seed=1000 * f + seed))
              for f, family in enumerate(FAMILIES) for seed in range(40)]
    halves = [_two_halves(seed) for seed in range(20)]
    merges = []
    merge = connectivity._merge
    monkeypatch.setattr(connectivity, "_merge", lambda *args: merges.append(args) or merge(*args))
    routes = [("brute", g, lambda g: brute_force_connectivity(g, cap=g.num_labels), 0)
              for g in enumerated + oracle]
    routes += [(f"trials={trials}", g, lambda g, trials=trials: randomized_connectivity(g, trials, 3),
                trials == 0) for g in halves + oracle for trials in (0, 1, 8, None)]
    routes += [("one_trial", g, lambda g, seed=seed: randomized_contraction_cut(g, seed), 0)
               for g in halves + oracle for seed in range(8)]
    # one _merge call: the sweep's own class map, or _small_cut's certificate
    routes += [("sweep", g, ordinary_edge_min_cut, 1) for g in swept]
    split = dict.fromkeys((route for route, *_ in routes), 0)
    for route, g, call, merged in routes:
        merges.clear()
        cert = call(g)
        side_a = _kept_component(g, cert.labels)
        assert (cert.side_a, cert.side_b) == (side_a, frozenset(range(g.n)) - side_a), (route, g, cert)
        assert len(merges) == merged, (route, g, cert)
        split[route] += 1 not in side_a  # vertex 1's class would differ here
    assert min(split.values()) >= 5, split


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

    def test_one_connectivity_check_per_op(self, monkeypatch, c4alt, triangle, disconnected):
        # auto and the kernel it calls share one is_connected pass, and a disconnected
        # graph is still refused by every public kernel after a connected one passed
        calls = []
        monkeypatch.setattr(connectivity, "is_connected", lambda g: calls.append(g) or is_connected(g))
        for g, cap, method in ((c4alt, 20, "brute"), (triangle, 20, "fastpath"), (c4alt, 1, "randomized")):
            fresh = HedgeGraph(g.n, g.edges, g.labels)
            calls.clear()
            assert hedge_connectivity(fresh, cap=cap).method == method
            assert calls == [fresh]
        for kernel in (min_label_degree_bound, randomized_connectivity,
                       lambda g: randomized_contraction_cut(g, 0)):
            with pytest.raises(GraphError, match="connected graph"):
                kernel(disconnected)
        for kernel in (brute_force_connectivity, ordinary_edge_min_cut):
            assert kernel(disconnected).labels == frozenset()
        assert calls[-5:] == [disconnected] * 5

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

    @pytest.mark.parametrize("labels, side_a, side_b", [
        ({"a"}, {0}, {1, 2}), ({None}, {0}, {1, 2}), ({0, "1"}, {0}, {1, 2}), ({False}, {0}, {1, 2}),
        ({0.0}, {0}, {1, 2}), ({0}, {0}, {True, 2}), ({0}, {0.0}, {1, 2}), ({0}, {False}, {1, 2}),
        ({0}, {0}, {1, "2"}), ({0}, {0, None}, {1, 2}),
    ])
    def test_rejects_a_label_or_vertex_that_is_not_an_int(self, p3, labels, side_a, side_b):
        # a bool or float equals an int and a str or None does not compare with one: none is an id;
        # each case puts one such id into this valid cut, in place of an int or beside one
        assert validate_certificate(p3, CutCertificate(frozenset({0}), frozenset({0}), frozenset({1, 2}),
                                                       "brute", False))
        bad = CutCertificate(frozenset(labels), frozenset(side_a), frozenset(side_b), "brute", False)
        assert validate_certificate(p3, bad) is False

    @pytest.mark.parametrize("labels, side_a, side_b", [
        ([0], [0], [1, 2]), (None, frozenset({0}), frozenset({1, 2})), (frozenset({0}), None, {1, 2}),
        (frozenset({0}), (0,), frozenset({1, 2})), ({0}, {0}, [1, 2]),
    ])
    def test_rejects_a_part_that_is_not_a_set(self, p3, labels, side_a, side_b):
        # a list, tuple or None in place of a set answers False instead of raising TypeError
        assert validate_certificate(p3, CutCertificate({0}, {0}, {1, 2}, "brute", False))
        assert validate_certificate(p3, CutCertificate(labels, side_a, side_b, "brute", False)) is False


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
