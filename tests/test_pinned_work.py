"""Pinned work: exact call counts of the kernels on fixed corpora.

Wall-clock medians on a shared machine spread widely between runs; work
counts repeat exactly.  Each test wraps module globals, runs a kernel over a
committed or seeded corpus and compares the calls it made with a pinned
value, so a change that adds or drops work fails here even when every answer
stays the same.  A change that alters a count on purpose updates the value
and states the new count and its reason.
"""

import json
import random
from collections import Counter
from pathlib import Path

import hedgecut.audit
from conftest import singleton_label_graphs
from hedgecut import HedgeGraph, TheoremId, audit_theorem, connectivity, graph, hedge_connectivity, parse

DATA = Path(__file__).parent.parent / "bench" / "data"


def _bench_graphs(workload):
    with open(DATA / f"{workload}.json", encoding="ascii") as f:
        return [parse(inst["text"]) for inst in json.load(f)["instances"]]


def _count(monkeypatch, calls, module, name, key=None):
    """Wrap ``module.name`` so that each call adds one to ``calls[key]`` (default ``name``)."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key or name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_union_find_passes_over_the_exact_corpus(monkeypatch):
    # enumeration's subset tests and spanning-set searches, the small cut's
    # confirming pass and the connectivity checks, over 96 committed instances
    graphs = _bench_graphs("exact")
    calls = Counter()
    _count(monkeypatch, calls, graph, "_join", "passes")
    _count(monkeypatch, calls, connectivity, "_join", "passes")
    for g in graphs:
        hedge_connectivity(g)
    assert len(graphs) == 96
    assert calls == {"passes": 2246}


def test_audit_work_over_the_audit_corpus(monkeypatch):
    # every claim on one graph object per instance shares one _Facts, which
    # contracts each hedge, edge and order at most once per mode
    graphs = _bench_graphs("audit")
    calls = Counter()
    for name in ("_Facts", "_contract", "_contract_edge", "contraction_sequence"):
        _count(monkeypatch, calls, hedgecut.audit, name)
    for g in graphs:
        for theorem in TheoremId:
            audit_theorem(theorem, g)
    assert len(graphs) == 240
    assert calls == {"_Facts": 240, "_contract": 1193, "_contract_edge": 1517, "contraction_sequence": 686}


def test_sweep_heap_pops_over_the_singleton_graphs(monkeypatch):
    # the min-cut sweep runs only where the small cut proves too little, and
    # stops at the first phase that cuts at the proven bound
    calls = Counter()
    _count(monkeypatch, calls, connectivity.heapq, "heappop")
    for g in singleton_label_graphs():
        hedge_connectivity(g)
    assert calls == {"heappop": 330}


def _planted(seed):
    """Two halves of 10-20 vertices, each 5 random spanning trees split into 2 labels,
    joined by 1-4 cross labels of 1-3 edges: 21-24 labels, above the enumeration cap,
    so hedge_connectivity runs contraction trials.  Trees may share edges."""
    rng = random.Random(seed)
    sizes = (rng.randint(10, 20), rng.randint(10, 20))
    verts = list(range(sum(sizes)))
    rng.shuffle(verts)
    halves = [verts[:sizes[0]], verts[sizes[0]:]]
    edges = []
    for h, half in enumerate(halves):
        for t in range(5):
            order = rng.sample(half, len(half))
            for i in range(1, len(order)):
                edges.append((order[rng.randrange(i)], order[i], 10 * h + 2 * t + i % 2))
    cross = 1 + seed % 4
    for c in range(cross):
        for _ in range(rng.randint(1, 3)):
            edges.append((rng.choice(halves[0]), rng.choice(halves[1]), 20 + c))
    return HedgeGraph(len(verts), tuple(edges), tuple(f"l{lab}" for lab in range(20 + cross)))


def test_trial_work_over_a_planted_family(monkeypatch):
    # the packing's passes, the trials' forests and the trials that run before
    # the loop stops, at 8 trials per graph
    graphs = [_planted(seed) for seed in range(24)]
    calls = Counter()
    for name in ("_join", "_forest", "_contraction_trial"):
        _count(monkeypatch, calls, connectivity, name)
    certs = [hedge_connectivity(g, trials=8, base_seed=seed) for seed, g in enumerate(graphs)]
    assert {cert.method for cert in certs} == {"randomized"}
    assert calls == {"_join": 141, "_forest": 1162, "_contraction_trial": 99}
