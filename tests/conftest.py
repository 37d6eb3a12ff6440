import random
from pathlib import Path

import pytest

from hedgecut import HedgeGraph, build_graph, contract_edge

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="ascii")


def singleton_label_graphs() -> list[HedgeGraph]:
    """30 seeded connected graphs in which every label has exactly one edge.

    Seeds 0-9 are simple graphs; seeds 10-19 are ``contract_edge`` results
    with parallel edges (an edge of a triangle contracted); seeds 20-29
    contract one edge of a parallel pair of such a result, leaving a loop.
    """
    graphs = []
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(5, 16)
        pairs = {(rng.randrange(v), v) for v in range(1, n)}  # a random tree
        for _ in range(rng.randint(n // 2, 2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            pairs.add((u, v))
        g = build_graph(n, [(u, v, f"e{i}") for i, (u, v) in enumerate(sorted(pairs))])
        if seed >= 10:  # contract an edge whose ends share a neighbour
            nbrs = [set() for _ in range(g.n)]
            for u, v, _ in g.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            g = contract_edge(g, rng.choice(
                [i for i, (u, v, _) in enumerate(g.edges) if nbrs[u] & nbrs[v]]))[0]
        if seed >= 20:  # contract one edge of a parallel pair
            seen = {}
            twins = [i for i, (u, v, _) in enumerate(g.edges)
                     if seen.setdefault((min(u, v), max(u, v)), i) != i]
            g = contract_edge(g, rng.choice(twins))[0]
        graphs.append(g)
    return graphs


@pytest.fixture
def c4alt() -> HedgeGraph:
    # 4-cycle with alternating labels; hedge a = two opposite edges
    return build_graph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "a"), (3, 0, "b")])


@pytest.fixture
def triangle() -> HedgeGraph:
    return build_graph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])


@pytest.fixture
def p3() -> HedgeGraph:
    return build_graph(3, [(0, 1, "a"), (1, 2, "b")])


@pytest.fixture
def spider() -> HedgeGraph:
    # center 0, three b-spokes, pendant a_k legs; d_A(b)=3 but 2 colors suffice
    return build_graph(7, [(0, 1, "b"), (0, 2, "b"), (0, 3, "b"),
                           (1, 4, "a1"), (2, 5, "a2"), (3, 6, "a3")])


@pytest.fixture
def twoi() -> HedgeGraph:
    # label i occurs on two edges at vertex 0
    return build_graph(5, [(0, 1, "i"), (0, 2, "i"), (0, 3, "a"), (1, 4, "b")])


@pytest.fixture
def pendants() -> HedgeGraph:
    # i-path 0-1-2 with one pendant per path vertex
    return build_graph(6, [(0, 1, "i"), (1, 2, "i"), (0, 3, "a"), (1, 4, "b"), (2, 5, "c")])


@pytest.fixture
def single_label_path() -> HedgeGraph:
    return build_graph(4, [(0, 1, "s"), (1, 2, "s"), (2, 3, "s")])
