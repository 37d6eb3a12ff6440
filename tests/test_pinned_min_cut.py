"""Pinned tie-breaking of the singleton-hedge min cut.

The expected (cut label names, side_a) pairs were recorded from the
n x n matrix implementation of ``ordinary_edge_min_cut`` on the seeded
graphs of ``conftest.singleton_label_graphs``: simple graphs, then
``contract_edge`` results with parallel edges, then results with a loop.
Any change to the sweep's tie-breaking, the choice among equal phase
cuts or the side convention shows up here.
"""

import pytest

from conftest import singleton_label_graphs
from hedgecut import ordinary_edge_min_cut, validate_certificate

GRAPHS = singleton_label_graphs()

# seed -> (cut label names, side_a)
EXPECTED = [
    (("e17",), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    (("e10", "e12", "e8"), (0, 1, 2, 3, 4, 6)),
    (("e4", "e7"), (0, 1, 2, 4)),
    (("e1",), (0, 1, 2, 3, 4, 5, 7)),
    (("e3",), (0, 1, 2, 3, 4, 5, 6)),
    (("e24", "e4"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13)),
    (("e4",), (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (("e5",), (0, 1, 2, 3, 4, 5, 6, 8, 9)),
    (("e2",), (0, 1, 2, 3, 4, 6, 7)),
    (("e10",), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11)),
    (("e23", "e25"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)),
    (("e5",), (0, 1, 2, 3, 4, 6, 7, 8, 9, 10)),
    (("e17", "e4"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    (("e10",), (0, 1, 2, 3, 4, 5, 6)),
    (("e4",), (0, 1, 2, 3)),
    (("e14", "e15"), (0, 1, 2, 3, 4, 5)),
    (("e13",), (0, 1, 2, 3, 4, 5, 6, 8)),
    (("e25", "e9"), (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11)),
    (("e4", "e8"), (0, 1, 2, 4, 5)),
    (("e20", "e6"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13)),
    (("e12", "e21", "e22"), (0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (("e11", "e6"), (0, 1, 2, 3)),
    (("e6",), (0, 1, 2, 3)),
    (("e12",), (0, 1, 2, 3, 4, 5)),
    (("e25", "e33"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13)),
    (("e16", "e6"), (0, 1, 2, 3, 4, 5, 6, 7)),
    (("e21",), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)),
    (("e16", "e30"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (("e5",), (0, 1, 2)),
    (("e14", "e25", "e3"), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
]


def test_inputs_cover_parallels_and_loops():
    def has_parallel(g):
        pairs = [(min(u, v), max(u, v)) for u, v, _ in g.edges if u != v]
        return len(set(pairs)) < len(pairs)

    assert len(GRAPHS) == len(EXPECTED) == 30
    assert all(g.num_labels == g.m for g in GRAPHS)
    assert all(has_parallel(g) for g in GRAPHS[10:20])
    assert all(any(u == v for u, v, _ in g.edges) for g in GRAPHS[20:])


@pytest.mark.parametrize("seed", range(30))
def test_min_cut_pinned(seed):
    g = GRAPHS[seed]
    cert = ordinary_edge_min_cut(g)
    labels, side_a = EXPECTED[seed]
    assert tuple(sorted(g.labels[lab] for lab in cert.labels)) == labels
    assert tuple(sorted(cert.side_a)) == side_a
    assert cert.side_b == frozenset(range(g.n)) - cert.side_a
    assert (cert.method, cert.exact) == ("fastpath", True)
    assert validate_certificate(g, cert)
