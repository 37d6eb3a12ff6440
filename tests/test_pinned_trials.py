"""Pinned seed-to-certificate mapping of the randomized contraction trials.

The expected (cut labels, side_a, side_b) triples were recorded from the
graph-rebuilding implementation of the trial loop (one ``hedge_view`` per
label and one ``contract_hedge`` per step).  Any change to the draw
sequence, the safe-hedge rule or the side convention shows up here.
"""

import itertools

import pytest

from conftest import fixture_text
from hedgecut import (
    GeneratorParams,
    build_graph,
    mix,
    parse,
    random_instance,
    randomized_connectivity,
    randomized_contraction_cut,
    validate_certificate,
)

A = ("a",)
B = ("b",)

# fixture file -> one (cut labels, side_a, side_b) per trial seed 0..7
FIXTURE_TRIALS = {
    "c4alt.hg": [
        (A, (0, 3), (1, 2)),
        (A, (0, 3), (1, 2)),
        (B, (0, 1), (2, 3)),
        (A, (0, 3), (1, 2)),
        (B, (0, 1), (2, 3)),
        (B, (0, 1), (2, 3)),
        (B, (0, 1), (2, 3)),
        (A, (0, 3), (1, 2)),
    ],
    "p3.hg": [
        (A, (0,), (1, 2)),
        (A, (0,), (1, 2)),
        (B, (0, 1), (2,)),
        (A, (0,), (1, 2)),
        (B, (0, 1), (2,)),
        (B, (0, 1), (2,)),
        (B, (0, 1), (2,)),
        (A, (0,), (1, 2)),
    ],
    "pendants.hg": [
        (A, (0, 1, 2, 4, 5), (3,)),
        (("c",), (0, 1, 2, 3, 4), (5,)),
        (("i",), (0, 3), (1, 2, 4, 5)),
        (B, (0, 1, 2, 3, 5), (4,)),
        (("i",), (0, 3), (1, 2, 4, 5)),
        (("i",), (0, 3), (1, 2, 4, 5)),
        (B, (0, 1, 2, 3, 5), (4,)),
        (B, (0, 1, 2, 3, 5), (4,)),
    ],
    "spider.hg": [
        (("a1",), (0, 1, 2, 3, 5, 6), (4,)),
        (("a3",), (0, 1, 2, 3, 4, 5), (6,)),
        (B, (0,), (1, 2, 3, 4, 5, 6)),
        (("a2",), (0, 1, 2, 3, 4, 6), (5,)),
        (B, (0,), (1, 2, 3, 4, 5, 6)),
        (B, (0,), (1, 2, 3, 4, 5, 6)),
        (("a2",), (0, 1, 2, 3, 4, 6), (5,)),
        (("a2",), (0, 1, 2, 3, 4, 6), (5,)),
    ],
    "triangle3.hg": [
        (("a", "c"), (0,), (1, 2)),
        (("a", "b"), (0, 2), (1,)),
        (("a", "c"), (0,), (1, 2)),
        (("b", "c"), (0, 1), (2,)),
        (("a", "c"), (0,), (1, 2)),
        (("a", "b"), (0, 2), (1,)),
        (("a", "b"), (0, 2), (1,)),
        (("b", "c"), (0, 1), (2,)),
    ],
    "twoi.hg": [
        (B, (0, 1, 2, 3), (4,)),
        (("i",), (0, 3), (1, 2, 4)),
        (B, (0, 1, 2, 3), (4,)),
        (A, (0, 1, 2, 4), (3,)),
        (B, (0, 1, 2, 3), (4,)),
        (A, (0, 1, 2, 4), (3,)),
        (("i",), (0, 3), (1, 2, 4)),
        (B, (0, 1, 2, 3), (4,)),
    ],
}


def _triple(g, cert):
    return (tuple(sorted(g.labels[i] for i in cert.labels)),
            tuple(sorted(cert.side_a)), tuple(sorted(cert.side_b)))


@pytest.mark.parametrize("name", sorted(FIXTURE_TRIALS))
def test_fixture_trials(name):
    g = parse(fixture_text(name))
    got = [_triple(g, randomized_contraction_cut(g, seed)) for seed in range(8)]
    assert got == FIXTURE_TRIALS[name]


# Trials that, at some step, draw a hedge whose edges have all become
# loops (rank 0).  Such a hedge must stay selectable: dropping it from the
# safe list shifts every later draw.  The last two end in a different cut
# when rank-0 hedges are dropped; the first two happen to end in the same.
RANK_ZERO_TRIALS = [
    (12, 0, (9, 6), ("l1", "l2", "l6"), (0, 2, 3, 4, 5), (1,)),
    (13, 2, (7, 10), ("l6",), (0, 2, 3, 4, 5, 6, 7, 8, 9), (1,)),
    (17, 1, (9, 6), ("l2", "l3", "l7"), (0, 1, 2, 3, 4), (5,)),
    (40, 0, (9, 13), ("l1", "l2", "l4", "l6"), (0, 1, 2, 3, 4, 5, 7, 8, 9, 11), (6, 10, 12)),
]


@pytest.mark.parametrize("seed, t, shape, labels, side_a, side_b", RANK_ZERO_TRIALS)
def test_rank_zero_pick(seed, t, shape, labels, side_a, side_b):
    g = random_instance(GeneratorParams((3, 14), (0, 12), (1, 9), seed=seed))
    assert (g.num_labels, g.n) == shape
    cert = randomized_contraction_cut(g, mix(seed, t))
    assert _triple(g, cert) == (labels, side_a, side_b)


def _two_cliques():
    """Two K6 halves (10 labels each) joined by three singleton hedges."""
    edges = []
    for half, prefix in ((0, "A"), (6, "B")):
        for i, (u, v) in enumerate(itertools.combinations(range(6), 2)):
            edges.append((half + u, half + v, f"{prefix}{i % 10}"))
    edges += [(0, 6, "X0"), (2, 8, "X1"), (4, 10, "X2")]
    return build_graph(12, edges)


def test_best_of_trials_over_twenty_labels():
    g = _two_cliques()
    assert g.num_labels == 23
    # trial sizes are 5, 4, 5, 4, 4, 6: the earliest size-4 trial wins
    cert = randomized_connectivity(g, trials=6, base_seed=5)
    assert _triple(g, cert) == (("A1", "A3", "A4", "A8"),
                                (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11), (5,))
    assert cert.method == "randomized" and not cert.exact
    assert validate_certificate(g, cert)
