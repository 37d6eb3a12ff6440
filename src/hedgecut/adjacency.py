"""Hedge adjacency structure and greedy relabeling.

Two hedges are adjacent when their vertex sets intersect.  The hedge
adjacency graph has one vertex per label and an edge per adjacent pair;
it is the tuple of its neighbor sets, indexed by label id, which both
colorings read (``_greedy_colors`` here, the audit's exact chromatic
number).  A relabeling is a proper coloring of that graph, so hedges
sharing a vertex always end up with distinct new labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import HedgeGraph, _vertex_label_sets


@dataclass(frozen=True, slots=True)
class Relabeling:
    """Proper coloring of the hedge adjacency graph; colors are new label ids."""

    colors: tuple[int, ...]
    num_colors: int


def adjacency_graph(g: HedgeGraph) -> tuple[frozenset[int], ...]:
    """Neighbor sets of the hedge adjacency graph (``[i]``: hedges adjacent to hedge i)."""
    return _adjacency_of(g.num_labels, _vertex_label_sets(g.n, g.edges))


def _adjacency_of(num_labels: int, sets: list[set[int]]) -> tuple[frozenset[int], ...]:
    """``adjacency_graph`` from the per-vertex label sets already built."""
    neighbors: list[set[int]] = [set() for _ in range(num_labels)]
    for incident in sets:
        for r in incident:
            neighbors[r] |= incident
    for r, ns in enumerate(neighbors):
        ns.discard(r)
    return tuple(frozenset(ns) for ns in neighbors)


def max_adjacency_degree(g: HedgeGraph) -> int:
    return max(map(len, adjacency_graph(g)), default=0)


def greedy_relabel(g: HedgeGraph) -> Relabeling:
    """Proper coloring of the hedge adjacency graph by greedy assignment.

    Hedges are processed in decreasing adjacency degree (ties by
    ascending label id); each takes the smallest color unused among its
    already-colored neighbors.  Uses at most max adjacency degree + 1
    colors.
    """
    return _greedy_colors(adjacency_graph(g))


def _greedy_colors(neighbors: tuple[frozenset[int], ...]) -> Relabeling:
    """``greedy_relabel``'s coloring of an adjacency graph already built."""
    ids = range(len(neighbors))
    colors: dict[int, int] = {}
    for i in sorted(ids, key=lambda i: (-len(neighbors[i]), i)):
        taken = {colors[j] for j in neighbors[i] if j in colors}
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    palette = tuple(colors[i] for i in ids)
    return Relabeling(palette, max(palette, default=-1) + 1)
