"""Hedge adjacency structure and greedy relabeling.

Two hedges are adjacent when their vertex sets intersect.  The hedge
adjacency graph has one vertex per label and an edge per adjacent pair;
a relabeling is a proper coloring of that graph, so hedges sharing a
vertex always end up with distinct new labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import HedgeGraph, _vertex_label_sets


@dataclass(frozen=True, slots=True)
class HedgeAdjacencyGraph:
    """Simple graph over label ids; ``neighbors[i]`` is the set adjacent to hedge i."""

    labels: tuple[str, ...]
    neighbors: tuple[frozenset[int], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((r, t) for r in range(len(self.labels))
                     for t in sorted(self.neighbors[r]) if r < t)

    def degree(self, label_id: int) -> int:
        return len(self.neighbors[label_id])


@dataclass(frozen=True, slots=True)
class Relabeling:
    """Proper coloring of the hedge adjacency graph; colors are new label ids."""

    colors: tuple[int, ...]
    num_colors: int


def adjacency_graph(g: HedgeGraph) -> HedgeAdjacencyGraph:
    """Build the hedge adjacency graph from per-vertex incident label sets."""
    neighbors: list[set[int]] = [set() for _ in range(g.num_labels)]
    for incident in _vertex_label_sets(g):
        for r in incident:
            neighbors[r] |= incident
    for r, ns in enumerate(neighbors):
        ns.discard(r)
    return HedgeAdjacencyGraph(g.labels, tuple(frozenset(ns) for ns in neighbors))


def max_adjacency_degree(g: HedgeGraph) -> int:
    adj = adjacency_graph(g)
    return max((adj.degree(i) for i in range(g.num_labels)), default=0)


def greedy_relabel(g: HedgeGraph) -> Relabeling:
    """Proper coloring of the hedge adjacency graph by greedy assignment.

    Hedges are processed in decreasing adjacency degree (ties by
    ascending label id); each takes the smallest color unused among its
    already-colored neighbors.  Uses at most max adjacency degree + 1
    colors.
    """
    return _greedy_colors(adjacency_graph(g))


def _greedy_colors(adj: HedgeAdjacencyGraph) -> Relabeling:
    """``greedy_relabel``'s coloring of an adjacency graph already built."""
    ids = list(range(len(adj.labels)))
    colors: dict[int, int] = {}
    for i in sorted(ids, key=lambda i: (-adj.degree(i), i)):
        taken = {colors[j] for j in adj.neighbors[i] if j in colors}
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    palette = tuple(colors[i] for i in ids)
    return Relabeling(palette, max(palette, default=-1) + 1)
