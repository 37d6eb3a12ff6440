"""Edge and hedge contraction with explicit loop rules.

Contracting an edge merges its endpoints; contracting a hedge collapses
each connected component of that hedge to a single vertex, deletes the
loops that carry the contracted label, and keeps loops of every other
label.  Clean-up merges same-label parallels and loops and returns just
the graph; it is never applied implicitly: the sequential rank/nullity
accounting is only exact when parallel edges survive contraction.

Every vertex map comes from ``graph._merge`` (classes numbered by minimum
original id) and ``graph._rebuild`` builds every result graph with labels
in id order, so results are deterministic values.  ``_contract`` and
``_contract_edge`` give each contraction as an edge list, which
``contract_hedge`` and ``contract_edge`` wrap and the audit reads; a
sequence builds no graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, GraphError, HedgeGraph, LabelRef, _by_label, _forest, _merge, _rebuild


@dataclass(frozen=True, slots=True)
class ContractionStep:
    """One hedge contraction inside a sequence.

    ``rank_consumed`` and ``nullity_consumed`` are the rank and nullity
    of the contracted hedge measured in the graph current at this step;
    ``vertex_map[v]`` is the post-step id of the pre-step vertex ``v``.
    """

    label: str
    rank_consumed: int
    nullity_consumed: int
    vertex_map: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ContractionTrace:
    steps: tuple[ContractionStep, ...]

    @property
    def total_rank_consumed(self) -> int:
        return sum(s.rank_consumed for s in self.steps)

    @property
    def total_nullity_consumed(self) -> int:
        return sum(s.nullity_consumed for s in self.steps)


def contract_edge(g: HedgeGraph, edge_index: int) -> tuple[HedgeGraph, int]:
    """Contract one edge; return the new graph and the merged vertex id.

    The contracted edge is removed; every other edge is kept with its
    endpoints remapped, so parallel edges and loops may appear.  Loops
    cannot be contracted.
    """
    if type(edge_index) is not int or not (0 <= edge_index < g.m):  # a bool is no index
        raise GraphError(f"edge index {edge_index!r} out of range")
    u, v, _ = g.edges[edge_index]
    if u == v:
        raise GraphError(f"cannot contract the loop at vertex {u}")
    return _rebuild(*_contract_edge(g, edge_index), g.labels), min(u, v)


def _contract_edge(g: HedgeGraph, index: int) -> tuple[int, list[Edge]]:
    """Vertex count and edges of ``g`` with non-loop edge ``index`` contracted into ``min(u, v)``."""
    vmap = _merge(g.n, [g.edges[index][:2]])
    return g.n - 1, [(vmap[a], vmap[b], lab) for i, (a, b, lab) in enumerate(g.edges) if i != index]


def contract_hedge(g: HedgeGraph, label: LabelRef) -> HedgeGraph:
    """Contract every edge of one hedge.

    Each component of the hedge collapses to its minimum vertex id; all
    edges of the contracted label disappear (contracted or deleted as
    loops), loops of other labels are kept, and the label is dropped
    from the label set.  No clean-up is applied.
    """
    return _rebuild(*_contract(g, g.label_id(label)), g.labels)


def _contract(g: HedgeGraph, lab: int) -> tuple[int, list[Edge]]:
    """Vertex count and edges of ``g`` with hedge ``lab`` contracted, in ``g``'s label ids."""
    vmap = _merge(g.n, [(u, v) for u, v, e_lab in g.edges if e_lab == lab])
    return max(vmap) + 1, [(vmap[u], vmap[v], e_lab) for u, v, e_lab in g.edges if e_lab != lab]


def cleanup(g: HedgeGraph) -> HedgeGraph:
    """Merge same-label parallel edges and same-label loops.

    The first edge of each (vertex pair, label) class is kept in place and
    later duplicates are dropped, so ``g.m - cleanup(g).m`` counts them.
    Returns ``g`` itself when nothing merges.  Idempotent.
    """
    seen: set[tuple[int, int, int]] = set()
    kept: list[tuple[int, int, int]] = []
    for u, v, lab in g.edges:
        key = (u, v, lab) if u <= v else (v, u, lab)
        if key not in seen:
            seen.add(key)
            kept.append((u, v, lab))
    return g if len(kept) == g.m else _rebuild(g.n, kept, g.labels)


def contraction_sequence(g: HedgeGraph, order: Sequence[LabelRef]) -> ContractionTrace:
    """Contract every hedge of ``g`` in the given order.

    ``order`` must be a permutation of the label set (names or dense ids
    of ``g``).  Edges are grouped by label once and never cleaned up.  A
    hedge's rank is the merges its pairs cause in the current graph
    (``_forest``), its nullity the rest; they telescope to the rank and
    nullity of ``g`` only if ``_forest`` and ``_merge`` agree at every step.
    """
    ids = [g.label_id(ref) for ref in order]
    if sorted(ids) != list(range(g.num_labels)):
        raise GraphError("order must be a permutation of the label set")
    by_label = _by_label(g)
    n = g.n
    current = list(range(n))  # original vertex -> its id in the current graph
    steps: list[ContractionStep] = []
    for lab in ids:
        pairs = [(current[u], current[v]) for u, v in by_label[lab]]
        vmap = _merge(n, pairs)
        rank = len(_forest(pairs))
        steps.append(ContractionStep(g.labels[lab], rank, len(pairs) - rank, vmap))
        n = max(vmap) + 1
        current = [vmap[x] for x in current]
    return ContractionTrace(tuple(steps))
