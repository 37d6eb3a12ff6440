"""Edge and hedge contraction with explicit loop rules.

Contracting an edge merges its endpoints; contracting a hedge collapses
each connected component of that hedge to a single vertex, deletes the
loops that carry the contracted label, and keeps loops of every other
label.  Clean-up (merging same-label parallels and same-label loops) is
a separate step, never applied implicitly: the sequential rank/nullity
accounting is only exact when parallel edges survive contraction.

One renumbering (``_renumber``) gives each merged vertex the minimum
original id of its component and re-densifies the survivors in order, so
all results are deterministic values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import (
    GraphError,
    HedgeGraph,
    LabelRef,
    _drop_labels,
    _join,
    _root,
)


@dataclass(frozen=True, slots=True)
class CleanupReport:
    """Edge counts removed by one clean-up pass."""

    merged_parallel: int
    merged_loops: int


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
    final_graph: HedgeGraph

    @property
    def total_rank_consumed(self) -> int:
        return sum(s.rank_consumed for s in self.steps)

    @property
    def total_nullity_consumed(self) -> int:
        return sum(s.nullity_consumed for s in self.steps)


def _renumber(class_of: Sequence[int]) -> tuple[int, ...]:
    """Old-to-new vertex map: merged classes numbered by minimum member, ascending."""
    new_id: dict[int, int] = {}  # an ascending scan meets each class first at its minimum
    return tuple(new_id.setdefault(c, len(new_id)) for c in class_of)


def _compact(g: HedgeGraph, class_of: Sequence[int], drop_edge_label: int | None,
             skip_edge: int | None = None) -> tuple[HedgeGraph, tuple[int, ...]]:
    """Rebuild ``g`` after merging the vertex classes ``class_of`` names.

    Edges keep stored order; edges carrying ``drop_edge_label`` and the
    edge at index ``skip_edge`` are removed, and any label left without
    edges is dropped from the label set.  Returns the new graph and the
    old-to-new vertex map (see ``_renumber``).
    """
    vmap = _renumber(class_of)
    kept: list[tuple[int, int, int]] = []
    for idx, (u, v, lab) in enumerate(g.edges):
        if idx == skip_edge or lab == drop_edge_label:
            continue
        kept.append((vmap[u], vmap[v], lab))
    used = {lab for _, _, lab in kept}
    dropped = set(range(g.num_labels)) - used
    edges, labels = _drop_labels(kept, g.labels, dropped)
    return HedgeGraph(max(vmap) + 1, edges, labels), vmap


def contract_edge(g: HedgeGraph, edge_index: int) -> tuple[HedgeGraph, int]:
    """Contract one edge; return the new graph and the merged vertex id.

    The contracted edge is removed; every other edge is kept with its
    endpoints remapped, so parallel edges and loops may appear.  Loops
    cannot be contracted.
    """
    if not (0 <= edge_index < g.m):
        raise GraphError(f"edge index {edge_index} out of range")
    u, v, _ = g.edges[edge_index]
    if u == v:
        raise GraphError(f"cannot contract the loop at vertex {u}")
    class_of = list(range(g.n))
    class_of[max(u, v)] = min(u, v)
    out, vmap = _compact(g, class_of, None, skip_edge=edge_index)
    return out, vmap[u]


def contract_hedge(g: HedgeGraph, label: LabelRef) -> HedgeGraph:
    """Contract every edge of one hedge.

    Each component of the hedge collapses to its minimum vertex id; all
    edges of the contracted label disappear (contracted or deleted as
    loops), loops of other labels are kept, and the label is dropped
    from the label set.  No clean-up is applied.
    """
    lab = g.label_id(label)
    parent, _, _ = _join(g.n, [[(u, v) for u, v, e_lab in g.edges if e_lab == lab]], ())
    return _compact(g, [_root(parent, v) for v in range(g.n)], lab)[0]


def cleanup(g: HedgeGraph) -> tuple[HedgeGraph, CleanupReport]:
    """Merge same-label parallel edges and same-label loops.

    The first edge of each (vertex pair, label) class is kept in place;
    later duplicates are dropped and counted.  Idempotent.
    """
    seen: set[tuple[int, int, int]] = set()
    kept: list[tuple[int, int, int]] = []
    merged_parallel = 0
    merged_loops = 0
    for u, v, lab in g.edges:
        key = (u, v, lab) if u <= v else (v, u, lab)
        if key in seen:
            if u == v:
                merged_loops += 1
            else:
                merged_parallel += 1
            continue
        seen.add(key)
        kept.append((u, v, lab))
    report = CleanupReport(merged_parallel, merged_loops)
    if not merged_parallel and not merged_loops:
        return g, report
    return HedgeGraph(g.n, tuple(kept), g.labels), report


def contraction_sequence(g: HedgeGraph, order: Sequence[LabelRef]) -> ContractionTrace:
    """Contract every hedge of ``g`` in the given order.

    ``order`` must be a permutation of the label set (names or dense ids
    of ``g``).  Steps run on a flat edge list, never cleaned up: a hedge's
    rank is the step's drop in vertex count, its nullity the rest of its
    edges, and they telescope to the rank and nullity of ``g``.
    """
    ids = [g.label_id(ref) for ref in order]
    if sorted(ids) != list(range(g.num_labels)):
        raise GraphError("order must be a permutation of the label set")
    n, edges = g.n, g.edges  # label ids stay those of g
    steps: list[ContractionStep] = []
    for lab in ids:
        pairs = [(u, v) for u, v, e_lab in edges if e_lab == lab]
        parent, parts, _ = _join(n, [pairs], ())
        vmap = _renumber([_root(parent, v) for v in range(n)])
        rank = n - parts
        steps.append(ContractionStep(g.labels[lab], rank, len(pairs) - rank, vmap))
        n = parts
        edges = [(vmap[u], vmap[v], e_lab) for u, v, e_lab in edges if e_lab != lab]
    return ContractionTrace(tuple(steps), HedgeGraph(n, (), ()))  # no label is left
