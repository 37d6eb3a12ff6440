"""Edge and hedge contraction with explicit loop rules.

Contracting an edge merges its endpoints; contracting a hedge collapses
each connected component of that hedge to a single vertex, deletes the
loops that carry the contracted label, and keeps loops of every other
label.  Clean-up (merging same-label parallels and same-label loops) is
a separate step, never applied implicitly: the sequential rank/nullity
accounting is only exact when parallel edges survive contraction.

Merged vertices take the minimum original id of their component, and
vertex ids are re-densified afterward (survivors keep their relative
order), so all results are deterministic values.
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
    hedge_view,
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


def _compact(g: HedgeGraph, class_of: Sequence[int], drop_edge_label: int | None,
             skip_edge: int | None = None) -> tuple[HedgeGraph, tuple[int, ...]]:
    """Rebuild ``g`` after merging vertex classes.

    ``class_of[v]`` names the merge class of vertex ``v``; each class is
    renamed to its minimum member, then survivors are re-densified in
    ascending old-id order.  Edges keep stored order; edges carrying
    ``drop_edge_label`` and the edge at index ``skip_edge`` are removed,
    and any label left without edges is dropped from the label set.
    Returns the new graph and the old-to-new vertex map.
    """
    rep: dict[int, int] = {}
    for v in range(g.n):  # ascending, so the first member seen is the minimum
        rep.setdefault(class_of[v], v)
    survivors = sorted(rep.values())
    dense = {old: new for new, old in enumerate(survivors)}
    vmap = tuple(dense[rep[class_of[v]]] for v in range(g.n))

    kept: list[tuple[int, int, int]] = []
    for idx, (u, v, lab) in enumerate(g.edges):
        if idx == skip_edge or lab == drop_edge_label:
            continue
        kept.append((vmap[u], vmap[v], lab))
    used = {lab for _, _, lab in kept}
    dropped = set(range(g.num_labels)) - used
    edges, labels = _drop_labels(kept, g.labels, dropped)
    return HedgeGraph(len(survivors), edges, labels), vmap


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


def _contract_hedge_mapped(g: HedgeGraph, label: LabelRef) -> tuple[HedgeGraph, tuple[int, ...]]:
    lab = g.label_id(label)
    parent, _, _ = _join(g.n, [[(u, v) for u, v, e_lab in g.edges if e_lab == lab]], ())
    class_of = [_root(parent, v) for v in range(g.n)]
    return _compact(g, class_of, lab)


def contract_hedge(g: HedgeGraph, label: LabelRef) -> HedgeGraph:
    """Contract every edge of one hedge.

    Each component of the hedge collapses to its minimum vertex id; all
    edges of the contracted label disappear (contracted or deleted as
    loops), loops of other labels are kept, and the label is dropped
    from the label set.  No clean-up is applied.
    """
    return _contract_hedge_mapped(g, label)[0]


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


def contraction_sequence(g: HedgeGraph, order: Sequence[LabelRef],
                         apply_cleanup: bool = False) -> ContractionTrace:
    """Contract every hedge of ``g`` in the given order.

    ``order`` must be a permutation of the label set (names or dense ids
    of ``g``).  Each step records the rank and nullity of its hedge
    measured immediately before contracting it; with ``apply_cleanup``
    off these telescope to the rank and nullity of ``g`` itself.
    Clean-up, when requested, runs between steps.
    """
    names = [g.label_name(g.label_id(ref)) for ref in order]
    if sorted(names) != sorted(g.labels):
        raise GraphError("order must be a permutation of the label set")
    current = g
    steps: list[ContractionStep] = []
    for name in names:
        view = hedge_view(current, name)
        nxt, vmap = _contract_hedge_mapped(current, name)
        steps.append(ContractionStep(name, view.rank, view.nullity, vmap))
        current = nxt
        if apply_cleanup:
            current, _ = cleanup(current)
    return ContractionTrace(tuple(steps), current)
