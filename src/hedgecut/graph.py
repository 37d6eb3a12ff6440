"""Labeled multigraph core: hedge views, ranks, label degrees, hedge removal.

A hedge graph is an undirected graph whose edges carry exactly one label
each; the edges sharing a label form a *hedge* and fail together (the
networking analogue is a shared-risk link group).  Freshly built graphs
must be simple; graphs produced by operations (contraction, removal) may
contain loops and parallel edges.

Each input rule has one home: ``HedgeGraph`` checks what every graph
obeys (n an int >= 1, endpoints and label ids ints in range, every label
used, label names unique nonempty strings with no whitespace or ``#``),
``build_graph`` only the simple-input rules, and ``hgformat.parse`` only
the HG1 syntax.

Two merge routines serve the whole package: ``_forest`` keeps a spanning
forest of a sparse pair set and gives every rank; ``_join`` is the one
union-find over all vertices 0..n-1 (connectivity and subset tests), and
``_classes``, the one reader of its parent lists, gives an enumeration
cut's sides and, in ``_merge``, every contraction's vertex map and the
sides of the cuts no kernel partition comes with.  Only a contraction
trial relinks its own class lists (``_root`` slowed it by a quarter),
whose final classes are its cut's sides.  ``_by_label`` is
the one grouping of edges by label (all views, forests, sequences),
``_vertex_label_sets`` the one label-degree count, of any edge list.
``build_graph`` builds every input graph, ``_rebuild`` every derived one,
and nothing else constructs a ``HedgeGraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Union

Edge = tuple[int, int, int]  # (u, v, label id)
LabelRef = Union[int, str]
Forests = list[list[tuple[int, int]]]  # label id -> (u, v) pairs, usually a spanning forest
# most vertices an HG1 header or a generator range may ask for: every command
# keeps a few hundred bytes per vertex, whether or not the vertex has an edge
_MAX_VERTICES = 1_000_000


class GraphError(ValueError):
    """Invalid graph input or an operation applied outside its domain.

    ``edge`` is the index of the offending edge when one edge breaks a
    rule (endpoint or label id out of range, loop, repeated pair), else None.
    """

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


def _bad_label(name: object) -> GraphError:
    return GraphError(f"label name {name!r} must be a nonempty token without whitespace or '#'")


@dataclass(frozen=True, slots=True)
class HedgeGraph:
    """Immutable hedge graph value.

    Vertices are dense ids ``0..n-1`` and labels are dense ids
    ``0..len(labels)-1`` (``labels[i]`` is the original label string).
    Contraction keeps no record of the vertices a merged vertex stands
    for: every rank and nullity is a count of merges (see ``_forest``).
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n, k, edges = self.n, len(self.labels), self.edges
        if type(n) is not int or n < 1:  # a bool is no count, endpoint or label id either
            raise GraphError(f"vertex count must be an int of at least 1, not {n!r}")
        for i, (u, v, lab) in enumerate(edges):  # not edges.index: (0, 1.0, 0) == (0, 1, 0)
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u!r}, {v!r})", i)
            if not (type(lab) is int and 0 <= lab < k):
                raise GraphError(f"edge label id out of range: {lab!r}", i)
        if len({lab for _, _, lab in edges}) != k:
            raise GraphError("every label must appear on at least one edge")
        for name in self.labels:
            # str.split() splits at exactly the characters str.isspace() accepts; HG1 reads "#" as a comment
            if not (isinstance(name, str) and name.split() == [name] and "#" not in name):
                raise _bad_label(name)
        if len(set(self.labels)) != k:
            raise GraphError("label names must be unique")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def label_id(self, label: LabelRef) -> int:
        """Resolve a label given as dense id (an ``int``, not a ``bool``) or original string."""
        if isinstance(label, str):
            try:
                return self.labels.index(label)
            except ValueError:
                raise GraphError(f"unknown label {label!r}") from None
        if type(label) is not int or not (0 <= label < len(self.labels)):
            raise GraphError(f"unknown label id {label!r}")
        return label


@dataclass(frozen=True, slots=True)
class HedgeView:
    """One hedge: its edges, vertex set and rank.

    ``rank`` counts the merges the hedge's own edges cause (loops merge
    nothing); ``span`` counts the components of the vertex set under them.
    """

    label: int
    name: str
    edges: tuple[Edge, ...]
    vertex_set: frozenset[int]
    rank: int

    @property
    def span(self) -> int:
        return len(self.vertex_set) - self.rank

    @property
    def nullity(self) -> int:
        return len(self.edges) - self.rank


def build_graph(n: int, edge_list: Iterable[tuple[int, int, str]]) -> HedgeGraph:
    """Build a simple hedge graph from (u, v, label) triples.

    Labels are interned to dense ids in first-appearance order.  Checks
    only the simple-input rules: no loops, no repeated unordered vertex
    pair (regardless of label), and edges when n >= 2; ``HedgeGraph``
    checks the rest.  Disconnected input is accepted.
    """
    interned: dict[str, int] = {}
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    for u, v, name in edge_list:
        if u == v:
            raise GraphError(f"loop at vertex {u} not allowed in input", len(edges))
        try:
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise GraphError(f"duplicate edge between {pair[0]} and {pair[1]} in input", len(edges))
            seen_pairs.add(pair)
        except TypeError:  # endpoints that are no ints; HedgeGraph blames the edge
            pass
        try:
            edges.append((u, v, interned.setdefault(name, len(interned))))
        except TypeError:  # unhashable, so not a str
            raise _bad_label(name) from None
    graph = HedgeGraph(n, tuple(edges), tuple(interned))
    if not edges and n >= 2:  # after HedgeGraph, so n is an int here
        raise GraphError("empty edge list for a graph with 2 or more vertices")
    return graph


def _forest(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """A spanning forest of the given (u, v) pairs; loops are skipped.

    Its length is their rank, the merges they cause; every rank in the
    package is taken here.  Dict-based, for pair sets that touch few of
    the vertices; ``_join`` is the union-find over all of 0..n-1.  Path
    halving moves no root, so it keeps the same pairs; it skips writes
    under a root.
    """
    parent: dict[int, int] = {}
    kept = []
    for u, v in pairs:
        a, b = u, v
        while a in parent:
            if (p := parent[a]) in parent:
                parent[a] = p = parent[p]
            a = p
        while b in parent:
            if (p := parent[b]) in parent:
                parent[b] = p = parent[p]
            b = p
        if a != b:
            parent[a] = b
            kept.append((u, v))
    return kept


def _root(parent: list[int], x: int) -> int:
    """Root of ``x`` in a ``_join`` parent list, halving the path walked."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _join(n: int, forests: Forests, removed: Collection[int],
          order: Iterable[int] | None = None) -> tuple[list[int], int, int]:
    """Union-find over 0..n-1 merging the pairs of the labels not removed.

    Returns (parents, class count, bit mask of the labels whose pairs
    merged classes); ``_classes`` reads the classes from the parents.
    Stops as soon as one class is left; the merging labels then span the
    graph.  ``order`` is the label visiting order.  Loops merge nothing.
    A label's bit is set once, after its pairs, if the class count fell.
    """
    parent = list(range(n))
    parts = n
    used = 0
    for lab in range(len(forests)) if order is None else order:
        if lab in removed:
            continue
        before = parts
        for u, v in forests[lab]:
            while parent[u] != u:  # _root, inlined: this loop is the hot path
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                parts -= 1
                if parts == 1:
                    return parent, parts, used | 1 << lab
        if parts != before:
            used |= 1 << lab
    return parent, parts, used


def _classes(parent: list[int]) -> tuple[int, ...]:
    """Old-to-new vertex map of a ``_join`` parent list: classes numbered by minimum member, ascending."""
    new_id: dict[int, int] = {}  # an ascending scan meets each class first at its minimum
    return tuple(new_id.setdefault(_root(parent, v), len(new_id)) for v in range(len(parent)))


def _merge(n: int, pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """Old-to-new vertex map merging ``pairs``: the ``_classes`` of one ``_join`` pass."""
    return _classes(_join(n, [pairs], ())[0])


def _by_label(g: HedgeGraph) -> Forests:
    """Each label's (u, v) pairs in edge order, loops and parallels kept."""
    pairs: Forests = [[] for _ in range(g.num_labels)]
    for u, v, lab in g.edges:
        pairs[lab].append((u, v))
    return pairs


def _view(g: HedgeGraph, lab: int, pairs: list[tuple[int, int]]) -> HedgeView:
    """The view of label ``lab`` from its pairs in edge order."""
    return HedgeView(lab, g.labels[lab], tuple((u, v, lab) for u, v in pairs),
                     frozenset(x for pair in pairs for x in pair), len(_forest(pairs)))


def hedge_view(g: HedgeGraph, label: LabelRef) -> HedgeView:
    """The hedge of ``label``: edge subsequence, vertex set, rank."""
    lab = g.label_id(label)
    return _view(g, lab, _by_label(g)[lab])


def _hedge_views(g: HedgeGraph) -> list[HedgeView]:
    """Every hedge's view in label id order, from one pass over the edges."""
    return [_view(g, lab, pairs) for lab, pairs in enumerate(_by_label(g))]


def graph_rank_nullity(g: HedgeGraph) -> tuple[int, int]:
    """(rank, nullity) of the whole graph, labels ignored.

    rank = n - span and nullity = m - rank, where span counts connected
    components over all n vertices (isolated ones included).
    """
    rank = len(_forest((u, v) for u, v, _ in g.edges))
    return rank, g.m - rank


def _vertex_label_sets(n: int, edges: Iterable[Edge], count_loops: bool = True) -> list[set[int]]:
    """Incident label sets of vertices 0..n-1: the one label-degree convention.

    A loop adds its label to its vertex once, or not at all without
    ``count_loops``.  ``edges`` need not form a valid graph: a contracted
    list, whose label ids skip the contracted one, is counted as it is.
    """
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v, lab in edges:
        if u == v and not count_loops:
            continue
        sets[u].add(lab)
        sets[v].add(lab)
    return sets


def label_degree(g: HedgeGraph, v: int) -> int:
    """Number of distinct labels on edges incident to ``v`` (a loop counts once)."""
    if type(v) is not int or not (0 <= v < g.n):  # a bool is no vertex
        raise GraphError(f"vertex {v!r} out of range")
    return len(_vertex_label_sets(g.n, g.edges)[v])


def degree_summary(g: HedgeGraph) -> tuple[int, int, int]:
    """(min, max, total) of the label degree over all vertices."""
    degs = [len(s) for s in _vertex_label_sets(g.n, g.edges)]
    return min(degs), max(degs), sum(degs)


def _rebuild(n: int, edges: list[Edge], names: tuple[str, ...]) -> HedgeGraph:
    """A derived graph: labels left without an edge are dropped, the rest kept in id order."""
    used = sorted({lab for _, _, lab in edges})
    remap = {old: new for new, old in enumerate(used)}
    return HedgeGraph(n, tuple((u, v, remap[lab]) for u, v, lab in edges),
                      tuple(names[i] for i in used))


def remove_hedges(g: HedgeGraph, labels: Iterable[LabelRef]) -> HedgeGraph:
    """Delete every edge of the given hedges; vertices are retained."""
    drop = {g.label_id(lab) for lab in labels}
    if not drop:
        return g
    return _rebuild(g.n, [e for e in g.edges if e[2] not in drop], g.labels)


def is_connected(g: HedgeGraph) -> bool:
    """True iff the graph has a single connected component (loops ignored); the pairs stream."""
    return _join(g.n, [((u, v) for u, v, _ in g.edges)], ())[1] == 1
