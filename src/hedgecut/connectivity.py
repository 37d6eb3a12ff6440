"""Global hedge connectivity: exact search, fast paths, Monte Carlo.

The connectivity of a connected hedge graph is the minimum number of
hedges whose joint removal disconnects it.  Exact answers come from
subset enumeration (sound because the hedges incident to a minimum
label-degree vertex always form a cut, capping the search depth) or,
when every label has exactly one edge, from a deterministic global
min-cut.  Larger label sets fall back to seeded randomized hedge
contraction, which yields an upper bound with a valid certificate.

Enumeration, certificates and contraction trials share one flat
representation, built once per graph: for every label, a spanning forest
of its non-loop edges as ``(u, v)`` pairs over the original vertices.
Which vertices a set of hedges connects depends only on these forests,
so each subset test is one pass of the package's union-find
(``graph._join``) over the kept forests; no loop rebuilds a graph.
Every kernel returns only cut labels, and ``_certificate`` builds every
certificate: side_a is vertex 0's component once the labels are removed.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass

from .graph import (
    Forests,
    GraphError,
    HedgeGraph,
    _forest,
    _join,
    _root,
    _vertex_label_sets,
    is_connected,
)
from .rng import Rng, mix


@dataclass(frozen=True, slots=True)
class CutCertificate:
    """A disconnection witness: remove ``labels`` and no edge joins the sides.

    ``side_a`` and ``side_b`` partition the vertex set (side_a holds
    vertex 0); either side may itself be disconnected.  ``exact`` marks
    results proven minimum, not just valid.
    """

    labels: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]
    method: str  # one of "brute", "randomized", "fastpath"
    exact: bool

    @property
    def size(self) -> int:
        return len(self.labels)


def validate_certificate(g: HedgeGraph, cert: CutCertificate) -> bool:
    """Re-check a certificate against the graph it claims to cut.

    The sides must be a proper bipartition and no edge outside the cut
    labels may join them, which also proves the removal disconnects.
    """
    if not cert.side_a or not cert.side_b or (cert.side_a & cert.side_b):
        return False
    if cert.side_a | cert.side_b != frozenset(range(g.n)):
        return False
    if not all(0 <= lab < g.num_labels for lab in cert.labels):
        return False
    side_a = cert.side_a
    return not any((u in side_a) != (v in side_a)
                   for u, v, lab in g.edges if lab not in cert.labels)


def _hedge_forests(g: HedgeGraph) -> Forests:
    """Each label's spanning forest over the original vertices.

    A forest joins exactly the vertices its hedge joins, and one of its
    edges crosses a vertex split whenever any edge of the hedge does.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(g.num_labels)]
    for u, v, lab in g.edges:
        pairs[lab].append((u, v))
    return [_forest(p) for p in pairs]


def _certificate(g: HedgeGraph, labels: frozenset[int], method: str, exact: bool,
                 forests: Forests | None = None) -> CutCertificate:
    """The cut ``labels`` with side_a the component of vertex 0 once they are removed."""
    parent, _, _ = _join(g.n, _hedge_forests(g) if forests is None else forests, labels)
    r0 = _root(parent, 0)
    side_a = frozenset(v for v in range(g.n) if _root(parent, v) == r0)
    return CutCertificate(labels, side_a, frozenset(range(g.n)) - side_a, method, exact)


def _connected(g: HedgeGraph) -> bool:
    """Entry guard of every connectivity function: is_connected(g), for n >= 2 only."""
    if g.n < 2:
        raise GraphError("connectivity is undefined for a single vertex")
    return is_connected(g)


def min_label_degree_bound(g: HedgeGraph) -> int:
    """Minimum label degree; always an upper bound on the connectivity."""
    if not _connected(g):
        raise GraphError("degree bound requires a connected graph")
    return min(len(s) for s in _vertex_label_sets(g))


def _degree_bound_certificate(g: HedgeGraph, sets: list[set[int]],
                              exact: bool = False) -> CutCertificate:
    # removing every label at a minimum-degree vertex isolates it
    v = min(range(g.n), key=lambda x: len(sets[x]))
    return _certificate(g, frozenset(sets[v]), "fastpath", exact)


def brute_force_connectivity(g: HedgeGraph, cap: int = 20) -> CutCertificate:
    """Exact connectivity by subset enumeration, smallest label sets first.

    Within one cardinality, subsets are tried in lexicographic order of
    their sorted label ids, so the reported minimum cut is the
    lexicographically least one.  Enumeration never needs subsets larger
    than the minimum label degree.

    A subset is tested by one union-find pass over the forests of the
    labels it keeps, largest forests first.  When the kept labels connect
    the graph, the labels whose edges did the merging hold a spanning
    tree, and a later subset that avoids all of them is skipped untested.
    """
    if not _connected(g):
        return _certificate(g, frozenset(), "brute", True)
    if g.num_labels > cap:
        raise GraphError(f"label count {g.num_labels} exceeds the enumeration cap {cap}")
    bound = min(len(s) for s in _vertex_label_sets(g))
    forests = _hedge_forests(g)
    big_first = sorted(range(g.num_labels), key=lambda lab: -len(forests[lab]))
    spanning: list[int] = []  # label masks of spanning trees found, newest first
    for k in range(1, bound + 1):
        for combo in itertools.combinations(range(g.num_labels), k):
            mask = 0
            for lab in combo:
                mask |= 1 << lab
            for tree in spanning:
                if not tree & mask:
                    break  # this spanning tree survives the removal
            else:
                _, parts, used = _join(g.n, forests, combo, big_first)
                if parts > 1:
                    return _certificate(g, frozenset(combo), "brute", True, forests)
                spanning.insert(0, used)
    raise AssertionError("no cut found within the degree bound")


def ordinary_edge_min_cut(g: HedgeGraph) -> CutCertificate:
    """Global min cut when every label has exactly one edge.

    With singleton hedges the problem is plain edge connectivity, solved by
    Stoer and Wagner's minimum-cut phases: a maximum-adjacency sweep from
    vertex 0 merges its last vertex into the one before and offers the cut
    around the last vertex; the first cheapest phase cut wins.  Edge counts
    live in one dict per vertex (O(n + m) memory) and the sweep pops a lazy
    heap of ``(-weight, vertex)``, so ties go to the smallest vertex id.
    """
    connected = _connected(g)
    if g.num_labels != g.m:
        raise GraphError("requires every label to appear on exactly one edge")
    if not connected:
        return _certificate(g, frozenset(), "fastpath", True)
    adj = [defaultdict(int) for _ in range(g.n)]  # vertex -> neighbour -> edge count
    for u, v, _ in g.edges:
        if u != v:
            adj[u][v] += 1
            adj[v][u] += 1
    merges: list[tuple[int, int]] = []  # (s, t) of each phase: t merged into s
    best = (g.m + 1, 0, 0)  # (cut value, phase, t); ties keep the earlier phase
    for phase in range(g.n - 1):
        key, heap, t = {0: 0}, [(0, 0)], 0  # key: weight into the swept set, -1 once swept
        while heap:  # vertex 0 pops first
            w, v = heapq.heappop(heap)
            if key[v] == -w:  # else stale: v was swept or its weight has grown
                key[v] = -1
                s, t, value = t, v, -w
                for x, c in adj[v].items():
                    if (k := key.get(x, 0)) >= 0:
                        key[x] = k + c
                        heapq.heappush(heap, (-k - c, x))
        best = min(best, (value, phase, t))
        merges.append((s, t))
        for x, c in adj[t].items():
            del adj[x][t]
            if x != s:
                adj[s][x] += c
                adj[x][s] += c
    # both sides of a minimum edge cut are connected, so the crossing labels define it
    parent, _, _ = _join(g.n, [merges[:best[1]]], ())
    side = [_root(parent, v) == _root(parent, best[2]) for v in range(g.n)]
    return _certificate(g, frozenset(lab for u, v, lab in g.edges if side[u] != side[v]),
                        "fastpath", True)


def _contraction_trial(n: int, forests: Forests, seed: int) -> frozenset[int]:
    """The cut labels of one contraction trial on the flat forests of a connected graph.

    ``cls[v]`` is the class (super-vertex) of original vertex ``v``, named
    by one of its members.  ``live`` maps each label not yet contracted
    to a forest whose endpoints ``cls`` maps to the current classes.
    Contraction only turns such edges into loops or closes cycles, so the
    stored length bounds the label's rank from above; the forest is
    rebuilt over the current classes, giving the exact rank, only when
    that bound does not already prove the label safe.  The final classes
    are the components left once the returned labels are removed.
    """
    rng = Rng(seed)
    cls = list(range(n))
    members = [[v] for v in range(n)]
    count = n
    live = dict(enumerate(forests))  # ascending label id, the order of the safe list
    while count > 2:
        safe = []
        for lab, pairs in live.items():
            if count - len(pairs) < 2:
                pairs = live[lab] = _forest((cls[u], cls[v]) for u, v in pairs)
            if count - len(pairs) >= 2:
                safe.append(lab)
        if not safe:
            break
        for u, v in live.pop(safe[rng.below(len(safe))]):
            a, b = cls[u], cls[v]
            if a == b:
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for x in members[b]:
                cls[x] = a
            members[a] += members[b]
            count -= 1
    return frozenset(lab for lab, pairs in live.items()
                     if any(cls[u] != cls[v] for u, v in pairs))


def randomized_contraction_cut(g: HedgeGraph, seed: int) -> CutCertificate:
    """One seeded contraction trial; returns a valid but unproven cut.

    Repeatedly contracts a uniformly random safe hedge until two vertices
    remain or no hedge is safe.  With ``count`` the current vertex count
    and a hedge's rank the number of merges its edges would cause now, a
    hedge is safe when ``count - rank >= 2``; safe hedges are listed in
    label id order and the pick is ``safe[rng.below(len(safe))]``.  A
    contracted hedge is retired.  A hedge whose edges have all become
    loops is not retired: it stays a rank-0 pick that merges nothing, as
    dropping it would change the draw sequence.  The labels still
    crossing the final vertex groups form the candidate cut; side_a is
    the group of vertex 0.
    """
    if not _connected(g):
        raise GraphError("contraction trials require a connected graph")
    forests = _hedge_forests(g)
    return _certificate(g, _contraction_trial(g.n, forests, seed), "randomized", False, forests)


def default_trial_count(num_labels: int) -> int:
    """Trial budget |L|^2 * (floor(log2 |L|) + 1)."""
    return num_labels * num_labels * (num_labels.bit_length())


def randomized_connectivity(g: HedgeGraph, trials: int | None = None,
                            base_seed: int = 0) -> CutCertificate:
    """Best certificate over independent seeded contraction trials.

    Trial t draws its seed from the documented mixer as mix(base_seed, t),
    so the result depends only on (trials, base_seed).  Ties keep the
    earliest trial.  With zero trials the minimum-degree-vertex cut is
    returned as a fallback.
    """
    if not _connected(g):
        raise GraphError("contraction trials require a connected graph")
    if trials is None:
        trials = default_trial_count(g.num_labels)
    if trials < 0:
        raise GraphError("trial count must be nonnegative")
    forests = _hedge_forests(g)
    best: frozenset[int] | None = None
    for t in range(trials):
        labels = _contraction_trial(g.n, forests, mix(base_seed, t))
        if best is None or len(labels) < len(best):
            best = labels
            if len(best) == 1:
                break  # connected graphs need at least one hedge removed
    if best is None:
        return _degree_bound_certificate(g, _vertex_label_sets(g))
    return _certificate(g, best, "randomized", False, forests)


def hedge_connectivity(g: HedgeGraph, method: str = "auto", cap: int = 20,
                       trials: int | None = None, base_seed: int = 0) -> CutCertificate:
    """Connectivity certificate via the cheapest applicable strategy.

    Auto dispatch: disconnected graphs are 0-connected; a vertex of label
    degree 1 forces connectivity exactly 1 (every vertex of a single-label
    graph is one); singleton hedges go to the deterministic min cut; at
    most ``cap`` labels go to brute force; anything else gets randomized
    trials (not exact).
    """
    if method == "brute":
        return brute_force_connectivity(g, cap)
    connected = _connected(g)
    if method not in ("auto", "random"):
        raise GraphError(f"unknown method {method!r}")
    if not connected:
        return _certificate(g, frozenset(), "fastpath", True)
    if method == "random":
        return randomized_connectivity(g, trials, base_seed)
    sets = _vertex_label_sets(g)
    if min(len(s) for s in sets) == 1:
        # all edges at such a vertex carry one label; removing it isolates the vertex
        return _degree_bound_certificate(g, sets, exact=True)
    if g.num_labels == g.m:
        return ordinary_edge_min_cut(g)
    if g.num_labels <= cap:
        return brute_force_connectivity(g, cap)
    return randomized_connectivity(g, trials, base_seed)
