"""Global hedge connectivity: exact search, fast paths, Monte Carlo.

The connectivity of a connected hedge graph is the minimum number of
hedges whose joint removal disconnects it.  Exact answers come from
subset enumeration (smallest sets first, so its depth is reached at the
connectivity, which the minimum label degree bounds) or, when every label
has exactly one edge, from a deterministic global min-cut: cycle-space
values name a unique bridge or 2-edge cut for one pass to confirm, and
otherwise prove a lower bound of 1, 2 or 3 at which the sweep stops,
since no phase cuts below the connectivity and ties keep the earlier phase.
Larger label sets fall back to seeded randomized hedge contraction,
which yields an upper bound with a valid certificate.  Its trials stop at
the best cut's size, and its loop once a packing proves that cut minimum;
ties keep the earliest trial, so the certificate is the whole budget's.

Enumeration and contraction trials share one flat representation, built
once per graph: for every label, a spanning forest of its non-loop edges
as ``(u, v)`` pairs over the original vertices.  Which vertices a set of
hedges connects depends only on these forests, so each subset test is
one pass of the package's union-find (``graph._join``) over the kept
forests; no loop rebuilds a graph.  A hedge cut contains a label of
every spanning label set, so enumeration records the spanning sets its
passes find (up to two disjoint ones per test) in a per-label bit index
and skips, with one int AND, each subset that avoids one of them, and,
with one AND per vertex, each search for a second set that leaves some
vertex no label.  ``_certificate`` builds every certificate; side_a is
vertex 0's class in the partition the kernel ends with (the splitting
``_join`` pass, the winning trial's classes, the sweep's side or the pass
confirming a small cut), else in ``graph._merge`` of the edges the cut
keeps.  ``hedge_connectivity`` checks its arguments on entry: ``cap`` and
a trial seed must be ints (not bools), a trial count None or an int >= 0.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .graph import (
    Edge,
    Forests,
    GraphError,
    HedgeGraph,
    _by_label,
    _classes,
    _forest,
    _join,
    _merge,
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
    Each part is a set or frozenset of ints (a list or None is no part, and a
    bool, float, str or None no int), else the answer is False.
    """
    parts = (cert.labels, cert.side_a, cert.side_b)
    if not all(isinstance(part, (set, frozenset)) and all(type(x) is int for x in part) for part in parts):
        return False
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
    """Each label's spanning forest over the original vertices, from ``_by_label``.

    A forest joins exactly the vertices its hedge joins, and one of its
    edges crosses a vertex split whenever any edge of the hedge does.
    """
    return [_forest(pairs) for pairs in _by_label(g)]


def _certificate(g: HedgeGraph, labels: frozenset[int], method: str, exact: bool,
                 classes: Sequence[int] | None = None) -> CutCertificate:
    """The cut ``labels``; side_a is vertex 0's class in ``classes``, the components the cut
    leaves as its kernel found them, or by default in ``_merge`` of the edges the cut keeps."""
    if classes is None:
        classes = _merge(g.n, [(u, v) for u, v, lab in g.edges if lab not in labels])
    side_a = frozenset(v for v, c in enumerate(classes) if c == classes[0])
    return CutCertificate(labels, side_a, frozenset(range(g.n)) - side_a, method, exact)


def _check_int(value: int, what: str) -> None:
    if type(value) is not int:  # a bool is no cap or seed
        raise GraphError(f"{what} must be an int, not {value!r}")


def _check_trials(trials: int | None, base_seed: int) -> None:
    if trials is not None and (type(trials) is not int or trials < 0):  # a bool is no count
        raise GraphError(f"trial count must be a nonnegative int, not {trials!r}")
    _check_int(base_seed, "trial seed")


_proven: HedgeGraph | None = None  # the last graph _connected proved connected


def _connected(g: HedgeGraph) -> bool:
    """Entry guard of every connectivity function: is_connected(g), for n >= 2, once per graph."""
    global _proven
    if g.n < 2:
        raise GraphError("connectivity is undefined for a single vertex")
    if g is not _proven and is_connected(g):
        _proven = g  # a strong reference: no other graph can take its id
    return g is _proven


def min_label_degree_bound(g: HedgeGraph) -> int:
    """Minimum label degree; always an upper bound on the connectivity."""
    if not _connected(g):
        raise GraphError("degree bound requires a connected graph")
    return min(len(s) for s in _vertex_label_sets(g.n, g.edges))


def _degree_bound_certificate(g: HedgeGraph, sets: list[set[int]],
                              exact: bool = False) -> CutCertificate:
    # removing every label at a minimum-degree vertex isolates it
    v = min(range(g.n), key=lambda x: len(sets[x]))
    return _certificate(g, frozenset(sets[v]), "fastpath", exact)


def brute_force_connectivity(g: HedgeGraph, cap: int = 20) -> CutCertificate:
    """Exact connectivity by subset enumeration, smallest label sets first.

    Within one cardinality, subsets are tried in lexicographic order of
    their sorted label ids, so the reported minimum cut is the
    lexicographically least one.  The depth is reached at the connectivity,
    at most the minimum label degree, which is never computed here.

    A subset is tested by one union-find pass over the forests of the
    labels it keeps, largest forests first.  When the kept labels connect
    the graph, the labels whose edges did the merging span it, and a
    second pass without them and the subset looks for a disjoint spanning
    set; each set found is recorded.  That pass cannot span when some
    vertex keeps no label (``at[v]`` masks the labels touching v; one AND
    each), so it is then skipped as failed.  A hedge cut contains a label of
    every spanning set, so a subset that avoids a recorded set is skipped
    untested.  ``holds[lab]`` has bit j set when set j contains ``lab``:
    each prefix of the first k - 1 labels keeps ``free``, the sets that
    avoid it, and a last label ``c`` is skipped when ``free & ~holds[c]``
    is non-zero, one int AND per candidate.
    """
    _check_int(cap, "enumeration cap")
    if not _connected(g):
        return _certificate(g, frozenset(), "brute", True)
    num = g.num_labels
    if num > cap:
        raise GraphError(f"label count {num} exceeds the enumeration cap {cap}")
    forests = _hedge_forests(g)
    big_first = sorted(range(num), key=lambda lab: -len(forests[lab]))
    at = [0] * g.n  # at[v]: bit mask of the labels whose forest pairs touch v
    for lab, pairs in enumerate(forests):
        for v in itertools.chain(*pairs):
            at[v] |= 1 << lab
    holds = [0] * num  # bit j set when spanning set j contains the label
    found = 0  # spanning sets recorded
    for k in range(1, num + 1):
        for prefix in itertools.combinations(range(num - 1), k - 1):
            free, pmask = (1 << found) - 1, 0  # free: the recorded sets that avoid the prefix
            for p in prefix:
                free &= ~holds[p]
                pmask |= 1 << p
            for c in range(prefix[-1] + 1 if prefix else 0, num):
                if free & ~holds[c]:
                    continue  # a recorded spanning set survives the removal
                combo = prefix + (c,)
                parent, parts, used = _join(g.n, forests, combo, big_first)
                if parts > 1:
                    return _certificate(g, frozenset(combo), "brute", True, _classes(parent))
                keep = ~(pmask | 1 << c | used)
                parts = 2  # a vertex that no kept label touches stays alone: the pass would fail
                if all(map(keep.__and__, at)):
                    _, parts, other = _join(g.n, forests, (), [lab for lab in big_first if keep >> lab & 1])
                for mask in (used, other) if parts == 1 else (used,):
                    while mask:  # both sets avoid the prefix, so both are free
                        low = mask & -mask
                        holds[low.bit_length() - 1] |= 1 << found
                        mask ^= low
                    free |= 1 << found
                    found += 1
    raise AssertionError("removing every label left the graph connected")


def _small_cut(n: int, edges: tuple[Edge, ...]) -> tuple[frozenset[int] | None, int]:
    """The only possible cut of one or two edges, else None, and a lower bound on the connectivity.

    Cycle-space sampling (Pritchard and Thurimella, 2011) on a connected
    graph with one edge per label: each non-tree edge of a BFS tree from
    vertex 0 draws a nonzero 64-bit value from a fixed-seed ``Rng``, each
    tree edge takes the xor of the values whose tree cycle covers it, and
    loops get none.  A cut's values xor to 0 for every draw, so a bridge
    gets 0 and a 2-edge cut's edges share a value.  Hence the bound: 1 if
    some value is 0, 3 if all differ, else 2.  A lone 0 or lone equal pair
    is returned unconfirmed: if it cuts, it is the only cut that small, and
    if not, the bound is one higher.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, lab in edges:
        if u != v:
            nbrs[u].append((v, lab))
            nbrs[v].append((u, lab))
    parent, up, order = [0] + [-1] * (n - 1), [-1] * n, [0]  # up[v]: label of v's tree edge
    for v in order:  # appending while iterating: a queue, no recursion
        for x, lab in nbrs[v]:
            if parent[x] < 0:
                parent[x], up[x] = v, lab
                order.append(x)
    rng, acc, value = Rng(0), [0] * n, {}  # acc[v]: xor of the values at v, then in its subtree
    for u, v, lab in edges:
        if u != v and up[u] != lab and up[v] != lab:
            value[lab] = x = rng.next_u64() or 1
            acc[u] ^= x
            acc[v] ^= x
    for v in reversed(order[1:]):  # leaves first
        value[up[v]] = acc[v]
        acc[parent[v]] ^= acc[v]
    classes: dict[int, list[int]] = {}
    for lab, x in value.items():
        classes.setdefault(x, []).append(lab)
    if 0 in classes:
        return (frozenset(classes[0]) if len(classes[0]) == 1 else None), 1
    shared = [labs for labs in classes.values() if len(labs) > 1]
    if not shared:
        return None, 3
    if len(shared) > 1 or len(shared[0]) > 2:
        return None, 2
    return frozenset(shared[0]), 2


def ordinary_edge_min_cut(g: HedgeGraph) -> CutCertificate:
    """Global min cut when every label has exactly one edge.

    With singleton hedges the problem is plain edge connectivity, solved by
    Stoer and Wagner's minimum-cut phases: a maximum-adjacency sweep from
    vertex 0 merges its last vertex into the one before and offers the cut
    around the last vertex; the first cheapest phase cut wins.  Edge counts
    live in one dict per vertex (O(n + m) memory) and the sweep pops a lazy
    heap of ints ``vertex - weight * n``: heaviest first, ties to the smallest
    id.  ``_small_cut`` runs first, in O(n + m): a unique min cut of one or two
    edges, confirmed by one ``_merge`` pass that also gives its sides, is
    returned without the sweep, since every exact method returns a unique
    min cut.  Otherwise it proves a lower bound of 1, 2 or 3 (one more when
    its candidate does not cut), and the sweep stops at the first phase
    cutting it: no phase cuts below the connectivity and ties keep the
    earlier phase, so the full sweep returns the same cut.  At connectivity
    4 or more all n - 1 phases run, O(m log n) heap work each.
    """
    connected = _connected(g)
    if g.num_labels != g.m:
        raise GraphError("requires every label to appear on exactly one edge")
    if not connected:
        return _certificate(g, frozenset(), "fastpath", True)
    n = g.n
    cut, lower = _small_cut(n, g.edges)
    if cut is not None:
        classes = _merge(n, [(u, v) for u, v, lab in g.edges if lab not in cut])
        if any(classes):  # the candidate cuts: some vertex is outside vertex 0's class
            return _certificate(g, cut, "fastpath", True, classes)
        lower = len(cut) + 1
    adj: list[dict[int, int]] = [{} for _ in range(n)]  # vertex -> neighbour -> edge count
    for u, v, _ in g.edges:
        if u != v:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    merges: list[tuple[int, int]] = []  # (s, t) of each phase: t merged into s
    best = (g.m + 1, 0, 0)  # (cut value, phase, t); ties keep the earlier phase
    for phase in range(n - 1):
        key, heap, t = {0: 0}, [0], 0  # key: weight into the swept set, -1 once swept
        while heap:  # vertex 0 pops first
            w, v = divmod(heapq.heappop(heap), n)
            if key[v] == -w:  # else stale: v was swept or its weight has grown
                key[v] = -1
                s, t, value = t, v, -w
                for x, c in adj[v].items():
                    if (k := key.get(x, 0)) >= 0:
                        key[x] = k = k + c
                        heapq.heappush(heap, x - k * n)
        best = min(best, (value, phase, t))
        merges.append((s, t))
        if value <= lower:
            break
        for x, c in adj[t].items():
            del adj[x][t]
            if x != s:
                adj[s][x] = adj[s].get(x, 0) + c
                adj[x][s] = adj[x].get(s, 0) + c
    # both sides of a minimum edge cut are connected, so the crossing labels define it
    vmap = _merge(n, merges[:best[1]])
    side = [c == vmap[best[2]] for c in vmap]
    return _certificate(g, frozenset(lab for u, v, lab in g.edges if side[u] != side[v]),
                        "fastpath", True, side)


def _contraction_trial(n: int, forests: Forests, seed: int, limit: int | None = None,
                       cls: list[int] | None = None) -> frozenset[int] | None:
    """The cut labels of one contraction trial on the flat forests of a connected graph.

    ``cls[v]`` is the class (super-vertex) of original vertex ``v``, named
    by one of its members.  ``live`` maps each label neither contracted
    nor cut to pairs that join what it joins, which ``cls`` maps to the
    current classes; contraction only makes loops and cycles of them, so
    their length bounds the label's rank.  When that bound does not prove
    the label safe, its non-loop class pairs are the next bound, and only
    then is a forest built for the exact rank.  A label of rank
    ``count - 1`` joins every class, stays so, and crosses the final two
    or more: it is retired into the cut, and ``live``, in label id order,
    is the safe list.  The final classes are the components left once the
    returned labels are removed; a caller reads them from a ``cls`` it
    passes as ``list(range(n))``.  None once ``limit`` labels are retired.
    """
    rng = Rng(seed)
    cls = list(range(n)) if cls is None else cls
    members = [[v] for v in range(n)]
    count = n
    live = dict(enumerate(forests))  # ascending label id, the order of the safe list
    cut = []
    while count > 2:
        for lab, pairs in list(live.items()):
            if len(pairs) > count - 2:
                pairs = [(a, b) for u, v in pairs if (a := cls[u]) != (b := cls[v])]
                if len(pairs) > count - 2:
                    pairs = _forest(pairs)
                if len(pairs) > count - 2:  # it joins every class
                    del live[lab]
                    cut.append(lab)
                    if len(cut) == limit:
                        return None
                else:
                    live[lab] = pairs
        if not live:
            break
        for u, v in live.pop(list(live)[rng.below(len(live))]):
            a, b = cls[u], cls[v]
            if a == b:
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for x in members[b]:
                cls[x] = a
            members[a] += members[b]
            count -= 1
    return frozenset(cut).union(lab for lab, pairs in live.items()
                                if any(cls[u] != cls[v] for u, v in pairs))


def randomized_contraction_cut(g: HedgeGraph, seed: int) -> CutCertificate:
    """One seeded contraction trial; returns a valid but unproven cut.

    Repeatedly contracts a uniformly random safe hedge until two vertices
    remain or no hedge is safe.  With ``count`` the current vertex count
    and a hedge's rank the number of merges its edges would cause now, a
    hedge is safe when ``count - rank >= 2``; safe hedges are listed in
    label id order and the pick is ``safe[rng.below(len(safe))]``.  A
    contracted hedge is retired, and so is one joining every group (rank
    ``count - 1``, first bounded by its non-loop group pairs): it is never
    safe again and is in the cut.  A hedge whose edges have all become
    loops is not retired: it stays a rank-0 pick that merges nothing, as
    dropping it would change the draw sequence.  The labels still
    crossing the final vertex groups form the candidate cut; side_a is
    the group of vertex 0.  ``seed`` must be an int (not a bool).
    """
    if not _connected(g):
        raise GraphError("contraction trials require a connected graph")
    _check_int(seed, "trial seed")
    cls = list(range(g.n))
    return _certificate(g, _contraction_trial(g.n, _hedge_forests(g), seed, None, cls), "randomized", False, cls)


def default_trial_count(num_labels: int) -> int:
    """Trial budget |L|^2 * (floor(log2 |L|) + 1)."""
    return num_labels * num_labels * (num_labels.bit_length())


def _packing(n: int, forests: Forests) -> Iterator[int]:
    """Disjoint spanning label sets as bit masks; every hedge cut holds a label of each.

    A set is one ``_join`` pass's ``used`` mask over the labels not yet taken, largest
    forests first, re-joined in reverse until it stops shrinking; a pass that splits ends it.
    """
    order, taken = sorted(range(len(forests)), key=lambda lab: -len(forests[lab])), 0
    while True:
        _, parts, used = _join(n, forests, (), [lab for lab in order if not taken >> lab & 1])
        if parts > 1:
            return
        labs, last = order, 0
        while used != last:  # each re-join visits the last pass's labels in reverse
            last, labs = used, [lab for lab in reversed(labs) if used >> lab & 1]
            used = _join(n, forests, (), labs)[2]
        taken |= used
        yield used


def randomized_connectivity(g: HedgeGraph, trials: int | None = None,
                            base_seed: int = 0) -> CutCertificate:
    """Best certificate over independent seeded contraction trials.

    Trial t draws its seed from the documented mixer as mix(base_seed, t),
    so the result depends only on (trials, base_seed), an int (not a bool)
    whatever the trial count.  Ties keep the earliest trial, whose final
    classes are the sides.  With zero trials the minimum-degree-vertex cut
    is returned as a fallback.

    Trials that cannot change that answer are skipped.  A trial stops, with
    no cut, once it has retired as many labels as the best cut holds.  Once
    ``_packing`` yields s disjoint spanning sets for a best cut of s >= 1
    labels, that cut is minimum and the loop ends: at most lambda + 1 greedy
    passes, plus their re-joins.  The answer is still not marked exact.
    """
    if not _connected(g):
        raise GraphError("contraction trials require a connected graph")
    _check_trials(trials, base_seed)
    forests = _hedge_forests(g)
    packing, packed = _packing(g.n, forests), 0
    best: frozenset[int] | None = None
    for t in range(default_trial_count(g.num_labels) if trials is None else trials):
        cls = list(range(g.n))
        labels = _contraction_trial(g.n, forests, mix(base_seed, t), None if best is None else len(best), cls)
        if best is None or labels is not None and len(labels) < len(best):
            best, sides = labels, cls
            packed += len(list(itertools.islice(packing, len(best) - packed)))
            if packed == len(best):
                break  # the cut is minimum: no later trial finds a smaller one
    if best is None:
        return _degree_bound_certificate(g, _vertex_label_sets(g.n, g.edges))
    return _certificate(g, best, "randomized", False, sides)


def hedge_connectivity(g: HedgeGraph, method: str = "auto", cap: int = 20,
                       trials: int | None = None, base_seed: int = 0) -> CutCertificate:
    """Connectivity certificate via the cheapest applicable strategy.

    Auto dispatch: disconnected graphs are 0-connected; a vertex of label
    degree 1 forces connectivity exactly 1 (every vertex of a single-label
    graph is one); singleton hedges go to the deterministic min cut; at
    most ``cap`` labels go to brute force; anything else gets randomized
    trials (not exact).
    """
    _check_int(cap, "enumeration cap")
    _check_trials(trials, base_seed)
    if method == "brute":
        return brute_force_connectivity(g, cap)
    connected = _connected(g)
    if method not in ("auto", "random"):
        raise GraphError(f"unknown method {method!r}")
    if not connected:
        return _certificate(g, frozenset(), "fastpath", True)
    if method == "random":
        return randomized_connectivity(g, trials, base_seed)
    sets = _vertex_label_sets(g.n, g.edges)
    if min(len(s) for s in sets) == 1:
        # all edges at such a vertex carry one label; removing it isolates the vertex
        return _degree_bound_certificate(g, sets, exact=True)
    if g.num_labels == g.m:
        return ordinary_edge_min_cut(g)
    if g.num_labels <= cap:
        return brute_force_connectivity(g, cap)
    return randomized_connectivity(g, trials, base_seed)
