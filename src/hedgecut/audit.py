"""Executable adjudication of the structural claims about hedge graphs.

Each claim gets an identifier and one row of ``_CLAIMS`` that computes both
sides of the stated relation on a concrete instance, giving verdicts that
carry the full instance serialization and a digest, so any verdict can
be re-checked from scratch.  A seeded generator and counterexample
search adjudicate claims that are expected to fail; the set of claims
that provably hold on every connected instance is exported so callers
can treat their violation as an internal error rather than a finding.

Claims on one graph share its derived values (``_Facts``: views,
adjacency graph, colorings, lambda, ranks, sequence sums, contracted
degrees), each computed on first read, so a lone claim computes only what
it reads.  ``audit_theorem`` keeps the facts of the last graph object it
audited, keyed by identity and degree modes, so ``audit --theorem all``
computes each value once; ``verify_certificate`` parses a new graph per
record, so every replay starts cold.  The contraction claims read edge
lists (``contraction._contract``, ``_contract_edge``), so no claim builds a graph.

Degree conventions are explicit: by default a loop contributes its
label to its vertex once, and hedge degree totals use degrees measured
in the whole graph.  Both alternative readings (loops ignored, degrees
induced by the hedge's vertex set) are available as keyword modes and
are recorded in verdict witnesses so re-checks replay them.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import eq, ge, le
from typing import Any, Callable, Sequence

from .adjacency import _adjacency_of, _greedy_colors, adjacency_graph
from .connectivity import brute_force_connectivity
from .contraction import _contract, _contract_edge, contraction_sequence
from .graph import (_MAX_VERTICES, Edge, GraphError, HedgeGraph, HedgeView, _hedge_views,
                    _vertex_label_sets, build_graph, graph_rank_nullity, is_connected)
from .hgformat import ParseError, emit, parse
from .rng import Rng, mix

_ORDER_DRAWS = 5  # label shuffles per instance for the per-order claims; repeats are kept once
_MAX_EXTRA_EDGES = 1_000_000  # highest extra_range end: random_instance builds each extra edge


class TheoremId(str, Enum):
    T1_MIN_DEG_BOUND = "T1_MIN_DEG_BOUND"
    T2_RELABEL_GE_MAXDEG = "T2_RELABEL_GE_MAXDEG"
    T3_DA_LE_TOTAL = "T3_DA_LE_TOTAL"
    T4_MAXDA_GE_MAXDEG = "T4_MAXDA_GE_MAXDEG"
    T5_RELABEL_GE_MAXDA = "T5_RELABEL_GE_MAXDA"
    VIZING_BAND = "VIZING_BAND"
    COROLLARY_CHAIN = "COROLLARY_CHAIN"
    RANKSUM_STATIC = "RANKSUM_STATIC"
    RANKSUM_SEQ = "RANKSUM_SEQ"
    NULLSUM_STATIC = "NULLSUM_STATIC"
    NULLSUM_SEQ = "NULLSUM_SEQ"
    VD_EQUALITY = "VD_EQUALITY"
    SPANSUM_UPPER = "SPANSUM_UPPER"
    SPANSUM_BAND = "SPANSUM_BAND"
    CONTRACTV_BAND = "CONTRACTV_BAND"
    CONTRACT_MIN = "CONTRACT_MIN"
    CONTRACT_H = "CONTRACT_H"
    CONTRACT_SUM = "CONTRACT_SUM"
    CONTRACT_ADJ = "CONTRACT_ADJ"


# Claims that hold on every connected instance under the default degree
# conventions; a violation of one of these means the implementation is
# broken, not that a claim was refuted.
UNIVERSAL_IDS = frozenset({
    TheoremId.T1_MIN_DEG_BOUND,
    TheoremId.T2_RELABEL_GE_MAXDEG,
    TheoremId.T3_DA_LE_TOTAL,
    TheoremId.VD_EQUALITY,
    TheoremId.SPANSUM_UPPER,
    TheoremId.RANKSUM_SEQ,
    TheoremId.NULLSUM_SEQ,
    TheoremId.CONTRACT_MIN,
    TheoremId.CONTRACT_SUM,
})


@dataclass(frozen=True, slots=True)
class AuditVerdict:
    """One adjudicated claim on one instance, re-checkable from its text."""

    theorem: TheoremId
    instance_text: str
    digest: str
    holds: bool
    lhs: Any
    rhs: Any
    witness: dict[str, Any] | None


@dataclass(frozen=True, slots=True)
class GeneratorParams:
    """Ranges (inclusive) for the seeded random instance generator."""

    n_range: tuple[int, int] = (2, 8)
    extra_range: tuple[int, int] = (0, 3)
    label_range: tuple[int, int] = (1, 5)
    seed: int = 0


@dataclass(frozen=True, slots=True)
class SearchResult:
    found: AuditVerdict | None
    trials_run: int
    verdicts_checked: int


def instance_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _chromatic_number(neighbors: Sequence[frozenset[int]]) -> int:
    """Exact chromatic number by counting covers with independent sets.

    With i(S) the count of independent subsets of S, the empty one included, V is
    k-colorable iff sum over S of (-1)^(|V|-|S|) * i(S)^k > 0 (Björklund,
    Husfeldt and Koivisto, "Set partitioning via inclusion-exclusion",
    SIAM J. Comput. 2009).  Each k costs O(2^|V|): for tiny graphs only.
    """
    count = len(neighbors)
    ind, terms = [1], [(-1) ** count]  # indexed by bit mask S
    for v, nbrs in enumerate(neighbors):
        # a subset of S with highest vertex v omits v, or holds v and no neighbor of it
        mask = ~sum(1 << u for u in nbrs)
        ind += [ind[s] + ind[s & mask] for s in range(1 << v)]
        terms += [-t for t in terms]
    k = 0
    while sum(terms) <= 0:  # the k = 0 sum is 0 unless there is no vertex
        terms = [t * i for t, i in zip(terms, ind)]
        k += 1
    return k


class _lazy:
    """An attribute that ``fn(facts)`` computes on first read; unlike CPython 3.11's
    ``functools.cached_property``, it takes no lock."""

    def __init__(self, fn: Callable[[_Facts], Any]):
        self.fn = fn

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, facts: _Facts, owner: type) -> Any:
        value = facts.__dict__[self.name] = self.fn(facts)
        return value


class _Facts:
    """The values several claims read of one connected graph in one degree mode.

    Text, digest, modes and degrees are built at once, each ``_lazy`` value on its
    first read, so a lone claim computes only what it reads.  No shared value is
    changed in place (verdicts get copies of the two witness dicts), so no claim
    can change another's input.
    """

    def __init__(self, g: HedgeGraph, count_loops: bool, induced_degrees: bool):
        if g.n < 2 or not is_connected(g):
            raise GraphError("audit requires a connected instance with at least 2 vertices")
        self.g, self.count_loops, self.induced_degrees = g, count_loops, induced_degrees
        self.text = emit(g)
        self.digest = instance_digest(self.text)
        # the non-default degree modes, which every witness records
        self.modes: dict[str, Any] = {} if count_loops else {"count_loops": False}
        if induced_degrees:
            self.modes["induced_degrees"] = True
        self.degrees = tuple(self.degrees_of(g.n, g.edges))
        self.delta, self.big_delta = min(self.degrees), max(self.degrees)

    def degrees_of(self, n: int, edges: Sequence[Edge]) -> list[int]:
        return [len(s) for s in _vertex_label_sets(n, edges, self.count_loops)]

    views = _lazy(lambda f: tuple(_hedge_views(f.g)))
    span_sum = _lazy(lambda f: sum(v.span for v in f.views))
    adj = _lazy(lambda f: adjacency_graph(f.g))
    max_da = _lazy(lambda f: max(map(len, f.adj), default=0))
    greedy_q = _lazy(lambda f: _greedy_colors(f.adj).num_colors)
    optimal_q = _lazy(lambda f: _chromatic_number(f.adj) if f.g.num_labels <= 8 else None)
    q = _lazy(lambda f: f.greedy_q if f.optimal_q is None else f.optimal_q)
    q_witness = _lazy(lambda f: {"greedy_q": f.greedy_q, "optimal_q": f.optimal_q})
    lam = _lazy(lambda f: brute_force_connectivity(f.g, cap=f.g.num_labels).size)
    rank_nullity = _lazy(lambda f: graph_rank_nullity(f.g))
    # label degrees after each hedge's contraction, by label id
    after = _lazy(lambda f: tuple(tuple(f.degrees_of(*_contract(f.g, i))) for i in range(f.g.num_labels)))

    @_lazy
    def totals(self) -> tuple[int, ...]:
        """Each hedge's degree total, by label id."""
        g, insides = self.g, [view.vertex_set for view in self.views]
        if not self.induced_degrees:
            return tuple(sum(self.degrees[v] for v in inside) for inside in insides)
        # only edges with both ends inside count, so no vertex outside has any
        return tuple(sum(self.degrees_of(g.n, [e for e in g.edges if e[0] in inside and e[1] in inside]))
                     for inside in insides)

    @_lazy
    def sequences(self) -> tuple[tuple[tuple[str, ...], tuple[int, int]], ...]:
        """Distinct label orders drawn with a seed from the digest, each with the
        (rank, nullity) that its contraction sequence consumes."""
        rng, orders = Rng(int(self.digest[:16], 16)), []
        for _ in range(_ORDER_DRAWS):
            names = list(self.g.labels)
            rng.shuffle(names)
            if tuple(names) not in orders:
                orders.append(tuple(names))
        traces = [contraction_sequence(self.g, order) for order in orders]
        return tuple((o, (t.total_rank_consumed, t.total_nullity_consumed)) for o, t in zip(orders, traces))


def _within(x: int, band: list[int]) -> bool:
    return band[0] <= x <= band[1]


def _record(relation: Callable[[Any, Any], bool], lhs: Any, rhs: Any,
            extra: dict[str, Any] | None = None) -> tuple[bool, Any, Any, dict[str, Any] | None]:
    return relation(lhs, rhs), lhs, rhs, extra


# One row per claim, in catalog order: the claim's records (holds, lhs, rhs, witness
# entries or None) on one graph's facts, one per hedge, edge, pair or order where the
# claim is per item.  Rows call package functions by their module names when they run
# and store none, so what replaces hedgecut.audit.<name> (a test, a tracer) sees every call.
_CLAIMS: dict[TheoremId, Callable[[_Facts], list[tuple[bool, Any, Any, dict[str, Any] | None]]]] = {
    TheoremId.T1_MIN_DEG_BOUND: lambda f: [_record(le, f.lam, f.delta)],
    TheoremId.T2_RELABEL_GE_MAXDEG: lambda f: [_record(ge, f.q, f.big_delta, f.q_witness)],
    TheoremId.T3_DA_LE_TOTAL: lambda f: [_record(le, len(nbrs), total, {"hedge": name})
                                         for nbrs, total, name in zip(f.adj, f.totals, f.g.labels)],
    TheoremId.T4_MAXDA_GE_MAXDEG: lambda f: [_record(ge, f.max_da, f.big_delta)],
    TheoremId.T5_RELABEL_GE_MAXDA: lambda f: [_record(ge, f.q, f.max_da, f.q_witness)],
    TheoremId.VIZING_BAND: lambda f: [_record(_within, f.q, [f.max_da, f.max_da + 1], f.q_witness)],
    # the chain lambda <= delta <= Delta <= max_dA <= q holds when it is already sorted
    TheoremId.COROLLARY_CHAIN: lambda f: [(chain == sorted(chain), chain, None, f.q_witness)
                                          for chain in [[f.lam, f.delta, f.big_delta, f.max_da, f.q]]],
    TheoremId.RANKSUM_STATIC: lambda f: [_record(eq, f.rank_nullity[0], sum(v.rank for v in f.views))],
    TheoremId.RANKSUM_SEQ: lambda f: [_record(eq, f.rank_nullity[0], rank, {"order": list(order)})
                                      for order, (rank, _) in f.sequences],
    TheoremId.NULLSUM_STATIC: lambda f: [_record(eq, f.rank_nullity[1], sum(v.nullity for v in f.views))],
    TheoremId.NULLSUM_SEQ: lambda f: [_record(eq, f.rank_nullity[1], nullity, {"order": list(order)})
                                      for order, (_, nullity) in f.sequences],
    TheoremId.VD_EQUALITY: lambda f: [_record(eq, sum(len(v.vertex_set) for v in f.views), sum(f.degrees))],
    TheoremId.SPANSUM_UPPER: lambda f: [_record(le, f.span_sum, 2 * f.g.m - f.g.n + 1)],
    TheoremId.SPANSUM_BAND: lambda f: [_record(_within, f.span_sum, [f.g.n * f.delta - f.g.n + 1,
                                                                     f.g.n * f.big_delta - f.g.n + 1])],
    TheoremId.CONTRACTV_BAND: lambda f: [
        _record(_within, f.degrees_of(*_contract_edge(f.g, idx))[min(u, v)],
                [max(f.degrees[u], f.degrees[v]) - 1, f.degrees[u] + f.degrees[v] - 2], {"edge": idx})
        for idx, (u, v, _) in enumerate(f.g.edges) if u != v],
    TheoremId.CONTRACT_MIN: lambda f: [_record(ge, min(after), f.delta - 1, {"hedge": name})
                                       for after, name in zip(f.after, f.g.labels)],
    TheoremId.CONTRACT_H: lambda f: [_record(le, sum(after), sum(f.degrees) - 2 * view.rank, {"hedge": name})
                                     for view, after, name in zip(f.views, f.after, f.g.labels)],
    TheoremId.CONTRACT_SUM: lambda f: [
        _record(le, sum(f.degrees), sum(after) + total - view.span * (f.delta - 1), {"hedge": name})
        for view, after, total, name in zip(f.views, f.after, f.totals, f.g.labels)],
    # contracting hedge i predicts each other hedge j's adjacency degree from the greedy q
    TheoremId.CONTRACT_ADJ: lambda f: [
        _record(eq, len(adj_after[j]), len(f.adj[j]) + (len(f.adj[i]) - f.greedy_q + 1 if j in f.adj[i] else 0),
                {"contracted": f.g.labels[i], "hedge": f.g.labels[j], "q": f.greedy_q})
        for i in range(f.g.num_labels)
        for adj_after in [_adjacency_of(f.g.num_labels, _vertex_label_sets(*_contract(f.g, i)))]
        for j in range(f.g.num_labels) if j != i],
}


# The last graph audited, its modes and its facts, read and stored as one tuple;
# the strong reference keeps the graph's id from being reused while it is here.
_last: tuple[Any, Any, Any] = (None, None, None)


def audit_theorem(theorem: TheoremId, g: HedgeGraph, *, count_loops: bool = True,
                  induced_degrees: bool = False) -> list[AuditVerdict]:
    """Adjudicate one claim on one connected instance.

    Per-hedge, per-edge, per-pair and per-order claims yield one verdict
    each, in ascending id / index / sample order.  Non-default degree
    modes are recorded in every witness so verification can replay them.
    """
    global _last
    last_g, last_modes, f = _last
    if last_g is not g or last_modes != (count_loops, induced_degrees):
        f = _Facts(g, count_loops, induced_degrees)
        _last = (g, (count_loops, induced_degrees), f)
    theorem = TheoremId(theorem)
    return [AuditVerdict(theorem, f.text, f.digest, holds, lhs, rhs, {**f.modes, **(extra or {})} or None)
            for holds, lhs, rhs, extra in _CLAIMS[theorem](f)]


# json.dumps with options builds a new encoder on every call; one serves every field
_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def format_verdict(v: AuditVerdict) -> str:
    """Frozen line-oriented record: one header line plus the instance block."""
    header = (f"verdict theorem={v.theorem.value} holds={'true' if v.holds else 'false'} "
              f"lhs={_json(v.lhs)} rhs={_json(v.rhs)} witness={_json(v.witness)} "
              f"digest={v.digest}")
    return f"{header}\ninstance-begin\n{v.instance_text}instance-end\n"


def parse_verdict(text: str) -> AuditVerdict:
    """Inverse of format_verdict; raises ParseError on malformed records."""
    lines = text.split("\n")  # as in HG1 text, only "\n" ends a line
    if not lines[0].startswith("verdict "):
        raise ParseError(1, "expected a 'verdict ...' header line")
    fields: dict[str, str] = {}
    for token in lines[0].split()[1:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(1, f"malformed field {token!r}")
        if key in fields:
            raise ParseError(1, f"repeated field {key!r}")
        fields[key] = value
    missing = {"theorem", "holds", "lhs", "rhs", "witness", "digest"} - set(fields)
    if missing:
        raise ParseError(1, f"missing fields: {', '.join(sorted(missing))}")
    try:
        theorem = TheoremId(fields["theorem"])
    except ValueError:
        raise ParseError(1, f"unknown theorem id {fields['theorem']!r}") from None
    if fields["holds"] not in ("true", "false"):
        raise ParseError(1, "holds must be true or false")
    try:
        lhs = json.loads(fields["lhs"])
        rhs = json.loads(fields["rhs"])
        witness = json.loads(fields["witness"])
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nesting too deep to decode
        raise ParseError(1, "lhs/rhs/witness must be valid JSON") from None
    if len(lines) < 2 or lines[1] != "instance-begin":
        raise ParseError(2, "expected 'instance-begin'")
    try:
        end = lines.index("instance-end", 2)
    except ValueError:
        raise ParseError(len(lines) - (lines[-1] == ""), "missing 'instance-end'") from None
    instance_text = "\n".join(lines[2:end]) + "\n"
    return AuditVerdict(theorem, instance_text, fields["digest"], fields["holds"] == "true",
                        lhs, rhs, witness)


def verify_certificate(v: AuditVerdict) -> bool:
    """Recompute a verdict from its serialized instance and confirm it.

    Returns False when the digest does not match the instance text or
    when no freshly computed verdict agrees on (holds, lhs, rhs,
    witness), JSON types included: ``1.0`` and ``true`` are not ``1``.
    Malformed instance text raises ParseError.
    """
    if instance_digest(v.instance_text) != v.digest:
        return False
    g = parse(v.instance_text)
    witness = v.witness if isinstance(v.witness, dict) else {}
    try:
        fresh = audit_theorem(v.theorem, g, count_loops=witness.get("count_loops") is not False,
                              induced_degrees=witness.get("induced_degrees") is True)
    except GraphError:
        return False
    return any(f.holds == v.holds and f.lhs == v.lhs and f.rhs == v.rhs and f.witness == v.witness
               and _same([f.holds, f.lhs, f.rhs, f.witness], [v.holds, v.lhs, v.rhs, v.witness])
               for f in fresh)


def _same(a: Any, b: Any) -> bool:
    """``a == b`` with equal types throughout, so ``1``, ``1.0`` and ``True`` differ as in JSON."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _prufer_tree(n: int, seq: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence into tree edges (endpoints ordered)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges: list[tuple[int, int]] = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _repair_labels(labels: list[int], num_labels: int) -> None:
    """Reassign surplus edges of frequent labels so every label occurs."""
    counts = [0] * num_labels
    for lab in labels:
        counts[lab] += 1
    for missing in [lab for lab in range(num_labels) if counts[lab] == 0]:
        top = max(counts)
        donor = counts.index(top)  # most frequent, ties to the smallest id
        for idx in range(len(labels) - 1, -1, -1):
            if labels[idx] == donor:
                labels[idx] = missing
                break
        counts[donor] -= 1
        counts[missing] += 1


def _check_ranges(params: GeneratorParams) -> None:
    """Reject empty, out-of-domain or non-int generator ranges and seeds before any work."""
    for (lo, hi), least, what in ((params.n_range, 2, "vertex count"),
                                  (params.extra_range, 0, "extra edge"),
                                  (params.label_range, 1, "label count")):
        if not (type(lo) is int and type(hi) is int and least <= lo <= hi):  # a bool is no count
            raise GraphError(f"{what} range must satisfy {least} <= lo <= hi")
    if params.n_range[1] > _MAX_VERTICES:
        raise GraphError(f"vertex count range must not exceed {_MAX_VERTICES}")
    if params.extra_range[1] > _MAX_EXTRA_EDGES:
        raise GraphError(f"extra edge range must not exceed {_MAX_EXTRA_EDGES}")
    if type(params.seed) is not int:
        raise GraphError(f"generator seed must be an int, not {params.seed!r}")


def random_instance(params: GeneratorParams) -> HedgeGraph:
    """Seeded random connected simple instance with every label in use.

    A uniform labeled tree (random Prüfer sequence) plus distinct extra
    non-tree edges; labels drawn uniformly then repaired so each occurs.
    Deterministic given params.
    """
    _check_ranges(params)
    rng = Rng(params.seed)
    n_lo, n_hi = params.n_range
    extra_lo, extra_hi = params.extra_range
    lab_lo, lab_hi = params.label_range
    n = n_lo + rng.below(n_hi - n_lo + 1)
    extra = extra_lo + rng.below(extra_hi - extra_lo + 1)
    extra = min(extra, n * (n - 1) // 2 - (n - 1))
    m = n - 1 + extra
    if lab_lo > m:
        raise GraphError(f"infeasible params: {lab_lo} labels need at least {lab_lo} edges, have {m}")
    num_labels = lab_lo + rng.below(min(lab_hi, m) - lab_lo + 1)

    seq = [rng.below(n) for _ in range(n - 2)]
    pairs = _prufer_tree(n, seq)
    # Partial Fisher-Yates over the ranks of the non-tree pairs, in lexicographic
    # order, with a sparse swap dict; pair (u, v), u < v, has rank row[u] + v - u - 1.
    row = [u * (2 * n - u - 1) // 2 for u in range(n)]
    skip = [t - i for i, t in enumerate(sorted(row[u] + v - u - 1 for u, v in pairs))]
    swap: dict[int, int] = {}
    for k in range(extra):
        j = k + rng.below(n * (n - 1) // 2 - (n - 1) - k)
        swap[k], swap[j] = swap.get(j, j), swap.get(k, k)
        r = swap[k] + bisect_right(skip, swap[k])  # skips each tree rank at or below it
        u = bisect_right(row, r) - 1
        pairs.append((u, r - row[u] + u + 1))

    labels = [rng.below(num_labels) for _ in pairs]
    _repair_labels(labels, num_labels)
    return build_graph(n, [(u, v, f"l{lab}") for (u, v), lab in zip(pairs, labels)])


def search_counterexample(theorem: TheoremId, params: GeneratorParams,
                          trials: int, *, count_loops: bool = True,
                          induced_degrees: bool = False) -> SearchResult:
    """Scan seeded random instances for a violation of one claim.

    Trials are scheduled smallest vertex count first (equal blocks per
    size); trial t generates its instance from mix(params.seed, t), so
    the verdict stream is reproducible.  Stops at the first violation.
    """
    if type(trials) is not int or trials < 1:  # a bool is no count
        raise GraphError(f"at least one trial is required, counted by an int, not {trials!r}")
    _check_ranges(params)
    n_lo, n_hi = params.n_range
    per_size = -(-trials // (n_hi - n_lo + 1))
    checked = 0
    for t in range(trials):
        n = n_lo + min(t // per_size, n_hi - n_lo)
        g = random_instance(replace(params, n_range=(n, n), seed=mix(params.seed, t)))
        for v in audit_theorem(theorem, g, count_loops=count_loops,
                               induced_degrees=induced_degrees):
            checked += 1
            if not v.holds:
                return SearchResult(v, t + 1, checked)
    return SearchResult(None, trials, checked)
