"""Executable adjudication of the structural claims about hedge graphs.

Each claim gets an identifier and an auditor that computes both sides of
the stated relation on a concrete instance, returning verdicts that
carry the full instance serialization and a digest, so any verdict can
be re-checked from scratch.  A seeded generator and counterexample
search adjudicate claims that are expected to fail; the set of claims
that provably hold on every connected instance is exported so callers
can treat their violation as an internal error rather than a finding.

Each claim computes only what it reads (views, adjacency graph,
relabeling), and nothing is shared across calls: ``bench/spans.py`` times
one span per claim and ``verify_certificate`` replays one claim from
cold, so a value cached by one claim would hide the cost of another.
The contraction claims read contracted edge lists from ``contraction``
(``_contract``, ``_contract_edge``), so no claim builds a graph.

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
from typing import Any, Sequence

from .adjacency import _adjacency_of, _greedy_colors, adjacency_graph
from .connectivity import brute_force_connectivity
from .contraction import _contract, _contract_edge, contraction_sequence
from .graph import (Edge, GraphError, HedgeGraph, HedgeView, _hedge_views, _vertex_label_sets,
                    build_graph, graph_rank_nullity, is_connected)
from .hgformat import ParseError, emit, parse
from .rng import Rng, mix

_ORDER_DRAWS = 5  # label shuffles per instance for the per-order claims; repeats are kept once


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


def _sample_orders(g: HedgeGraph, digest: str) -> list[list[str]]:
    """Deterministic sample of label permutations, seeded by the instance."""
    rng = Rng(int(digest[:16], 16))
    orders: list[list[str]] = []
    for _ in range(_ORDER_DRAWS):
        names = list(g.labels)
        rng.shuffle(names)
        if names not in orders:
            orders.append(names)
    return orders


def audit_theorem(theorem: TheoremId, g: HedgeGraph, *, count_loops: bool = True,
                  induced_degrees: bool = False) -> list[AuditVerdict]:
    """Adjudicate one claim on one connected instance.

    Per-hedge, per-edge, per-pair and per-order claims yield one verdict
    each, in ascending id / index / sample order.  Non-default degree
    modes are recorded in every witness so verification can replay them.
    """
    if g.n < 2 or not is_connected(g):
        raise GraphError("audit requires a connected instance with at least 2 vertices")
    theorem = TheoremId(theorem)
    text = emit(g)
    digest = instance_digest(text)
    modes: dict[str, Any] = {}
    if not count_loops:
        modes["count_loops"] = False
    if induced_degrees:
        modes["induced_degrees"] = True

    def verdict(holds: bool, lhs: Any, rhs: Any, extra: dict[str, Any] | None = None) -> AuditVerdict:
        witness = dict(modes)
        if extra:
            witness.update(extra)
        return AuditVerdict(theorem, text, digest, holds, lhs, rhs, witness or None)

    def degrees_of(n: int, edges: Sequence[Edge]) -> list[int]:
        return [len(s) for s in _vertex_label_sets(n, edges, count_loops)]

    degrees = degrees_of(g.n, g.edges)
    delta, big_delta = min(degrees), max(degrees)

    def hedge_total(view: HedgeView) -> int:
        inside = view.vertex_set
        if induced_degrees:  # only edges with both ends inside count, so no vertex outside has any
            return sum(degrees_of(g.n, [e for e in g.edges if e[0] in inside and e[1] in inside]))
        return sum(degrees[v] for v in inside)

    if theorem is TheoremId.T1_MIN_DEG_BOUND:
        lam = brute_force_connectivity(g, cap=g.num_labels).size
        return [verdict(lam <= delta, lam, delta)]

    if theorem in (TheoremId.T2_RELABEL_GE_MAXDEG, TheoremId.T4_MAXDA_GE_MAXDEG,
                   TheoremId.T5_RELABEL_GE_MAXDA, TheoremId.VIZING_BAND, TheoremId.COROLLARY_CHAIN):
        adj = adjacency_graph(g)
        max_da = max(map(len, adj), default=0)
        if theorem is TheoremId.T4_MAXDA_GE_MAXDEG:  # the one claim here that needs no relabeling
            return [verdict(max_da >= big_delta, max_da, big_delta)]
        greedy_q = _greedy_colors(adj).num_colors
        optimal_q = _chromatic_number(adj) if g.num_labels <= 8 else None
        q = optimal_q if optimal_q is not None else greedy_q
        q_witness = {"greedy_q": greedy_q, "optimal_q": optimal_q}
        if theorem is TheoremId.T2_RELABEL_GE_MAXDEG:
            return [verdict(q >= big_delta, q, big_delta, q_witness)]
        if theorem is TheoremId.T5_RELABEL_GE_MAXDA:
            return [verdict(q >= max_da, q, max_da, q_witness)]
        if theorem is TheoremId.VIZING_BAND:
            return [verdict(max_da <= q <= max_da + 1, q, [max_da, max_da + 1], q_witness)]
        chain = [brute_force_connectivity(g, cap=g.num_labels).size, delta, big_delta, max_da, q]
        holds = all(a <= b for a, b in zip(chain, chain[1:]))
        return [verdict(holds, chain, None, q_witness)]

    if theorem is TheoremId.T3_DA_LE_TOTAL:
        adj = adjacency_graph(g)
        out = []
        for i, view in enumerate(_hedge_views(g)):
            total = hedge_total(view)
            out.append(verdict(len(adj[i]) <= total, len(adj[i]), total, {"hedge": g.labels[i]}))
        return out

    if theorem in (TheoremId.RANKSUM_STATIC, TheoremId.NULLSUM_STATIC):
        rank, nullity = graph_rank_nullity(g)
        if theorem is TheoremId.RANKSUM_STATIC:
            lhs, rhs = rank, sum(v.rank for v in _hedge_views(g))
        else:
            lhs, rhs = nullity, sum(v.nullity for v in _hedge_views(g))
        return [verdict(lhs == rhs, lhs, rhs)]

    if theorem in (TheoremId.RANKSUM_SEQ, TheoremId.NULLSUM_SEQ):
        rank, nullity = graph_rank_nullity(g)
        out = []
        for order in _sample_orders(g, digest):
            trace = contraction_sequence(g, order)
            if theorem is TheoremId.RANKSUM_SEQ:
                lhs, rhs = rank, trace.total_rank_consumed
            else:
                lhs, rhs = nullity, trace.total_nullity_consumed
            out.append(verdict(lhs == rhs, lhs, rhs, {"order": order}))
        return out

    if theorem is TheoremId.VD_EQUALITY:
        lhs = sum(len(v.vertex_set) for v in _hedge_views(g))
        rhs = sum(degrees)
        return [verdict(lhs == rhs, lhs, rhs)]

    if theorem is TheoremId.SPANSUM_UPPER:
        lhs = sum(v.span for v in _hedge_views(g))
        rhs = 2 * g.m - g.n + 1
        return [verdict(lhs <= rhs, lhs, rhs)]

    if theorem is TheoremId.SPANSUM_BAND:
        lhs = sum(v.span for v in _hedge_views(g))
        band = [g.n * delta - g.n + 1, g.n * big_delta - g.n + 1]
        return [verdict(band[0] <= lhs <= band[1], lhs, band)]

    if theorem is TheoremId.CONTRACTV_BAND:
        out = []
        for idx, (u, v, _) in enumerate(g.edges):
            if u == v:
                continue
            dw = degrees_of(*_contract_edge(g, idx))[min(u, v)]
            band = [max(degrees[u], degrees[v]) - 1, degrees[u] + degrees[v] - 2]
            out.append(verdict(band[0] <= dw <= band[1], dw, band, {"edge": idx}))
        return out

    if theorem is TheoremId.CONTRACT_MIN:
        out = []
        for i in range(g.num_labels):
            lhs = min(degrees_of(*_contract(g, i)))
            out.append(verdict(lhs >= delta - 1, lhs, delta - 1, {"hedge": g.labels[i]}))
        return out

    if theorem in (TheoremId.CONTRACT_H, TheoremId.CONTRACT_SUM):
        out = []
        for i, view in enumerate(_hedge_views(g)):
            after_total = sum(degrees_of(*_contract(g, i)))
            if theorem is TheoremId.CONTRACT_H:
                lhs, rhs = after_total, sum(degrees) - 2 * view.rank
            else:
                lhs, rhs = sum(degrees), after_total + hedge_total(view) - view.span * (delta - 1)
            out.append(verdict(lhs <= rhs, lhs, rhs, {"hedge": g.labels[i]}))
        return out

    if theorem is TheoremId.CONTRACT_ADJ:
        adj = adjacency_graph(g)
        q = _greedy_colors(adj).num_colors
        out = []
        for i in range(g.num_labels):
            adj_after = _adjacency_of(g.num_labels, _vertex_label_sets(*_contract(g, i)))
            for j in range(g.num_labels):
                if j == i:
                    continue
                actual = len(adj_after[j])
                if j in adj[i]:
                    predicted = len(adj[j]) + len(adj[i]) - q + 1
                else:
                    predicted = len(adj[j])
                out.append(verdict(actual == predicted, actual, predicted,
                                   {"contracted": g.labels[i], "hedge": g.labels[j], "q": q}))
        return out

    raise GraphError(f"unhandled theorem id {theorem!r}")


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
    except json.JSONDecodeError:
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
    witness).  Malformed instance text raises ParseError.
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
    return any(f.holds == v.holds and f.lhs == v.lhs and f.rhs == v.rhs
               and f.witness == v.witness for f in fresh)


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
    sizes = list(range(n_lo, n_hi + 1))
    per_size = -(-trials // len(sizes))
    checked = 0
    for t in range(trials):
        n = sizes[min(t // per_size, len(sizes) - 1)]
        g = random_instance(replace(params, n_range=(n, n), seed=mix(params.seed, t)))
        for v in audit_theorem(theorem, g, count_loops=count_loops,
                               induced_degrees=induced_degrees):
            checked += 1
            if not v.holds:
                return SearchResult(v, t + 1, checked)
    return SearchResult(None, trials, checked)
