"""Executable adjudication of the structural claims about hedge graphs.

Each claim gets an identifier and one row of ``_CLAIMS``: ``record`` computes
both sides of the stated relation for one item (hedge, edge, pair or order,
or the one item of a single-record claim) of a concrete instance, ``items``
lists the items, ``key`` gives the witness entries that name an item, and
``universal`` marks the claims that provably hold on every connected
instance, exported as ``UNIVERSAL_IDS`` so callers can treat their violation
as an internal error rather than a finding.  Verdicts carry the full instance
serialization and a digest, so any verdict can be re-checked from scratch; a
counterexample search over seeded instances (``generator``) adjudicates the
other claims.

Claims on one graph share its derived values (``_Facts``: text, digest, views,
adjacency graph, colorings, lambda, ranks, and per hedge or order the
contracted degrees and sequence sums), each computed on first read.
``audit_theorem`` keeps the facts of the last graph object it audited, keyed
by identity and degree modes, so ``audit --theorem all`` computes each value
once.  ``verify_certificate`` parses a new graph per record, so it starts
cold, but computes only the item whose key the witness holds, and emits the
instance only for the order claims, whose orders are drawn from the digest of
the emitted text.  The contraction claims read edge lists
(``contraction._contract``, ``_contract_edge``), so no claim builds a graph.

Degree conventions are explicit: by default a loop contributes its
label to its vertex once, and hedge degree totals use degrees measured
in the whole graph.  Both alternative readings (loops ignored, degrees
induced by the hedge's vertex set) are available as keyword modes and
are recorded in verdict witnesses so re-checks replay them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from enum import Enum
from itertools import permutations
from operator import eq, ge, le
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .adjacency import _adjacency_of, _greedy_colors, adjacency_graph
from .connectivity import _connected, brute_force_connectivity
from .contraction import _contract, _contract_edge, contraction_sequence
from .generator import GeneratorParams, _check_ranges, random_instance
from .graph import Edge, GraphError, HedgeGraph, _hedge_views, _vertex_label_sets, graph_rank_nullity
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


def _memo(fn: Callable[[_Facts, Any], Any]) -> Callable[[_Facts, Any], Any]:
    """A ``_Facts`` method whose value (never None) for each argument is computed on its first call."""
    def method(facts: _Facts, arg: Any) -> Any:
        value = facts.memo.get((fn, arg))
        if value is None:
            value = facts.memo[fn, arg] = fn(facts, arg)
        return value
    return method


class _Facts:
    """The values several claims read of one connected graph in one degree mode.

    Modes and degrees are built at once, each ``_lazy`` value (text and digest
    included) on its first read and each ``_memo`` value on its first call with
    one hedge or order, so a lone claim, or one item of it, computes only what it
    reads.  No shared value is changed in place (verdicts get copies of the two
    witness dicts), so no claim can change another's input.
    """

    def __init__(self, g: HedgeGraph, count_loops: bool, induced_degrees: bool):
        # n first: _connected refuses one vertex with a message of its own; it then
        # proves g once for brute_force_connectivity too
        if g.n < 2 or not _connected(g):
            raise GraphError("audit requires a connected instance with at least 2 vertices")
        self.g, self.count_loops, self.induced_degrees = g, count_loops, induced_degrees
        self.memo: dict[Any, Any] = {}
        # the non-default degree modes, which every witness records
        self.modes: dict[str, Any] = {} if count_loops else {"count_loops": False}
        if induced_degrees:
            self.modes["induced_degrees"] = True
        self.degrees = tuple(self.degrees_of(g.n, g.edges))
        self.delta, self.big_delta = min(self.degrees), max(self.degrees)

    def degrees_of(self, n: int, edges: Sequence[Edge]) -> list[int]:
        return [len(s) for s in _vertex_label_sets(n, edges, self.count_loops)]

    text = _lazy(lambda f: emit(f.g))
    digest = _lazy(lambda f: instance_digest(f.text))
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
    # label degrees, and the adjacency graph, after contracting hedge i
    after = _memo(lambda f, i: tuple(f.degrees_of(*_contract(f.g, i))))
    adj_after = _memo(lambda f, i: _adjacency_of(f.g.num_labels, _vertex_label_sets(*_contract(f.g, i))))

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
    def orders(self) -> tuple[tuple[str, ...], ...]:
        """Distinct label orders drawn with a seed from the digest."""
        rng, orders = Rng(int(self.digest[:16], 16)), []
        for _ in range(_ORDER_DRAWS):
            names = list(self.g.labels)
            rng.shuffle(names)
            if tuple(names) not in orders:
                orders.append(tuple(names))
        return tuple(orders)

    @_memo
    def sums(self, order: tuple[str, ...]) -> tuple[int, int]:
        """The (rank, nullity) that the contraction sequence of ``order`` consumes."""
        trace = contraction_sequence(self.g, order)
        return trace.total_rank_consumed, trace.total_nullity_consumed


def _within(x: int, band: list[int]) -> bool:
    return band[0] <= x <= band[1]


_Record = tuple[bool, Any, Any, dict[str, Any] | None]


def _record(relation: Callable[[Any, Any], bool], lhs: Any, rhs: Any,
            extra: dict[str, Any] | None = None) -> _Record:
    return relation(lhs, rhs), lhs, rhs, extra


class _Claim(NamedTuple):
    """One claim: ``record(f, item)`` is one item's (holds, lhs, rhs, other witness
    entries or None), ``items(f)`` every item in verdict order, ``key(f, item)`` the
    witness entries naming the item (none for a claim's one item), and ``universal``
    whether the claim holds on every connected instance in the default degree modes."""

    record: Callable[[_Facts, Any], _Record]
    items: Callable[[_Facts], Iterable[Any]] = lambda f: [None]
    key: Callable[[_Facts, Any], dict[str, Any]] = lambda f, item: {}
    universal: bool = False

    def records(self, f: _Facts, items: Iterable[Any]) -> Iterator[_Record]:
        """Each item's record, its witness the non-default modes, the item's key and the row's entries."""
        for item in items:
            holds, lhs, rhs, extra = self.record(f, item)
            yield holds, lhs, rhs, {**f.modes, **self.key(f, item), **(extra or {})} or None

    def named(self, f: _Facts, witness: dict[str, Any]) -> list[Any]:
        """The items whose key the witness holds; dict items compare values by ==, hashing none."""
        return [item for item in self.items(f) if self.key(f, item).items() <= witness.items()]


def _edge_band(f: _Facts, idx: int) -> _Record:
    """Contracting non-loop edge idx = (u, v) leaves its merged vertex a degree in
    [max(d(u), d(v)) - 1, d(u) + d(v) - 2]."""
    u, v, _ = f.g.edges[idx]
    du, dv = f.degrees[u], f.degrees[v]
    return _record(_within, f.degrees_of(*_contract_edge(f.g, idx))[min(u, v)], [max(du, dv) - 1, du + dv - 2])


def _adjacency_after(f: _Facts, pair: tuple[int, int]) -> _Record:
    """Contracting hedge i predicts hedge j's adjacency degree from the greedy q."""
    i, j = pair
    predicted = len(f.adj[j]) + (len(f.adj[i]) - f.greedy_q + 1 if j in f.adj[i] else 0)
    return _record(eq, len(f.adj_after(i)[j]), predicted, {"q": f.greedy_q})


# the items and their keys of the per-hedge and the per-order claims
_HEDGES = (lambda f: range(f.g.num_labels), lambda f, i: {"hedge": f.g.labels[i]})
_ORDERS = (lambda f: f.orders, lambda f, order: {"order": list(order)})

# One row per claim, in catalog order: record, items, key, universal.  Keys differ
# between items, so a witness names at most one item; one that matches an item only
# under == (an edge 1.0 for 1) gets a record whose witness _same tells apart.  Rows
# call package functions by their module names when they run and store none, so
# what replaces hedgecut.audit.<name> (a test, a tracer) sees every call.
_CLAIMS: dict[TheoremId, _Claim] = {
    TheoremId.T1_MIN_DEG_BOUND: _Claim(lambda f, _: _record(le, f.lam, f.delta), universal=True),
    TheoremId.T2_RELABEL_GE_MAXDEG: _Claim(lambda f, _: _record(ge, f.q, f.big_delta, f.q_witness),
                                           universal=True),
    TheoremId.T3_DA_LE_TOTAL: _Claim(lambda f, i: _record(le, len(f.adj[i]), f.totals[i]), *_HEDGES,
                                     universal=True),
    TheoremId.T4_MAXDA_GE_MAXDEG: _Claim(lambda f, _: _record(ge, f.max_da, f.big_delta)),
    TheoremId.T5_RELABEL_GE_MAXDA: _Claim(lambda f, _: _record(ge, f.q, f.max_da, f.q_witness)),
    TheoremId.VIZING_BAND: _Claim(lambda f, _: _record(_within, f.q, [f.max_da, f.max_da + 1], f.q_witness)),
    # the chain lambda <= delta <= Delta <= max_dA <= q holds when it is already sorted
    TheoremId.COROLLARY_CHAIN: _Claim(lambda f, _: _record(lambda chain, _: chain == sorted(chain),
                                                           [f.lam, f.delta, f.big_delta, f.max_da, f.q],
                                                           None, f.q_witness)),
    TheoremId.RANKSUM_STATIC: _Claim(lambda f, _: _record(eq, f.rank_nullity[0], sum(v.rank for v in f.views))),
    TheoremId.RANKSUM_SEQ: _Claim(lambda f, order: _record(eq, f.rank_nullity[0], f.sums(order)[0]), *_ORDERS,
                                  universal=True),
    TheoremId.NULLSUM_STATIC: _Claim(lambda f, _: _record(eq, f.rank_nullity[1],
                                                          sum(v.nullity for v in f.views))),
    TheoremId.NULLSUM_SEQ: _Claim(lambda f, order: _record(eq, f.rank_nullity[1], f.sums(order)[1]), *_ORDERS,
                                  universal=True),
    TheoremId.VD_EQUALITY: _Claim(lambda f, _: _record(eq, sum(len(v.vertex_set) for v in f.views),
                                                       sum(f.degrees)), universal=True),
    TheoremId.SPANSUM_UPPER: _Claim(lambda f, _: _record(le, f.span_sum, 2 * f.g.m - f.g.n + 1),
                                    universal=True),
    TheoremId.SPANSUM_BAND: _Claim(lambda f, _: _record(
        _within, f.span_sum, [f.g.n * f.delta - f.g.n + 1, f.g.n * f.big_delta - f.g.n + 1])),
    TheoremId.CONTRACTV_BAND: _Claim(
        _edge_band, lambda f: [idx for idx, (u, v, _) in enumerate(f.g.edges) if u != v],
        lambda f, idx: {"edge": idx}),
    TheoremId.CONTRACT_MIN: _Claim(lambda f, i: _record(ge, min(f.after(i)), f.delta - 1), *_HEDGES,
                                   universal=True),
    TheoremId.CONTRACT_H: _Claim(lambda f, i: _record(
        le, sum(f.after(i)), sum(f.degrees) - 2 * f.views[i].rank), *_HEDGES),
    TheoremId.CONTRACT_SUM: _Claim(lambda f, i: _record(
        le, sum(f.degrees), sum(f.after(i)) + f.totals[i] - f.views[i].span * (f.delta - 1)), *_HEDGES,
        universal=True),
    TheoremId.CONTRACT_ADJ: _Claim(
        _adjacency_after, lambda f: permutations(range(f.g.num_labels), 2),
        lambda f, pair: {"contracted": f.g.labels[pair[0]], "hedge": f.g.labels[pair[1]]}),
}

# The claims whose violation is an internal error, not a finding.
UNIVERSAL_IDS = frozenset(theorem for theorem, claim in _CLAIMS.items() if claim.universal)


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
    claim = _CLAIMS[theorem]
    return [AuditVerdict(theorem, f.text, f.digest, *record) for record in claim.records(f, claim.items(f))]


# json.dumps with options builds a new encoder on every call; one serves every field
_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _value(x: Any) -> str:
    """One field's compact JSON; an int (not a bool: str(True) is not true) or None directly."""
    return str(x) if type(x) is int else "null" if x is None else _json(x)


def _header(theorem: TheoremId, holds: bool, lhs: Any, rhs: Any, witness: Any, digest: str) -> str:
    return (f"verdict theorem={theorem.value} holds={'true' if holds else 'false'} "
            f"lhs={_value(lhs)} rhs={_value(rhs)} witness={_value(witness)} digest={digest}")


def format_verdict(v: AuditVerdict) -> str:
    """Frozen line-oriented record: one header line plus the instance block."""
    header = _header(v.theorem, v.holds, v.lhs, v.rhs, v.witness, v.digest)
    return f"{header}\ninstance-begin\n{v.instance_text}instance-end\n"


def parse_verdict(text: str) -> AuditVerdict:
    """Inverse of format_verdict; raises ParseError on malformed records.

    The header must be the one format_verdict writes for the decoded values:
    same field order, single spaces, compact JSON with sorted keys.
    """
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
    holds = fields["holds"] == "true"
    if _header(theorem, holds, lhs, rhs, witness, fields["digest"]) != lines[0]:
        raise ParseError(1, "header is not as format_verdict writes it (field order, spacing or JSON form)")
    if len(lines) < 2 or lines[1] != "instance-begin":
        raise ParseError(2, "expected 'instance-begin'")
    try:
        end = lines.index("instance-end", 2)
    except ValueError:
        raise ParseError(len(lines) - (lines[-1] == ""), "missing 'instance-end'") from None
    instance_text = "\n".join(lines[2:end]) + "\n"
    return AuditVerdict(theorem, instance_text, fields["digest"], holds, lhs, rhs, witness)


def verify_certificate(v: AuditVerdict) -> bool:
    """Recompute a verdict from its serialized instance and confirm it.

    Only the item whose key the witness holds (hedge, edge, contracted and
    hedge, or order) is recomputed, on a graph parsed afresh.  Returns False
    when the digest does not match the instance text, when the witness names
    no item of the claim, or when the fresh record disagrees on (holds, lhs,
    rhs, witness), JSON types included: ``1.0`` and ``true`` are not ``1``.
    Malformed instance text raises ParseError.
    """
    if instance_digest(v.instance_text) != v.digest:
        return False
    g = parse(v.instance_text)
    witness = v.witness if isinstance(v.witness, dict) else {}
    try:
        facts = _Facts(g, witness.get("count_loops") is not False, witness.get("induced_degrees") is True)
    except GraphError:
        return False
    claim, want = _CLAIMS[TheoremId(v.theorem)], [v.holds, v.lhs, v.rhs, v.witness]
    return any(_same([*fresh], want) for fresh in claim.records(facts, claim.named(facts, witness)))


def _same(a: Any, b: Any) -> bool:
    """``a == b`` with equal types throughout, so ``1``, ``1.0`` and ``True`` differ as in JSON."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


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
