"""Every small hedge graph, checked.

The corpus is every connected simple graph on 2-4 labelled vertices under
every partition of its edges into labels (restricted growth strings): 832
instances.  On each, λ equals the bipartition oracle's and is proven, every
universal claim holds in the default degree modes, and every record the audit
prints reads back in one pass and verifies.  The smallest refutation of each
refutable claim is pinned, so a change in what a claim states shows here.
"""

from itertools import combinations

from hedgecut import (
    UNIVERSAL_IDS,
    TheoremId,
    audit,
    audit_theorem,
    build_graph,
    format_verdict,
    hedge_connectivity,
    parse_verdict,
    validate_certificate,
    verify_certificate,
)

from test_oracle import bipartition_oracle


def _partitions(m):
    """Every partition of m items into labels, as restricted growth strings."""
    strings = [()]
    for _ in range(m):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def _spans(n, pairs):
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for v in {b for a, b in pairs if a == u} | {a for a, b in pairs if b == u}:
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    return len(reached) == n


def _small_graphs():
    graphs = []
    for n in (2, 3, 4):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
            if _spans(n, chosen):
                graphs += [build_graph(n, [(u, v, f"l{b}") for (u, v), b in zip(chosen, labels)])
                           for labels in _partitions(len(chosen))]
    return graphs


GRAPHS = _small_graphs()

# the least (n, m, labels) on which each refutable claim fails, in the default degree modes
SMALLEST_REFUTATION = {
    TheoremId.T4_MAXDA_GE_MAXDEG: (2, 1, 1), TheoremId.COROLLARY_CHAIN: (2, 1, 1),
    TheoremId.CONTRACTV_BAND: (3, 2, 1), TheoremId.CONTRACT_H: (3, 2, 1),
    TheoremId.CONTRACT_ADJ: (3, 2, 2),
    TheoremId.RANKSUM_STATIC: (3, 3, 2), TheoremId.NULLSUM_STATIC: (3, 3, 2),
    TheoremId.SPANSUM_BAND: (3, 3, 3),
    TheoremId.T5_RELABEL_GE_MAXDA: (4, 5, 5), TheoremId.VIZING_BAND: (4, 5, 5),
}


def test_corpus_size():
    assert len(GRAPHS) == 832
    assert sum(g.n == 4 for g in GRAPHS) == 820


def test_connectivity_matches_the_bipartition_oracle():
    for g in GRAPHS:
        cert = hedge_connectivity(g)
        assert cert.size == bipartition_oracle(g.n, g.edges), g
        assert cert.exact and validate_certificate(g, cert), g


def test_every_record_holds_where_universal_and_reads_back(monkeypatch):
    walks = []
    walk = audit._walk
    monkeypatch.setattr(audit, "_walk", lambda text: walks.append(text) or walk(text))
    smallest, records = {}, 0
    for g in GRAPHS:
        size = (g.n, g.m, g.num_labels)
        for theorem in TheoremId:
            for v in audit_theorem(theorem, g):
                records += 1
                assert v.holds or theorem not in UNIVERSAL_IDS, (theorem, g)
                if not v.holds:
                    smallest[theorem] = min(smallest.get(theorem, size), size)
                record = parse_verdict(format_verdict(v))
                assert repr(record) == repr(v) and verify_certificate(record), (theorem, g)
    assert smallest == SMALLEST_REFUTATION
    assert set(SMALLEST_REFUTATION) == set(TheoremId) - UNIVERSAL_IDS
    assert records == 32_278 and walks == []
