import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest

import hedgecut.audit
import hedgecut.contraction
from hedgecut import (
    UNIVERSAL_IDS,
    GeneratorParams,
    GraphError,
    HedgeGraph,
    ParseError,
    TheoremId,
    adjacency_graph,
    audit_theorem,
    build_graph,
    cli,
    contract_edge,
    contract_hedge,
    emit,
    format_verdict,
    hedge_view,
    instance_digest,
    is_connected,
    parse,
    parse_verdict,
    random_instance,
    search_counterexample,
    verify_certificate,
)

ALL_FIXTURE_NAMES = ("c4alt", "triangle", "p3", "spider", "twoi", "pendants")


@pytest.fixture
def fixture_graphs(c4alt, triangle, p3, spider, twoi, pendants):
    return dict(zip(ALL_FIXTURE_NAMES, (c4alt, triangle, p3, spider, twoi, pendants)))


@pytest.fixture
def loopy():
    # contracting hedge i collapses everything; both a-edges become loops
    return build_graph(4, [(0, 1, "i"), (1, 2, "i"), (2, 3, "i"), (0, 2, "a"), (1, 3, "a")])


class TestPreconditions:
    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1, "a"), (2, 3, "b")])
        with pytest.raises(GraphError, match="connected"):
            audit_theorem(TheoremId.VD_EQUALITY, g)

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError, match="at least 2"):
            audit_theorem(TheoremId.VD_EQUALITY, build_graph(1, []))

    def test_theorem_id_coerced_from_string(self, p3):
        verdicts = audit_theorem("VD_EQUALITY", p3)
        assert verdicts[0].theorem is TheoremId.VD_EQUALITY


class TestUniversalClaims:
    def test_hold_on_all_fixtures(self, fixture_graphs):
        for g in fixture_graphs.values():
            for theorem in sorted(UNIVERSAL_IDS):
                for v in audit_theorem(theorem, g):
                    assert v.holds, (theorem, v.lhs, v.rhs, v.witness)

    def test_digest_matches_instance(self, c4alt):
        v = audit_theorem(TheoremId.VD_EQUALITY, c4alt)[0]
        assert v.instance_text == emit(c4alt)
        assert v.digest == instance_digest(v.instance_text)

    def test_connectivity_bound_values(self, c4alt):
        v = audit_theorem(TheoremId.T1_MIN_DEG_BOUND, c4alt)[0]
        assert (v.lhs, v.rhs) == (1, 2)

    def test_vertex_degree_sum_values(self, c4alt):
        v = audit_theorem(TheoremId.VD_EQUALITY, c4alt)[0]
        assert v.holds and v.lhs == v.rhs == 8
        assert v.witness is None

    def test_sequence_sums_telescope(self, c4alt):
        verdicts = audit_theorem(TheoremId.RANKSUM_SEQ, c4alt)
        assert len(verdicts) == 2  # only two distinct label permutations exist
        for v in verdicts:
            assert v.holds and v.lhs == 3 and v.rhs == 3
            assert sorted(v.witness["order"]) == ["a", "b"]
        assert verdicts[0].witness != verdicts[1].witness


class TestRefutations:
    def test_static_rank_sum(self, c4alt):
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        assert (v.holds, v.lhs, v.rhs, v.witness) == (False, 3, 4, None)

    def test_static_nullity_sum(self, c4alt):
        v = audit_theorem(TheoremId.NULLSUM_STATIC, c4alt)[0]
        assert (v.holds, v.lhs, v.rhs) == (False, 1, 0)

    def test_max_adjacency_vs_max_degree(self, p3, c4alt):
        v = audit_theorem(TheoremId.T4_MAXDA_GE_MAXDEG, p3)[0]
        assert (v.holds, v.lhs, v.rhs) == (False, 1, 2)
        v = audit_theorem(TheoremId.T4_MAXDA_GE_MAXDEG, c4alt)[0]
        assert (v.holds, v.lhs, v.rhs) == (False, 1, 2)

    def test_relabel_vs_max_adjacency(self, spider):
        v = audit_theorem(TheoremId.T5_RELABEL_GE_MAXDA, spider)[0]
        assert (v.holds, v.lhs, v.rhs) == (False, 2, 3)
        assert v.witness == {"greedy_q": 2, "optimal_q": 2}

    def test_relabel_band(self, spider):
        v = audit_theorem(TheoremId.VIZING_BAND, spider)[0]
        assert (v.holds, v.lhs, v.rhs) == (False, 2, [3, 4])

    def test_span_sum_band(self, triangle):
        v = audit_theorem(TheoremId.SPANSUM_BAND, triangle)[0]
        assert (v.holds, v.lhs, v.rhs) == (False, 3, [4, 4])

    def test_contracted_vertex_degree_band(self, twoi):
        verdicts = audit_theorem(TheoremId.CONTRACTV_BAND, twoi)
        assert [(v.holds, v.lhs, v.rhs) for v in verdicts] == [
            (False, 3, [1, 2]),
            (False, 2, [1, 1]),
            (True, 1, [1, 1]),
            (True, 1, [1, 1]),
        ]
        assert [v.witness["edge"] for v in verdicts] == [0, 1, 2, 3]

    def test_contracted_degree_total(self, pendants):
        verdicts = audit_theorem(TheoremId.CONTRACT_H, pendants)
        by_hedge = {v.witness["hedge"]: (v.holds, v.lhs, v.rhs) for v in verdicts}
        assert by_hedge["i"] == (False, 6, 5)
        for name in ("a", "b", "c"):
            assert by_hedge[name] == (True, 7, 7)

    def test_contracted_adjacency_degree(self, c4alt):
        verdicts = audit_theorem(TheoremId.CONTRACT_ADJ, c4alt)
        assert len(verdicts) == 2
        for v in verdicts:
            assert (v.holds, v.lhs, v.rhs) == (False, 0, 1)
            assert v.witness["q"] == 2

    def test_comparison_chain(self, c4alt):
        v = audit_theorem(TheoremId.COROLLARY_CHAIN, c4alt)[0]
        assert not v.holds
        assert v.lhs == [1, 2, 2, 1, 2] and v.rhs is None


class TestDegreeModes:
    def test_loops_ignored_refutes_contraction_min(self, loopy):
        default = audit_theorem(TheoremId.CONTRACT_MIN, loopy)
        assert all(v.holds for v in default)
        ignored = audit_theorem(TheoremId.CONTRACT_MIN, loopy, count_loops=False)
        v = next(v for v in ignored if v.witness["hedge"] == "i")
        assert (v.holds, v.lhs, v.rhs) == (False, 0, 1)
        assert v.witness["count_loops"] is False

    def test_mode_recorded_only_when_non_default(self, loopy):
        default = audit_theorem(TheoremId.CONTRACT_MIN, loopy)[0]
        assert "count_loops" not in (default.witness or {})
        induced = audit_theorem(TheoremId.T3_DA_LE_TOTAL, loopy, induced_degrees=True)[0]
        assert induced.witness["induced_degrees"] is True

    def test_verification_replays_modes(self, loopy):
        ignored = audit_theorem(TheoremId.CONTRACT_MIN, loopy, count_loops=False)
        v = next(v for v in ignored if not v.holds)
        assert verify_certificate(v)
        flipped = dataclasses.replace(v, holds=True)
        assert not verify_certificate(flipped)

    def test_induced_degrees_change_totals(self, twoi):
        default = audit_theorem(TheoremId.T3_DA_LE_TOTAL, twoi)
        induced = audit_theorem(TheoremId.T3_DA_LE_TOTAL, twoi, induced_degrees=True)
        d = {v.witness["hedge"]: v.rhs for v in default}
        i = {v.witness["hedge"]: v.rhs for v in induced}
        # pendant hedge a touches vertices 0 and 3; only the a-label survives induction
        assert d["a"] == 3 and i["a"] == 2


MODES = {"default": {}, "loops-ignored": {"count_loops": False},
         "induced": {"induced_degrees": True}}

# sha256 of the format_verdict text of all 19 claims, in TheoremId order
AUDIT_BYTES = {
    ("c4alt", "default"): "a1a025a6d604c95c98d5e073d0b1ab2cefed2562c5e9ce6259b9db300b85f234",
    ("c4alt", "loops-ignored"): "1647be39cc7804155cd27a53d427e444f6381ada3e8ed9eb97d4d8b45147d28a",
    ("c4alt", "induced"): "772f2d2131e277e33c6cfa3e05187e6b0bb88b04b3a1e48ef26b48b644f7de1f",
    ("p3", "default"): "f83d0c67b6cf93c3d9e611effe4e567dbaea82f7e6b34ca9a3cf08dae846f55c",
    ("p3", "loops-ignored"): "7dab727efeabb1db57de44925f677ff4ea4c7e810b5477a6ccc217693bea3636",
    ("p3", "induced"): "67ef578eb5c2cfe5716c9ea51b495be039a29489ad0f84fc5a44dbb42dfa4f5c",
    ("pendants", "default"): "c2616f37f9e7da9cf2117bdcb509730d6fae3e892851fa9e2bfb96572ee20588",
    ("pendants", "loops-ignored"): "4fb239e1509a972a02682a461c8df0dfa467e5914b5d54e37c18b581bcda6831",
    ("pendants", "induced"): "84a9c2ab47ddc8b20c0905c0629b5e8683eb51bf53b18cb9ebd9752c55479011",
    ("spider", "default"): "6124fdec30e2b488b68e35c459d0e9e9860a2683944e74b8de75b4cdb6151d15",
    ("spider", "loops-ignored"): "0db2a19146efcb7fb183d66c37381bca5c7f7288e44dffad3863fc2cf8690b43",
    ("spider", "induced"): "55b0879531ec05e1ca6205f6399692958ccc8c92895f9209f00f1f28e9b316a9",
    ("triangle3", "default"): "68ff94246bcf6595e5ce0a5d451f2158816b0f38aa67f0cb404f31148081be65",
    ("triangle3", "loops-ignored"): "e739f6032a941074d7871e7e3495760006563ecefab6495255d5e498014f5793",
    ("triangle3", "induced"): "194d1008fff1a403bcd805b3f4d5f445425241298453a3186829b2ed17da8ff0",
    ("twoi", "default"): "8dc64bb05f3100b9ac315d6b5dc5ab078b37161ea08abc48ddc3056b97845d16",
    ("twoi", "loops-ignored"): "14427439de0a04f0750cf908eccaadac32a52d79696e776a96df031f98bb0370",
    ("twoi", "induced"): "effc78d1adc62c330d851e91d524a8bc57c7aa682fa3bfa72bdd62ea473ba47c",
    ("contracted", "default"): "98cf14e67c7f13fd63b6d19af19b7510112c0a5d2b54559543a0a6c8ece64e5f",
    ("contracted", "loops-ignored"): "6872f7cf34555188033d90c00ed41f44004b4716b1507befc2477cd5397915ec",
    ("contracted", "induced"): "66224b82f3c20eaba125e6cab62ba7f12cc771f5772d2aac68aae85640040641",
}


def _golden_graph(name):
    if name != "contracted":
        return parse((Path(__file__).parent / "fixtures" / f"{name}.hg").read_text(encoding="ascii"))
    # contracting hedge a merges 0, 1, 2, so the b edge (0, 2) becomes a loop
    g = build_graph(5, [(0, 1, "a"), (1, 2, "a"), (0, 2, "b"), (2, 3, "c"), (3, 4, "b"),
                        (1, 4, "c"), (0, 4, "d")])
    return contract_hedge(g, "a")


@pytest.mark.parametrize("name, mode", sorted(AUDIT_BYTES))
def test_audit_bytes_pinned(name, mode):
    g = _golden_graph(name)
    if name == "contracted":
        assert is_connected(g) and any(u == v for u, v, _ in g.edges)
    text = "".join(format_verdict(v) for theorem in TheoremId
                   for v in audit_theorem(theorem, g, **MODES[mode]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == AUDIT_BYTES[name, mode]


def test_one_claim_row_per_theorem_id_in_catalog_order():
    assert list(hedgecut.audit._CLAIMS) == list(TheoremId)


VIEW_READERS = {TheoremId.T3_DA_LE_TOTAL, TheoremId.RANKSUM_STATIC, TheoremId.NULLSUM_STATIC,
                TheoremId.VD_EQUALITY, TheoremId.SPANSUM_UPPER, TheoremId.SPANSUM_BAND,
                TheoremId.CONTRACT_H, TheoremId.CONTRACT_SUM}
ADJACENCY_READERS = {TheoremId.T2_RELABEL_GE_MAXDEG, TheoremId.T3_DA_LE_TOTAL,
                     TheoremId.T4_MAXDA_GE_MAXDEG, TheoremId.T5_RELABEL_GE_MAXDA,
                     TheoremId.VIZING_BAND, TheoremId.COROLLARY_CHAIN, TheoremId.CONTRACT_ADJ}


@pytest.mark.parametrize("theorem", list(TheoremId))
def test_each_claim_builds_only_what_it_reads(theorem, twoi, monkeypatch):
    # T1, the two *_SEQ sums, CONTRACTV_BAND and CONTRACT_MIN read neither
    built = []
    for name in ("_hedge_views", "adjacency_graph"):
        def counted(h, *args, _fn=getattr(hedgecut.audit, name), _name=name):
            built.append((_name, h))
            return _fn(h, *args)
        monkeypatch.setattr(hedgecut.audit, name, counted)
    audit_theorem(theorem, twoi)
    views = [h is twoi for name, h in built if name == "_hedge_views"]  # all views, one build
    own_adjacency = sum(1 for name, h in built if name == "adjacency_graph" and h is twoi)
    assert views == ([True] if theorem in VIEW_READERS else [])
    assert own_adjacency == (1 if theorem in ADJACENCY_READERS else 0)


ALL_MODES = [{"count_loops": loops, "induced_degrees": induced}
             for loops in (True, False) for induced in (False, True)]


@pytest.mark.parametrize("name", ["twoi", "contracted"])
def test_contraction_claims_build_no_graph(name, monkeypatch, capsys):
    # every claim, the contraction claims included, reads edge lists, so
    # the only graph an audit run builds is the parsed instance
    g = _golden_graph(name)
    fixture = Path(__file__).parent / "fixtures" / "twoi.hg"
    parsed = parse(fixture.read_text(encoding="ascii"))
    built = []
    post_init = HedgeGraph.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(HedgeGraph, "__post_init__", counted)
    for mode in ALL_MODES:
        for theorem in TheoremId:
            assert audit_theorem(theorem, g, **mode)
    assert built == []
    assert cli.main(["audit", str(fixture), "--theorem", "all"]) == 0
    assert capsys.readouterr().out.count("verdict theorem=") > len(TheoremId)
    assert built == [parsed]


def _order_cases():
    """Seeded instances on both sides of the 8-label chromatic cutoff, and contraction results."""
    graphs = [random_instance(GeneratorParams((4, 9), (3, 8), (4, 10), seed=seed)) for seed in range(10)]
    for g in graphs[:6]:
        for i in range(g.num_labels):
            h = contract_hedge(g, i)
            if h.n >= 2 and is_connected(h) and any(u == v for u, v, _ in h.edges):
                graphs.append(h)
                break
    assert {g.num_labels <= 8 for g in graphs} == {True, False}
    assert len(graphs) > 10 and any(len({frozenset(e[:2]) for e in h.edges}) < h.m for h in graphs[10:])
    return graphs


def test_claim_order_does_not_change_a_verdict():
    # each claim's records, run alone on a graph object no audit has seen, are the
    # reference for runs that share one object forward, in reverse and across modes
    def records(theorem, g, mode):
        return "".join(format_verdict(v) for v in audit_theorem(theorem, g, **mode))

    for g in _order_cases():
        modes = list(enumerate(ALL_MODES))
        alone = {(k, t): records(t, dataclasses.replace(g), mode) for k, mode in modes for t in TheoremId}
        for claims in (list(TheoremId), list(TheoremId)[::-1]):
            assert {(k, t): records(t, g, mode) for k, mode in modes for t in claims} == alone
        assert {(k, t): records(t, g, mode) for t in TheoremId for k, mode in modes} == alone


SHARED = ("emit", "instance_digest", "is_connected", "adjacency_graph", "brute_force_connectivity",
          "contraction_sequence", "_chromatic_number")


def test_audit_all_computes_each_shared_value_once(monkeypatch, capsys):
    calls = dict.fromkeys(SHARED, 0)
    for name in SHARED:
        def counted(*args, _fn=getattr(hedgecut.audit, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(hedgecut.audit, name, counted)
    fixture = Path(__file__).parent / "fixtures" / "spider.hg"
    assert cli.main(["audit", str(fixture), "--theorem", "all"]) == 0
    out = capsys.readouterr().out
    orders = out.count("verdict theorem=RANKSUM_SEQ ")  # one verdict per sampled order
    assert orders > 1 and out.count("verdict theorem=") > len(TheoremId)
    assert calls == {**dict.fromkeys(SHARED, 1), "contraction_sequence": orders}
    # a replay parses its own graph, so each one starts cold
    record = parse_verdict(out[:out.index("instance-end\n") + len("instance-end\n")])
    for _ in range(2):
        emitted = calls["emit"]
        assert verify_certificate(record)
        assert calls["emit"] == emitted + 1


def _label_degrees(h, count_loops, inside=None):
    """Distinct labels at each vertex, counted vertex by vertex; ``inside`` keeps edges within it."""
    edges = [(u, v, lab) for u, v, lab in h.edges
             if (count_loops or u != v) and (inside is None or (u in inside and v in inside))]
    return [len({lab for u, v, lab in edges if x in (u, v)}) for x in range(h.n)]


def test_contraction_claim_values_match_a_direct_count():
    graphs = []
    for seed in range(48):
        g = random_instance(GeneratorParams((3, 8), (1, 4), (2, 5), seed=seed))
        graphs.append(g)
        for i in range(g.num_labels):
            h = contract_hedge(g, i)
            if h.n >= 2 and is_connected(h):
                graphs.append(h)
                break
    assert len(graphs) == 96  # every instance has a label whose contraction leaves 2+ vertices
    assert any(u == v for h in graphs for u, v, _ in h.edges)  # loops occur
    assert any(len({frozenset(e[:2]) for e in h.edges}) < h.m for h in graphs)  # parallels occur
    for g in graphs:
        for mode in ALL_MODES:
            loops = mode["count_loops"]
            degrees = _label_degrees(g, loops)
            for v in audit_theorem(TheoremId.CONTRACTV_BAND, g, **mode):
                h, w = contract_edge(g, v.witness["edge"])
                assert v.lhs == _label_degrees(h, loops)[w]
            for theorem in (TheoremId.CONTRACT_MIN, TheoremId.CONTRACT_H, TheoremId.CONTRACT_SUM):
                for v in audit_theorem(theorem, g, **mode):
                    view = hedge_view(g, v.witness["hedge"])
                    after = _label_degrees(contract_hedge(g, view.label), loops)
                    if theorem is TheoremId.CONTRACT_MIN:
                        assert v.lhs == min(after)
                    elif theorem is TheoremId.CONTRACT_H:
                        assert v.lhs == sum(after)
                    else:
                        inner = (_label_degrees(g, loops, view.vertex_set)
                                 if mode["induced_degrees"] else degrees)
                        total = sum(inner[x] for x in view.vertex_set)
                        assert v.rhs == sum(after) + total - view.span * (min(degrees) - 1)
            for v in audit_theorem(TheoremId.CONTRACT_ADJ, g, **mode):
                h = contract_hedge(g, v.witness["contracted"])
                assert v.lhs == len(adjacency_graph(h)[h.label_id(v.witness["hedge"])])


@pytest.mark.parametrize("theorem", [TheoremId.RANKSUM_SEQ, TheoremId.NULLSUM_SEQ])
def test_seq_claims_catch_a_wrong_merge(theorem, monkeypatch):
    # a vertex merge that also joins the two highest classes must show in the
    # sequence sums, which take each step's rank from the hedge's own forest
    merge = hedgecut.contraction._merge

    def one_merge_too_many(n, pairs):
        vmap = merge(n, pairs)
        top = max(vmap)
        return tuple(min(x, top - 1) for x in vmap) if top else vmap

    graphs = [random_instance(GeneratorParams((4, 8), (1, 3), (2, 4), seed=seed)) for seed in range(20)]
    assert all(v.holds for g in graphs for v in audit_theorem(theorem, g))
    monkeypatch.setattr(hedgecut.contraction, "_merge", one_merge_too_many)
    assert any(not v.holds for g in graphs for v in audit_theorem(theorem, g))


def _naive_chromatic_number(neighbors):
    """The least k for which some coloring in range(k)^n is proper."""
    n = len(neighbors)
    return next(k for k in range(n + 1)
                if any(all(c[u] != c[v] for v in range(n) for u in neighbors[v])
                       for c in itertools.product(range(k), repeat=n)))


def _graph_of(n, pairs):
    return tuple(frozenset(u for p in pairs if v in p for u in p if u != v) for v in range(n))


def test_chromatic_number_matches_naive_coloring():
    # every labeled graph on at most 5 vertices: 1 + 1 + 2 + 8 + 64 + 1024 = 1,100
    graphs = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            adj = _graph_of(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert hedgecut.audit._chromatic_number(adj) == _naive_chromatic_number(adj), adj
            graphs += 1
    assert graphs == 1100


@pytest.mark.parametrize("n, pairs, expected", [
    (8, list(itertools.combinations(range(8), 2)), 8),
    (8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)], 2),
    (8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)], 3),
    (8, [(u, v) for u, v in itertools.combinations(range(8), 2) if u // 2 != v // 2], 4),
    (8, [(i, (i + 1) % 7) for i in range(7)], 3),
    (0, [], 0),
], ids=["K8", "cube-Q3", "wagner", "K2222", "C7-plus-isolated", "no-vertex"])
def test_chromatic_number_of_named_graphs(n, pairs, expected):
    assert hedgecut.audit._chromatic_number(_graph_of(n, pairs)) == expected


class TestVerdictRecords:
    def test_round_trip(self, c4alt):
        for theorem in (TheoremId.RANKSUM_STATIC, TheoremId.RANKSUM_SEQ, TheoremId.CONTRACT_ADJ):
            for v in audit_theorem(theorem, c4alt):
                assert parse_verdict(format_verdict(v)) == v

    def test_format_shape(self, p3):
        text = format_verdict(audit_theorem(TheoremId.VD_EQUALITY, p3)[0])
        lines = text.splitlines()
        assert lines[0].startswith("verdict theorem=VD_EQUALITY holds=true ")
        assert lines[1] == "instance-begin"
        assert lines[2] == "HG1 3 2"
        assert lines[-1] == "instance-end"
        assert text.endswith("\n")

    def test_parse_errors(self):
        cases = [
            ("", 1, "header"),
            ("nonsense\n", 1, "header"),
            ("verdict theorem=VD_EQUALITY\n", 1, "missing fields"),
            ("verdict theorem holds=true lhs=1 rhs=1 witness=null digest=x\n", 1, "malformed"),
            ("verdict theorem=NOPE holds=true lhs=1 rhs=1 witness=null digest=x\n", 1, "unknown theorem"),
            ("verdict theorem=VD_EQUALITY holds=maybe lhs=1 rhs=1 witness=null digest=x\n", 1, "holds"),
            ("verdict theorem=VD_EQUALITY holds=true lhs=[ rhs=1 witness=null digest=x\n", 1, "JSON"),
            ("verdict theorem=VD_EQUALITY holds=true lhs=1 rhs=1 witness=null digest=x\n", 2, "instance-begin"),
            ("verdict theorem=VD_EQUALITY holds=true lhs=1 rhs=1 witness=null digest=x\n"
             "instance-begin\nHG1 2 1\n0 1 a\n", 4, "instance-end"),
        ]
        for text, line, fragment in cases:
            with pytest.raises(ParseError, match=fragment) as info:
                parse_verdict(text)
            assert info.value.line == line

    def test_too_deep_json_is_a_parse_error(self):
        lhs = "[" * 100_000  # json.loads recurses once per level
        text = f"verdict theorem=VD_EQUALITY holds=true lhs={lhs} rhs=1 witness=null digest=x\n"
        with pytest.raises(ParseError, match="valid JSON") as info:
            parse_verdict(text)
        assert info.value.line == 1

    def test_repeated_field_is_a_parse_error(self, p3):
        text = format_verdict(audit_theorem(TheoremId.VD_EQUALITY, p3)[0])
        header, rest = text.split("\n", 1)
        with pytest.raises(ParseError, match="repeated field 'holds'") as info:
            parse_verdict(f"{header} holds=false\n{rest}")
        assert info.value.line == 1


class TestVerification:
    def test_confirms_genuine_verdicts(self, c4alt, spider):
        for v in audit_theorem(TheoremId.RANKSUM_STATIC, c4alt):
            assert verify_certificate(v)
        for v in audit_theorem(TheoremId.T5_RELABEL_GE_MAXDA, spider):
            assert verify_certificate(v)

    def test_rejects_tampered_rhs(self, c4alt):
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        assert not verify_certificate(dataclasses.replace(v, rhs=3))

    def test_rejects_tampered_digest(self, c4alt):
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        assert not verify_certificate(dataclasses.replace(v, digest="0" * 64))

    def test_rejects_swapped_instance(self, c4alt, p3):
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        other = emit(p3)
        swapped = dataclasses.replace(v, instance_text=other, digest=instance_digest(other))
        assert not verify_certificate(swapped)

    def test_rejects_foreign_witness(self, c4alt):
        v = audit_theorem(TheoremId.CONTRACT_H, c4alt)[0]
        assert not verify_certificate(dataclasses.replace(v, witness={"hedge": "zz"}))

    def test_rejects_non_dict_witness(self, c4alt):
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        assert not verify_certificate(dataclasses.replace(v, witness=[1, 2]))

    def test_rejects_disconnected_instance(self, c4alt):
        # the digest matches and the text parses, but no claim is audited off a connected graph
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        text = "HG1 3 1\n0 1 a\n"
        assert not verify_certificate(dataclasses.replace(v, instance_text=text,
                                                          digest=instance_digest(text)))

    def test_survives_record_round_trip(self, twoi):
        for v in audit_theorem(TheoremId.CONTRACTV_BAND, twoi):
            assert verify_certificate(parse_verdict(format_verdict(v)))

    def test_non_ascii_label_round_trips(self):
        g = build_graph(3, [(0, 1, "é"), (1, 2, "b")])
        verdicts = [v for theorem in TheoremId for v in audit_theorem(theorem, g)]
        assert len(verdicts) == 27
        for v in verdicts:
            assert verify_certificate(parse_verdict(format_verdict(v)))

    # every line break str.splitlines() knows besides "\n"; HG1 text ends lines at "\n" only
    @pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_comment_line_break_survives_record_round_trip(self, c4alt, brk):
        v = audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]
        head, rest = v.instance_text.split("\n", 1)
        text = f"{head}\n# page{brk}break\n{rest}"
        genuine = dataclasses.replace(v, instance_text=text, digest=instance_digest(text))
        assert verify_certificate(genuine)
        assert parse_verdict(format_verdict(genuine)) == genuine
        assert verify_certificate(parse_verdict(format_verdict(genuine)))

    def test_non_ascii_comment_is_a_digest_mismatch(self, c4alt):
        lines = format_verdict(audit_theorem(TheoremId.RANKSUM_STATIC, c4alt)[0]).splitlines(keepends=True)
        record = parse_verdict("".join([*lines[:2], "# café\n", *lines[2:]]))
        assert "café" in record.instance_text
        assert verify_certificate(record) is False

    def test_rejects_equal_values_of_another_json_type(self, c4alt, p3):
        # 1.0 and true equal 1 under ==, but format_verdict never prints them for 1
        band = build_graph(4, [(0, 1, "l4"), (1, 2, "l1"), (2, 3, "l3"), (1, 3, "l2"), (0, 2, "l0")])
        cases = [(p3, TheoremId.T1_MIN_DEG_BOUND, 0, " lhs=1 ", (" lhs=1.0 ", " lhs=true ")),
                 (c4alt, TheoremId.T1_MIN_DEG_BOUND, 0, " rhs=2 ", (" rhs=2.0 ",)),
                 (band, TheoremId.CONTRACTV_BAND, 1, " rhs=[2,4] ", (" rhs=[2.0,4] ",)),
                 (band, TheoremId.CONTRACTV_BAND, 1, ' witness={"edge":1} ', (' witness={"edge":true} ',))]
        for g, theorem, index, old, news in cases:
            text = format_verdict(audit_theorem(theorem, g)[index])
            assert old in text and verify_certificate(parse_verdict(text))
            for new in news:
                record = parse_verdict(text.replace(old, new, 1))
                assert record == parse_verdict(text)  # == alone cannot tell them apart
                assert not verify_certificate(record), new


def _mutated_value(value, rng):
    """A JSON value near ``value``: off by one, of another JSON type, or reshaped."""
    if type(value) is list:
        if not value:
            return [0]
        k, mutated = rng.randrange(len(value)), list(value)
        kind = rng.randrange(4)
        if kind == 0:
            mutated[k] = _mutated_value(value[k], rng)
        elif kind == 1:
            del mutated[k]
        elif kind == 2:
            mutated.append(value[k])
        else:
            rng.shuffle(mutated)
        return mutated
    if type(value) is int:
        return rng.choice([value + 1, value - 1, float(value), value == 1, None, str(value), [value]])
    if type(value) is bool:
        return rng.choice([not value, int(value), None])
    if type(value) is str:
        return rng.choice(["zz", "l0", "a", 0, None])
    return rng.choice([0, False, {}, [], "x"])


def _mutated_witness(witness, labels, rng):
    """Drop, add or change one witness key, or replace the witness."""
    if type(witness) is not dict or rng.random() < 0.15:
        return rng.choice([None, {}, [1, 2], {"count_loops": False}, {"induced_degrees": True}])
    mutated, kind = dict(witness), rng.randrange(3)
    if kind == 0 and mutated:
        del mutated[rng.choice(sorted(mutated))]
    elif kind == 1:
        key = rng.choice(["count_loops", "induced_degrees", "hedge", "edge", "q", "order", "x"])
        mutated[key] = rng.choice([True, False, 0, 1, rng.choice(labels), list(labels)])
    elif mutated:
        key = rng.choice(sorted(mutated))
        mutated[key] = _mutated_value(mutated[key], rng)
    return mutated


# field texts json.loads rejects or reads as something format_verdict would not print
_RAW = ["", "01", "+1", "1_0", "[", "NaN", "1e0", "-0", "1.0", "true", "null", '"1"', "{}"]


def _mutated_header(header, labels, rng):
    """One header with one field changed, reordered, dropped or repeated."""
    tokens = header.split()
    fields = dict(token.split("=", 1) for token in tokens[1:])
    kind = rng.choice(["theorem", "holds", "lhs", "rhs", "witness", "digest", "reorder", "drop", "repeat"])
    if kind == "theorem":
        fields["theorem"] = rng.choice([t.value for t in TheoremId] + ["NOPE", ""])
    elif kind == "holds":
        fields["holds"] = rng.choice(["true", "false", "1", "True", ""])
    elif kind in ("lhs", "rhs", "witness"):
        value = json.loads(fields[kind])
        if rng.random() < 0.2:
            fields[kind] = rng.choice(_RAW)
        else:
            value = _mutated_witness(value, labels, rng) if kind == "witness" else _mutated_value(value, rng)
            fields[kind] = json.dumps(value, separators=(",", ":"), sort_keys=True)
    elif kind == "digest":
        k = rng.randrange(len(fields["digest"]))
        fields["digest"] = fields["digest"][:k] + rng.choice("0f") + fields["digest"][k + 1:]
    tokens = [f"{key}={value}" for key, value in fields.items()]
    if kind == "reorder":
        rng.shuffle(tokens)
    elif kind == "drop":
        del tokens[rng.randrange(len(tokens))]
    elif kind == "repeat":
        tokens.append(rng.choice(tokens))
    return " ".join(["verdict", *tokens])


@pytest.mark.parametrize("name", ["c4alt", "p3", "pendants", "spider", "triangle3", "twoi"])
def test_mutated_records_verify_exactly_when_genuine(name):
    # the oracle is bytes, not ==: a mutated record verifies exactly when its
    # re-formatted header is one that some degree mode's audit prints
    g, rng = _golden_graph(name), random.Random(name)
    records = [format_verdict(v) for mode in ALL_MODES for theorem in TheoremId
               for v in audit_theorem(theorem, g, **mode)]
    genuine = {record.split("\n", 1)[0] for record in records}
    outcomes = []
    for record in records:
        header, body = record.split("\n", 1)
        for _ in range(8):
            text = f"{_mutated_header(header, list(g.labels), rng)}\n{body}"
            try:
                mutated = parse_verdict(text)
            except ParseError:
                outcomes.append("parse error")
                continue
            expected = format_verdict(mutated).split("\n", 1)[0] in genuine
            assert verify_certificate(mutated) is expected, text.split("\n", 1)[0]
            outcomes.append(expected)
    assert {"parse error", True, False} <= set(outcomes)


class TestGenerator:
    def test_deterministic(self):
        params = GeneratorParams(seed=5)
        assert emit(random_instance(params)) == emit(random_instance(params))

    def test_frozen_output(self):
        assert emit(random_instance(GeneratorParams(seed=5))) == (
            "HG1 5 4\n0 4 l1\n1 2 l3\n1 3 l0\n1 4 l2\n"
        )

    def test_instances_are_connected_simple_and_use_all_labels(self):
        for s in range(40):
            g = random_instance(GeneratorParams(n_range=(2, 7), extra_range=(0, 3),
                                                label_range=(1, 5), seed=s))
            assert is_connected(g)
            assert 2 <= g.n <= 7
            assert g.n - 1 <= g.m <= g.n - 1 + 3
            pairs = [(min(u, v), max(u, v)) for u, v, _ in g.edges]
            assert len(set(pairs)) == g.m  # no parallels
            assert all(u != v for u, v, _ in g.edges)  # no loops
            used = {lab for _, _, lab in g.edges}
            assert used == set(range(g.num_labels))

    def test_tree_when_no_extra_edges(self):
        for s in range(10):
            g = random_instance(GeneratorParams(n_range=(5, 9), extra_range=(0, 0),
                                                label_range=(1, 3), seed=s))
            assert g.m == g.n - 1 and is_connected(g)

    def test_extra_edges_clamped_on_tiny_graphs(self):
        g = random_instance(GeneratorParams(n_range=(2, 2), extra_range=(3, 3),
                                            label_range=(1, 1), seed=0))
        assert g.n == 2 and g.m == 1

    def test_infeasible_label_count_rejected(self):
        params = GeneratorParams(n_range=(2, 2), extra_range=(0, 0), label_range=(5, 5))
        with pytest.raises(GraphError, match="infeasible"):
            random_instance(params)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(GraphError, match="vertex count"):
            random_instance(GeneratorParams(n_range=(1, 3)))
        with pytest.raises(GraphError, match="^vertex count range must not exceed 1000000$"):
            random_instance(GeneratorParams(n_range=(2, 1_000_001)))
        with pytest.raises(GraphError, match="extra edge"):
            random_instance(GeneratorParams(extra_range=(-1, 2)))
        with pytest.raises(GraphError, match="^extra edge range must not exceed 1000000$"):
            random_instance(GeneratorParams(extra_range=(0, 1_000_001)))
        with pytest.raises(GraphError, match="label count"):
            random_instance(GeneratorParams(label_range=(0, 2)))

    def test_label_names_are_dense(self):
        g = random_instance(GeneratorParams(seed=9))
        assert set(g.labels) == {f"l{i}" for i in range(g.num_labels)}

    def test_memory_not_quadratic_in_vertex_count(self):
        # listing all ~2 million vertex pairs would peak near 190 MB
        tracemalloc.start()
        try:
            g = random_instance(GeneratorParams((2000, 2000), (3, 3), (1, 5), seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 2002 and is_connected(g)
        assert peak < 20_000_000


SEARCH_PARAMS = GeneratorParams(n_range=(2, 7), extra_range=(0, 3), label_range=(1, 5), seed=11)


class TestSearch:
    def test_finds_static_rank_sum_violation(self):
        result = search_counterexample(TheoremId.RANKSUM_STATIC, SEARCH_PARAMS, trials=200)
        assert result.found is not None
        assert not result.found.holds
        assert result.trials_run == result.verdicts_checked == 38
        assert result.found.digest == ("ae6e94444b095e0d4305aeef4ca23b26"
                                       "4a412ed521384f9eee3607fd668f49c6")
        assert verify_certificate(result.found)

    def test_exhausts_on_universal_claim(self):
        result = search_counterexample(TheoremId.VD_EQUALITY, SEARCH_PARAMS, trials=60)
        assert result.found is None
        assert result.trials_run == 60
        assert result.verdicts_checked == 60

    def test_deterministic(self):
        a = search_counterexample(TheoremId.NULLSUM_STATIC, SEARCH_PARAMS, trials=120)
        b = search_counterexample(TheoremId.NULLSUM_STATIC, SEARCH_PARAMS, trials=120)
        assert a == b

    def test_alternative_modes_refute_more(self):
        wide = GeneratorParams(n_range=(2, 9), extra_range=(0, 4), label_range=(1, 8), seed=11)
        found = search_counterexample(TheoremId.CONTRACT_MIN, wide, trials=2000,
                                      count_loops=False)
        assert found.found is not None
        assert (found.trials_run, found.verdicts_checked) == (504, 742)
        assert found.found.digest == ("e22e059a2d1f7eb83e8470f61b821d29"
                                      "4c69f85b259befe9fdd64bebeacd1904")
        assert found.found.witness["count_loops"] is False
        assert verify_certificate(found.found)

        found = search_counterexample(TheoremId.T3_DA_LE_TOTAL, wide, trials=2000,
                                      induced_degrees=True)
        assert found.found is not None
        assert (found.trials_run, found.verdicts_checked) == (507, 748)
        assert found.found.digest == ("d6c55f510ec9fb9f8ad7fb1937d90156"
                                      "419b10654c615b7c2dbe41e1edfdc7e6")
        assert found.found.witness["induced_degrees"] is True
        assert verify_certificate(found.found)

    def test_requires_at_least_one_trial(self):
        with pytest.raises(GraphError, match="at least one"):
            search_counterexample(TheoremId.VD_EQUALITY, SEARCH_PARAMS, trials=0)

    def test_empty_vertex_range_rejected_before_any_trial(self):
        # the size schedule divides by the range's length, so check it first
        with pytest.raises(GraphError, match="vertex count range"):
            search_counterexample(TheoremId.T1_MIN_DEG_BOUND, GeneratorParams(n_range=(5, 3)), 3)

    def test_schedule_does_not_list_the_vertex_range(self):
        # listing every size of a 2..1,000,000 range peaked near 40 MB
        tracemalloc.start()
        try:
            result = search_counterexample(TheoremId.VD_EQUALITY, GeneratorParams(n_range=(2, 1_000_000)), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.trials_run == 1 and result.found is None
        assert peak < 1_000_000

    def test_universal_claims_survive_sampling(self):
        for theorem in sorted(UNIVERSAL_IDS):
            result = search_counterexample(theorem, SEARCH_PARAMS, trials=40)
            assert result.found is None, (theorem, result.found)
