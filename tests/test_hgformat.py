import pytest
from hypothesis import given, settings, strategies as st

from hedgecut import ParseError, build_graph, emit, parse

from conftest import fixture_text


class TestParse:
    def test_c4alt_fixture(self, c4alt):
        assert parse(fixture_text("c4alt.hg")) == c4alt

    def test_comments_and_blank_lines_ignored(self):
        text = "# instance\n\nHG1 2 1   # header\n0 1 a  # edge\n\n"
        g = parse(text)
        assert g.n == 2 and g.m == 1 and g.labels == ("a",)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("")

    def test_bad_header_token(self):
        with pytest.raises(ParseError) as err:
            parse("HG2 2 1\n0 1 a\n")
        assert err.value.line == 1

    def test_vertex_limit(self):
        assert parse("HG1 1000000 1\n0 1 a\n").n == 1_000_000  # parsing allocates nothing per vertex
        with pytest.raises(ParseError, match="^line 2: header vertex count exceeds the limit of 1000000$"):
            parse("# refused before the edge lines are read\nHG1 1000001 1\nnot an edge\n")

    def test_non_integer_counts(self):
        with pytest.raises(ParseError, match="decimal"):
            parse("HG1 two 1\n0 1 a\n")

    @pytest.mark.parametrize("text, line", [
        ("HG1 1_0 1\n0 1 a\n", 1),
        ("HG1 2 +1\n0 1 a\n", 1),
        ("HG1 2 1\n0 +1 a\n", 2),
        ("HG1 12 1\n0_1 2 a\n", 2),
        ("HG1 2 1\n\u0660 1 a\n", 2),
    ], ids=["count_underscore", "count_plus", "id_plus", "id_underscore", "id_arabic_indic"])
    def test_only_ascii_decimal_digits(self, text, line):
        # bare int() reads all of these tokens
        with pytest.raises(ParseError, match="must be decimal integers") as err:
            parse(text)
        assert err.value.line == line

    def test_overlong_count_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("HG1 2 " + "9" * 5000 + "\n0 1 a\n")

    def test_loop_reports_its_line(self):
        with pytest.raises(ParseError, match="loop") as err:
            parse("HG1 2 1\n0 0 a\n")
        assert err.value.line == 2

    def test_out_of_range_endpoint_reports_line(self):
        with pytest.raises(ParseError, match="out of range") as err:
            parse("HG1 2 1\n# pad\n0 2 a\n")
        assert err.value.line == 3

    def test_duplicate_pair_reported(self):
        with pytest.raises(ParseError, match="duplicate") as err:
            parse("HG1 3 2\n0 1 a\n1 0 b\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("text, message", [
        ("HG1 4 3\n# top\n0 1 a\n\n  # gap\n1 4 b\n2 3 c\n",
         "line 6: edge endpoint out of range: (1, 4)"),
        ("HG1 4 3\n# top\n0 1 a\n\n  # gap\n2 2 b\n2 3 c\n",
         "line 6: loop at vertex 2 not allowed in input"),
        ("HG1 4 3\n# top\n0 1 a\n\n  # gap\n1 0 b\n2 3 c\n",
         "line 6: duplicate edge between 0 and 1 in input"),
    ], ids=["range", "loop", "duplicate"])
    def test_edge_fault_reports_its_own_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
        assert err.value.line == 6

    def test_syntax_fault_reported_before_edge_fault(self):
        # the loop on line 2 is found only after the whole text is read
        with pytest.raises(ParseError) as err:
            parse("HG1 3 2\n0 0 a\n")
        assert str(err.value) == "line 1: header declares 2 edges, found 1"

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2 edges, found 1"):
            parse("HG1 3 2\n0 1 a\n")

    def test_too_many_edges(self):
        with pytest.raises(ParseError, match="more than 1"):
            parse("HG1 3 1\n0 1 a\n1 2 b\n")

    def test_bad_edge_line_shape(self):
        with pytest.raises(ParseError, match="u v label") as err:
            parse("HG1 2 1\n0 1\n")
        assert err.value.line == 2

    # every break str.splitlines() knows besides "\n" and "\r\n"
    SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\r", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_only_line_feeds_number_lines(self, sep):
        text = f"HG1 3 2\n{sep}# page\n0 1 a\n1 2 b\n5 5 c\n"
        with pytest.raises(ParseError, match="more than 2 data lines") as err:
            parse(text)
        assert err.value.line == text[:text.index("5 5 c")].count("\n") + 1 == 5

    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_other_breaks_do_not_end_a_line(self, sep):
        with pytest.raises(ParseError, match="u v label") as err:
            parse(f"HG1 3 2\n0 1 a{sep}1 2 b\n")
        assert err.value.line == 2

    def test_crlf_parses_and_bare_cr_does_not(self, c4alt):
        text = fixture_text("c4alt.hg")
        assert parse(text.replace("\n", "\r\n")) == c4alt
        with pytest.raises(ParseError) as err:
            parse(text.replace("\n", "\r"))
        assert str(err.value) == "line 1: expected header 'HG1 <n> <m>'"


class TestEmit:
    def test_canonical_form(self, c4alt):
        assert emit(c4alt) == "HG1 4 4\n0 1 a\n1 2 b\n2 3 a\n3 0 b\n"

    def test_round_trip_is_bit_exact(self, c4alt, triangle, spider):
        for g in (c4alt, triangle, spider):
            assert parse(emit(g)) == g
            assert emit(parse(emit(g))) == emit(g)

    def test_fixtures_are_canonical(self):
        for name in ("c4alt.hg", "p3.hg", "triangle3.hg", "spider.hg", "twoi.hg", "pendants.hg"):
            text = fixture_text(name)
            assert emit(parse(text)) == text

    def test_emit_of_messy_input_is_canonical(self):
        messy = "# c\nHG1 3 2\n\n0 1 x\n1 2 y # t\n"
        assert emit(parse(messy)) == "HG1 3 2\n0 1 x\n1 2 y\n"

    def test_single_vertex(self):
        assert emit(build_graph(1, [])) == "HG1 1 0\n"


# Fuzzed HG1 text.  Every count-like token is a bounded integer, and free
# text holds no decimal digit (Unicode category Nd, the digits int()
# reads), so no draw declares more than 50 vertices or edges.
_number = st.integers(-2, 50)
_junk = st.lists(st.one_of(_number.map(str),
                           st.sampled_from(["HG1", "HG2", "a", "#", "1.5", "0x3", "\u0663"]),
                           st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)),
                 max_size=5).map(" ".join)


@st.composite
def hg1_texts(draw):
    """A header and edge lines, often well formed, with junk lines spliced in."""
    edges = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                    st.sampled_from(["a", "b", "c", "x#y"])),
                          max_size=10, unique_by=lambda e: frozenset(e[:2])))
    m = draw(st.one_of(st.just(len(edges)), _number))
    lines = [f"HG1 {draw(st.one_of(st.integers(10, 50), _number))} {m}"]
    lines += [f"{u} {v} {lab}" for u, v, lab in edges]
    for junk in draw(st.lists(_junk, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return draw(st.sampled_from(["\n", "\r\n", "\r", "\x85"])).join(lines)


@settings(max_examples=400, deadline=None)
@given(hg1_texts())
def test_fuzzed_text_parses_or_raises_parse_error(text):
    try:
        g = parse(text)
    except ParseError:
        return
    assert parse(emit(g)) == g
