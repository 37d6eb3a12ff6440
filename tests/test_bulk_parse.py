"""The one-pass reader of canonical HG1 text agrees with the line walk."""

from hypothesis import example, given, settings, strategies as st

from hedgecut import GeneratorParams, ParseError, cli, emit, hgformat, parse, random_instance
from hedgecut.graph import _MAX_VERTICES

from conftest import FIXTURES
from test_hgformat import hg1_texts
from test_oracle import FAMILIES


def _outcome(read, text):
    """The graph ``read`` returns, or the message and line of its ParseError."""
    try:
        return read(text)
    except ParseError as exc:
        return str(exc), exc.line


# Unicode whitespace that str.split() splits at but ASCII \s does not match,
# digits that int() reads but HG1 refuses, "#", labels the walk takes but the
# bulk path declines (non-ASCII, DEL), a token past int()'s 4,300 digits, and
# vertex counts at and beyond the edges of the accepted range
_TRAP_LABELS = ["\xa0", "a\xa0b", "\x1c", "a\x1fb", "\x85", "a\u2003b", "\u0663", "\xe9", "a#b", "", "a b",
                "\x7f"]
_TRAP_NUMBERS = ["\u0663", "0\u0663", "01", "+1", "1_0", "9" * 5000, "0", "1000000", "1000001"]


@st.composite
def canonical_texts(draw):
    """The text ``emit`` writes of a graph, which may hold a loop, with at most one
    trap: a token swapped for one above, or an edge repeated in reverse.  Half the
    graphs have a vertex count at or near the limit; the end of the text varies."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(_MAX_VERTICES - 1, _MAX_VERTICES + 1)))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from("abc")),
                          max_size=8, unique_by=lambda e: frozenset(e[:2])))
    trap = draw(st.sampled_from(["none", "number", "label", "repeat"]))
    if trap == "repeat" and edges:
        u, v, _ = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), (v, u, draw(st.sampled_from("abc"))))
    tokens = ["HG1", str(n), str(len(edges))] + [str(x) for edge in edges for x in edge]
    if trap == "number":
        i = draw(st.sampled_from([i for i in range(1, len(tokens)) if i < 3 or i % 3 != 2]))
        tokens[i] = draw(st.sampled_from(_TRAP_NUMBERS))
    if trap == "label" and edges:
        tokens[draw(st.sampled_from(range(5, len(tokens), 3)))] = draw(st.sampled_from(_TRAP_LABELS))
    lines = [" ".join(tokens[i:i + 3]) for i in range(0, len(tokens), 3)]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n", "\n", "", "\r\n", "\n\n"]))


@settings(max_examples=600, deadline=None)
@given(st.one_of(hg1_texts(), canonical_texts()))
@example("HG1 1 0\n")  # the one graph without edges
@example("HG1 2 0\n")  # no edges on two vertices
@example("HG1 1000001 1\n0 1 a\n")  # over the vertex limit
@example("HG1 2 " + "9" * 5000 + "\n0 1 a\n")  # past int()'s digit limit
@example("HG1 2 1\n\u0660 1 a\n")  # a digit int() reads
@example("HG1 2 1\n0 1 a\xa0b\n")  # whitespace that str.split() splits at
@example("HG1 4 2\n0 1 \x1c\n2 3 a\x1cb\n")  # two splits that keep the token count
@example("HG1 3 2\n0 1 a\n1 0 b\n")  # a repeated pair
@example("HG1 3 1\n0 1 a\n1 2 b\n")  # more edges than declared
def test_bulk_path_declines_or_agrees_with_the_walk(text):
    walked = _outcome(hgformat._walk, text)
    bulk = hgformat._bulk(text)
    assert bulk is None or bulk == walked
    assert _outcome(parse, text) == walked


def test_canonical_text_takes_the_bulk_path(monkeypatch, capsys):
    walks = []
    walk = hgformat._walk
    monkeypatch.setattr(hgformat, "_walk", lambda text: walks.append(text) or walk(text))
    texts = [path.read_text(encoding="ascii") for path in sorted(FIXTURES.glob("*.hg"))]
    texts += [emit(random_instance(GeneratorParams(*FAMILIES[f], seed=1000 * f + seed)))
              for f in range(len(FAMILIES)) for seed in range(40)]
    for seed in ("1", "2"):
        assert cli.main(["generate", "--seed", seed]) == 0
        texts.append(capsys.readouterr().out)
    for text in texts:
        assert emit(parse(text)) == text
    assert len(texts) == 128 and walks == []
