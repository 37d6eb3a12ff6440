"""The one-pass reader of verdict records agrees with the line walk."""

import json

from hypothesis import example, given, settings, strategies as st

from hedgecut import ParseError, TheoremId, audit, format_verdict, parse_verdict, verify_certificate
from hedgecut.audit import AuditVerdict

from test_audit import RECHECK_POOL


def _outcome(read, text):
    """The verdict ``read`` returns, or the message and line of its ParseError; as a repr,
    so that ``1``, ``1.0`` and ``True`` differ, and a NaN equals itself."""
    try:
        return repr(read(text))
    except ParseError as exc:
        return repr((str(exc), exc.line))


# JSON values format_verdict writes: negative and long ints, bools, floats (NaN and the
# infinities included), strings with spaces and non-ASCII, nested lists and dicts
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40) | st.floats()
    | st.text(max_size=4) | st.sampled_from(["a", "\xe9", "a b", "\u2028"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

# block lines: HG1 text, the record's own markers, a line end other than "\n"
_LINES = ["HG1 2 1", "0 1 a", "", "# c", "instance-end", "instance-begin", "instance-end ", "x\r"]
_block = st.lists(st.sampled_from(_LINES), max_size=4).map(lambda lines: "".join(f"{x}\n" for x in lines))

# one character that str.split() splits at, or that JSON or the header rules care about
_CHARS = [" ", "\n", "\r", "\t", "\xa0", "\x1c", "=", "0", "-", ".", '"', "\xe9", "e", "{"]


def _respelt(token):
    """Other spellings of one value token; a decoded value keeps its spelling's type."""
    out = ["1.0", "true", "-0", "01", "1e0", "NaN", "+1", "[", "9" * 5000, token + " ", "0" + token,
           "-" + token, token.upper(), token + ".0"]
    try:
        value = json.loads(token)
    except ValueError:
        return out
    return out + [json.dumps(value), json.dumps(value, separators=(",", ":")),
                  json.dumps(value, separators=(",", ":"), ensure_ascii=False, sort_keys=True)]


@st.composite
def records(draw):
    """A record format_verdict writes, or one mutant of it."""
    v = AuditVerdict(draw(st.sampled_from(list(TheoremId))), draw(_block),
                     draw(st.sampled_from(["", "x", "0" * 64, "a=b", "d\xe9"])), draw(st.booleans()),
                     draw(_values), draw(_values), draw(_values))
    text = format_verdict(v)
    header, rest = text.split("\n", 1)
    kind = draw(st.sampled_from(["none", "insert", "delete", "swap", "respell", "theorem", "after",
                                 "truncate", "empty", "no-end", "crlf"]))
    if kind == "insert":  # half of them in the header
        k = draw(st.integers(0, len(header)) | st.integers(0, len(text)))
        return text[:k] + draw(st.sampled_from(_CHARS)) + text[k:]
    if kind == "delete":
        k = draw(st.integers(0, len(header) - 1) | st.integers(0, len(text) - 1))
        return text[:k] + text[k + 1:]
    if kind == "swap":
        tokens = header.split(" ")
        i, j = draw(st.integers(1, len(tokens) - 1)), draw(st.integers(1, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
        return " ".join(tokens) + "\n" + rest
    if kind == "respell":
        name = draw(st.sampled_from(["lhs", "rhs", "witness"]))
        token = audit._value(getattr(v, name))
        new = draw(st.sampled_from(_respelt(token)))
        return text.replace(f" {name}={token} ", f" {name}={new} ", 1)
    if kind == "theorem":
        return text.replace(f"={v.theorem.value} ", f"={draw(st.sampled_from(['NOPE', '', 'vd_equality']))} ", 1)
    if kind == "after":
        return text + draw(st.sampled_from(["junk\n", "instance-end\n", "\n", "verdict\n", "x"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "empty":
        return f"{header}\ninstance-begin\ninstance-end\n"
    if kind == "no-end":
        return text[:text.rindex("instance-end")]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    return text


_HEADER = "verdict theorem=VD_EQUALITY holds=true lhs=1 rhs=1 witness=null digest=x\n"


@settings(max_examples=500, deadline=None)
@given(records())
@example(_HEADER + "instance-begin\ninstance-end\n")  # an empty block
@example(_HEADER + "instance-begin\nHG1 2 1\ninstance-end\ninstance-end\n")  # the first end line ends it
@example(_HEADER + "instance-begin\nHG1 2 1\ninstance-end")  # no line feed after the end line
@example(_HEADER + "instance-begin\ninstance-end\r\n")  # an end line that is not exactly one
@example(_HEADER.replace("digest=x", "digest=x\xa0y") + "instance-begin\ninstance-end\n")  # str.split() splits
@example(_HEADER.replace("lhs=1", "lhs=" + "9" * 5000) + "instance-begin\ninstance-end\n")  # past int()'s limit
@example(_HEADER.replace("lhs=1", "lhs=NaN") + "instance-begin\ninstance-end\n")  # read as float, printed back
@example(_HEADER.replace("lhs=1", "lhs=" + "[" * 100_000) + "instance-begin\ninstance-end\n")  # too deep
@example(_HEADER.replace("witness=null", 'witness={"a":1,"a":2}') + "instance-begin\ninstance-end\n")
def test_bulk_path_declines_or_agrees_with_the_walk(text):
    walked = _outcome(audit._walk, text)
    bulk = audit._bulk(text)
    assert bulk is None or repr(bulk) == walked
    assert _outcome(parse_verdict, text) == walked


def test_written_records_take_the_bulk_path(monkeypatch):
    # every committed replay record is in the form format_verdict writes, and still verifies
    walks = []
    walk = audit._walk
    monkeypatch.setattr(audit, "_walk", lambda text: walks.append(text) or walk(text))
    pool = json.loads(RECHECK_POOL.read_text(encoding="ascii"))
    texts = [f"{header}\ninstance-begin\n{pool['instances'][i]['text']}instance-end\n"
             for i, header in pool["records"]]
    for text in texts:
        record = parse_verdict(text)
        assert format_verdict(record) == text
        assert verify_certificate(record) is True
    assert len(texts) == 846 and walks == []
