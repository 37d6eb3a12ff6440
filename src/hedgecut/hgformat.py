"""HG1 text format: parse and emit hedge graphs.

Layout::

    HG1 <n> <m>
    u v label     # one line per edge, 0-based decimal vertex ids
    ...

Only a line feed ends a line: a CRLF file parses (its carriage return is
whitespace), and a form feed or a bare carriage return ends no line.
``#`` starts a comment running to end of line; blank lines are ignored.
Labels are tokens free of whitespace and ``#``.  A header may declare at
most 1,000,000 vertices (``graph._MAX_VERTICES``).  ``parse`` accepts simple graphs only
(the input contract) but checks only syntax, reporting a syntax fault
before any graph fault.  ``emit`` serializes any hedge graph, writing
edges in stored order, so first appearances of label names follow
dense-id order and ``parse(emit(g))`` reproduces a parseable ``g``
bit-exactly.
"""

from __future__ import annotations

from .graph import _MAX_VERTICES, GraphError, HedgeGraph, build_graph


class ParseError(GraphError):
    """HG1 text rejected; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _decimals(a: str, b: str, lineno: int, what: str) -> tuple[int, int]:
    """Two ASCII decimal digit tokens as ints; bare ``int`` also takes ``+2`` and ``1_0``."""
    digits = a + b
    if digits.isdigit() and digits.isascii():
        try:
            return int(a), int(b)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(lineno, f"{what} must be decimal integers")


def parse(text: str) -> HedgeGraph:
    """Parse HG1 text into a validated simple hedge graph.

    ``build_graph`` checks the graph rules; a fault in one edge is
    reported at that edge's line, any other at the header's.
    """
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int, str]] = []
    edge_lines: list[int] = []
    # not splitlines(): it also breaks at \v, \f, \x1c-\x1e, \x85 and a bare \r
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "HG1":
                raise ParseError(lineno, "expected header 'HG1 <n> <m>'")
            n, m = _decimals(parts[1], parts[2], lineno, "header counts")
            if n < 1:
                raise ParseError(lineno, "header counts out of range")
            if n > _MAX_VERTICES:  # before anything is allocated per vertex
                raise ParseError(lineno, f"header vertex count exceeds the limit of {_MAX_VERTICES}")
            header = (n, m)
            header_line = lineno
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, "expected 'u v label'")
        u, v = _decimals(parts[0], parts[1], lineno, "vertex ids")
        edges.append((u, v, parts[2]))
        edge_lines.append(lineno)
        if len(edges) > header[1]:
            raise ParseError(lineno, f"more than {header[1]} data lines")
    if header is None:
        raise ParseError(1, "missing 'HG1 <n> <m>' header")
    n, m = header
    if len(edges) != m:
        raise ParseError(header_line, f"header declares {m} edges, found {len(edges)}")
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        line = header_line if exc.edge is None else edge_lines[exc.edge]
        raise ParseError(line, str(exc)) from None


def emit(g: HedgeGraph) -> str:
    """Serialize a hedge graph as canonical HG1 text (trailing newline)."""
    lines = [f"HG1 {g.n} {g.m}"]
    for u, v, lab in g.edges:
        lines.append(f"{u} {v} {g.labels[lab]}")
    return "\n".join(lines) + "\n"
