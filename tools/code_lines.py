"""Count code lines of Python source, the size ROADMAP aim 2 tracks.

A code line holds a token other than a comment or a line end, and is not part
of a module, class or function docstring, so deleting comments or docstrings
shrinks no code.

    python tools/code_lines.py src/hedgecut/*.py       # each file, then the total
    git show BASE:src/hedgecut/audit.py | python tools/code_lines.py   # stdin: one number
"""

import ast
import io
import sys
import tokenize

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    if len(sys.argv) == 1:
        print(code_lines(sys.stdin.read()))
    else:
        counts = {path: code_lines(open(path, encoding="utf-8").read()) for path in sys.argv[1:]}
        for path, count in [*counts.items(), ("total", sum(counts.values()))]:
            print(f"{path:<32} {count:6d}")
