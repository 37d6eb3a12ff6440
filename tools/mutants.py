"""Run a seeded sample of operator mutants of one module against its tests.

A mutant changes one place: a comparison flips (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``), an
int literal written in decimal grows by one, or one ``and`` becomes ``or``
(or back).
Each mutant is written into a temporary copy of the checkout (never the
checkout itself), where the given test files run with ``-x`` under a
per-mutant timeout of 4 times the unchanged run (and at least 60 s).  A
mutant that the tests pass is a survivor: its line, change and source are
printed.  A survivor is a report, not a failure (it may change nothing a
caller sees), so the exit status is 0 unless the tests fail on the
unchanged copy.

    python tools/mutants.py src/hedgecut/audit.py tests/test_audit.py --seed 1 --count 20
"""

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each operator's source text, as a pattern that finds it between its operands, and its flip
_FLIPS = {
    ast.Lt: (r"<", "<="), ast.LtE: (r"<=", "<"), ast.Gt: (r">", ">="), ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="), ast.NotEq: (r"!=", "=="), ast.Is: (r"\bis\b", "is not"),
    ast.IsNot: (r"\bis\s+not\b", "is"), ast.In: (r"\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in"),
    ast.And: (r"\band\b", "or"), ast.Or: (r"\bor\b", "and"),
}


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each 1-based line starts (ast columns count UTF-8 bytes)."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def sites(source: bytes) -> list[tuple[int, int, int, str, str]]:
    """Every mutation as (line, start, end, pattern, replacement): in the bytes
    source[start:end], replace the first match of pattern."""
    starts, found = _offsets(source), []

    def between(pattern_of: type, left: ast.AST, right: ast.AST) -> None:
        pattern, new = _FLIPS[pattern_of]
        found.append((left.end_lineno, starts[left.end_lineno] + left.end_col_offset,
                      starts[right.lineno] + right.col_offset, pattern, new))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                between(type(op), left, right)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                between(type(node.op), left, right)
        elif isinstance(node, ast.Constant) and type(node.value) is int:  # not a bool
            found.append((node.lineno, starts[node.lineno] + node.col_offset,
                          starts[node.end_lineno] + node.end_col_offset, rf"\A{node.value}\Z", str(node.value + 1)))
    return sorted(found, key=lambda site: site[1])


def mutate(source: bytes, site: tuple[int, int, int, str, str]) -> bytes | None:
    """The source with one site changed, or None where the site's text is not what it
    should be (an int not written as its decimal value, say)."""
    _, start, end, pattern, new = site
    gap = source[start:end].decode("utf-8")
    # between two operands lie only the operator, brackets, spaces and comments
    match = re.search(pattern, re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), gap))
    if match is None:
        return None
    mutant = source[:start] + (gap[:match.start()] + new + gap[match.end():]).encode("utf-8") + source[end:]
    try:
        ast.parse(mutant)
    except SyntaxError:
        return None
    return mutant


def _run(copy: Path, tests: list[str], timeout: float | None) -> str:
    """'survived', 'killed' or 'timeout' for the tests in the copy."""
    # no bytecode: a mutant of the same size written within a second would reuse a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the checkout")
    parser.add_argument("tests", nargs="+", help="the test files to run, relative to the checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=20)
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_bytes()
    every = sites(source)
    chosen = sorted(random.Random(args.seed).sample(range(len(every)), min(args.count, len(every))))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"))
        target = copy / args.module
        t0 = time.monotonic()
        if _run(copy, args.tests, None) != "survived":
            print(f"{args.module}: the tests fail unchanged; no mutant was run", file=sys.stderr)
            return 2
        timeout = max(60.0, 4 * (time.monotonic() - t0))
        outcomes = dict.fromkeys(("killed", "survived", "timeout", "skipped"), 0)
        report, lines = [], source.decode("utf-8").splitlines()
        for i in chosen:
            line, start, end, _, new = every[i]
            mutant = mutate(source, every[i])
            if mutant is None:
                outcomes["skipped"] += 1
                continue
            target.write_bytes(mutant)
            result = _run(copy, args.tests, timeout)
            outcomes[result] += 1
            if result in ("survived", "timeout"):  # a timeout may be a hang the tests never end
                old = source[start:end].decode("utf-8").strip()
                report.append(f"{result} {args.module}:{line}  {old!r} -> {new!r}  | {lines[line - 1].strip()}")
    print(f"{args.module}: {len(chosen)} of {len(every)} sites (seed {args.seed}, timeout {timeout:.0f} s), "
          + ", ".join(f"{k} {v}" for k, v in outcomes.items()))
    for entry in report:
        print(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
