"""The README's examples, run as written.

The "Library quick start" block is executed, and every ``$ hedgecut ...``
line in a code block is run in-process through ``cli.main`` from the
repository root; its stdout must equal the lines printed under it.  The
"Claim catalog" table lists every claim in catalog order and marks U
exactly the universal ones.
"""

import re
import shlex
from pathlib import Path

import pytest

from hedgecut import UNIVERSAL_IDS, TheoremId, cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


def _examples():
    """(command line, expected stdout) for each ``$ hedgecut`` line."""
    found = []
    for _, body in BLOCKS:
        command = None
        for line in body.splitlines() + [""]:
            if line.startswith("$ hedgecut "):
                command, expected = line[2:], []
            elif command is not None and line:
                expected.append(line + "\n")
            elif command is not None:
                found.append((command, "".join(expected)))
                command = None
    return found


EXAMPLES = _examples()


def test_quick_start_runs():
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_examples_found():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("HEDGECUT_SEED", raising=False)
    assert cli.main(shlex.split(command)[1:]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")


def test_claim_catalog_lists_every_claim_and_marks_the_universal_ones():
    section = README.split("## Claim catalog", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split(" | ")]
            for line in section.splitlines() if line.startswith("| `")]
    assert [row[0].strip("`") for row in rows] == [t.value for t in TheoremId]
    assert {row[-1] for row in rows} == {"U", "refuted"}
    assert {TheoremId(row[0].strip("`")) for row in rows if row[-1] == "U"} == UNIVERSAL_IDS
