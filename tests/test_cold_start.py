"""A command loads only what it runs: the modules each fresh start imports."""

import ast
import subprocess
import sys

import pytest

from conftest import FIXTURES

C4ALT = str(FIXTURES / "c4alt.hg")
CONNECTIVITY = ["hedgecut", "hedgecut.cli", "hedgecut.connectivity", "hedgecut.graph", "hedgecut.hgformat",
                "hedgecut.rng"]


def fresh(code: str):
    """The value a fresh interpreter prints last after running ``code``."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_import_cli_loads_only_what_connectivity_runs():
    added = fresh("import sys\n"
                  "before = set(sys.modules)\n"
                  "import hedgecut.cli\n"
                  "print(sorted(set(sys.modules) - before))")
    assert [m for m in added if m.split(".")[0] == "hedgecut"] == CONNECTIVITY
    assert "hashlib" not in added and "json" not in added


def test_star_import_binds_every_public_name():
    assert fresh("from hedgecut import *\n"
                 "import hedgecut, hedgecut.audit\n"
                 "names = hedgecut.__all__\n"
                 "print([len(names), all(n in globals() for n in names),"
                 " hedgecut.audit_theorem is hedgecut.audit.audit_theorem])") == [46, True, True]


@pytest.mark.parametrize("argv, more", [
    (["connectivity", C4ALT], []),
    (["stats", C4ALT], ["adjacency"]),
    (["contract", C4ALT, "--hedge", "a"], ["contraction"]),
    (["relabel", C4ALT], ["adjacency"]),
    (["generate", "--seed", "1"], ["generator"]),
    (["audit", C4ALT, "--theorem", "VD_EQUALITY"], ["adjacency", "audit", "contraction", "generator"]),
], ids=["connectivity", "stats", "contract", "relabel", "generate", "audit"])
def test_each_command_loads_only_what_it_runs(argv, more):
    loaded = fresh("import sys\n"
                   "import hedgecut.cli\n"
                   f"assert hedgecut.cli.main({argv!r}) == 0\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hedgecut'))")
    assert loaded == sorted(CONNECTIVITY + [f"hedgecut.{m}" for m in more])
