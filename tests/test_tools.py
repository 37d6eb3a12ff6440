"""The mutation tool changes exactly the place it names."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SOURCE = b'''"""Doc 7."""
def f(a, b):  # \xc3\xa9 < 3
    x = (a  # or b
         or b)
    return a <= 8 and b is not None and a not in (0x10, 1_0)
'''


def test_each_site_changes_one_operator_or_literal():
    # sites in source order; the docstring, the comments and their operators are no sites
    got = [mutants.mutate(SOURCE, site) for site in mutants.sites(SOURCE)]
    lines = [None if m is None else m.decode("utf-8").splitlines()[2:] for m in got]
    assert lines == [
        ["    x = (a  # or b", "         and b)", SOURCE.decode("utf-8").splitlines()[-1]],
        *[["    x = (a  # or b", "         or b)", "    return " + tail] for tail in (
            "a < 8 and b is not None and a not in (0x10, 1_0)",
            "a <= 9 and b is not None and a not in (0x10, 1_0)",
            "a <= 8 or b is not None and a not in (0x10, 1_0)",
            "a <= 8 and b is None and a not in (0x10, 1_0)",
            "a <= 8 and b is not None or a not in (0x10, 1_0)",
            "a <= 8 and b is not None and a in (0x10, 1_0)")],
        None, None,  # 0x10 and 1_0 are not written as their decimal values
    ]
