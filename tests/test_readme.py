"""README's reference tables against the code they describe."""

import re
from fractions import Fraction
from pathlib import Path

from fockcalc import checks
from fockcalc.cli import CHECKERS, RUN

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# a flag in backquotes, then its default in parentheses if the row gives one
FLAG = re.compile(r"`--([a-z0-9-]+)`(?: \(([^)]*)\))?")


def _flags_table() -> dict[str, tuple[str, str]]:
    """Check -> (flags cell, run flags cell) of README's checker-specific flags table."""
    lines = README[README.index("| check | flags (default) | run flags |") :].splitlines()
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        name, flags, run_flags = (cell.strip() for cell in line.strip("|").split(" | "))
        rows[name.strip("`")] = (flags, run_flags)
    return rows


def _default(text: str):
    """A default as README writes it: "required" and no default at all ("") are None, "2/3" a quotient."""
    return None if text in ("", "required") else float(Fraction(text))


def test_flags_table_matches_the_registry():
    table = _flags_table()
    assert sorted(table) == sorted(CHECKERS)
    for name, cases in CHECKERS.items():
        flags_cell, run_cell = table[name]
        documented = {}
        for flag, text in FLAG.findall(flags_cell):
            # a flag's first mention gives its default; "in place of `--gamma`" names it again
            documented.setdefault(flag.replace("-", "_"), _default(text))
        read = {dest: default for flags, _ in cases for dest, default in flags.items() if default is not RUN}
        assert documented.keys() == read.keys(), name
        for dest, default in read.items():
            assert documented[dest] == (None if default is None else complex(default)), (name, dest)
        run_flags = {dest for flags, _ in cases for dest, default in flags.items() if default is RUN}
        assert {flag for flag, _ in FLAG.findall(run_cell)} == run_flags, name
        assert (run_cell == "none") == (not run_flags), name


# one name or several joined by "and", then the value they share: "(1e-10)" or "= 1e-10"
CONSTANT = re.compile(r"((?:`[A-Z_]+`(?: and )?)+)(?: \(([^)]*)\)| = ([0-9][0-9e.+-]*))")


def test_named_constants_match_the_checks_module():
    start = README.index("The `tol` defaults are the named constants")
    section = README[start : README.index("`check` and `suite` run every check", start)]
    documented = {}
    for names, in_parentheses, after_equals in CONSTANT.findall(section):
        for name in re.findall(r"`([A-Z_]+)`", names):
            documented[name] = float((in_parentheses or after_equals).rstrip("."))
    # every constant the section names is given a value, and every value is the module's
    assert set(re.findall(r"`([A-Z_]+)`", section)) == documented.keys()
    assert len(documented) == 16
    for name, value in documented.items():
        assert getattr(checks, name) == value, name
