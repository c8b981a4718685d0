"""The reach ratchet: which functions of src/fockcalc the committed corpus (tests/corpus.py) enters.

Every function, method, lambda and closure defined in src/fockcalc/*.py is
either entered by some corpus case or listed in UNENTERED with the one reason
that keeps it; comprehensions and class bodies are not counted.  The cases run
in a fresh subprocess under a call-only ``sys.settrace`` hook, installed before
fockcalc is imported, so import-time code and the first call that fills each
``lru_cache`` table are seen whatever ran before in the calling process.
tests/test_reach.py fails on an unentered function that is not listed, and on
a listed one that a case enters or that no longer exists, so the list only shrinks.

Print each function as entered, or as unentered with its reason:

    python tests/reach.py
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fockcalc"

WRAPPED = "pinned by perfbench: spans.py wraps it by name, until ROADMAP item 4 lets item 2 delete it"
ORACLE = "pinned by perfbench: the oracle workload's entries, until ROADMAP item 9 puts sections in a command"

# key (see defined) -> the one reason no corpus case enters it
UNENTERED = {
    "operators.OperatorMatrix.dim": "pinned by perfbench: spans._count_entries reads it, until ROADMAP item 4",
    "operators.adjoint_on_kernel": WRAPPED,
    "quadrature._image": ORACLE,
    "quadrature._symbol_values": ORACLE,
    "quadrature.quad_inner_product": WRAPPED,
    "quadrature.quad_matrix_entry": ORACLE,
    "series.TruncatedSeries.__call__": WRAPPED,
    "series.inner_product": WRAPPED,
    "report.CheckReport.max_residual": "reached only by tests: test_oracle_agreement_suite and many in test_checks.py",
    "report.CheckReport.max_residual.<locals>.<lambda>": "reached only by tests: max_residual's key",
    "series._Record.__hash__": "reached only by tests: test_value_records_compare_and_hash_by_their_fields",
    "series._Record.__repr__": "reached only by tests: test_record_text_is_the_dataclass_repr",
    "series._Record.__setattr__": "error path: test_record_fields_cannot_be_assigned_or_deleted",
    "series._Record.__delattr__": "error path: test_record_fields_cannot_be_assigned_or_deleted",
}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _functions(code):
    """The function code objects nested in code: optimized frames, which class and module bodies are not."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in _COMPREHENSIONS:
                yield const
            yield from _functions(const)


def defined() -> dict[tuple[str, int], str]:
    """(module, first line) -> key of every function in src/fockcalc/*.py.

    The key is ``module.qualname``; functions that share one (the lambdas of
    a table) are told apart by their first line, as ``module.qualname:line``.
    """
    codes = []
    for path in sorted(PACKAGE.glob("*.py")):
        codes += [(path.stem, c) for c in _functions(compile(path.read_text(), str(path), "exec"))]
    shared = Counter((module, c.co_qualname) for module, c in codes)
    return {
        (module, c.co_firstlineno): f"{module}.{c.co_qualname}"
        + (f":{c.co_firstlineno}" if shared[module, c.co_qualname] > 1 else "")
        for module, c in codes
    }


def _trace_corpus() -> None:
    """Run every corpus case under a call-only hook and print the (module, first line) of each fockcalc code entered."""
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)  # returns None: no line events in the frame

    sys.settrace(hook)
    import corpus  # imports fockcalc under the hook

    for name in corpus.CASES:
        corpus.run_case(name)
    sys.settrace(None)
    package = str(PACKAGE)
    found = {(Path(c.co_filename).stem, c.co_firstlineno) for c in entered if c.co_filename.startswith(package)}
    print(json.dumps(sorted(found)))


def entered() -> set[tuple[str, int]]:
    """(module, first line) of every fockcalc function that some corpus case enters, from a fresh traced process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(TESTS)])}
    out = subprocess.run(
        [sys.executable, "-c", "import reach; reach._trace_corpus()"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return {tuple(pair) for pair in json.loads(out)}


def mismatches(functions: dict[tuple[str, int], str], reached: set[tuple[str, int]]) -> dict[str, list[str]]:
    """What breaks the ratchet: unentered functions not listed, listed ones entered, listed keys no function has."""
    unentered = {key for site, key in functions.items() if site not in reached}
    return {
        "unentered and not listed": sorted(unentered - set(UNENTERED)),
        "listed but entered": sorted(set(UNENTERED) & (set(functions.values()) - unentered)),
        "listed but not defined": sorted(set(UNENTERED) - set(functions.values())),
    }


if __name__ == "__main__":
    functions, reached = defined(), entered()
    for site, key in sorted(functions.items(), key=lambda item: item[1]):
        line = f"entered    {key}" if site in reached else f"unentered  {key}: {UNENTERED.get(key, 'not listed')}"
        sys.stdout.write(line + "\n")
    faults = mismatches(functions, reached)
    for kind, keys in faults.items():
        sys.stdout.write("".join(f"{kind}: {key}\n" for key in keys))
    sys.stdout.write(f"{len(reached & set(functions))} of {len(functions)} functions entered, {len(UNENTERED)} listed\n")
    sys.exit(1 if any(faults.values()) else 0)
