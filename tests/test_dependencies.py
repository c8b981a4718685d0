"""No package or test imports a package that pyproject.toml does not declare.

scipy, mpmath, sympy and pytest-benchmark may be installed beside numpy,
pytest and hypothesis, but the project does not declare them, so a checkout
that installs only what it declares must still import and test.  The guard
reads every import statement with ``ast``, nested ones included, so code that
never runs is held too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNDECLARED = {"scipy", "mpmath", "sympy", "pytest_benchmark"}
SOURCES = sorted((ROOT / "src" / "fockcalc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.AST) -> set[str]:
    """The top-level package of every module an import statement in tree names; relative imports are the package's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_imports_only_declared_packages(path):
    assert _imported(ast.parse(path.read_text(), str(path))) & UNDECLARED == set()


def test_the_guard_sees_every_import_form():
    text = "import scipy.linalg\nfrom sympy import Rational\ndef f():\n    import mpmath as mp\nfrom pytest_benchmark.plugin import x\n"
    assert _imported(ast.parse(text)) == UNDECLARED
    assert _imported(ast.parse("from . import series\nfrom .series import FockParams\n")) == set()
