"""The runtime needs nothing beyond the standard library: `pyproject.toml`
lists no dependencies, and every import in `src/cogmesh` must keep it so."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cogmesh"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree):
    """Top-level package of every absolute import; relative imports stay
    inside the package and yield "cogmesh"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "cogmesh" if node.level else node.module.split(".")[0]


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"engine.py", "protocol.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_cogmesh(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted({root for root in imported_roots(tree)
                      if root not in ("__future__", "cogmesh")
                      and root not in sys.stdlib_module_names})
    assert foreign == []
