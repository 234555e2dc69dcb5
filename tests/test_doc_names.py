"""Every dotted name that `README.md` or a docstring in `src/cogmesh` puts in
backticks names something that exists: a module, a class, a function, a
field or slot of a record, or an attribute of a built `World`. A rename or a
deletion that leaves a stale name behind fails here."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import cogmesh
from cogmesh.engine import ScenarioConfig, World

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cogmesh"
MODULES = sorted(PACKAGE.glob("*.py"))
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
# `config.txt`, `compare.py`: a file, not a name
FILE_SUFFIXES = {"cfg", "csv", "json", "log", "md", "py", "toml", "txt", "yml"}


def docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def cited_names():
    texts = [("README.md", (ROOT / "README.md").read_text(encoding="utf-8"))]
    texts += [(path.name, doc) for path in MODULES for doc in docstrings(path)]
    return sorted({(where, name) for where, text in texts
                   for name in DOTTED.findall(text)
                   if name.rsplit(".", 1)[1] not in FILE_SUFFIXES})


def resolve_head(head):
    """The module or package-level object a name's first part stands for."""
    if head == "cogmesh":
        return cogmesh
    if (PACKAGE / f"{head}.py").exists():
        return importlib.import_module(f"cogmesh.{head}")
    for path in MODULES:
        module = importlib.import_module(f"cogmesh.{path.stem}")
        if head in vars(module):
            return vars(module)[head]
    return importlib.import_module(head)


def has_part(obj, part):
    return hasattr(obj, part) or (dataclasses.is_dataclass(obj) and part in {
        f.name for f in dataclasses.fields(obj)})


@pytest.fixture(scope="module")
def world():
    return World(ScenarioConfig(su_count=2))


def test_names_are_found():
    names = {name for _, name in cited_names()}
    assert {"radio.sense", "HelloMessage.stages", "World.links"} <= names
    assert "config.txt" not in names


@pytest.mark.parametrize("where, name", cited_names())
def test_cited_name_resolves(where, name, world):
    head, *parts = name.split(".")
    obj = resolve_head(head)
    for part in parts:
        if obj is World:
            obj = world         # a World's attributes are set per instance
        assert has_part(obj, part), f"{where}: `{name}` has no {part!r}"
        obj = getattr(obj, part, None)
