"""A node reaches the engine only through the ctx it is handed, a `World`.
Every `ctx.<name>` that `protocol.py` calls must therefore be defined on
`World`; a stale name would fail only on the path that calls it, which some
runs never take."""

import ast
from pathlib import Path

from cogmesh.engine import World

PROTOCOL = Path(__file__).resolve().parent.parent / "src" / "cogmesh" / "protocol.py"


def ctx_names(tree):
    """The attribute names read off a name `ctx`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ctx"}


def test_every_ctx_call_is_a_world_method():
    names = ctx_names(ast.parse(PROTOCOL.read_text(), filename=str(PROTOCOL)))
    assert names, "protocol.py reaches no ctx"
    missing = sorted(name for name in names
                     if not callable(getattr(World, name, None)))
    assert missing == []

