"""A node reaches the engine only through the ctx it is handed, a `World`.
Every `ctx.<name>` that `protocol.py` calls must therefore be defined on
`World`; a stale name would fail only on the path that calls it, which some
runs never take. The set of names is pinned too, so that a new callback into
the engine is a deliberate edit here. The engine, in turn, writes no node's
role: a node enters each role itself, and a gateway is a fact of
`World.links`."""

import ast
from pathlib import Path

from cogmesh.engine import World

PROTOCOL = Path(__file__).resolve().parent.parent / "src" / "cogmesh" / "protocol.py"
ENGINE = PROTOCOL.with_name("engine.py")

# what a node asks of the engine: sensing, the ether, the event log, and the
# reformation entry point, and the exit from a role
CTX_METHODS = {"sense", "transmit", "log", "try_reform", "leave"}


def ctx_names(tree):
    """The attribute names read off a name `ctx`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ctx"}


def protocol_ctx_names():
    return ctx_names(ast.parse(PROTOCOL.read_text(), filename=str(PROTOCOL)))


def test_every_ctx_call_is_a_world_method():
    names = protocol_ctx_names()
    assert names, "protocol.py reaches no ctx"
    missing = sorted(name for name in names
                     if not callable(getattr(World, name, None)))
    assert missing == []


def test_ctx_surface_is_pinned():
    assert protocol_ctx_names() == CTX_METHODS


def test_the_engine_writes_no_role():
    tree = ast.parse(ENGINE.read_text(), filename=str(ENGINE))
    writes = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "role"
              and not isinstance(node.ctx, ast.Load)]
    assert writes == []
