"""A wire field needs a reader.

Each field of a message record, and of the superframe layout that a beacon
carries, stays only while some function in `cogmesh` reads it. This file
pins every such record's fields and names, for each field, one function
whose source reads `.<field>`. A new field needs its reader named here, and
a field whose last reader goes should go with it.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import pytest

import cogmesh
from cogmesh.protocol import Beacon, HelloFrame, JoinRequest, SuperframeSchedule
from cogmesh.swarm import HelloMessage

# record -> its fields in order -> "module:qualified name" of one reader
READERS = {
    Beacon: {
        "gap": "cogmesh.protocol:Node._follow_beacon",
        "schedule": "cogmesh.protocol:Node._follow_beacon",
        "members": "cogmesh.protocol:Node._scan_beacon",
        "rejects": "cogmesh.protocol:Node._scan_beacon",
        "hello": "cogmesh.protocol:Node._on_beacon",
    },
    HelloFrame: {
        "hello": "cogmesh.protocol:Node._on_hello",
        "cluster_head": "cogmesh.protocol:Node._on_hello",
        "pra_start": "cogmesh.protocol:Node._on_hello",
    },
    JoinRequest: {
        "sender": "cogmesh.protocol:Node._on_join_request",
        "head": "cogmesh.protocol:Node._on_join_request",
    },
    HelloMessage: {
        "sender": "cogmesh.protocol:upsert_from_hello",
        "master": "cogmesh.protocol:upsert_from_hello",
        "stages": "cogmesh.swarm:apply_hello",
        "neighbor_list": "cogmesh.protocol:upsert_from_hello",
    },
    SuperframeSchedule: {
        "nd_start": "cogmesh.protocol:Node._sleep_in_frame",
        "data_start": "cogmesh.protocol:Node._in_frame",
        "detect_blocks": "cogmesh.protocol:Node._in_frame",
        "edges": "cogmesh.protocol:Node._sleep_in_frame",
        "kinds": "cogmesh.protocol:Node._sleep_in_frame",
    },
}


def resolve(target: str):
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("record", READERS, ids=lambda r: r.__name__)
def test_fields_are_pinned(record):
    assert [f.name for f in dataclasses.fields(record)] == list(READERS[record])


@pytest.mark.parametrize("record, name, reader", [
    (record, name, reader)
    for record, readers in READERS.items()
    for name, reader in readers.items()
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_each_field_has_a_reader(record, name, reader):
    assert reader.startswith("cogmesh.")
    source = inspect.getsource(resolve(reader))
    assert re.search(rf"\.{name}\b", source), \
        f"{reader} does not read {record.__name__}.{name}"


@pytest.mark.parametrize("record", READERS, ids=lambda r: r.__name__)
def test_no_field_goes_unread(record):
    # independent of the pins above: some source in the package reads each
    # live field
    package = "".join(
        inspect.getsource(importlib.import_module(f"cogmesh.{m.name}"))
        for m in pkgutil.iter_modules(cogmesh.__path__))
    unread = [f.name for f in dataclasses.fields(record)
              if not re.search(rf"\.{f.name}\b", package)]
    assert unread == []
