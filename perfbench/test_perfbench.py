"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import spec
from tracer import Tracer

TINY_TICKS = 80


@pytest.fixture
def tiny(monkeypatch):
    """Shortens every workload's runs to TINY_TICKS."""
    for name, w in list(spec.WORKLOADS.items()):
        monkeypatch.setitem(spec.WORKLOADS, name, dataclasses.replace(w, ticks=TINY_TICKS))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_subtract_each_child_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 4

    def inner():
        clock.now += 2
        leaf()

    def outer():
        clock.now += 1
        inner()
        leaf()
        clock.now += 8

    leaf = tracer.span("leaf", leaf)
    inner = tracer.span("inner", inner)
    outer = tracer.span("outer", outer)
    outer()
    assert tracer.self_s == {"outer": 9, "inner": 2, "leaf": 8}
    assert tracer.calls == {"outer": 1, "inner": 1, "leaf": 2}
    assert sum(tracer.self_s.values()) == clock.now


def test_recursive_spans_subtract_each_child_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(n):
        clock.now += 3
        if n:
            countdown(n - 1)
        clock.now += 1

    countdown = tracer.span("rec", countdown)
    countdown(4)
    assert tracer.self_s["rec"] == 5 * 4 == clock.now
    assert tracer.calls["rec"] == 5


def test_span_records_time_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 2
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.self_s["boom"] == 2
    assert tracer._stack == []


def test_install_restores_originals_and_reports_absent_targets():
    run.load_cogmesh()
    from cogmesh import engine, protocol

    step = protocol.Node.__dict__["step"]
    deliver = engine.deliver_messages
    targets = (("protocol.step", "cogmesh.protocol:Node.step"),
               ("engine.deliver", "cogmesh.engine:deliver_messages"),
               ("gone", "cogmesh.engine:no_such_function"),
               ("gone", "cogmesh.no_such_module:f"),
               ("gone", "cogmesh.engine:NoSuchClass.method"))
    with Tracer().install(targets) as absent:
        assert protocol.Node.__dict__["step"] is not step
        assert engine.deliver_messages is not deliver
    assert absent == ["cogmesh.engine:no_such_function", "cogmesh.no_such_module:f",
                      "cogmesh.engine:NoSuchClass.method"]
    assert protocol.Node.__dict__["step"] is step
    assert engine.deliver_messages is deliver


def test_tracing_does_not_perturb_outputs(tmp_path, tiny):
    cogmesh = run.load_cogmesh()
    workload = spec.WORKLOADS["pu_dense"]
    session = run.Session(cogmesh, workload, 3, tmp_path)
    plain = session.op()
    traced, values, absent = run.traced_op(session)
    assert absent == []
    assert session.failures == []
    assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    assert values["protocol.step_calls"] == workload.seeds_per_op * 100 * TINY_TICKS
    assert values["radio.sense_calls"] > 0
    # the spans partition the run phase up to the wrappers' own overhead
    assert 0.9 < values["trace.coverage"] <= 1.0


def test_ether_counters_agree_with_delivery():
    counts = Counter()
    beacon = type("Beacon", (), {})()
    join = type("JoinRequest", (), {})()
    hook = run.ether_hook(counts)
    hook(([(0, 1, beacon), (2, 1, join)], {}, {}),
         ([(1, beacon)], [(3, join), (3, beacon)]))
    assert counts == {"tx.beacon": 1, "tx.join": 1, "delivered.beacon": 1,
                      "collided.join": 1, "collided.beacon": 1}


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_each_workload(workload, trace, tiny, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    detail = json.loads(lines[-2].removeprefix("detail "))
    assert detail["failed_runs"] == 0 and detail["absent"] == []
    names = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in names]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    w = spec.WORKLOADS["swarm50"]
    assert w.runs(7) == w.runs(7)
    assert w.runs(7) != w.runs(8)
    assert len(w.runs(7)) == w.seeds_per_op * len(w.arms)


def test_benchmark_json_matches_spec():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swarm50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json",
                                                                "perfbench"]
