"""What the benchmark measures: workloads, metrics and the layers it wraps.

`BENCHMARK.json` at the repository root is generated from this file by
`python3 perfbench/run.py --write-benchmark-json`; a test keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
RUN_SECONDS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ticks: int                  # duration_ticks of every run
    seeds_per_op: int           # simulation seeds derived from --seed
    arms: tuple[str, ...]       # swarm_enabled values run for every seed

    @property
    def template(self) -> Path:
        return SCENARIOS / f"{self.name}.cfg"

    def runs(self, seed: int) -> list[tuple[str, str]]:
        """(label, scenario file text) for every simulation run of one
        operation; a pure function of `seed`."""
        rng = Random(f"{self.name}:{seed}")
        base = self.template.read_text()
        out = []
        for _ in range(self.seeds_per_op):
            sim_seed = rng.randrange(1, 2**31)
            for arm in self.arms:
                text = (f"{base}\nduration_ticks = {self.ticks}\n"
                        f"seed = {sim_seed}\nswarm_enabled = {arm}\n")
                out.append((f"seed{sim_seed}-swarm{arm}", text))
        return out


WORKLOADS = {w.name: w for w in (
    Workload("mesh400",
             "400 nodes at default density: the scale case, where pairwise "
             "gateway discovery and the O(n^2) World set-up dominate",
             ticks=500, seeds_per_op=1, arms=("on",)),
    Workload("swarm50",
             "the paper's 50-node swarm on/off comparison: node stepping and "
             "message handling dominate, gateways do not",
             ticks=2000, seeds_per_op=2, arms=("on", "off")),
    Workload("pu_dense",
             "100 nodes with 32 Markov PUs changing state often: PU stepping "
             "and sensing matter here and nowhere else",
             ticks=500, seeds_per_op=4, arms=("on",)),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def entry(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END = (
    Metric("run_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

# (span name, wrap target). Targets are resolved by name when a traced run
# starts; the span is bound where the caller looks the function up, so a
# function imported into engine is wrapped in engine's namespace. Kernels are
# measured through their callers, never through cogmesh.kernels.
SPANS = (
    ("engine.loop", "cogmesh.engine:World.run"),
    ("engine.gateway", "cogmesh.engine:World._gateway_maintenance"),
    ("engine.deliver", "cogmesh.engine:deliver_messages"),
    ("engine.reform", "cogmesh.engine:World.try_reform"),
    ("engine.reform", "cogmesh.engine:World._reform_timers"),
    ("engine.metrics", "cogmesh.engine:compute_metrics"),
    ("engine.validate", "cogmesh.engine:World._validate"),
    ("protocol.step", "cogmesh.protocol:Node.step"),
    ("protocol.on_message", "cogmesh.protocol:Node.on_message"),
    ("protocol.select_gateways", "cogmesh.engine:select_gateways"),
    ("radio.step_environment", "cogmesh.radio:step_environment"),
    ("radio.sense", "cogmesh.radio:sense"),
    ("swarm.apply_hello", "cogmesh.swarm:apply_hello"),
    ("swarm.refresh", "cogmesh.swarm:refresh_from_sensing"),
    ("reformation.build_local_graph", "cogmesh.engine:build_local_graph"),
    ("reformation.greedy_mds", "cogmesh.engine:greedy_mds"),
    ("cli.parse", "cogmesh.cli:parse_scenario"),
    ("cli.write", "cogmesh.cli:write_run_outputs"),
)
DELIVER_TARGET = "cogmesh.engine:deliver_messages"
SETUP_SPANS = ("cli.parse",)          # spans outside the timed run phase

# message class name -> kind used in the ether counter names
MESSAGE_KINDS = {"Beacon": "beacon", "HelloFrame": "hello", "JoinRequest": "join"}

# span name -> call-count metric name
CALL_METRICS = {
    "engine.gateway": "engine.gateway_calls",
    "protocol.step": "protocol.step_calls",
    "protocol.on_message": "protocol.on_message_calls",
    "radio.step_environment": "radio.step_environment_calls",
    "radio.sense": "radio.sense_calls",
    "swarm.apply_hello": "swarm.apply_hello_calls",
    "swarm.refresh": "swarm.refresh_calls",
    "reformation.greedy_mds": "reformation.plans",
}


def _per_layer():
    out = []
    for name in dict.fromkeys(span for span, _ in SPANS):
        out.append(Metric(f"{name}_s", "s", "lower"))
        if name in CALL_METRICS:
            out.append(Metric(CALL_METRICS[name], "count", "lower"))
    for kind in MESSAGE_KINDS.values():
        out += [Metric(f"engine.tx.{kind}", "count", "lower"),
                Metric(f"engine.delivered.{kind}", "count", "higher"),
                Metric(f"engine.collided.{kind}", "count", "lower"),
                Metric(f"engine.collision_ratio.{kind}", "ratio", "lower")]
    out += [Metric("largest_cloud", "nodes", "higher"),
            Metric("cluster_count", "clusters", "lower"),
            Metric("protocol.active_step_ratio", "ratio", "higher"),
            Metric("reformation.commit_ratio", "ratio", "higher"),
            Metric("trace.run_s", "s", "lower"),
            Metric("trace.hooks_s", "s", "lower"),
            Metric("trace_overhead_s", "s", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.entry() for m in END_TO_END],
        "per_layer": [m.entry() for m in PER_LAYER],
    }
