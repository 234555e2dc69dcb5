#!/usr/bin/env python3
"""Benchmark cogmesh end to end and, with --trace 1, layer by layer.

    python3 perfbench/run.py --workload mesh400 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-benchmark-json

One operation simulates every run of a workload: the scenario files are
parsed with `cli.parse_scenario`, simulated with
`engine.World(cfg, validate=True).run()` and written with
`cli.write_run_outputs`, exactly as `cogmesh run` does. Operations repeat
until --seconds have passed and times are reported as medians.

With --trace 0 the result holds the end-to-end metrics. With --trace 1,
untraced and traced operations alternate and the result holds the
per-layer self times and counters of the traced ones (see spec.SPANS).

Every run's outputs are checked: summary.txt must agree with metrics.csv,
and the sha256 of metrics.csv + events.log must be equal across every
repetition of the run, traced or not. A run that raises or disagrees counts
as failed. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spec
from tracer import HOOK_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_SHARE = 0.1           # of the elapsed time spent on set-up-only passes
SETUP_MIN_PASSES = 3
FINAL_WINDOW_FRACTION = 0.2


class MissingSources(RuntimeError):
    pass


class OutputMismatch(RuntimeError):
    pass


def load_cogmesh():
    """Import cogmesh from this checkout's src/, refusing any other copy."""
    package = SRC / "cogmesh"
    if not (package / "__init__.py").is_file():
        raise MissingSources(f"no cogmesh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cogmesh
    import cogmesh.cli
    import cogmesh.engine
    if Path(cogmesh.__file__).resolve().parent != package.resolve():
        raise MissingSources(f"imported cogmesh from {cogmesh.__file__}, not {package}")
    return cogmesh


@dataclass
class RunOutcome:
    label: str
    setup_s: float
    run_s: float
    digest: str
    largest_cloud: float
    cluster_count: float
    reforms_proposed: int
    reforms_committed: int


@dataclass
class Op:
    setup_s: float = 0.0
    run_s: float = 0.0
    outcomes: list = field(default_factory=list)


def check_outputs(out_dir: Path, samples_expected: int):
    """Digest and simulated outcomes of one run's output files.

    Recomputes the final-window means from metrics.csv and requires
    summary.txt to agree with them.
    """
    metrics = (out_dir / "metrics.csv").read_bytes()
    events = (out_dir / "events.log").read_bytes()
    if not (out_dir / "config.txt").is_file():
        raise OutputMismatch("config.txt missing")
    digest = hashlib.sha256(metrics + events).hexdigest()
    rows = [line.split(",") for line in metrics.decode().splitlines()[1:]]
    if len(rows) != samples_expected:
        raise OutputMismatch(f"{len(rows)} samples, expected {samples_expected}")
    window = rows[-max(1, int(len(rows) * FINAL_WINDOW_FRACTION)):]
    cloud = sum(int(r[2]) for r in window) / len(window)
    clusters = sum(int(r[3]) for r in window) / len(window)
    summary = dict(line.split(" = ", 1)
                   for line in (out_dir / "summary.txt").read_text().splitlines())
    if (abs(float(summary["mean_largest_cloud"]) - cloud) > 1e-6
            or abs(float(summary["mean_cluster_count"]) - clusters) > 1e-6):
        raise OutputMismatch("summary.txt disagrees with metrics.csv")
    reform_lines = [line for line in events.decode().splitlines()
                    if " event=reform " in line]
    proposed = sum(" status=proposed" in line for line in reform_lines)
    committed = sum(" status=committed" in line for line in reform_lines)
    return digest, cloud, clusters, proposed, committed


def simulate(cogmesh, label: str, scenario: Path, out_dir: Path) -> RunOutcome:
    cli, engine = cogmesh.cli, cogmesh.engine
    clock = time.perf_counter
    t0 = clock()
    cfg = cli.parse_scenario(str(scenario))
    world = engine.World(cfg, validate=True)
    t1 = clock()
    result = world.run()
    cli.write_run_outputs(result, str(out_dir))
    t2 = clock()
    checked = check_outputs(out_dir, cfg.duration_ticks // cfg.metrics_period)
    return RunOutcome(label, t1 - t0, t2 - t1, *checked)


def set_up(cogmesh, scenario: Path) -> float:
    t0 = time.perf_counter()
    cfg = cogmesh.cli.parse_scenario(str(scenario))
    cogmesh.engine.World(cfg, validate=True)
    return time.perf_counter() - t0


class Session:
    """All operations of one benchmark invocation, with failure accounting."""

    def __init__(self, cogmesh, workload, seed: int, tmp: Path):
        self.cogmesh = cogmesh
        self.tmp = tmp
        self.scenarios = []
        for label, text in workload.runs(seed):
            path = tmp / f"{label}.cfg"
            path.write_text(text)
            self.scenarios.append((label, path))
        self.reference = {}       # label -> first outcome
        self.attempted = 0
        self.failures = []

    def op(self) -> Op:
        op = Op()
        for label, path in self.scenarios:
            self.attempted += 1
            try:
                outcome = simulate(self.cogmesh, label, path, self.tmp / "out" / label)
            except Exception as exc:  # a failing run is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            ref = self.reference.setdefault(label, outcome)
            if outcome.digest != ref.digest:
                self.failures.append(f"{label}: digest {outcome.digest} != {ref.digest}")
            op.setup_s += outcome.setup_s
            op.run_s += outcome.run_s
            op.outcomes.append(outcome)
        return op

    def setup_only(self) -> float:
        return sum(set_up(self.cogmesh, path) for _, path in self.scenarios)

    def digest(self) -> str:
        joined = "".join(self.reference[label].digest for label, _ in self.scenarios
                         if label in self.reference)
        return hashlib.sha256(joined.encode()).hexdigest()

    def outcome_means(self):
        refs = list(self.reference.values())
        if not refs:
            return 0.0, 0.0
        return (statistics.fmean(o.largest_cloud for o in refs),
                statistics.fmean(o.cluster_count for o in refs))


def ether_hook(counts):
    """Counts transmissions, deliveries and collisions per message kind from
    deliver_messages' (transmissions, ...) arguments and (delivered,
    dropped) result."""
    def kind(msg):
        name = type(msg).__name__
        return spec.MESSAGE_KINDS.get(name, name.lower())

    def hook(args, result):
        delivered, dropped = result
        for _sender, _channel, msg in args[0]:
            counts["tx." + kind(msg)] += 1
        for _receiver, msg in delivered:
            counts["delivered." + kind(msg)] += 1
        for _receiver, msg in dropped:
            counts["collided." + kind(msg)] += 1
    return hook


def traced_op(session: Session):
    """One operation with every layer wrapped; returns (op, layer values,
    absent targets)."""
    tracer = Tracer()
    hooks = {spec.DELIVER_TARGET: ether_hook(tracer.counts)}
    with tracer.install(spec.SPANS, hooks) as absent:
        op = session.op()
    return op, layer_values(tracer, op), absent


def layer_values(tracer: Tracer, op: Op) -> dict:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    values = {}
    for name in dict.fromkeys(span for span, _ in spec.SPANS):
        values[f"{name}_s"] = self_s.get(name, 0.0)
        if name in spec.CALL_METRICS:
            values[spec.CALL_METRICS[name]] = calls.get(name, 0)
    tx_total = 0
    for kind in spec.MESSAGE_KINDS.values():
        tx = counts.get(f"tx.{kind}", 0)
        delivered = counts.get(f"delivered.{kind}", 0)
        collided = counts.get(f"collided.{kind}", 0)
        tx_total += tx
        values[f"engine.tx.{kind}"] = tx
        values[f"engine.delivered.{kind}"] = delivered
        values[f"engine.collided.{kind}"] = collided
        values[f"engine.collision_ratio.{kind}"] = ratio(collided, delivered + collided)
    values["protocol.active_step_ratio"] = ratio(
        tx_total + calls.get("radio.sense", 0), calls.get("protocol.step", 0))
    values["reformation.commit_ratio"] = ratio(
        sum(o.reforms_committed for o in op.outcomes),
        sum(o.reforms_proposed for o in op.outcomes))
    values["trace.run_s"] = op.run_s
    values["trace.hooks_s"] = self_s.get(HOOK_SPAN, 0.0)
    accounted = sum(t for name, t in self_s.items() if name not in spec.SETUP_SPANS)
    values["trace.coverage"] = ratio(accounted, op.run_s)
    return values


def ratio(num, den) -> float:
    return num / den if den else 0.0


def measure(session: Session, seconds: float, trace: bool):
    """Repeat operations for `seconds`; returns (metric name -> value, run_s
    of each untraced operation, absent wrap targets)."""
    start = time.perf_counter()
    deadline = start + seconds
    if not trace:
        # Set-up-only passes run between the operations, so that set-up is
        # timed under the same host conditions as the runs.
        setup, ops = [], []
        while not ops or time.perf_counter() < deadline:
            while (len(setup) < SETUP_MIN_PASSES
                   or sum(setup) < SETUP_SHARE * (time.perf_counter() - start)):
                setup.append(session.setup_only())
            ops.append(session.op())
        setup += [op.setup_s for op in ops]
        return {
            "run_s": statistics.median(op.run_s for op in ops),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, [op.run_s for op in ops], []
    plain, traced, absent = [], [], set()
    while not traced or time.perf_counter() < deadline:
        plain.append(session.op())
        op, values, missing = traced_op(session)
        traced.append(values)
        absent.update(missing)
    metrics = {name: median([v[name] for v in traced]) for name in traced[0]}
    metrics["trace_overhead_s"] = (metrics["trace.run_s"]
                                   - statistics.median(op.run_s for op in plain))
    return metrics, [op.run_s for op in plain], sorted(absent)


def median(values):
    """Median; an observed value when all are counts, so counts stay whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(cogmesh) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        # None once the compiled-kernel layer no longer exists
        "kernels_compiled": getattr(cogmesh, "KERNELS_COMPILED", None),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def benchmark(cogmesh, workload, seed: int, seconds: float, trace: bool) -> dict:
    started = provenance(cogmesh)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        session = Session(cogmesh, workload, seed, tmp)
        values, op_run_s, absent = measure(session, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    cloud, clusters = session.outcome_means()
    values.update(largest_cloud=cloud, cluster_count=clusters)
    metric_set = spec.PER_LAYER if trace else spec.END_TO_END
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "op_run_s": op_run_s,
        "runs": session.attempted,
        "failed_runs": len(session.failures),
        "failures": session.failures,
        "digest": session.digest(),
        "absent": absent,
        "provenance": started,
        "outcomes": {"largest_cloud": cloud, "cluster_count": clusters},
        "layers": values if trace else {},
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metric_set},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    try:
        cogmesh = load_cogmesh()
    except MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = benchmark(cogmesh, spec.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace))
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {len(result['op_run_s'])} untraced operations, "
          f"{result['runs']} runs, {result['failed_runs']} failed, "
          f"digest {result['digest']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for target in result["absent"]:
        print(f"  absent wrap target {target} (its metrics read 0)")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "correct": result["failed_runs"] == 0,
        "attempted": result["runs"],
        "failed": result["failed_runs"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
