"""Command-line front end.

Scenario files are UTF-8 text, line-based `key = value` with `#` comments;
unknown keys are rejected with the offending line. Outputs, written as UTF-8,
are a pure function of the config file bytes plus the flag overrides:
metrics.csv (one row per sample), events.log (tick-stamped protocol events),
summary.txt (final-window means), and config.txt (the fully resolved
configuration, for provenance).

    cogmesh run --config scenario.cfg --seed 7 --out out/
    cogmesh sweep --config scenario.cfg --seeds 1,2,3 --out out/
    cogmesh compare --config scenario.cfg --seeds 1,2,3 --out out/
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields as dc_fields, replace
from pathlib import Path

from cogmesh.engine import ConfigError, RunResult, ScenarioConfig, config_from_mapping, run

FINAL_WINDOW_FRACTION = 0.2


@dataclass(frozen=True)
class RunRequest:
    config_path: str
    out_dir: str
    seeds: tuple[int, ...] = ()
    seed: int | None = None
    ticks: int | None = None
    swarm: str | None = None             # "on" | "off"


def parse_scenario(path: str) -> ScenarioConfig:
    """Parse a scenario file, read as UTF-8, into a validated config."""
    mapping = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(path, f"unreadable scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"scenario file is not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}", f"malformed line {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}", f"malformed line {raw!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}", f"duplicate key {key!r}")
        mapping[key] = value
    return config_from_mapping(mapping, source=path)


def apply_overrides(cfg: ScenarioConfig, req: RunRequest) -> ScenarioConfig:
    """Apply the command-line flags; `replace` builds, and so checks, the
    resulting config."""
    changes = {}
    if req.seed is not None:
        changes["seed"] = req.seed
    if req.ticks is not None:
        changes["duration_ticks"] = req.ticks
    if req.swarm is not None:
        changes["swarm_enabled"] = req.swarm == "on"
    return replace(cfg, **changes)


def final_window(samples):
    """The last fifth of the samples (at least one)."""
    if not samples:
        return []
    n = max(1, int(len(samples) * FINAL_WINDOW_FRACTION))
    return samples[-n:]


def window_means(samples):
    win = final_window(samples)
    if not win:
        return 0.0, 0.0, 0.0
    k = len(win)
    return (sum(s.stddev for s in win) / k,
            sum(s.largest_cloud for s in win) / k,
            sum(s.cluster_count for s in win) / k)


def _config_text(cfg: ScenarioConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dc_fields(cfg)]
    return "\n".join(lines) + "\n"


def _metrics_csv(result: RunResult) -> str:
    channels = result.config.channel_count
    header = "tick,stddev,largest_cloud,cluster_count," + ",".join(
        f"count_ch{c}" for c in range(channels))
    rows = [header]
    for s in result.samples:
        rows.append(f"{s.tick},{s.stddev:.6f},{s.largest_cloud},"
                    f"{s.cluster_count}," + ",".join(str(c) for c in s.counts))
    return "\n".join(rows) + "\n"


def _summary_text(result: RunResult) -> str:
    mean_std, mean_cloud, mean_clusters = window_means(result.samples)
    win = final_window(result.samples)
    return (
        f"samples = {len(result.samples)}\n"
        f"final_window_samples = {len(win)}\n"
        f"mean_stddev = {mean_std:.6f}\n"
        f"mean_largest_cloud = {mean_cloud:.6f}\n"
        f"mean_cluster_count = {mean_clusters:.6f}\n"
    )


def write_run_outputs(result: RunResult, out_dir: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(_metrics_csv(result), encoding="utf-8")
    with (out / "events.log").open("w", encoding="utf-8") as f:
        f.writelines(e.line() + "\n" for e in result.events)
    (out / "summary.txt").write_text(_summary_text(result), encoding="utf-8")
    (out / "config.txt").write_text(_config_text(result.config), encoding="utf-8")


def run_single(req: RunRequest) -> RunResult:
    cfg = apply_overrides(parse_scenario(req.config_path), req)
    result = run(cfg)
    write_run_outputs(result, req.out_dir)
    return result


def run_sweep(req: RunRequest):
    """One run per seed; per-seed outputs plus a sweep.csv of window means."""
    if len(req.seeds) < 1:
        raise ConfigError("seeds", "sweep needs at least 1 seed")
    base = apply_overrides(parse_scenario(req.config_path), req)
    rows = ["seed,mean_stddev,mean_largest_cloud,mean_cluster_count"]
    results = []
    for seed in req.seeds:
        result = run(replace(base, seed=seed))
        write_run_outputs(result, str(Path(req.out_dir) / f"seed_{seed}"))
        mean_std, mean_cloud, mean_clusters = window_means(result.samples)
        rows.append(f"{seed},{mean_std:.6f},{mean_cloud:.6f},{mean_clusters:.6f}")
        results.append(result)
    out = Path(req.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return results


def run_compare(req: RunRequest):
    """Swarm on/off arms over the same seeds; only swarm_enabled varies."""
    if len(req.seeds) < 2:
        raise ConfigError("seeds", "compare needs at least 2 seeds")
    base = apply_overrides(parse_scenario(req.config_path), req)
    rows = []
    for seed in req.seeds:
        on = run(replace(base, seed=seed, swarm_enabled=True))
        off = run(replace(base, seed=seed, swarm_enabled=False))
        std_on, cloud_on, _ = window_means(on.samples)
        std_off, cloud_off, _ = window_means(off.samples)
        rows.append((seed, std_on, std_off, cloud_on, cloud_off))
    k = len(rows)
    means = tuple(sum(r[i] for r in rows) / k for i in range(1, 5))
    out = Path(req.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["seed,stddev_on,stddev_off,largest_cloud_on,largest_cloud_off"]
    for seed, a, b, c, d in rows:
        lines.append(f"{seed},{a:.6f},{b:.6f},{c:.6f},{d:.6f}")
    lines.append("mean,%.6f,%.6f,%.6f,%.6f" % means)
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows, means


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError("seeds", f"bad seed list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cogmesh",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--ticks", type=int)
    p_run.add_argument("--swarm", choices=["on", "off"])
    p_run.add_argument("--out", default="out")

    p_sweep = sub.add_parser("sweep", help="run several seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seeds", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--ticks", type=int)
    p_sweep.add_argument("--swarm", choices=["on", "off"])

    p_cmp = sub.add_parser("compare", help="swarm on/off comparison")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--seeds", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--ticks", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            req = RunRequest(config_path=args.config, out_dir=args.out,
                             seed=args.seed, ticks=args.ticks,
                             swarm=args.swarm)
            result = run_single(req)
            mean_std, mean_cloud, mean_clusters = window_means(result.samples)
            print(f"run complete: {len(result.samples)} samples, "
                  f"final-window stddev {mean_std:.4f}, "
                  f"largest cloud {mean_cloud:.2f}, "
                  f"clusters {mean_clusters:.2f}")
        elif args.command == "sweep":
            req = RunRequest(config_path=args.config, out_dir=args.out,
                             seeds=_parse_seeds(args.seeds),
                             ticks=args.ticks, swarm=args.swarm)
            results = run_sweep(req)
            print(f"sweep complete: {len(results)} seeds -> {args.out}/sweep.csv")
        else:
            req = RunRequest(config_path=args.config, out_dir=args.out,
                             seeds=_parse_seeds(args.seeds),
                             ticks=args.ticks)
            rows, means = run_compare(req)
            print("seed  stddev_on stddev_off cloud_on cloud_off")
            for seed, a, b, c, d in rows:
                print(f"{seed:>4}  {a:9.4f} {b:10.4f} {c:8.2f} {d:9.2f}")
            print(f"mean  {means[0]:9.4f} {means[1]:10.4f} "
                  f"{means[2]:8.2f} {means[3]:9.2f}")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
