#!/usr/bin/env python3
"""Compare benchmark results written with `run.py --out`.

    python3 perfbench/compare.py --base parent/*.json --change change/*.json

For each workload and trace mode, prints every metric's median on both
sides and the change relative to the base; an end-to-end metric that got
worse by more than its bound is marked REGRESSED. It also checks that the
output digests agree per (workload, seed) and warns when the two sides ran
on different kernel backends, Python versions or core counts, which makes
their times incomparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

import spec

BOUNDS = {m.name: m for m in spec.END_TO_END}
PROVENANCE_KEYS = ("kernels_compiled", "python", "nproc")


def load(paths):
    groups = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def provenance_warnings(base, change) -> list[str]:
    out = []
    for key in PROVENANCE_KEYS:
        a = {r["provenance"][key] for group in base.values() for r in group}
        b = {r["provenance"][key] for group in change.values() for r in group}
        if a != b:
            out.append(f"WARNING: {key} differs: base {sorted(map(str, a))} "
                       f"vs change {sorted(map(str, b))}; times are not comparable")
    return out


def digest_mismatches(base_runs, change_runs) -> list[str]:
    base = {r["seed"]: r["digest"] for r in base_runs}
    return [f"seed {r['seed']}: digest {r['digest'][:12]} != {base[r['seed']][:12]}"
            for r in change_runs
            if r["seed"] in base and base[r["seed"]] != r["digest"]]


def compare(base, change) -> list[str]:
    lines = provenance_warnings(base, change)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        lines.append(f"{workload} trace={trace} "
                     f"({len(base[key])} base runs, {len(change[key])} change runs)")
        lines += ["  OUTPUT CHANGED " + m for m in digest_mismatches(base[key], change[key])]
        for name, m in base[key][0]["metrics"].items():
            a = statistics.median(r["metrics"][name]["value"] for r in base[key])
            b = statistics.median(r["metrics"][name]["value"] for r in change[key])
            rel = (b - a) / a if a else 0.0
            flag = ""
            metric = BOUNDS.get(name)
            if metric is not None:
                worse = rel if metric.better == "lower" else -rel
                flag = "  REGRESSED" if worse > metric.bound else ""
            lines.append(f"  {name:34s} {a:12.6g} -> {b:12.6g} {m['unit']:8s}"
                         f" {rel:+8.1%}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    print("\n".join(compare(load(args.base), load(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
