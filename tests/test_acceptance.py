"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance and runtime cap is pinned here.
"""

import filecmp
import math
import time
from dataclasses import replace
from itertools import combinations
from random import Random

import pytest

from cogmesh.cli import RunRequest, run_single, window_means
from cogmesh.engine import ScenarioConfig, World, run
from cogmesh.reformation import greedy_mds
from cogmesh.swarm import (
    HelloMessage,
    RewardParams,
    apply_hello,
    initial_weights,
    refresh_from_sensing,
)

from test_reformation import (
    exact_min_ds_size,
    graph_from_edges,
    is_dominating_set,
)


def report(num, name, elapsed, detail=""):
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s) {detail}")


def final_window_mean(samples, attr):
    n = max(1, len(samples) // 5)
    win = samples[-n:]
    return sum(getattr(s, attr) for s in win) / len(win)


def test_criterion_1_weight_conservation():
    """10^6 randomized weight updates across 100 nodes keep every list
    summing to 1 within 1e-6 with every weight in [0, 1]; under 5 s."""
    t0 = time.perf_counter()
    rng = Random(42)
    params = RewardParams()
    channels = list(range(8))

    stage_pool = []
    for _ in range(400):
        avail = [rng.random() > 0.25 for _ in channels]
        if not any(avail):
            avail[rng.randrange(8)] = True
        stages = {}
        for c in channels:
            rng.random()        # a quality value, unused: later draws stay put
            stage = rng.randrange(4)
            if avail[c]:
                stages[c] = stage
        stage_pool.append(stages)
    hello_pool = [
        HelloMessage(sender=0, master=rng.randrange(8),
                     stages={c: rng.randrange(4) for c in channels})
        for _ in range(400)
    ]

    nodes = []
    for i in range(100):
        stages = stage_pool[i % len(stage_pool)]
        nodes.append([initial_weights(stages), stages])

    ops = 10**6
    for k in range(ops):
        node = nodes[k % 100]
        if k % 10 == 9:
            stages = stage_pool[(k // 10) % len(stage_pool)]
            node[0] = refresh_from_sensing(node[0], stages, 0.1)
            node[1] = stages
        else:
            node[0] = apply_hello(node[0], hello_pool[k % len(hello_pool)],
                                  node[1], params)
        if k % 200000 == 0:
            for w, _ in nodes:
                assert abs(sum(w.values()) - 1.0) < 1e-6

    for w, _ in nodes:
        assert abs(sum(w.values()) - 1.0) < 1e-6
        assert all(0.0 <= v <= 1.0 for v in w.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, "weight conservation", elapsed, f"{ops} ops, 100 nodes")


def test_criterion_2_swarm_effect():
    """50 SUs, 8 channels, no PUs, 2000 ticks, 20 seeds: swarm on beats
    swarm off on mean final-window largest cloud AND stddev; under 60 s."""
    t0 = time.perf_counter()
    base = ScenarioConfig(su_count=50, channel_count=8, pu_count=0,
                          duration_ticks=2000)
    sums = {"cloud_on": 0.0, "cloud_off": 0.0, "std_on": 0.0, "std_off": 0.0}
    seeds = range(1, 21)
    for seed in seeds:
        on = run(replace(base, seed=seed, swarm_enabled=True))
        off = run(replace(base, seed=seed, swarm_enabled=False))
        sums["cloud_on"] += final_window_mean(on.samples, "largest_cloud")
        sums["cloud_off"] += final_window_mean(off.samples, "largest_cloud")
        sums["std_on"] += final_window_mean(on.samples, "stddev")
        sums["std_off"] += final_window_mean(off.samples, "stddev")
    k = len(seeds)
    means = {key: v / k for key, v in sums.items()}
    assert means["cloud_on"] > means["cloud_off"]
    assert means["std_on"] > means["std_off"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, "swarm effect", elapsed,
           "cloud %.1f>%.1f stddev %.2f>%.2f" % (
               means["cloud_on"], means["cloud_off"],
               means["std_on"], means["std_off"]))


def test_criterion_3_population_trend():
    """Mean final-window stddev is non-decreasing in the SU population
    (10..50, 10 seeds each) with at most one adjacent violation; under 90 s."""
    t0 = time.perf_counter()
    base = ScenarioConfig(channel_count=8, pu_count=0, duration_ticks=2000,
                          swarm_enabled=True)
    means = []
    for su in (10, 20, 30, 40, 50):
        vals = [final_window_mean(
                    run(replace(base, su_count=su, seed=seed)).samples,
                    "stddev")
                for seed in range(1, 11)]
        means.append(sum(vals) / len(vals))
    violations = sum(1 for a, b in zip(means, means[1:]) if b < a)
    assert violations <= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 90.0
    report(3, "population trend", elapsed,
           "stddev by population: " + ", ".join(f"{m:.2f}" for m in means))


def test_criterion_4_dynamic_recovery():
    """With PUs hopping every 500 ticks, the stddev returns to at least 80%
    of its pre-hop steady value within 300 ticks of every post-warm-up hop,
    on at least 8 of 10 seeds; under 60 s."""
    t0 = time.perf_counter()
    base = ScenarioConfig(su_count=40, channel_count=8, pu_count=3,
                          pu_model="periodic", pu_period_ticks=500,
                          pu_duty=1.0, pu_hop=True,
                          pu_protection_radius=250.0,
                          duration_ticks=2900, swarm_enabled=True)
    hops = (1000, 1500, 2000, 2500)
    good_seeds = 0
    for seed in range(1, 11):
        res = run(replace(base, seed=seed))
        trace = [(s.tick, s.stddev) for s in res.samples]
        seed_ok = True
        for hop in hops:
            pre = [v for t, v in trace if hop - 100 <= t <= hop]
            steady = sum(pre) / len(pre)
            recovered = any(v >= 0.8 * steady
                            for t, v in trace if hop < t <= hop + 300)
            if not recovered:
                seed_ok = False
                break
        good_seeds += seed_ok
    assert good_seeds >= 8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "dynamic recovery", elapsed, f"{good_seeds}/10 seeds recovered")


def test_criterion_5_dominating_set_oracle():
    """200 random connected single-channel graphs of at most 10 nodes: the
    greedy head set is always a valid dominating set (exhaustive check) and
    never smaller than the brute-force minimum; under 10 s."""
    t0 = time.perf_counter()
    rng = Random(2024)
    for trial in range(200):
        n = rng.randrange(2, 11)
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(1, n):
            a, b = order[i], order[rng.randrange(i)]
            edges.add((min(a, b), max(a, b)))
        for a, b in combinations(range(n), 2):
            if rng.random() < 0.2:
                edges.add((a, b))
        graph = graph_from_edges(n, edges)
        plan = greedy_mds(graph, rng.randrange(n))
        heads = {c[0] for c in plan}
        assert is_dominating_set(n, edges, heads), f"trial {trial}"
        assert len(heads) >= exact_min_ds_size(n, edges), f"trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, "dominating-set oracle", elapsed, "200 graphs")


def test_criterion_6_reform_safety():
    """In 20 seeded runs with reformation enabled, no committed reformation
    ever leaves the local cluster count higher (post = pre - gain, gain >= 1);
    under 60 s."""
    t0 = time.perf_counter()
    commits = 0
    for seed in range(1, 21):
        cfg = ScenarioConfig(su_count=30, channel_count=4,
                             duration_ticks=1200, reform_enabled=True,
                             seed=seed)
        res = run(cfg)
        for e in res.events:
            if e.kind == "reform" and e.get("status") == "committed":
                commits += 1
                assert e.get("gain") >= 1
                assert e.get("post") == e.get("pre") - e.get("gain")
                assert e.get("post") < e.get("pre")
    assert commits > 0, "reformation must actually commit somewhere"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, "reform safety", elapsed, f"{commits} commits, none unsafe")


def test_criterion_7_formation_convergence():
    """20 SUs, one channel, no PUs, connected topology: every node leaves
    scanning within 2 scan intervals of its own start, cluster records hold
    their invariants at every sample (the engine validates and would raise),
    and every discovered neighbor-cluster pair gains a gateway link within 5
    superframes; under 10 s. Runs a pinned deterministic scenario."""
    t0 = time.perf_counter()
    for seed in (8, 21, 18):
        cfg = ScenarioConfig(su_count=20, channel_count=1, pu_count=0,
                             area_width=700.0, area_height=700.0,
                             comm_range=250.0, duration_ticks=1800,
                             startup_spread_ticks=1200, reform_enabled=False,
                             seed=seed)
        world = World(cfg, validate=True)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in world.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == cfg.su_count, "topology must be connected"
        res = world.run()
        limit = 2 * cfg.scan_interval_ticks
        for node in world.nodes:
            settle = res.settle_ticks.get(node.id)
            assert settle is not None, f"node {node.id} never settled"
            assert settle - node.start_tick <= limit, \
                f"node {node.id} took {settle - node.start_tick} ticks"
        frame_len = cfg.frame_len
        for ha, hb, discovered, linked in res.gateway_latencies:
            assert linked - discovered <= 5 * frame_len
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(7, "formation convergence", elapsed, "3 pinned seeds, 20 nodes")


def test_criterion_8_determinism(tmp_path):
    """The same scenario run twice produces bit-identical metrics.csv and
    events.log."""
    t0 = time.perf_counter()
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "su_count = 30\nchannel_count = 4\npu_count = 2\n"
        "pu_model = markov\nduration_ticks = 900\nseed = 5\n")
    for sub in ("first", "second"):
        run_single(RunRequest(config_path=str(scenario),
                              out_dir=str(tmp_path / sub)))
    for name in ("metrics.csv", "events.log"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "determinism", elapsed, "bit-identical outputs")
