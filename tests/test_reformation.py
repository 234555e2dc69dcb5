"""Local graph construction, the greedy dominating-set pass, and the
all-or-nothing negotiation."""

from dataclasses import replace
from itertools import combinations
from random import Random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cogmesh import engine
from cogmesh.engine import ScenarioConfig, SimulationInvariantError, World
from cogmesh.protocol import NeighborEntry
from cogmesh.reformation import (
    LocalGraph,
    Negotiation,
    build_local_graph,
    greedy_mds,
)

from test_engine import small_scenarios


def graph_from_edges(n, edges):
    """LocalGraph of singleton clusters over nodes 0..n-1, on master 0."""
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return LocalGraph(
        master=0,
        edges={i: frozenset(v) for i, v in adj.items()},
        clusters={i: frozenset({i}) for i in range(n)},
    )


def table_with(one_hop):
    return {nid: NeighborEntry(0, 0) for nid in one_hop}


def head(nid, members, master=0):
    """A cluster head as `build_local_graph` reads it."""
    return SimpleNamespace(id=nid, master=master, members=members)


class TestBuildLocalGraph:
    def test_single_cluster_graph(self):
        host = head(0, {1: 0, 2: 1})
        tables = {0: table_with([1, 2]), 1: table_with([0]), 2: table_with([0])}
        g = build_local_graph([host], tables)
        assert set(g.edges) == {0, 1, 2}
        assert g.clusters == {0: {0, 1, 2}}
        assert g.edges[0] == {1, 2}

    def test_union_of_host_and_neighbor_cluster(self):
        host = head(0, {1: 0, 2: 1})
        other = head(10, {11: 0, 12: 1, 13: 2})
        tables = {i: {} for i in (0, 1, 2, 10, 11, 12, 13)}
        tables[2] = table_with([11])
        g = build_local_graph([host, other], tables)
        assert len(g.edges) == 7
        assert 11 in g.edges[2] and 2 in g.edges[11]

    def test_edges_come_from_either_sides_table(self):
        host = head(0, {1: 0})
        tables = {0: {}, 1: table_with([0])}
        g = build_local_graph([host], tables)
        assert g.edges[0] == {1}

    @given(st.dictionaries(st.integers(0, 9), st.sets(st.integers(0, 12), max_size=6),
                           max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_edges_match_the_pairwise_scan(self, listed):
        # tables may name nodes outside the graph, and even their owner
        host = head(0, {i: i for i in range(1, 5)})
        other = head(5, {6: 0, 7: 1})
        tables = {nid: table_with(ids) for nid, ids in listed.items()}
        g = build_local_graph([host, other], tables)
        ids = sorted(g.edges)
        expected = {a: {b for b in ids if b != a and (
            b in tables.get(a, {}) or a in tables.get(b, {}))} for a in ids}
        assert g.edges == expected


class TestGreedyMds:
    def test_star_collapses_to_hub(self):
        g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        plan = greedy_mds(g, 0)
        assert len(plan.clusters) == 1
        assert plan.clusters[0][0] == 0
        assert sorted(plan.clusters[0][1]) == [0, 1, 2, 3, 4]
        assert plan.gain == 4

    def test_path_trace_and_permitted_suboptimality(self):
        # a-b-c with the working node at the end: {a,b} then {c}; the exact
        # minimum dominating set {b} is smaller, which the heuristic may miss
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        plan = greedy_mds(g, 0)
        assert [sorted(c[1]) for c in plan.clusters] == [[0, 1], [2]]
        assert plan.gain == 1
        assert exact_min_ds_size(3, {(0, 1), (1, 2)}) == 1

    def test_max_degree_rule_with_lowest_id_ties(self):
        # after the working node 0 absorbs 1, nodes 2 and 4 both dominate one
        # remaining neighbor; the lower id wins the next head slot
        g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)])
        plan = greedy_mds(g, 0)
        heads = [c[0] for c in plan.clusters]
        assert heads == [0, 2, 4]

    def test_mini_slot_cap_limits_cluster_size(self):
        g = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        plan = greedy_mds(g, 0, max_members=2)
        first = plan.clusters[0]
        assert len(first[1]) == 3            # head + 2 members
        assert partitions_along_edges(plan, g)

    def test_random_graphs_yield_valid_dominating_sets(self):
        rng = Random(17)
        for _ in range(60):
            n = rng.randrange(2, 11)
            g, edges = random_connected_graph(n, rng)
            plan = greedy_mds(g, rng.randrange(n))
            heads = {c[0] for c in plan.clusters}
            assert is_dominating_set(n, edges, heads)
            assert partitions_along_edges(plan, g)
            assert len(heads) >= exact_min_ds_size(n, edges)


def reference_greedy_mds(control_of, edges, cluster_count, working_id,
                         max_members):
    """The planner as it was while a local graph kept a control channel per
    node (`control_of`): a head absorbs, and a degree counts, only neighbors
    on the node's own channel. Returns ((head, channel, members), ...) and
    the gain."""
    unassigned = set(control_of)
    clusters = []

    def absorb(head):
        control = control_of[head]
        mates = [n for n in sorted(edges[head])
                 if n in unassigned and n != head and control_of[n] == control]
        if max_members is not None:
            mates = mates[:max_members]
        members = (head, *mates)
        unassigned.difference_update(members)
        clusters.append((head, control, members))

    absorb(working_id)
    while unassigned:
        best_id = None
        best_deg = -1
        for n in sorted(unassigned):
            control = control_of[n]
            deg = sum(1 for v in edges[n]
                      if v in unassigned and control_of[v] == control)
            if deg > best_deg:
                best_id, best_deg = n, deg
        absorb(best_id)
    return tuple(clusters), cluster_count - len(clusters)


@st.composite
def one_master_locals(draw):
    """Heads on one master that partition nodes 0..n-1, the nodes' tables
    (which may name nodes outside the graph, and even their owner), a
    working node of the host cluster and a mini-slot budget."""
    master = draw(st.integers(0, 7))
    n = draw(st.integers(1, 14))
    order = draw(st.permutations(range(n)))
    head_ids = order[:draw(st.integers(1, n))]
    members = {h: {} for h in head_ids}
    for nid in order[len(head_ids):]:
        members[draw(st.sampled_from(head_ids))][nid] = 0
    heads = [head(h, members[h], master) for h in head_ids]
    tables = {nid: table_with(ids) for nid, ids in draw(st.dictionaries(
        st.integers(0, n - 1), st.sets(st.integers(0, n + 2), max_size=6))).items()}
    working = draw(st.sampled_from([head_ids[0], *members[head_ids[0]]]))
    budget = draw(st.sampled_from([1, 2, 3, 8, None]))
    return heads, tables, working, budget


class TestOneMasterPlanner:
    """A local graph keeps one master, not a control channel per node: the
    engine plans only clusters on the host's master."""

    @given(one_master_locals())
    @settings(max_examples=300, deadline=None)
    def test_same_plan_as_the_per_node_channel_planner(self, local):
        heads, tables, working, budget = local
        graph = build_local_graph(heads, tables)
        plan = greedy_mds(graph, working, max_members=budget)
        control_of = {nid: heads[0].master for nid in graph.edges}
        clusters, gain = reference_greedy_mds(control_of, graph.edges, len(heads),
                                              working, budget)
        assert plan.master == heads[0].master
        assert plan.clusters == tuple((h, members) for h, _, members in clusters)
        assert plan.gain == gain

    @given(small_scenarios())
    # PUs on 4 channels spread the masters, and clusters on other masters
    # lie around the host from the first plans on
    @example(ScenarioConfig(su_count=30, channel_count=4, pu_count=4,
                            area_width=500.0, area_height=500.0,
                            duration_ticks=300, reform_cadence=1, seed=2))
    @settings(max_examples=200, deadline=None)
    def test_every_planned_graph_shares_one_master(self, cfg):
        build = engine.build_local_graph

        def build_checked(heads, tables):
            assert len({h.master for h in heads}) == 1
            return build(heads, tables)

        with mock.patch.object(engine, "build_local_graph", build_checked):
            World(replace(cfg, reform_enabled=True)).run()


def random_connected_graph(n, rng):
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a, b in combinations(range(n), 2):
        if rng.random() < 0.25:
            edges.add((a, b))
    return graph_from_edges(n, edges), edges


def partitions_along_edges(plan, graph):
    """Each node of the graph is in exactly one planned cluster, which its
    head leads on the graph's master, and each member is an edge away from
    its head."""
    covered = []
    for head, members in plan.clusters:
        if head not in members:
            return False
        if any(m != head and m not in graph.edges[head] for m in members):
            return False
        covered.extend(members)
    return plan.master == graph.master and sorted(covered) == sorted(graph.edges)


def is_dominating_set(n, edges, heads):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return all(i in heads or adj[i] & heads for i in range(n))


def exact_min_ds_size(n, edges):
    adj = {i: {i} for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    masks = [sum(1 << v for v in adj[i]) for i in range(n)]
    full = (1 << n) - 1
    best = n
    for subset in range(1 << n):
        covered = 0
        for i in range(n):
            if subset >> i & 1:
                covered |= masks[i]
        if covered == full:
            best = min(best, bin(subset).count("1"))
    return best


class TestNegotiationScenarios:
    def merge_world(self):
        cfg = ScenarioConfig(su_count=2, channel_count=1, comm_range=300.0,
                             duration_ticks=600, startup_spread_ticks=0,
                             seed=1)
        return World(cfg, su_positions=[(100.0, 100.0), (250.0, 100.0)])

    def test_adjacent_singletons_merge_within_two_cadences(self):
        world = self.merge_world()
        res = world.run()
        commits = [e for e in res.events if e.kind == "reform"
                   and e.get("status") == "committed"]
        assert commits
        first = commits[0]
        assert first.get("gain") == 1
        assert first.get("pre") == 2 and first.get("post") == 1
        # both formed by tick 33; cadence is 5 superframes
        assert first.tick <= 33 + 2 * 5 * 27 + 27
        assert len(world.clusters) == 1
        head = next(iter(world.clusters))
        assert set(world.clusters[head].members) == {1 - head}

    def test_committed_plans_reduce_count_by_their_gain(self):
        for seed in (3, 4, 5):
            cfg = ScenarioConfig(su_count=24, channel_count=3,
                                 duration_ticks=1200, seed=seed)
            res = World(cfg).run()
            for e in res.events:
                if e.kind == "reform" and e.get("status") == "committed":
                    assert e.get("post") == e.get("pre") - e.get("gain")
                    assert e.get("post") < e.get("pre")

    def test_locked_head_forces_cancel_with_no_state_change(self):
        # three singleton clusters in a row; the middle head is locked by a
        # foreign plan, so the working node's request dies in silence
        cfg = ScenarioConfig(su_count=3, channel_count=1, comm_range=160.0,
                             duration_ticks=600, startup_spread_ticks=0,
                             reform_enabled=False, seed=2)
        world = World(cfg, su_positions=[(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)])
        # run formation first, then negotiate by hand
        res = world.run()
        assert len(world.clusters) == 3
        working = world.nodes[1]
        world.nodes[0].lock = ("foreign", 0)
        snapshot = {h: (r.master, dict(r.members))
                    for h, r in world.clusters.items()}
        world.try_reform(working, world.tick)
        neg = world.neg_by_working[working.id]
        for t in range(world.tick, world.tick + 5 * 27):
            world.tick = t
            world._reform_timers(t)
        # finished while still waiting for an ack, so no commit was queued
        assert working.id not in world.neg_by_working and neg.waiting
        cancelled = [e for e in world.events if e.kind == "reform"
                     and e.get("status") == "cancelled"]
        assert cancelled
        assert {h: (r.master, dict(r.members))
                for h, r in world.clusters.items()} == snapshot

    def test_lock_of_a_finished_plan_fails_validation(self):
        # a lock is a live negotiation itself, released by `_finish`
        cfg = ScenarioConfig(su_count=3, channel_count=1, comm_range=160.0,
                             duration_ticks=600, startup_spread_ticks=0,
                             reform_enabled=False, seed=2)
        world = World(cfg, su_positions=[(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)])
        world.run()
        working = world.nodes[1]
        world.try_reform(working, world.tick)
        neg = world.neg_by_working[working.id]
        assert working.lock is neg
        world._validate(world.tick)
        world._cancel(neg, world.tick)
        assert working.lock is None
        world._validate(world.tick)
        working.lock = neg
        with pytest.raises(SimulationInvariantError, match="lock of a finished plan"):
            world._validate(world.tick)

    def test_stale_membership_is_denied(self):
        cfg = ScenarioConfig(su_count=3, channel_count=1, comm_range=160.0,
                             duration_ticks=600, startup_spread_ticks=0,
                             reform_enabled=False, seed=2)
        world = World(cfg, su_positions=[(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)])
        world.run()
        working = world.nodes[1]
        world.try_reform(working, world.tick)
        neg = world.neg_by_working[working.id]
        # membership changes under the plan's feet
        victim = [h for h in neg.affected if h != working.id][0]
        world.clusters[victim].members[99] = 7
        for t in range(world.tick, world.tick + 5 * 27):
            world.tick = t
            world._reform_timers(t)
        # the victim denied, so no commit was queued
        assert working.id not in world.neg_by_working and neg.waiting

    def test_concurrent_plans_single_winner(self):
        # two working nodes race over overlapping clusters; locks let at most
        # one commit per round and the cluster count never increases
        cfg = ScenarioConfig(su_count=12, channel_count=2, comm_range=260.0,
                             duration_ticks=1500, reform_cadence=3, seed=11)
        world = World(cfg)
        res = world.run()
        counts = [s.cluster_count for s in res.samples]
        commits = [e for e in res.events if e.kind == "reform"
                   and e.get("status") == "committed"]
        for e in commits:
            assert e.get("post") < e.get("pre")

    def test_gain_zero_never_negotiates(self):
        # an isolated pair settles into one cluster; afterwards no further
        # reform proposals appear (nothing left to merge)
        world = self.merge_world()
        res = world.run()
        commits = [e for e in res.events if e.kind == "reform"
                   and e.get("status") == "committed"]
        after = commits[0].tick
        proposals = [e for e in res.events if e.kind == "reform"
                     and e.get("status") == "proposed" and e.tick > after]
        assert proposals == []

    def test_lone_cluster_is_not_planned(self):
        # one cluster cannot become fewer, so neither its head nor its
        # member plans, even with every other gate open
        world = self.merge_world()
        world.run()
        assert len(world.clusters) == 1
        logged = len(world.events)
        with mock.patch.object(engine, "greedy_mds",
                               side_effect=AssertionError("planned")):
            for node in world.nodes:
                node.lock = None
                world.neg_by_working.pop(node.id, None)
                assert world._host_head(node) is not None
                world.try_reform(node, world.tick)
        assert [e for e in world.events[logged:] if e.kind == "reform"] == []

    def test_node_without_the_host_master_is_not_planned(self):
        # three singleton clusters in a row; once node 2 cannot use the
        # master every planned cluster would be on, the working node plans
        # nothing, proposes nothing and locks nothing
        cfg = ScenarioConfig(su_count=3, channel_count=1, comm_range=160.0,
                             duration_ticks=600, startup_spread_ticks=0,
                             reform_enabled=False, seed=2)
        world = World(cfg, su_positions=[(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)])
        world.run()
        assert len(world.clusters) == 3
        working = world.nodes[1]
        master = working.master
        far = world.nodes[2]
        far.stages = {c: s for c, s in far.stages.items() if c != master}
        logged = len(world.events)
        with mock.patch.object(engine, "greedy_mds",
                               side_effect=AssertionError("planned")):
            world.try_reform(working, world.tick)
        assert world.events[logged:] == []
        assert working.id not in world.neg_by_working and working.lock is None


class TestReformQueue:
    """One timed queue drives every reformation step."""

    def test_same_tick_order(self):
        world = World(ScenarioConfig(su_count=3, duration_ticks=1))
        seen = []
        world._apply_commit = lambda neg, tick: seen.append(("commit", neg.working))
        world._route_reform = lambda kind, neg, head, tick: seen.append(
            (kind, neg.working, head))
        world._cancel = lambda neg, tick: seen.append(("timeout", neg.working))

        def negotiation(working, waiting=()):
            return Negotiation(working=working, plan=None, affected={},
                               waiting=set(waiting))

        late = negotiation(0, waiting={5})
        committing = negotiation(1)             # every ack in: commit queued
        talking = negotiation(2, waiting={7})
        finished = negotiation(3)
        # the live ones; node 3 finished its plan and has proposed again
        for neg in (late, committing, talking, negotiation(3, waiting={6})):
            world.neg_by_working[neg.working] = neg
        # pushed against phase order, so only the queue puts them right
        world._push(10, "deadline", late)
        world._push(10, "ack", talking, 7)
        world._push(10, "deadline", committing)
        world._push(10, "deny", talking, 8)
        world._push(10, "commit", finished)
        world._push(10, "commit", committing)
        world._push(10, "req", talking, 9)
        world._push(11, "req", talking, 6)
        world._reform_timers(10)
        assert seen == [("commit", 1), ("ack", 2, 7), ("deny", 2, 8),
                        ("req", 2, 9), ("timeout", 0)]
        assert [entry[0] for entry in world.reform_queue] == [11]

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_timeout_exactly_after_deadline(self, scheduled):
        # three singleton clusters in a row; node 0 is locked by a foreign
        # plan, so the request to it dies in silence
        cfg = ScenarioConfig(su_count=3, channel_count=1, comm_range=160.0,
                             duration_ticks=600, startup_spread_ticks=0,
                             reform_enabled=False, seed=2)
        world = World(cfg, su_positions=[(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)])
        world.run()
        world.nodes[0].lock = ("foreign", 0)
        working = world.nodes[1]
        world.try_reform(working, world.tick)
        neg = world.neg_by_working[working.id]
        # the acks are due within two superframes of the proposal
        deadline = world.tick + 2 * cfg.frame_len
        if scheduled:
            # as the last ack leaves it, with its commit due after the
            # deadline: nobody is waited for, and no head replies again
            for head in neg.waiting:
                world.nodes[head].lock = ("foreign", 0)
            neg.waiting.clear()
        for t in range(world.tick, deadline + 1):
            world._reform_timers(t)
        assert world.neg_by_working.get(working.id) is neg
        world._reform_timers(deadline + 1)
        assert (world.neg_by_working.get(working.id) is neg) is scheduled
        last = world.events[-1]
        if scheduled:
            assert last.get("status") == "proposed"
        else:
            assert (last.tick, last.get("status")) == (deadline + 1, "cancelled")
            assert working.id not in world.neg_by_working
