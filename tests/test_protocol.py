"""Scanning, joining, superframes, neighbor maps, and gateway selection."""

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import combinations
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cogmesh import protocol
from cogmesh.engine import ScenarioConfig, World
from cogmesh.protocol import (
    JOIN_ATTEMPT_LIMIT,
    Beacon,
    ContinueScan,
    FormCluster,
    HelloFrame,
    JoinRequest,
    NeighborEntry,
    Node,
    Role,
    ScanState,
    build_superframe,
    emit_hello,
    evict_stale,
    finish_scan_interval,
    handle_join_request,
    lay_out_superframe,
    select_gateways,
    select_offmaster_scan,
    start_scan,
    upsert_from_hello,
)
from cogmesh.radio import PeriodicActivity, PrimaryUser
from cogmesh.swarm import HelloMessage, NoAvailableChannels


def static_pu(pid, pos, channel, radius, power=0.01):
    return PrimaryUser(id=pid, pos=pos, channel=channel,
                       model=PeriodicActivity(10**9, 1.0),
                       protection_radius=radius, interference_power=power)


BEACON = "beacon"
ND = "nd"
DETECT = "detect"
DATA = "data"
INTRA_RA = "intra_ra"
PUBLIC_RA = "public_ra"


@dataclass(frozen=True)
class ReferenceLayout:
    """A superframe layout that lists every period as (kind, start, length)
    in tick order, with the derived fields of the layouts that kept them."""

    periods: tuple[tuple[str, int, int], ...]
    nd_start: int
    data_start: int
    data_len: int
    pra_start: int
    pra_len: int
    detect_blocks: tuple[tuple[int, int], ...]
    edges: tuple[int, ...]


def reference_layout(params, gaps):
    """Reference for `lay_out_superframe`: the five main periods with one
    detection block before each main period whose index is in `gaps`."""
    main = [
        (BEACON, params.beacon_ticks),
        (ND, params.max_slots),
        (DATA, params.data_ticks),
        (INTRA_RA, params.intra_ra_ticks),
        (PUBLIC_RA, params.public_ra_ticks),
    ]
    seq = []
    for i, period in enumerate(main):
        if i in gaps:
            seq.append((DETECT, params.detect_ticks))
        seq.append(period)
    periods = []
    start = 0
    nd_start = data_start = data_len = pra_start = pra_len = 0
    blocks = []
    edges = {1}
    for kind, length in seq:
        periods.append((kind, start, length))
        if kind == ND:
            nd_start = start
        elif kind == DATA:
            data_start, data_len = start, length
            edges.update((start, start + length))
        elif kind == PUBLIC_RA:
            pra_start, pra_len = start, length
        elif kind == DETECT:
            blocks.append((start, start + length))
            edges.update((start, start + length))
        start += length
    edges.add(start - 1)
    return ReferenceLayout(
        periods=tuple(periods), nd_start=nd_start,
        data_start=data_start, data_len=data_len,
        pra_start=pra_start, pra_len=pra_len,
        detect_blocks=tuple(blocks),
        edges=tuple(sorted(edges)),
    )


def drawn_gaps(params, seed):
    """The detection-block gaps that `build_superframe` draws from `seed`."""
    return tuple(sorted(Random(seed).sample(range(1, 5), params.detect_periods)))


class TestSuperframe:
    def test_default_layout_totals_25_ticks(self):
        ref = reference_layout(ScenarioConfig(), drawn_gaps(ScenarioConfig(), 0))
        assert sum(length for _, _, length in ref.periods) == 25
        lengths = {kind: 0 for kind, _, _ in ref.periods}
        for kind, _, length in ref.periods:
            lengths[kind] += length
        assert lengths == {BEACON: 1, ND: 8, DATA: 8, INTRA_RA: 2,
                           PUBLIC_RA: 4, DETECT: 2}

    def test_main_period_order_with_detect_between(self):
        params = ScenarioConfig(detect_periods=3)
        for seed in range(20):
            ref = reference_layout(params, drawn_gaps(params, seed))
            mains = [kind for kind, _, _ in ref.periods if kind != DETECT]
            assert mains == [BEACON, ND, DATA, INTRA_RA, PUBLIC_RA]
            # detection blocks sit strictly between the main periods
            assert ref.periods[0][0] == BEACON
            assert ref.periods[-1][0] == PUBLIC_RA
            assert ref.pra_start + ref.pra_len == params.frame_len

    def test_single_mini_slot(self):
        params = ScenarioConfig(max_slots=1)
        ref = reference_layout(params, drawn_gaps(params, 1))
        nd = [p for p in ref.periods if p[0] == ND]
        assert len(nd) == 1 and nd[0][2] == 1
        sched = build_superframe(params, Random(1))
        assert sched.edges == ref.edges and sched.nd_start == nd[0][1]

    def test_detect_positions_reproducible_under_replay(self):
        a = [build_superframe(ScenarioConfig(), Random(99)) for _ in range(5)]
        b = [build_superframe(ScenarioConfig(), Random(99)) for _ in range(5)]
        assert a == b

    # here and below: four detection blocks make a 31-tick frame, which
    # leaves the default scan interval of 33 ticks no room for jitter
    @pytest.mark.parametrize("detect_periods", [1, 2, 3, 4])
    def test_cached_layout_per_gap_set(self, detect_periods):
        params = ScenarioConfig(detect_periods=detect_periods, frame_jitter_max=0)
        mains = [BEACON, ND, DATA, INTRA_RA, PUBLIC_RA]
        assert list(params.layouts) == list(combinations(range(1, 5), detect_periods))
        for gaps, sched in params.layouts.items():
            assert sched == lay_out_superframe(params, gaps)
            ref = reference_layout(params, gaps)
            kinds = [kind for kind, _, _ in ref.periods]
            # one detection block right before each main period named in gaps
            assert [mains.index(kinds[k + 1]) for k, kind in enumerate(kinds)
                    if kind == DETECT] == list(gaps)
            assert sched.detect_blocks == ref.detect_blocks == tuple(
                (start, start + length) for kind, start, length in ref.periods
                if kind == DETECT)

    @pytest.mark.parametrize("detect_ticks", [1, 3, 2**64])
    def test_layout_size_does_not_depend_on_block_length(self, detect_ticks):
        params = ScenarioConfig(detect_periods=2, detect_ticks=detect_ticks,
                                scan_interval_ticks=2**66)
        for gaps, sched in params.layouts.items():
            ref = reference_layout(params, gaps)
            assert len(ref.periods) == 7 and len(sched.detect_blocks) == 2
            assert all(end - start == detect_ticks for start, end in sched.detect_blocks)
            assert ref.pra_start + ref.pra_len == params.frame_len

    @pytest.mark.parametrize("detect_periods", [1, 2, 3, 4])
    @pytest.mark.parametrize("detect_ticks", [1, 2, 3, 2**32, 2**64])
    def test_layout_keeps_what_the_reference_moves(self, detect_periods,
                                                   detect_ticks):
        # every gap set: the layout's fields are the reference's, and the
        # fields it dropped are the config's constants
        params = ScenarioConfig(detect_periods=detect_periods,
                                detect_ticks=detect_ticks, frame_jitter_max=0,
                                scan_interval_ticks=2**67)
        for gaps in combinations(range(1, 5), detect_periods):
            sched = lay_out_superframe(params, gaps)
            ref = reference_layout(params, gaps)
            assert ((sched.nd_start, sched.data_start, sched.detect_blocks,
                     sched.edges)
                    == (ref.nd_start, ref.data_start, ref.detect_blocks,
                        ref.edges))
            assert (ref.pra_start, ref.pra_start + ref.pra_len) \
                == (params.pra_start, params.frame_len)
            assert ref.periods[-1] == (PUBLIC_RA, params.pra_start,
                                       params.public_ra_ticks)
            assert ref.data_len == params.data_ticks

    @pytest.mark.parametrize("detect_periods", [1, 2, 3, 4])
    @pytest.mark.parametrize("detect_ticks", [1, 2, 2**64])
    def test_each_edge_names_the_kind_of_its_segment(self, detect_periods,
                                                     detect_ticks):
        # the segment from an edge to the next lies in one reference period:
        # a detection block, the data period, or one where a node listens
        # on its master
        params = ScenarioConfig(detect_periods=detect_periods,
                                detect_ticks=detect_ticks, frame_jitter_max=0,
                                scan_interval_ticks=2**67)
        kind_of = {DETECT: protocol.DETECT, DATA: protocol.DATA}
        for gaps in combinations(range(1, 5), detect_periods):
            sched = lay_out_superframe(params, gaps)
            ref = reference_layout(params, gaps)
            assert len(sched.kinds) == len(sched.edges)
            for edge, kind in zip(sched.edges, sched.kinds):
                (period,) = [k for k, start, length in ref.periods
                             if start <= edge < start + length]
                assert kind is kind_of.get(period, protocol.ON_MASTER)

    @pytest.mark.parametrize("detect_periods", [1, 2, 3, 4])
    def test_draw_consumes_the_rng_as_one_sample(self, detect_periods):
        params = ScenarioConfig(detect_periods=detect_periods, frame_jitter_max=0)
        for seed in range(10):
            drawn, reference = Random(seed), Random(seed)
            sched = build_superframe(params, drawn)
            gaps = tuple(sorted(reference.sample(range(1, 5), detect_periods)))
            assert sched is params.layouts[gaps]
            assert drawn.getstate() == reference.getstate()

    def test_oversized_frame_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(data_ticks=20)


class TestScanning:
    # stage maps, as `radio.sense` returns them: available channel -> stage,
    # in ascending channel order

    def test_starts_at_lowest_available(self):
        state = start_scan({0: 1, 2: 3, 3: 3})
        assert state.current == 0
        assert state.visited == {0}

    def test_singleton_channel(self):
        assert start_scan({5: 3}).current == 5

    def test_no_channels_raises(self):
        with pytest.raises(NoAvailableChannels):
            start_scan({})

    def test_requested_start_channel(self):
        assert start_scan({0: 3, 2: 3}, first_channel=2).current == 2
        # unavailable request falls back to the lowest channel
        assert start_scan({0: 3, 2: 3}, first_channel=7).current == 0

    def test_case1_silence_forms_here(self):
        state = ScanState(visited={0}, current=0, interval_end=0)
        out = finish_scan_interval(state, {0: 3, 1: 3}, Random(0))
        assert out == FormCluster(channel=0)

    def test_case3_hellos_continue_to_next_channel(self):
        state = ScanState(visited={0}, current=0, interval_end=0, heard=True)
        out = finish_scan_interval(state, {0: 3, 1: 0, 2: 3}, Random(0))
        assert out == ContinueScan(channel=1)

    def test_rejected_beacon_moves_on(self):
        state = ScanState(visited={0}, current=0, interval_end=0,
                          heard=True, rejections={9})
        out = finish_scan_interval(state, {0: 3, 3: 1}, Random(0))
        assert out == ContinueScan(channel=3)

    def test_all_visited_forms_on_random_available(self):
        state = ScanState(visited={0, 1, 2}, current=2, interval_end=0,
                          heard=True, rejections={9})
        stages = {0: 3, 1: 3, 2: 3}
        picks = {finish_scan_interval(state, stages, Random(s)).channel
                 for s in range(40)}
        assert picks <= {0, 1, 2}
        assert len(picks) > 1


class TestJoinAdmission:
    def members(self, used_slots):
        return {100 + i: s for i, s in enumerate(used_slots)}

    def test_lowest_free_slot(self):
        assert handle_join_request(self.members([0, 1, 2]), 7, 8) == 3

    def test_gap_is_reused(self):
        assert handle_join_request(self.members([0, 2, 3]), 7, 8) == 1

    def test_full_cluster_rejects(self):
        assert handle_join_request(self.members([0, 1]), 7, 2) is None

    def test_existing_member_gets_its_slot_back(self):
        assert handle_join_request(self.members([0, 1]), 101, 8) == 1


class TestNeighborTables:
    def test_one_and_two_hop_upserts(self):
        # B hears C's HELLO listing D: C becomes 1-hop, D 2-hop (C reported
        # it on master 0)
        table, two_hop = {}, {}
        hello = HelloMessage(sender=2, master=0, stages={0: 3, 1: 2},
                             neighbor_list=((3, 0),))
        upsert_from_hello(table, two_hop, hello, tick=50, cluster_head=0, self_id=1)
        assert table == {2: NeighborEntry(0, 50, 0)}
        assert two_hop == {3: (0, 50)}

    def test_one_hop_dominates_two_hop(self):
        table, two_hop = {}, {}
        upsert_from_hello(table, two_hop, HelloMessage(3, 0, {0: 3}), tick=10)
        upsert_from_hello(table, two_hop, HelloMessage(2, 0, {0: 3},
                                                       ((3, 0),)), tick=20)
        assert 3 not in two_hop
        assert table[3].last_seen == 10
        # and a 2-hop id heard directly moves to the 1-hop table
        upsert_from_hello(table, two_hop, HelloMessage(4, 1, {1: 3},
                                                       ((5, 1),)), tick=30)
        assert two_hop == {5: (1, 30)}
        upsert_from_hello(table, two_hop, HelloMessage(5, 1, {1: 3}), tick=31)
        assert two_hop == {} and table[5].last_seen == 31

    def test_self_never_enters_own_table(self):
        table, two_hop = {}, {}
        upsert_from_hello(table, two_hop, HelloMessage(2, 0, {0: 3},
                                                       ((1, 0),)),
                          tick=5, self_id=1)
        assert 1 not in table and 1 not in two_hop

    def test_stale_entries_evicted(self):
        table, two_hop = {}, {}
        upsert_from_hello(table, two_hop, HelloMessage(2, 0, {0: 3},
                                                       ((6, 0),)), tick=0)
        upsert_from_hello(table, two_hop, HelloMessage(4, 0, {0: 3},
                                                       ((7, 0),)), tick=70)
        evict_stale(table, two_hop, tick=100, ttl_ticks=75)
        assert 2 not in table and 4 in table
        assert 6 not in two_hop and 7 in two_hop
        # exactly the TTL old is still fresh
        evict_stale(table, two_hop, tick=145, ttl_ticks=75)
        assert 4 in table and 7 in two_hop

    def test_upsert_reports_a_change_of_listed_content(self):
        table, two_hop = {}, {}
        hello = HelloMessage(2, 0, {0: 3, 1: 2}, ((7, 0),))
        assert upsert_from_hello(table, two_hop, hello, tick=5) is True
        # a refresh that moves only last_seen or cluster_head lists the same
        assert upsert_from_hello(table, two_hop, hello, tick=9) is False
        assert upsert_from_hello(table, two_hop, hello, tick=9,
                                 cluster_head=4) is False
        # the sender's stages, channel set and neighbor list are not listed
        # content; only its master is
        assert upsert_from_hello(table, two_hop,
                                 HelloMessage(2, 0, {0: 1, 1: 3}), tick=10) is False
        assert upsert_from_hello(table, two_hop,
                                 HelloMessage(2, 0, {1: 3}), tick=11) is False
        assert upsert_from_hello(table, two_hop,
                                 HelloMessage(2, 1, {1: 3}), tick=12) is True
        assert table == {2: NeighborEntry(1, 12, None)}

    def test_one_hello_writes_one_stamp_per_master(self):
        table, two_hop = {}, {}
        hello = HelloMessage(2, 0, {0: 3, 1: 2},
                             ((3, 1), (4, 0), (5, 1)))
        upsert_from_hello(table, two_hop, hello, tick=50, self_id=1)
        assert two_hop == {3: (1, 50), 4: (0, 50), 5: (1, 50)}
        assert two_hop[3] is two_hop[5]
        # a later HELLO writes its own stamps
        upsert_from_hello(table, two_hop, HelloMessage(6, 1, {1: 2},
                                                       ((5, 1),)), tick=60)
        assert two_hop[5] == (1, 60) and two_hop[3] == (1, 50)

    def test_kept_hello_survives_a_neighbor_channel_change(self):
        # a HELLO lists each neighbor's id and master, so one that changes
        # only its sender's channel set leaves the node's HELLO as it was
        node = Node(1, (0.0, 0.0), Random(0), ScenarioConfig())
        node.apply_observations({0: 3, 1: 2})
        node.master = 0
        node._on_hello(HelloFrame(HelloMessage(2, 0, {0: 3, 1: 2})), 5, None)
        kept = node.hello()
        assert kept.neighbor_list == ((2, 0),)
        node._on_hello(HelloFrame(HelloMessage(2, 0, {1: 2})), 6, None)
        assert node.hello() is kept
        node._on_hello(HelloFrame(HelloMessage(2, 1, {1: 2})), 7, None)
        assert node.hello() is not kept
        assert node.hello().neighbor_list == ((2, 1),)

    def test_evict_reports_only_one_hop_drops(self):
        table, two_hop = {}, {}
        upsert_from_hello(table, two_hop, HelloMessage(2, 0, {0: 3},
                                                       ((6, 0),)), tick=0)
        upsert_from_hello(table, two_hop, HelloMessage(2, 0, {0: 3}), tick=50)
        assert evict_stale(table, two_hop, tick=100, ttl_ticks=75) is False
        assert two_hop == {} and 2 in table
        assert evict_stale(table, two_hop, tick=126, ttl_ticks=75) is True
        assert table == {}
        assert evict_stale(table, two_hop, tick=200, ttl_ticks=75) is False

    def test_emit_hello_contents(self):
        node = Node(1, (0.0, 0.0), Random(0), ScenarioConfig())
        node.apply_observations({0: 3, 1: 2})
        table = {}
        hello = emit_hello(1, 0, table, node.stages)
        assert hello.neighbor_list == ()
        # the HELLO carries the node's stage map itself
        assert hello.stages is node.stages and hello.stages == {0: 3, 1: 2}
        two_hop = {}
        upsert_from_hello(table, two_hop, HelloMessage(2, 1, {1: 2}), tick=0)
        upsert_from_hello(table, two_hop, HelloMessage(9, 0, {0: 1},
                                                       ((8, 0),)), tick=0)
        hello = emit_hello(1, 0, table, {0: 3})
        # only 1-hop entries are listed, sorted by id, with their masters
        assert hello.neighbor_list == ((2, 1), (9, 0))


@dataclass
class OneTableEntry:
    """An entry of the single neighbor table the two maps replaced."""

    id: int
    hops: int
    master: int
    last_seen: int
    relay: int | None = None
    cluster_head: int | None = None


def one_table_upsert(table, hello, tick, cluster_head=None, self_id=None):
    """Oracle: HELLO ingest into one table holding 1- and 2-hop entries."""
    sender = hello.sender
    e = table.get(sender)
    if e is None:
        table[sender] = OneTableEntry(sender, 1, hello.master, tick, None,
                                      cluster_head)
    else:
        e.hops = 1
        e.master = hello.master
        e.last_seen = tick
        e.relay = None
        e.cluster_head = cluster_head
    for nid, nmaster in hello.neighbor_list:
        if nid == self_id or nid == sender:
            continue
        e = table.get(nid)
        if e is None:
            table[nid] = OneTableEntry(nid, 2, nmaster, tick, sender)
        elif e.hops == 2:
            e.master = nmaster
            e.last_seen = tick
            e.relay = sender
            e.cluster_head = None


def one_table_evict(table, tick, ttl_ticks):
    dead = [nid for nid, e in table.items() if tick - e.last_seen > ttl_ticks]
    for nid in dead:
        del table[nid]


def one_table_offmaster(master, stages, table, visited, rng):
    two_hop = sorted(
        e.master for e in table.values()
        if e.hops == 2 and e.master in stages and e.master != master
        and e.master not in visited
    )
    if two_hop:
        return two_hop[0]
    cands = sorted(ch for ch in stages if ch != master)
    if not cands:
        return None
    weights = [stages[ch] + 1 for ch in cands]
    pick = rng.random() * sum(weights)
    acc = 0.0
    for ch, w in zip(cands, weights):
        acc += w
        if pick < acc:
            return ch
    return cands[-1]


SELF = 0
node_ids = st.integers(min_value=0, max_value=9)
channels = st.integers(min_value=0, max_value=4)
stage_maps = st.dictionaries(channels, st.integers(min_value=0, max_value=3),
                             max_size=4)


def wire_hello(sender, master, stages, listed):
    return HelloMessage(sender, master, dict(sorted(stages.items())),
                        tuple(sorted(listed.items())))


# (kind, ticks since the last step, HELLO or TTL, cluster head); a HELLO may
# list the receiver and even its own sender, and both must be skipped
hello_steps = st.tuples(
    st.just("hello"), st.integers(min_value=0, max_value=40),
    st.builds(wire_hello, st.integers(min_value=1, max_value=9), channels,
              stage_maps,
              st.dictionaries(node_ids, channels, max_size=6)),
    st.one_of(st.none(), node_ids))
evict_steps = st.tuples(st.just("evict"), st.integers(min_value=0, max_value=40),
                        st.integers(min_value=0, max_value=60), st.none())
# (master, available channel -> stage, visited, rng seed)
scan_queries = st.tuples(channels, stage_maps, st.sets(channels, max_size=3),
                         st.integers(min_value=0, max_value=2**16))


class TestNeighborMapsOracle:
    """The 1-hop table plus the 2-hop map against the single table they
    replaced, over random HELLO and eviction sequences."""

    @given(st.lists(st.one_of(hello_steps, evict_steps), max_size=40),
           st.lists(scan_queries, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_one_table_oracle(self, steps, queries):
        table, two_hop, oracle = {}, {}, {}
        tick = 0
        for kind, advance, payload, head in steps:
            tick += advance
            if kind == "hello":
                upsert_from_hello(table, two_hop, payload, tick, head, SELF)
                one_table_upsert(oracle, payload, tick, head, SELF)
            else:
                evict_stale(table, two_hop, tick, payload)
                one_table_evict(oracle, tick, payload)
            assert ({nid: (e.master, e.last_seen, e.cluster_head)
                     for nid, e in table.items()}
                    == {nid: (e.master, e.last_seen, e.cluster_head)
                        for nid, e in oracle.items() if e.hops == 1})
            assert two_hop == {nid: (e.master, e.last_seen)
                               for nid, e in oracle.items() if e.hops == 2}
            assert SELF not in table and SELF not in two_hop
            assert (emit_hello(SELF, 0, table, {}).neighbor_list
                    == tuple(sorted((e.id, e.master)
                                    for e in oracle.values() if e.hops == 1)))
            for master, stages, visited, seed in queries:
                rng, oracle_rng = Random(seed), Random(seed)
                assert (select_offmaster_scan(master, stages, two_hop, visited, rng)
                        == one_table_offmaster(master, stages, oracle, visited,
                                               oracle_rng))
                assert rng.getstate() == oracle_rng.getstate()


class TestObservationState:
    # a node adopts each stage map from `sense`, and its HELLO carries that
    # map; an equal map changes nothing

    def test_same_list_keeps_the_derived_state(self):
        node = Node(0, (0.0, 0.0), Random(0), ScenarioConfig())
        stages = {0: 1, 1: 3}
        node.apply_observations(stages)
        hello = node.hello()
        node.apply_observations(dict(stages))
        assert node.stages is stages
        assert node.hello() is hello and hello.stages is stages

    def test_new_list_recomputes_the_derived_state(self):
        node = Node(0, (0.0, 0.0), Random(0), ScenarioConfig())
        node.apply_observations({0: 1, 1: 3})
        stages = node.stages
        hello = node.hello()
        assert hello.stages is stages
        node.apply_observations({0: 1, 1: 3})
        assert node.stages is stages
        assert node.hello() is hello
        other = {1: 0, 3: 2}
        node.apply_observations(other)
        assert node.stages is other
        assert node.hello() is not hello
        assert node.hello().stages is other

    def test_quiet_windows_hand_out_one_list(self):
        # every quiet window hands out the one shared clean map
        world = World(ScenarioConfig(su_count=2, pu_count=0))
        a, b = world.nodes
        assert world.sense(a) is world.sense(b) is world.env.clean

    def test_nodes_on_one_map_share_it(self):
        # nodes that adopt the shared clean map send it as their HELLOs'
        # stage map
        world = World(ScenarioConfig(su_count=2, pu_count=0, channel_count=3))
        a, b = world.nodes
        for node in (a, b):
            node.apply_observations(world.sense(node))
            node.master = 0
        assert a.stages is b.stages is world.env.clean
        assert a.stages == {0: 3, 1: 3, 2: 3}
        hello_a, hello_b = a.hello(), b.hello()
        assert hello_a.stages is hello_b.stages is world.env.clean
        a._hello = None                 # a rebuilt HELLO shares it too
        assert a.hello() is not hello_a
        assert a.hello().stages is hello_a.stages


class TestOffMasterScan:
    def test_unscanned_two_hop_channel_first(self):
        two_hop = {5: (3, 0), 6: (4, 0)}
        ch = select_offmaster_scan(0, {0: 3, 1: 3, 3: 3, 4: 3}, two_hop, set(),
                                   Random(0))
        assert ch == 3

    def test_visited_two_hop_channel_falls_through(self):
        two_hop = {5: (3, 0)}
        picks = {select_offmaster_scan(0, {0: 3, 1: 3, 3: 3}, two_hop, {3},
                                       Random(s)) for s in range(30)}
        assert 0 not in picks and picks <= {1, 3}

    def test_quality_proportional_sampling(self):
        rng = Random(123)
        counts = {1: 0, 2: 0}
        for _ in range(6000):
            counts[select_offmaster_scan(0, {0: 3, 1: 3, 2: 1}, {}, set(),
                                         rng)] += 1
        assert counts[1] / 6000 == pytest.approx(4 / 6, abs=0.03)
        assert counts[2] / 6000 == pytest.approx(2 / 6, abs=0.03)

    def test_master_only_returns_none(self):
        assert select_offmaster_scan(0, {0: 3}, {}, set(), Random(0)) is None


class TestSelectGateways:
    def setup_method(self):
        self.a = SimpleNamespace(id=0, members={1: 0, 2: 1})
        self.b = SimpleNamespace(id=10, members={11: 0, 12: 1})

    def nodes_from(self, one_hop):
        """Nodes 0..12, indexed by id, whose tables hold `one_hop`."""
        nodes = [SimpleNamespace(table={}) for _ in range(13)]
        for a, b in one_hop:
            nodes[a].table[b] = NeighborEntry(0, 0)
        return nodes

    def test_single_gateway_one_hop_to_both_heads(self):
        # node 1 hears both heads directly and carries the link alone
        nodes = self.nodes_from([(1, 0), (1, 10)])
        assert select_gateways(self.a, self.b, nodes) == (1,)

    def test_lowest_id_single_gateway_wins(self):
        nodes = self.nodes_from([(2, 0), (2, 10), (11, 0), (11, 10)])
        assert select_gateways(self.a, self.b, nodes) == (2,)

    def test_pair_fallback_lowest_ids(self):
        nodes = self.nodes_from([(2, 12), (1, 11)])
        assert select_gateways(self.a, self.b, nodes) == (1, 11)

    def test_disjoint_clusters_have_no_link(self):
        assert select_gateways(self.a, self.b, self.nodes_from([])) is None


class TestRoleEntry:
    # attributes that outlive a role: identity, clocking, channel choice,
    # the stage map, both neighbor maps, the
    # last frame gap heard, and the HELLO kept for reuse
    PERSISTENT = {"id", "pos", "rng", "p", "start_tick", "role", "listen",
                  "master", "weights", "stages", "table", "two_hop",
                  "frame_gap", "_hello"}

    def busy_node(self):
        """A node caught mid-join while still holding head bookkeeping."""
        node = Node(0, (0.0, 0.0), Random(0), ScenarioConfig())
        node.role = Role.SCANNING
        node.scan = ScanState(visited={0, 1}, current=1, interval_end=5,
                              join_target=7, join_tx_tick=40, join_attempts=2,
                              exch_tx_tick=41, exch_done={5})
        node.offscan_ch = 3
        node.offscan_seen = {3}
        node.members = {4: 0}
        node.frame_offset = 2
        node.member_heard = {4: 2}
        node.join_first = 6
        node.lock = (0, 30)
        return node

    def test_become_member_leaves_no_join_scan_or_head_state(self):
        node = self.busy_node()
        node.become_member(head=9, master=2, slot=1, grace=120)
        assert node.role is Role.ORDINARY
        assert (node.head_id, node.master, node.slot, node.member_grace) \
            == (9, 2, 1, 120)
        # the join and the exchanges in flight went with the scan
        assert node.scan is None
        assert node.offscan_ch is None and node.offscan_seen == set()
        assert node.members is None and node.frame_offset is None
        assert node.member_heard == {} and node.join_first is None
        assert node.lock is None
        assert node.sched is None and node.frame_start is None

    def test_become_head_tracks_every_listed_member(self):
        node = self.busy_node()
        members = {5: 0, 8: 1}
        node.become_head(2, members, frame_offset=4, frame_start=54)
        assert node.role is Role.HEAD
        assert node.members is members and node.master == 2
        assert node.frame_offset == 4
        assert node.frame_start == 54
        assert node.member_heard == {5: -1, 8: -1}
        assert node.join_first is None
        assert node.scan is None
        assert node.head_id is None and node.slot is None
        assert node.lock is None

    def test_clear_role_state_resets_every_role_scoped_attribute(self):
        node = Node(0, (0.0, 0.0), Random(0), ScenarioConfig())
        role_scoped = set(Node.__slots__) - self.PERSISTENT
        assert role_scoped and self.PERSISTENT <= set(Node.__slots__)
        stale, kept = object(), object()
        for name in role_scoped:
            setattr(node, name, stale)
        for name in self.PERSISTENT:
            setattr(node, name, kept)
        node._clear_role_state()
        assert sorted(n for n in role_scoped if getattr(node, n) is stale) == []
        assert all(getattr(node, n) is kept for n in self.PERSISTENT)

    def test_sets_are_made_per_scan_or_on_their_first_add(self):
        cfg = ScenarioConfig()
        a, b = (Node(i, (0.0, 0.0), Random(i), cfg) for i in (0, 1))
        for node in (a, b):
            node.apply_observations({0: 3, 1: 2, 2: 1})
            node._restart_scan(None, 0)
        # each scan has its own exchange set; a fresh role holds the shared
        # empty `offscan_seen`, no set of its own
        assert a.scan.exch_done == set() and a.scan.exch_done is not b.scan.exch_done
        assert a.offscan_seen is b.offscan_seen
        assert not isinstance(a.offscan_seen, set) and a.offscan_seen == set()
        for i, node in enumerate((a, b)):
            hello = HelloMessage(5 + i, 0, {0: 3})
            node._on_hello(HelloFrame(hello, cluster_head=5 + i, pra_start=10),
                           1, None)
        assert (a.scan.exch_done, b.scan.exch_done) == ({5}, {6})
        sched = lay_out_superframe(cfg, (1,))
        for node in (a, b):
            node.become_head(0, {}, 0, 0)
            assert node.scan is None and node.offscan_seen == set()
            node.sched = sched
            node._in_frame(sched.data_start, sched.data_start, None, offscan=True)
            assert node.offscan_seen == {node.offscan_ch}
        assert a.offscan_seen is not b.offscan_seen

    def test_state_is_slotted_and_bound_from_the_start(self):
        node = Node(0, (0.0, 0.0), Random(0), ScenarioConfig())
        assert [n for n in Node.__slots__ if not hasattr(node, n)] == []
        records = (node, NeighborEntry(0, 0),
                   ScanState(visited={0}, current=0, interval_end=5))
        assert [r for r in records if hasattr(r, "__dict__")] == []


class TestFormationWalkthrough:
    """End-to-end neighbor-discovery and cluster-formation narrative:
    a first node self-elects, its neighbors join via the beacon, a node two
    hops out hears only member HELLOs and moves on, and the two clusters end
    up bridged by the one node that hears both heads. Runs with the swarm
    update disabled so master channels stay where formation put them (the
    narrative assumes the spectrum is static during formation)."""

    def build(self):
        positions = [
            (0.0, 0.0),      # 0 A  head of cluster on ch0
            (80.0, 0.0),     # 1 B  member of A, hears E: the gateway
            (40.0, 69.0),    # 2 C  member of A
            (-80.0, 0.0),    # 3 D  member of A, 2 hops from B
            (175.0, 0.0),    # 4 E  head of cluster on ch1
            (160.0, 55.0),   # 5 F  member of E, also hears B
            (255.0, 0.0),    # 6 G  member of E (ch0 blocked at G)
            (80.0, -90.0),   # 7 H  hears only B; ch1 blocked; joins I
            (80.0, -180.0),  # 8 I  forms on ch2 (ch0, ch1 blocked)
        ]
        starts = [0, 40, 80, 120, 200, 260, 300, 380, 340]
        pus = [
            static_pu(0, (255.0, -30.0), 0, 60.0),    # blocks ch0 at G
            static_pu(1, (80.0, -120.0), 1, 65.0),    # blocks ch1 at H and I
            static_pu(2, (80.0, -210.0), 0, 65.0),    # blocks ch0 at I
        ]
        # long neighbor TTL (the final-state assertions read the tables
        # directly), wide data window and jitter (cross-channel hearing
        # needs the clusters' frame phases to mix)
        cfg = ScenarioConfig(su_count=9, channel_count=3, comm_range=100.0,
                             area_width=600.0, area_height=600.0,
                             duration_ticks=1400, reform_enabled=False,
                             swarm_enabled=False, neighbor_ttl_superframes=50,
                             data_ticks=11, frame_jitter_max=4,
                             seed=5)
        world = World(cfg, su_positions=positions, su_start_ticks=starts,
                      pus=pus)
        return world, world.run()

    def test_first_node_forms_and_neighbors_join(self):
        world, res = self.build()
        forms = {e.get("node"): e for e in res.events if e.kind == "form"}
        joins = {e.get("node"): e for e in res.events if e.kind == "join"}
        assert forms[0].get("channel") == 0
        for nid in (1, 2, 3):
            assert joins[nid].get("head") == 0
            assert joins[nid].get("channel") == 0

    def test_one_and_two_hop_knowledge(self):
        world, res = self.build()
        b = world.nodes[1]
        assert 2 in b.table                  # C heard directly
        assert 3 in b.two_hop and 3 not in b.table
        # D via A's or C's neighbor list, on D's master
        assert b.two_hop[3][0] == 0
        assert any(3 in world.nodes[x].table for x in (0, 2) if x in b.table)

    def test_second_cluster_and_off_master_discovery(self):
        world, res = self.build()
        forms = {e.get("node"): e for e in res.events if e.kind == "form"}
        joins = {e.get("node"): e for e in res.events if e.kind == "join"}
        assert forms[4].get("channel") == 1
        assert joins[5].get("head") == 4
        assert joins[6].get("head") == 4
        b = world.nodes[1]
        assert 4 in b.table                  # E found by off-master listening
        assert 5 in b.table
        assert 6 in b.two_hop                # G relayed by E or F
        assert b.two_hop[6][0] == 1
        hello = emit_hello(1, b.master, b.table, b.stages)
        listed = {nid for nid, _ in hello.neighbor_list}
        assert {4, 5} <= listed

    def test_two_hop_node_exchanges_and_moves_on(self):
        world, res = self.build()
        joins = {e.get("node"): e for e in res.events if e.kind == "join"}
        forms = {e.get("node"): e for e in res.events if e.kind == "form"}
        assert forms[8].get("channel") == 2
        assert joins[7].get("head") == 8     # H ends up in cluster I
        b = world.nodes[1]
        assert 7 in b.table and 7 not in b.two_hop     # H's PublicRA exchange
        c = world.nodes[2]
        assert 7 in c.two_hop and 7 not in c.table     # relayed through B

    def test_gateway_bridges_the_two_clusters(self):
        world, res = self.build()
        gws = [e for e in res.events if e.kind == "gateway"]
        pairs = {(e.get("cluster_a"), e.get("cluster_b")): e.get("nodes")
                 for e in gws}
        assert ("0", "4") in {(str(a), str(b)) for (a, b), _ in pairs.items()} \
            or (0, 4) in pairs
        assert pairs[(0, 4)] == "1"          # B alone carries the link
        assert world.links[(0, 4)] == (1,)
        assert world.nodes[1].role is Role.GATEWAY

    def test_neighbor_maps_are_disjoint_and_exclude_self(self):
        world, res = self.build()
        for node in world.nodes:
            assert node.table.keys().isdisjoint(node.two_hop)
            assert node.id not in node.table and node.id not in node.two_hop


class TestJoinContention:
    class Ctx:
        """What a scanning node calls; channel 0 is scanned first, and 1 is
        its standing choice."""

        def __init__(self):
            self.sent, self.events = [], []

        def sense(self, node):
            return {0: 1, 1: 3}

        def transmit(self, node, channel, msg):
            self.sent.append((channel, msg))

        def log(self, tick, kind, **fields):
            self.events.append(kind)

    def test_concurrent_requesters_are_serialized(self):
        # two scanners in range of one head request in the same PublicRA;
        # the first by contention order joins, the other retries next frame
        cfg = ScenarioConfig(su_count=3, channel_count=1, comm_range=200.0,
                             duration_ticks=300, startup_spread_ticks=0,
                             reform_enabled=False, seed=1)
        world = World(cfg, su_positions=[(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)],
                      su_start_ticks=[0, 40, 40])
        res = world.run()
        joins = sorted((e.tick, e.get("node")) for e in res.events
                       if e.kind == "join")
        assert len(joins) == 2
        assert {n for _, n in joins} == {1, 2}
        gap = joins[1][0] - joins[0][0]
        assert gap >= cfg.beacon_ticks + 20   # roughly one superframe apart

    def test_head_admits_the_first_request_of_its_public_ra(self):
        # 9 asks before 3 in one public RA: the head admits 9 and neither
        # admits nor rejects 3, which asks again after the next beacon
        cfg = ScenarioConfig(channel_count=1, swarm_enabled=False,
                             reform_enabled=False, frame_jitter_max=0)
        ctx = self.Ctx()
        ctx.sense = lambda node: {0: 3}
        head = Node(0, (0.0, 0.0), Random(0), cfg)
        head.apply_observations({0: 3})
        head.become_head(0, {}, frame_offset=0, frame_start=0)
        head.step(0, ctx)
        pra = cfg.pra_start
        for t in range(1, cfg.frame_len + 1):
            if t in (pra, pra + 1):
                sender = 9 if t == pra else 3
                head.on_message(JoinRequest(sender, head.id), t, ctx)
            head.step(t, ctx)
        # the head's next frame starts at `frame_len`, with this beacon
        assert len(ctx.sent) == 2 and head.frame_start == cfg.frame_len
        beacon = ctx.sent[-1][1]
        assert isinstance(beacon, Beacon)
        assert beacon.members == {9: 0} and beacon.rejects == ()

    def test_full_cluster_rejects_and_requester_moves_on(self):
        cfg = ScenarioConfig(su_count=4, channel_count=2, comm_range=300.0,
                             duration_ticks=400, startup_spread_ticks=0,
                             max_slots=1, reform_enabled=False, seed=3)
        world = World(cfg, su_positions=[(0, 0), (50, 0), (0, 50), (50, 50)],
                      su_start_ticks=[0, 60, 120, 180])
        res = world.run()
        rejects = [e for e in res.events if e.kind == "reject"]
        assert rejects, "a full cluster must reject"
        for e in rejects:
            assert e.get("head") is not None
        # every node still settles somewhere
        assert len(res.settle_ticks) == 4

    def test_unanswered_requests_stop_at_the_attempt_limit(self):
        # head 7 beacons every frame but neither admits nor rejects the
        # node; the scan interval outlasts the retries, so the attempt
        # limit, not the join deadline, ends the join
        cfg = ScenarioConfig(channel_count=2, swarm_enabled=False,
                             scan_interval_ticks=200)
        ctx = self.Ctx()
        node = Node(0, (0.0, 0.0), Random(0), cfg)
        hello = HelloMessage(7, 0, {0: 3})
        beacons = 0
        for t in range(1 + (JOIN_ATTEMPT_LIMIT + 2) * cfg.frame_len + 1):
            node.step(t, ctx)
            if t % cfg.frame_len == 1:
                node.on_message(Beacon(cfg.frame_len, cfg.layouts[(1,)], {}, (),
                                       hello), t, ctx)
                beacons += 1
                if beacons <= JOIN_ATTEMPT_LIMIT:
                    assert (node.scan.join_target, node.scan.join_attempts) \
                        == (7, beacons)
                    assert node.master == 0
                else:
                    assert node.scan.join_target is None
                    assert node.scan.join_tx_tick is None
                    assert node.scan.rejections == {7}
                    assert node.master == 1
        assert node.role is Role.SCANNING and t < node.scan.interval_end
        assert ctx.sent == [(0, JoinRequest(0, 7))] * JOIN_ATTEMPT_LIMIT
        assert ctx.events == []

    def test_unanswered_join_gives_up_two_frames_after_the_interval(self):
        # head 7 beacons once, early in the first interval, and never answers
        # the request: the node waits out the interval and two frames more,
        # then rejects the head and scans the next channel
        cfg = ScenarioConfig(channel_count=2, swarm_enabled=False)
        ctx = self.Ctx()
        node = Node(0, (0.0, 0.0), Random(0), cfg)
        node.step(0, ctx)
        interval_end = node.scan.interval_end
        deadline = interval_end + 2 * cfg.frame_len
        node.on_message(Beacon(cfg.frame_len, cfg.layouts[(1,)], {}, (),
                               HelloMessage(7, 0, {0: 3})), 1, ctx)
        assert node.scan.join_target == 7
        assert node.scan.join_tx_tick < interval_end
        for t in range(1, deadline):
            node.step(t, ctx)
        assert (node.role, node.scan.current, node.scan.join_target) \
            == (Role.SCANNING, 0, 7)
        assert node.scan.rejections == set()
        node.step(deadline, ctx)
        assert node.scan.join_target is None and node.scan.rejections == {7}
        assert node.scan.current == 1
        assert node.scan.interval_end == deadline + cfg.scan_interval_ticks
        assert ctx.sent == [(0, JoinRequest(0, 7))]
        assert ctx.events == []


def frame_breaks(sched, gap, slot=None):
    """Reference: the sorted ticks into a frame at which a node following
    `sched` has to step: the schedule's edges, a member's HELLO mini-slot and
    the tick after it, and `gap`, the start of the next frame."""
    if slot is None:
        return sched.edges + (gap,)
    own = sched.nd_start + slot
    return tuple(sorted({*sched.edges, own, own + 1, gap}))


class TestFrameBreaks:
    @pytest.mark.parametrize("detect_periods", [1, 2, 3, 4])
    def test_derived_wake_matches_the_reference_breaks(self, detect_periods):
        cfg = ScenarioConfig(detect_periods=detect_periods, frame_jitter_max=4,
                             scan_interval_ticks=40)
        node = Node(0, (0.0, 0.0), Random(0), cfg)
        node.frame_start = 1000
        for sched in cfg.layouts.values():
            for slot in (None, *range(cfg.max_slots)):
                for gap in range(cfg.frame_len,
                                 cfg.frame_len + cfg.frame_jitter_max + 1):
                    breaks = frame_breaks(sched, gap, slot)
                    node.sched, node.slot, node.frame_gap = sched, slot, gap
                    for rel in range(gap):
                        node._sleep_in_frame(rel)
                        assert node.wake == 1000 + breaks[bisect_right(breaks, rel)], \
                            (sched.edges, slot, gap, rel)


# --- the in-frame tick as it was before the segment kinds: the reference ------

def reference_sleep_in_frame(node, rel):
    edges = node.sched.edges
    i = bisect_right(edges, rel)
    nxt = edges[i] if i < len(edges) else node.frame_gap
    slot = node.slot
    if slot is not None:
        own = node.sched.nd_start + slot
        if rel == own:
            own += 1                # the tick after its HELLO
        if rel < own < nxt:
            nxt = own
    node.wake = node.frame_start + nxt


def reference_in_frame(node, rel, tick, ctx, offscan):
    sched = node.sched
    blocks = sched.detect_blocks
    for start, end in blocks:
        if start <= rel < end:
            node.listen = None
            if rel == blocks[0][0]:
                node._do_sensing(tick, ctx)
            return
    data_start = sched.data_start
    if offscan and data_start <= rel < data_start + node.p.data_ticks:
        if rel == data_start:
            node.offscan_ch = protocol.select_offmaster_scan(
                node.master, node.stages, node.two_hop, node.offscan_seen,
                node.rng)
            if node.offscan_ch is not None:
                if node.offscan_seen:
                    node.offscan_seen.add(node.offscan_ch)
                else:
                    node.offscan_seen = {node.offscan_ch}
        node.listen = node.offscan_ch if node.offscan_ch is not None else node.master
    else:
        node.listen = node.master
    if rel == node.p.frame_len - 1:
        node._frame_end(tick, ctx)


def reference_frame_tick(node, rel, tick, ctx):
    """A step at `rel` >= 1 into the frame of a head, or of a member that
    heard the frame's beacon, as `step` took it before."""
    node.wake = tick + 1
    reference_sleep_in_frame(node, rel)
    if node.slot is None:
        reference_in_frame(node, rel, tick, ctx, offscan=not node.members)
    elif rel == node.sched.nd_start + node.slot:
        ctx.transmit(node, node.master, HelloFrame(
            node.hello(), cluster_head=node.head_id,
            pra_start=node.frame_start + node.p.pra_start))
    else:
        reference_in_frame(node, rel, tick, ctx, offscan=True)


class ActingNode(Node):
    """A node that records the actions of a frame tick in `actions` instead
    of sensing or closing its frame."""

    def _do_sensing(self, tick, ctx):
        self.actions.append("sense")
        return True

    def _frame_end(self, tick, ctx):
        self.actions.append("frame end")


FRAME_START = 1000
UNSET = -7                              # a `listen` no tick writes


def framed_node(cfg, sched, gap, slot, members):
    """A head (`slot` None) with the member map `members`, or a member in
    mini-slot `slot` that heard its beacon, in a frame of `sched` that
    started at FRAME_START and lasts `gap` ticks."""
    node = ActingNode(5, (0.0, 0.0), Random(3), cfg)
    node.apply_observations({0: 3, 1: 1, 2: 2})
    if slot is None:
        node.become_head(0, dict(members), 0, FRAME_START)
    else:
        node.become_member(9, 0, slot, None)
        node.have_beacon = True
    node.sched, node.frame_gap, node.frame_start = sched, gap, FRAME_START
    node.offscan_ch = 2                 # as if picked at the data period's start
    node.listen = UNSET
    node.actions = []
    return node


class TestFrameTick:
    """The in-frame tick against the reference above: one search of the
    schedule's edges gives both the wake and the kind of segment a tick
    lies in."""

    @pytest.fixture
    def picks(self, monkeypatch):
        """Records each off-master pick, by whichever path makes it."""
        picks = []
        pick = protocol.select_offmaster_scan

        def recorded(*args):
            picks.append(args[0])
            return pick(*args)
        monkeypatch.setattr(protocol, "select_offmaster_scan", recorded)
        return picks

    def tick_both(self, cfg, sched, gap, slot, members, rel, picks):
        """(listen, wake, actions, off-master channel) of the reference's
        tick and of `step`'s."""
        out = []
        for run in (reference_frame_tick, None):
            node = framed_node(cfg, sched, gap, slot, members)
            sent = []
            ctx = SimpleNamespace(transmit=lambda n, ch, msg: sent.append(
                ("HELLO", ch, msg)))
            picks.clear()
            tick = FRAME_START + rel
            if run is None:
                node.wake = 0
                node.step(tick, ctx)
            else:
                run(node, rel, tick, ctx)
            actions = node.actions + [("pick", m) for m in picks] + sent
            out.append((node.listen, node.wake, actions, node.offscan_ch))
        return out

    @pytest.mark.parametrize("detect_periods", [1, 2, 3, 4])
    def test_every_tick_matches_the_reference(self, detect_periods, picks):
        cfg = ScenarioConfig(detect_periods=detect_periods, frame_jitter_max=4,
                             scan_interval_ticks=40)
        roles = [(None, {}), (None, {7: 0})] + [(slot, {})
                                                 for slot in range(cfg.max_slots)]
        acted = set()
        for sched in cfg.layouts.values():
            for slot, members in roles:
                for gap in range(cfg.frame_len,
                                 cfg.frame_len + cfg.frame_jitter_max + 1):
                    for rel in range(1, gap):
                        want, got = self.tick_both(cfg, sched, gap, slot,
                                                   members, rel, picks)
                        assert got == want, (sched.edges, slot, members, gap, rel)
                        acted.update(a if isinstance(a, str) else a[0]
                                     for a in got[2])
        # every action of a frame tick was compared
        assert acted == {"sense", "pick", "frame end", "HELLO"}

    def test_slot_zero_right_after_a_block_keeps_the_wake_after_its_hello(self):
        # detection blocks before ND and intra RA: ND starts at the first
        # block's end, so mini-slot 0's HELLO tick is that block's end edge
        cfg = ScenarioConfig(detect_periods=2)
        sched = cfg.layouts[(1, 3)]
        assert sched.detect_blocks[0] == (1, 3) and sched.nd_start == 3
        node = framed_node(cfg, sched, cfg.frame_len, 0, {})
        sent = []
        ctx = SimpleNamespace(transmit=lambda n, ch, msg: sent.append(msg))
        node.wake = 0
        node.step(FRAME_START + 1, ctx)
        assert (node.listen, node.actions) == (None, ["sense"])
        assert node.wake == FRAME_START + 3
        node.step(FRAME_START + 3, ctx)
        # the HELLO tick leaves the block's `listen` as it was; the node
        # wakes on the next tick to listen on its master again
        assert len(sent) == 1 and node.listen is None
        assert node.wake == FRAME_START + 4
        node.step(FRAME_START + 4, ctx)
        assert node.listen == node.master == 0


class TestBeaconMembers:
    def test_a_sent_beacon_keeps_the_map_it_was_sent_with(self):
        cfg = ScenarioConfig(channel_count=1, swarm_enabled=False,
                             reform_enabled=False)
        sent = []
        ctx = SimpleNamespace(sense=lambda node: {0: 3},
                              transmit=lambda node, channel, msg: sent.append(msg))
        head = Node(0, (0.0, 0.0), Random(0), cfg)
        head.apply_observations({0: 3})
        head.become_head(0, {1: 0, 2: 1}, frame_offset=0, frame_start=0)
        head.step(0, ctx)
        (beacon,) = sent
        assert beacon.members == {1: 0, 2: 1}
        head.members[3] = 2
        del head.members[1]
        assert beacon.members == {1: 0, 2: 1}
        # the map is not compared, so the record stays hashable
        assert beacon == replace(beacon, members={})
        assert hash(beacon) == hash(replace(beacon, members={}))


class TestMemberTimeout:
    def test_a_member_is_dropped_after_ttl_frames_unheard(self):
        # frames start every 25 ticks from tick 10; the TTL is 3 frames.
        # Member 1 sends a HELLO in every frame, 2 never does, 3 only before
        # the first frame start, and 4 joins through the first frame's public
        # RA and is never heard
        cfg = ScenarioConfig(channel_count=1, frame_jitter_max=0,
                             neighbor_ttl_superframes=3, swarm_enabled=False,
                             reform_enabled=False)
        beacons = {}

        class Ctx:
            def sense(self, node):
                return {0: 3}

            def transmit(self, node, channel, msg):
                # a head sends its beacon at its frame's start
                beacons[node.frame_start] = set(msg.members)

        ctx = Ctx()
        head = Node(0, (0.0, 0.0), Random(0), cfg)
        head.apply_observations({0: 3})
        head.become_head(0, {1: 0, 2: 1, 3: 2}, frame_offset=10, frame_start=10)

        def hello_from(sender, t):
            head.on_message(HelloFrame(HelloMessage(sender, 0, {0: 3}),
                                       cluster_head=0), t, ctx)

        join_tick = None
        for t in range(140):
            head.step(t, ctx)
            if t == 5:
                hello_from(3, t)
            if t >= 10 and (t - 10) % cfg.frame_len == 5:
                hello_from(1, t)
            if t == 10:
                join_tick = t + cfg.pra_start
            if t == join_tick:
                head.on_message(JoinRequest(4, 0), t, ctx)
        assert beacons == {
            10: {1, 2, 3},
            35: {1, 2, 3, 4},     # 4 admitted
            60: {1, 3, 4},        # 2 unheard for 3 frames
            85: {1, 4},           # 3 heard only before the first frame
            110: {1},             # 4 unheard for 3 frames since admission
            135: {1},
        }
        assert head.members == {1: 0} and head.member_heard == {1: 5}


class TestMasterChange:
    def test_pu_arrival_clears_the_channel(self):
        # PU hops onto the cluster channel at t=300: everyone senses the loss
        # within a superframe and reconvenes on the other channel
        pu = PrimaryUser(id=0, pos=(0.0, 0.0), channel=1,
                         model=PeriodicActivity(300, 1.0, hop=True),
                         protection_radius=500.0, interference_power=0.01)
        cfg = ScenarioConfig(su_count=4, channel_count=2, comm_range=150.0,
                             duration_ticks=550, startup_spread_ticks=0,
                             reform_enabled=False, seed=4)
        world = World(cfg, su_positions=[(0, 0), (60, 0), (0, 60), (60, 60)],
                      su_start_ticks=[0, 50, 90, 130], pus=[pu])
        res = world.run()
        changes = [e for e in res.events if e.kind == "master-change"]
        assert {e.get("node") for e in changes} == {0, 1, 2, 3}
        assert all(e.get("new") == 1 for e in changes)
        # ch0 blocked from t=300 (hop 1->0); loss sensed within one frame,
        # then a scan interval and a join round
        assert max(e.tick for e in changes) <= 300 + 30
        final = res.samples[-1]
        assert final.counts[1] == 4 and final.counts[0] == 0

    def test_head_departure_dissolves_cluster(self):
        # the PU only covers the head: it alone must leave; the members
        # re-form among themselves on the old channel within 3 intervals
        pu = PrimaryUser(id=0, pos=(0.0, 0.0), channel=1,
                         model=PeriodicActivity(400, 1.0, hop=True),
                         protection_radius=40.0, interference_power=0.01)
        cfg = ScenarioConfig(su_count=4, channel_count=2, comm_range=150.0,
                             duration_ticks=780, startup_spread_ticks=0,
                             reform_enabled=False, seed=4)
        world = World(cfg, su_positions=[(0, 0), (100, 0), (40, 90), (100, 90)],
                      su_start_ticks=[0, 50, 90, 130], pus=[pu])
        res = world.run()
        head_change = [e for e in res.events if e.kind == "master-change"
                       and e.get("node") == 0 and e.get("role") == "head"]
        assert head_change and head_change[0].tick >= 400
        t0 = head_change[0].tick
        reforms = [e for e in res.events if e.kind == "form"
                   and e.tick > t0 and e.get("node") != 0]
        assert reforms, "members must re-form after the head left"
        assert min(e.tick for e in reforms) <= t0 + 3 * cfg.scan_interval_ticks \
            + 3 * 27 + 5
        for n in world.nodes:
            assert n.role is not None and n.role is not Role.SCANNING
