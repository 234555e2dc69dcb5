"""World construction, message delivery, metrics, and determinism."""

import copy
import dataclasses
import math
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cogmesh import engine
from cogmesh.cli import _config_text, parse_scenario
from cogmesh.engine import (
    ConfigError,
    ScenarioConfig,
    SimulationInvariantError,
    World,
    compute_metrics,
    config_from_mapping,
    deliver_messages,
    largest_same_master_component,
    run,
)
from cogmesh.protocol import (
    Beacon,
    HelloFrame,
    JoinRequest,
    NeighborEntry,
    Node,
    Role,
    emit_hello,
)
from cogmesh.radio import MarkovActivity, PeriodicActivity, PrimaryUser
from cogmesh.reformation import Negotiation, cluster_nodes
from test_golden import BASES, SCALE_BASES, output_files


class TestConfig:
    def test_defaults_are_valid(self):
        ScenarioConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="warp_factor"):
            config_from_mapping({"warp_factor": "9"})

    @pytest.mark.parametrize("key", ["q_max", "max_superframe_ticks"])
    def test_removed_key_rejected(self, key):
        # a file that still sets a removed key is told which one
        with pytest.raises(ConfigError, match=f"{key}: unknown key") as info:
            config_from_mapping({key: "32"})
        assert info.value.key == key

    # every config is checked when it is built, in code as from a file
    @pytest.mark.parametrize("build", [
        lambda **bad: ScenarioConfig(**bad),
        lambda **bad: replace(ScenarioConfig(su_count=5), **bad),
    ], ids=["constructor", "replace"])
    @pytest.mark.parametrize("key, value", [
        ("su_count", -1), ("alpha", 2.0), ("pu_power", math.inf),
        # an int too large for a float is not a finite float
        pytest.param("area_width", 10 ** 400, id="area_width-10**400"),
    ])
    def test_bad_value_rejected_when_built(self, build, key, value):
        with pytest.raises(ConfigError, match=key) as info:
            build(**{key: value})
        assert info.value.key == key

    # a value must have its field's type: a bool for a flag, an int that is
    # not a bool for a count, a real number for a float, and a str
    @pytest.mark.parametrize("key, value, kind", [
        ("swarm_enabled", "no", "bool"), ("reform_enabled", 1, "bool"),
        ("pu_hop", "yes", "bool"),
        ("su_count", 2.5, "int"), ("su_count", "5", "int"),
        ("channel_count", True, "int"), ("seed", 1.5, "int"),
        ("duration_ticks", 100.0, "int"),
        ("alpha", "0.1", "float"), ("comm_range", True, "float"),
        ("pu_model", 1, "str"),
    ])
    def test_value_of_the_wrong_type_rejected(self, key, value, kind):
        with pytest.raises(ConfigError, match=f"{key}: must be of type {kind}, "
                                              f"not {type(value).__name__}") as info:
            ScenarioConfig(**{key: value})
        assert info.value.key == key

    # the scan interval must outlast the longest frame, and nothing else
    # bounds the superframe
    @pytest.mark.parametrize("values", [
        {}, {"frame_jitter_max": 0}, {"frame_jitter_max": 9},
        {"detect_periods": 4, "detect_ticks": 7}, {"data_ticks": 30},
    ])
    def test_scan_interval_bound_is_the_longest_frame(self, values):
        base = ScenarioConfig(**values, scan_interval_ticks=10**6)
        longest = base.frame_len + base.frame_jitter_max
        with pytest.raises(ConfigError, match=f"superframe plus its jitter "
                                              f"\\({longest} ticks\\)") as info:
            replace(base, scan_interval_ticks=longest)
        assert info.value.key == "scan_interval_ticks"
        assert replace(base, scan_interval_ticks=longest + 1).frame_len == base.frame_len

    def test_negative_count_names_the_key(self):
        with pytest.raises(ConfigError, match="su_count"):
            config_from_mapping({"su_count": "-1"})

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration_ticks"):
            config_from_mapping({"duration_ticks": "0"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="swarm_enabled"):
            config_from_mapping({"swarm_enabled": "maybe"})

    def test_scan_interval_must_exceed_superframe(self):
        with pytest.raises(ConfigError, match="scan_interval_ticks"):
            config_from_mapping({"scan_interval_ticks": "20"})

    def test_oversized_superframe_rejected(self):
        with pytest.raises(ConfigError, match="superframe"):
            config_from_mapping({"data_ticks": "30"})

    # each superframe check names the key that is wrong
    @pytest.mark.parametrize("values, key", [
        ({"beacon_ticks": "0"}, "beacon_ticks"),
        ({"max_slots": "0"}, "max_slots"),
        ({"data_ticks": "0"}, "data_ticks"),
        ({"intra_ra_ticks": "0"}, "intra_ra_ticks"),
        ({"detect_ticks": "0"}, "detect_ticks"),
        ({"public_ra_ticks": "1"}, "public_ra_ticks"),
        ({"public_ra_ticks": "9"}, "public_ra_ticks"),
        ({"detect_periods": "0"}, "detect_periods"),
        ({"detect_periods": "5"}, "detect_periods"),
        # here and in the last two cases the frame plus its jitter outlasts
        # the scan interval
        ({"data_ticks": "30"}, "scan_interval_ticks"),
        # the removed bound is named as an unknown key
        ({"max_superframe_ticks": "24"}, "max_superframe_ticks"),
        ({"frame_jitter_max": "-1"}, "frame_jitter_max"),
        ({"scan_interval_ticks": "27", "frame_jitter_max": "2"},
         "scan_interval_ticks"),
        ({"frame_jitter_max": "20"}, "scan_interval_ticks"),
    ])
    def test_superframe_error_names_its_key(self, values, key):
        with pytest.raises(ConfigError) as info:
            config_from_mapping(values)
        assert info.value.key == key

    # a ≤ 0 and c ≤ 0 each concern one key; a curve leaving [0, 1] is b's
    @pytest.mark.parametrize("values, key", [
        ({"reward_a": "-1"}, "reward_a"),
        ({"reward_a": "0", "reward_c": "0"}, "reward_a"),
        ({"reward_c": "0"}, "reward_c"),
        ({"reward_c": "-3.1"}, "reward_c"),
        ({"reward_b": "0"}, "reward_b"),
        ({"reward_b": "10"}, "reward_b"),
        ({"reward_c": "1"}, "reward_b"),
    ])
    def test_reward_error_names_its_key(self, values, key):
        with pytest.raises(ConfigError, match=key) as info:
            config_from_mapping(values)
        assert info.value.key == key

    # the radio layer trusts these values; only the config checks them
    @pytest.mark.parametrize("key, value", [
        ("quant_stages", "1"), ("channel_count", "0"),
        ("pathloss_exponent", "0"), ("pu_period_ticks", "0"),
        ("pu_duty", "1.5"), ("pu_p_on", "1.5"), ("pu_p_off", "-0.1"),
        ("pu_protection_radius", "0"), ("pu_power", "-1"),
    ] + [(key, value) for key in ("area_width", "area_height", "pu_power", "alpha")
         for value in ("inf", "-inf", "nan", "1e400")])
    def test_value_rejected_at_the_boundary(self, key, value):
        with pytest.raises(ConfigError, match=key) as info:
            config_from_mapping({key: value})
        assert info.value.key == key

    # finite values that `validate` once accepted and whose run overflowed:
    # a squared distance, the far-field term, and the quantizer's scaling
    # by the stage count
    @pytest.mark.parametrize("values, key", [
        ({"area_width": 1e200, "area_height": 1e200, "comm_range": 1e200},
         "area_width"),
        ({"pathloss_exponent": 1e300, "pu_count": 4}, "pathloss_exponent"),
        # the error names the larger side
        ({"area_width": 1.0, "area_height": 1e200, "comm_range": 1e200},
         "area_height"),
        ({"quant_stages": 10**400}, "quant_stages"),
        # the periodic model's duty arithmetic and the sensing-window deque
        ({"pu_count": 1, "pu_period_ticks": 10**400}, "pu_period_ticks"),
        ({"pu_count": 1, "sensing_window_ticks": 2**64}, "sensing_window_ticks"),
    ])
    def test_overflowing_magnitude_names_its_key(self, values, key):
        with pytest.raises(ConfigError, match=key) as info:
            World(ScenarioConfig(su_count=20, duration_ticks=200, **values))
        assert info.value.key == key

    # just inside each bound a run completes; just outside it is rejected
    @pytest.mark.parametrize("key, inside, outside", [
        ("area_width", math.sqrt(sys.float_info.max / 2) * (1 - 1e-15),
         math.sqrt(sys.float_info.max / 2) * (1 + 1e-15)),
        ("pathloss_exponent",
         math.log(sys.float_info.max) / math.log(math.hypot(1000.0, 1000.0)) * (1 - 1e-12),
         math.log(sys.float_info.max) / math.log(math.hypot(1000.0, 1000.0)) * (1 + 1e-12)),
    ])
    def test_bound_lies_at_the_overflow(self, key, inside, outside):
        values = {key: inside}
        if key == "area_width":
            values.update(area_height=inside, comm_range=inside)
        cfg = ScenarioConfig(su_count=20, pu_count=4, duration_ticks=200, **values)
        assert len(World(cfg).run().samples) == 8
        with pytest.raises(ConfigError) as info:
            World(replace(cfg, **{k: outside for k in values}))
        assert info.value.key == key

    def test_non_finite_float_rejected_in_code_built_config(self):
        with pytest.raises(ConfigError, match="pu_power"):
            World(ScenarioConfig(pu_power=math.inf))

    def test_string_coercion(self):
        cfg = config_from_mapping({"su_count": "12", "comm_range": "180.5",
                                   "swarm_enabled": "off", "pu_model": "markov"})
        assert cfg.su_count == 12
        assert cfg.comm_range == 180.5
        assert cfg.swarm_enabled is False
        assert cfg.pu_model == "markov"

    @pytest.mark.parametrize("key, given", [
        ("su_positions", [(0.0, 0.0)] * 2),
        ("su_positions", [(0.0, 0.0)] * 4),
        ("su_start_ticks", [0] * 2),
        ("su_start_ticks", [0] * 4),
        # the right length, with one malformed entry
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0, 2.0)]),
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), (2.0,)]),
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), 2.0]),
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), ("a", 0.0)]),
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), (0.0, None)]),
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), (True, 0.0)]),
        ("su_positions", [(0.0, 0.0), (1.0, 1.0), (10**400, 0.0)]),
        ("su_start_ticks", [0, -5, 2]),
        ("su_start_ticks", [0, 2.5, 2]),
        ("su_start_ticks", [0, "3", 2]),
        ("su_start_ticks", [0, True, 2]),
    ])
    def test_wrong_length_argument_rejected(self, key, given):
        """A positional argument of the wrong length, or with an entry that
        is not a real (x, y) pair or an int start tick >= 0, is rejected
        with its name."""
        with pytest.raises(ConfigError, match=key) as info:
            World(ScenarioConfig(su_count=3), **{key: given})
        assert info.value.key == key

    def test_positions_are_kept_as_given_pairs(self):
        # any 2-item sequence becomes a tuple, which the radio's geometry
        # cache can key on; int coordinates stay ints
        listed = World(ScenarioConfig(su_count=2, pu_count=2, duration_ticks=60),
                       su_positions=[[0.0, 0.0], [1.0, 1.0]])
        assert [n.pos for n in listed.nodes] == [(0.0, 0.0), (1.0, 1.0)]
        listed.run()
        ints = World(ScenarioConfig(su_count=2), su_positions=[(0, 0), (1, 1)])
        assert [type(c) for n in ints.nodes for c in n.pos] == [int] * 4

    def test_iterator_arguments_are_read_once(self):
        pu = PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100, 1.0))
        world = World(ScenarioConfig(su_count=2),
                      su_positions=((float(i), 0.0) for i in range(2)),
                      su_start_ticks=iter([0, 3]), pus=iter([pu]))
        assert len(world.env.pus) == 1
        assert [n.pos for n in world.nodes] == [(0.0, 0.0), (1.0, 0.0)]
        assert [n.start_tick for n in world.nodes] == [0, 3]
        with pytest.raises(ConfigError, match="su_positions"):
            World(ScenarioConfig(su_count=3),
                  su_positions=((float(i), 0.0) for i in range(2)))

    @pytest.mark.parametrize("key", ["su_positions", "su_start_ticks", "pus"])
    def test_non_iterable_argument_rejected(self, key):
        with pytest.raises(ConfigError, match=key) as info:
            World(ScenarioConfig(su_count=2), **{key: 2})
        assert info.value.key == key

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_position_rejected(self, bad, axis):
        corner = [0.0, 0.0]
        corner[axis] = bad
        with pytest.raises(ConfigError, match="su_positions"):
            World(ScenarioConfig(su_count=2), su_positions=[(5.0, 5.0), tuple(corner)])

    def test_far_apart_positions_rejected(self):
        # the two far SUs share a cell, and their squared distance overflows
        with pytest.raises(ConfigError, match="su_positions") as info:
            World(ScenarioConfig(su_count=3),
                  su_positions=[(0.0, 0.0), (1e300, 0.0), (1e300, 2e296)])
        assert info.value.key == "su_positions"

    @pytest.mark.parametrize("pu, values", [
        # an SU's distance to the PU, to the fourth power, overflows
        (PrimaryUser(0, (1e100, 0.0), 0, PeriodicActivity(100, 1.0)),
         {"pathloss_exponent": 4.0}),
        (PrimaryUser(0, (math.nan, 0.0), 0, PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, (500.0, 500.0), 99, PeriodicActivity(100, 1.0)),
         {"channel_count": 8}),
        # the PU's own values break the rules for the config's PU keys
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(0, 1.0)), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100, 1.5)), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, MarkovActivity(2.0, 0.1)), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100, 1.0),
                     interference_power=math.nan), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100, 1.0),
                     protection_radius=0.0), {}),
        # a channel the radio cannot key its stages by, and positions that
        # are not a pair of finite coordinates
        (PrimaryUser(0, (500.0, 500.0), 1.5, PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, (500.0, 500.0), "1", PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, (500.0, 500.0), True, PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, (500.0, 500.0, 0.0), 0, PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, 500.0, 0, PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, ("500", 500.0), 0, PeriodicActivity(100, 1.0)), {}),
        (PrimaryUser(0, (10 ** 400, 0.0), 0, PeriodicActivity(100, 1.0)), {}),
        # flags that are not bools, and model values of the wrong type
        (PrimaryUser(0, (500.0, 500.0), 0, MarkovActivity(0.2, 0.1),
                     active="no"), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100, 1.0),
                     active=1), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100, 1.0, hop="no")), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, PeriodicActivity(100.0, 1.0)), {}),
        (PrimaryUser(0, (500.0, 500.0), 0, MarkovActivity("0.2", 0.1)), {}),
    ])
    def test_primary_user_the_run_cannot_use_rejected(self, pu, values):
        with pytest.raises(ConfigError, match="pus") as info:
            World(ScenarioConfig(**values), pus=[pu])
        assert info.value.key == "pus"


def brute_force_adjacency(positions, comm_range):
    r2 = comm_range * comm_range
    return [[j for j, (bx, by) in enumerate(positions)
             if j != i and (ax - bx) ** 2 + (ay - by) ** 2 <= r2]
            for i, (ax, ay) in enumerate(positions)]


@st.composite
def placements(draw):
    """A comm_range and SU positions in the square of side 2000 m around the
    origin, some on exact multiples of comm_range (cell borders), plus pairs
    exactly comm_range apart. A range of 1e4 exceeds the square's diagonal."""
    r = draw(st.sampled_from([1e-310, 0.3, 250.0, 1e4]))
    k, near = int(min(8.0, 1000.0 / r)), min(4 * r, 1000.0)
    coordinate = st.one_of(st.integers(-k, k).map(lambda i: i * r),
                           st.floats(-near, near),
                           st.floats(-1000.0, 1000.0))
    points = draw(st.lists(st.tuples(coordinate, coordinate), max_size=40))
    for x, y in draw(st.lists(st.sampled_from(points), max_size=10)) if points else ():
        dx, dy = draw(st.sampled_from([(r, 0.0), (0.0, r), (-r, 0.0), (0.6 * r, 0.8 * r)]))
        points.append((x + dx, y + dy))
    return r, draw(st.permutations(points))


class TestAdjacency:
    @given(placements())
    # squares that underflow at a tiny range, a pair on two cell borders that
    # rounding puts two cells apart when the side is exactly comm_range, and
    # finite coordinates whose span is not
    @example((1e-310, [(0.0, 0.0), (1e-200, 0.0), (1000.0, 1000.0), (-5e-324, 0.0)]))
    @example((0.3, [(0.0, 0.0), (0.0, -0.3), (0.0, -3 * 0.3)]))
    @example((250.0, [(-1e308, 0.0), (1e308, 0.0), (1e308, 100.0)]))
    @settings(max_examples=300, deadline=None)
    def test_same_as_brute_force(self, placement):
        comm_range, positions = placement
        world = World(ScenarioConfig(su_count=len(positions), comm_range=comm_range),
                      su_positions=positions)
        assert world.adjacency == brute_force_adjacency(positions, comm_range)

    @pytest.mark.parametrize("comm_range", [1e-310, 250.0])
    def test_generated_positions(self, comm_range):
        world = World(ScenarioConfig(su_count=60, comm_range=comm_range))
        positions = [n.pos for n in world.nodes]
        assert world.adjacency == brute_force_adjacency(positions, comm_range)

    def test_scale_set_up_takes_at_most_a_second(self):
        # set-up buckets SUs into comm-range cells, about 0.1 s for 3200 SUs;
        # testing every pair took 2-4 s, so a return to quadratic set-up fails
        start = time.perf_counter()
        World(BASES["mesh3200"]())
        assert time.perf_counter() - start <= 1.0


def tuned(channels):
    """Stand-in nodes by id, each with only the `listen` channel that
    delivery reads."""
    return {i: SimpleNamespace(listen=ch) for i, ch in channels.items()}


class TestDeliverMessages:
    def test_single_listener_delivery(self):
        delivered, dropped = deliver_messages(
            [(0, 2, "msg")], tuned({0: None, 1: 2}), {0: [1], 1: [0]})
        assert delivered == [(1, "msg")] and dropped == []

    def test_same_channel_collision_drops_both(self):
        delivered, dropped = deliver_messages(
            [(0, 1, "a"), (2, 1, "b")],
            tuned({0: None, 1: 1, 2: None}), {0: [1], 2: [1], 1: [0, 2]})
        assert delivered == []
        assert sorted(m for _, m in dropped) == ["a", "b"]

    def test_wrong_channel_not_delivered(self):
        delivered, dropped = deliver_messages(
            [(0, 2, "msg")], tuned({0: None, 1: 3}), {0: [1], 1: [0]})
        assert delivered == [] and dropped == []

    def test_transmitter_never_receives(self):
        delivered, _ = deliver_messages(
            [(0, 1, "a"), (1, 1, "b")],
            tuned({0: None, 1: None, 2: 1}), {0: [1, 2], 1: [0, 2], 2: [0, 1]})
        assert delivered == []

    def test_sender_tuned_to_its_own_channel_hears_nothing(self):
        # one half-duplex radio: a sender hears nothing on the tick it sends,
        # even with `listen` left on its send channel (no send path retunes
        # it); only the bystander 2 hears node 1
        delivered, dropped = deliver_messages(
            [(0, 1, "a"), (1, 1, "b")],
            tuned({0: 1, 1: 1, 2: 1}), {0: [1], 1: [0, 2], 2: [1]})
        assert delivered == [(2, "b")] and dropped == []

    def test_out_of_range_not_delivered(self):
        delivered, _ = deliver_messages(
            [(0, 1, "a")], tuned({0: None, 5: 1}), {0: [], 5: []})
        assert delivered == []

    def test_different_channels_do_not_collide(self):
        delivered, _ = deliver_messages(
            [(0, 1, "a"), (2, 2, "b")],
            tuned({0: None, 1: 1, 2: None, 3: 2}),
            {0: [1], 2: [3], 1: [0], 3: [2]})
        assert sorted(delivered) == [(1, "a"), (3, "b")]

    def test_delivery_is_symmetric_under_relabeling(self):
        # outcomes depend on channel/range/tuning/overlap, never on node ids
        txs = [(0, 1, "a"), (1, 1, "b"), (2, 2, "c")]
        listening = {0: None, 1: None, 2: None, 3: 1, 4: 2, 5: 1}
        adjacency = {0: [3, 5], 1: [3], 2: [4], 3: [0, 1], 4: [2], 5: [0]}
        base_d, base_x = deliver_messages(txs, tuned(listening), adjacency)
        relabel = {0: 10, 1: 11, 2: 12, 3: 13, 4: 14, 5: 15}
        txs2 = [(relabel[s], ch, m) for s, ch, m in txs]
        listening2 = {relabel[r]: ch for r, ch in listening.items()}
        adjacency2 = {relabel[a]: [relabel[b] for b in bs]
                      for a, bs in adjacency.items()}
        d2, x2 = deliver_messages(txs2, tuned(listening2), adjacency2)
        assert sorted((relabel[r], m) for r, m in base_d) == sorted(d2)
        assert sorted((relabel[r], m) for r, m in base_x) == sorted(x2)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_receiver_gets_at_most_one_message_per_tick(self, data):
        # a head keeps only the first join request of a frame's public RA;
        # that is the earliest sent only because no tick delivers a node two
        n = data.draw(st.integers(min_value=1, max_value=8))
        ids = st.integers(min_value=0, max_value=n - 1)
        adjacency = {i: sorted(data.draw(st.sets(ids)) - {i}) for i in range(n)}
        channels = st.integers(min_value=0, max_value=2)
        listening = {i: data.draw(st.none() | channels) for i in range(n)}
        txs = data.draw(st.lists(st.tuples(ids, channels, st.integers()),
                                 max_size=6))
        delivered, dropped = deliver_messages(txs, tuned(listening), adjacency)
        receivers = [r for r, _ in delivered]
        assert len(receivers) == len(set(receivers))
        assert not set(receivers) & {r for r, _ in dropped}


class TestMetrics:
    def test_concentrated_counts_stddev(self):
        s = compute_metrics(0, [0, 0, 0, 0], [[], [], [], []], 4, 0)
        assert s.counts == (4, 0, 0, 0)
        assert s.stddev == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_uniform_counts_have_zero_stddev(self):
        s = compute_metrics(0, [0, 1, 2, 3], [[], [], [], []], 4, 0)
        assert s.counts == (1, 1, 1, 1)
        assert s.stddev == 0.0

    def test_chain_cloud_and_cut(self):
        chain = [[1], [0, 2], [1, 3], [2, 4], [3]]
        s = compute_metrics(0, [0, 0, 0, 0, 0], chain, 2, 0)
        assert s.largest_cloud == 5
        s = compute_metrics(0, [0, 0, 1, 0, 0], chain, 2, 0)
        assert s.largest_cloud == 2

    def test_masterless_nodes_are_not_counted(self):
        s = compute_metrics(0, [-1, 2, -1], [[], [], []], 3, 1)
        assert s.counts == (0, 0, 1)
        assert s.largest_cloud == 1

    def test_masterless_node_cuts_the_cloud(self):
        assert largest_same_master_component([[1], [0, 2], [1]], [0, -1, 0]) == 1

    def test_empty_graph_has_no_cloud(self):
        assert largest_same_master_component([], []) == 0


class TestRun:
    def test_empty_world(self):
        cfg = ScenarioConfig(su_count=0, channel_count=4, duration_ticks=100)
        res = run(cfg)
        assert len(res.samples) == 4
        for s in res.samples:
            assert s.counts == (0, 0, 0, 0)
            assert s.stddev == 0.0
            assert s.largest_cloud == 0
            assert s.cluster_count == 0

    def test_single_node_forms_alone(self):
        cfg = ScenarioConfig(su_count=1, channel_count=1, duration_ticks=200,
                             startup_spread_ticks=0)
        res = run(cfg)
        assert res.settle_ticks[0] <= cfg.scan_interval_ticks
        assert res.samples[-1].largest_cloud == 1
        assert res.samples[-1].cluster_count == 1

    def test_bit_identical_replay(self):
        cfg = ScenarioConfig(su_count=25, channel_count=4, pu_count=2,
                             pu_model="markov", duration_ticks=600, seed=13)
        a = run(cfg)
        b = run(cfg)
        assert a.samples == b.samples
        assert [e.line() for e in a.events] == [e.line() for e in b.events]

    def test_different_seeds_differ(self):
        base = ScenarioConfig(su_count=25, channel_count=4, duration_ticks=600)
        a = run(replace(base, seed=1))
        b = run(replace(base, seed=2))
        assert a.samples != b.samples

    def test_count_conservation(self):
        cfg = ScenarioConfig(su_count=18, channel_count=4, duration_ticks=800,
                             startup_spread_ticks=0, seed=6)
        res = run(cfg)
        for s in res.samples:
            assert sum(s.counts) == 18

    def test_cloud_at_least_largest_cluster(self):
        cfg = ScenarioConfig(su_count=20, channel_count=3, duration_ticks=800,
                             seed=8)
        world = World(cfg)
        res = world.run()
        largest_cluster = max((len(r.members) + 1
                               for r in world.clusters.values()), default=0)
        assert res.samples[-1].largest_cloud >= largest_cluster

    def test_samples_on_the_metrics_period(self):
        cfg = ScenarioConfig(su_count=5, duration_ticks=260, metrics_period=50)
        res = run(cfg)
        assert [s.tick for s in res.samples] == [50, 100, 150, 200, 250]

    def test_all_nodes_hold_masters_once_started(self):
        cfg = ScenarioConfig(su_count=15, channel_count=4, duration_ticks=700,
                             startup_spread_ticks=60, seed=21)
        world = World(cfg)
        world.run()
        for n in world.nodes:
            assert n.role is not None
            assert n.master is not None


class TestEventRecords:
    def test_events_are_slotted_and_share_their_field_names(self):
        world = World(ScenarioConfig(su_count=2))
        world.log(3, "form", node=1, channel=2)
        world.log(5, "form", node=0, channel=4)
        world.log(6, "join", node=1, head=0, channel=4, slot=0)
        a, b, c = world.events
        assert not hasattr(a, "__dict__")
        assert a.keys is b.keys and a.keys is not c.keys
        assert [e.line() for e in world.events] == [
            "tick=3 event=form node=1 channel=2",
            "tick=5 event=form node=0 channel=4",
            "tick=6 event=join node=1 head=0 channel=4 slot=0"]
        assert (b.tick, b.kind, b.get("channel")) == (5, "form", 4)
        assert (b.get("slot"), b.get("slot", -1)) == (None, -1)

    def test_a_run_keeps_one_key_tuple_per_field_name_set(self):
        res = run(ScenarioConfig(su_count=25, channel_count=4,
                                 duration_ticks=600, seed=13))
        assert {e.kind for e in res.events} >= {"form", "join", "gateway"}
        assert len({id(e.keys) for e in res.events}) \
            == len({e.keys for e in res.events})


def scan_every_head_pair(world):
    """Reference discovery: try every pair of heads and scan the table of
    every node in both clusters for a 1-hop entry naming the other cluster."""
    def knows(xs, ys):
        return any(nid in ys for x in xs for nid in world.nodes[x].table)

    heads = sorted(world.clusters)
    pairs = []
    for i, ha in enumerate(heads):
        ids_a = {ha} | set(world.clusters[ha].members)
        for hb in heads[i + 1:]:
            ids_b = {hb} | set(world.clusters[hb].members)
            if knows(ids_a, ids_b) or knows(ids_b, ids_a):
                pairs.append((ha, hb))
    return pairs


def gateway_outcome(world, tick):
    n_events = len(world.events)
    n_latencies = len(world.gateway_latencies)
    # through the class: the seeded-run test wraps the instance attribute
    World._gateway_maintenance(world, tick)
    return ([e.line() for e in world.events[n_events:]],
            world.gateway_latencies[n_latencies:])


def assert_matches_brute_force(world, tick):
    """Gateway maintenance on `world` must give the same gateway events and
    latencies as on a copy whose discovery is the brute-force scan over every
    pair of heads."""
    twin = copy.deepcopy(world)
    twin._discovered_pairs = lambda: scan_every_head_pair(twin)
    expected = gateway_outcome(twin, tick)
    assert gateway_outcome(world, tick) == expected
    return expected


class TestGatewayDiscovery:
    def test_hand_built_clusters_match_brute_force(self):
        # all ten nodes within range of each other, so tables alone decide
        cfg = ScenarioConfig(su_count=10, channel_count=1, duration_ticks=100)
        world = World(cfg, su_positions=[(10.0 * i, 0.0) for i in range(10)])

        def head(nid, members):
            world.nodes[nid].become_head(
                0, {m: i for i, m in enumerate(members)}, 0, 0)

        def knows(x, nid):
            world.nodes[x].table[nid] = NeighborEntry(master=0, last_seen=0)

        def knows_two_hop(x, nid):
            world.nodes[x].two_hop[nid] = (0, 0)

        head(0, [1, 2])
        head(3, [4])
        head(5, [6, 2])             # 2 left cluster 0; its head still lists it
        link = (8, 9)
        head(7, [8])
        head(9, [])
        world.links[(7, 9)] = link
        knows(1, 4)                 # clusters 0 and 3
        knows(1, 2)                 # clusters 0 and 5, through the stale member
        knows(2, 8)                 # clusters 0 and 7, and 5 and 7
        knows_two_hop(4, 9)         # 2 hops only: clusters 3 and 9 stay apart
        knows(8, 9)                 # clusters 7 and 9 are already linked

        events, latencies = assert_matches_brute_force(world, 50)
        assert events == [
            "tick=50 event=gateway cluster_a=0 cluster_b=3 nodes=1:4",
            "tick=50 event=gateway cluster_a=0 cluster_b=5 nodes=1:2",
            "tick=50 event=gateway cluster_a=0 cluster_b=7 nodes=2:8",
            "tick=50 event=gateway cluster_a=5 cluster_b=7 nodes=2:8",
        ]
        assert latencies == [(0, 3, 50, 50), (0, 5, 50, 50), (0, 7, 50, 50),
                             (5, 7, 50, 50)]
        assert world.links[(7, 9)] is link

    def test_discovered_pair_without_a_link_raises(self):
        # clusters 0 and 2 are discovered through 1 -> 2, yet no link is found
        cfg = ScenarioConfig(su_count=3, channel_count=1, duration_ticks=100)
        world = World(cfg, su_positions=[(10.0 * i, 0.0) for i in range(3)])
        for head, members in ((0, {1: 0}), (2, {})):
            world.nodes[head].become_head(0, members, 0, 0)
        world.nodes[1].table[2] = NeighborEntry(master=0, last_seen=0)
        assert world._discovered_pairs() == [(0, 2)]
        with mock.patch.object(engine, "select_gateways", return_value=None):
            with pytest.raises(SimulationInvariantError,
                               match="clusters 0 and 2 have no gateway link"):
                world._gateway_maintenance(32)
        assert world.links == {}

    def test_seeded_run_matches_brute_force_every_superframe(self):
        side = 1000.0 * math.sqrt(2)
        cfg = ScenarioConfig(su_count=100, channel_count=4, area_width=side,
                             area_height=side, duration_ticks=700, seed=4)
        world = World(cfg)
        links = []
        world._gateway_maintenance = lambda tick: links.extend(
            assert_matches_brute_force(world, tick)[1])
        world.run()
        assert len(links) > 50


class TestLinkInvariant:
    def world_with_link(self, key, gateways):
        """Clusters 0 {1} and 3 {4}, all nodes in range, and the link `key`
        carried by `gateways`."""
        cfg = ScenarioConfig(su_count=6, channel_count=1, duration_ticks=100)
        world = World(cfg, su_positions=[(10.0 * i, 0.0) for i in range(6)])
        for head, member in ((0, 1), (3, 4)):
            world.nodes[head].become_head(0, {member: 0}, 0, 0)
        world.links[key] = gateways
        return world

    def test_valid_link_passes(self):
        world = self.world_with_link((0, 3), (1, 4))
        world._validate_links(32)

    @pytest.mark.parametrize("key, gateways", [
        ((0, 3), (1, 5)),       # 5 belongs to neither cluster
        ((0, 3), (5,)),         # single gateway not a member
        ((0, 5), (1, 4)),       # names a cluster it does not join
    ])
    def test_dead_link_trips_the_check_until_maintenance_prunes_it(self, key,
                                                                   gateways):
        world = self.world_with_link(key, gateways)
        with pytest.raises(SimulationInvariantError, match="gateway link"):
            world._validate_links(32)
        world._gateway_maintenance(32)
        world._validate_links(32)

    def test_a_commit_leaves_links_and_roles_to_the_next_pass(self):
        # clusters 0 {1, 2}, 3 {4}, 5 {6} and 7 {8}; node 9 is in none
        cfg = ScenarioConfig(su_count=10, channel_count=1, duration_ticks=100)
        world = World(cfg, su_positions=[(10.0 * i, 0.0) for i in range(10)])
        for n in world.nodes:
            n.stages = {0: 1}
        for head, members in ((0, [1, 2]), (3, [4]), (5, [6]), (7, [8])):
            world.nodes[head].become_head(
                0, {m: i for i, m in enumerate(members)}, 0, 0)
            for i, m in enumerate(members):
                world.nodes[m].become_member(head, 0, i, None)
        world.nodes[0].table[4] = NeighborEntry(master=0, last_seen=0)
        world.nodes[5].table[8] = NeighborEntry(master=0, last_seen=0)
        links = {
            (0, 3): (0, 4),     # touches rebuilt head 0, stays valid
            (5, 7): (5, 8),     # touches rebuilt head 5, stays valid
            (3, 7): (4, 9),     # elsewhere, stale: 9 is in no cluster
        }
        world.links.update(links)
        # node 8 enters its member role again while its link stays
        world.nodes[8].become_member(7, 0, 0, None)
        roles = [n.role for n in world.nodes]

        # node 2 moves from cluster 0 to cluster 5; every node keeps its role
        affected = {h: cluster_nodes(world.nodes[h]) for h in (0, 5)}
        neg = Negotiation(0, 0, ((0, (0, 1)), (5, (2, 5, 6))), affected, set())
        world.neg_by_working[0] = neg
        world._apply_commit(neg, 40)
        assert world.events[-1].get("status") == "committed"
        assert world.nodes[5].members.keys() == {2, 6}
        assert world.links == links
        assert [n.role for n in world.nodes] == roles

        logged = len(world.events)
        world._gateway_maintenance(64)
        del links[(3, 7)]
        assert world.links == links
        assert world.events[logged:] == []
        # nor does a pass write a role: the gateway nodes 4 and 8 stay members
        assert [n.role for n in world.nodes] == roles
        world._validate_links(64)


class TestClusterView:
    def world(self):
        """A 3-node world where node 0 heads a cluster of {1}."""
        cfg = ScenarioConfig(su_count=3, channel_count=1, duration_ticks=100)
        world = World(cfg, su_positions=[(10.0 * i, 0.0) for i in range(3)])
        world.nodes[0].become_head(0, {1: 0}, 0, 0)
        world.nodes[1].become_member(0, 0, 0, None)
        return world

    def test_view_is_read_from_the_heads(self):
        world = self.world()
        assert dict(world.clusters) == {0: world.nodes[0]}
        world.nodes[0]._restart_scan(None, 5)
        assert dict(world.clusters) == {}

    def test_writing_into_the_view_raises(self):
        world = self.world()
        with pytest.raises(TypeError):
            world.clusters[2] = world.nodes[2]
        with pytest.raises(TypeError):
            del world.clusters[0]
        assert list(world.clusters) == [0]

    def test_a_record_off_its_head_fails_validation(self):
        world = self.world()
        world._validate(25)
        world.nodes[1].members = world.nodes[0].members     # a member keeps one
        with pytest.raises(SimulationInvariantError, match="node 1 .* member map"):
            world._validate(25)

    def test_a_head_without_its_record_fails_validation(self):
        world = self.world()
        world.nodes[0].members = None
        with pytest.raises(SimulationInvariantError, match="node 0 .* member map"):
            world._validate(25)

    def test_a_table_entry_out_of_range_fails_validation(self):
        # delivery alone writes tables, so an entry names a node in range
        world = World(ScenarioConfig(su_count=3, comm_range=15.0),
                      su_positions=[(10.0 * i, 0.0) for i in range(3)])
        world.nodes[0].table[1] = NeighborEntry(master=0, last_seen=0)
        world._validate(25)
        world.nodes[0].table[2] = NeighborEntry(master=0, last_seen=0)
        with pytest.raises(SimulationInvariantError,
                           match="node 0 lists node 2, out of its range"):
            world._validate(25)


class TestWeightMapOwnership:
    """`swarm.apply_hello` updates a node's weight map in place, so the map
    must be the node's own."""

    def world(self):
        world = World(ScenarioConfig(su_count=3, channel_count=2),
                      su_positions=[(10.0 * i, 0.0) for i in range(3)])
        for node in world.nodes:
            node.apply_observations({0: 3, 1: 2})
            node._restart_scan(None, 0)
        return world

    def test_own_maps_pass(self):
        world = self.world()
        assert len({id(n.weights) for n in world.nodes}) == 3
        world._validate(25)

    def test_a_shared_weight_map_fails_validation(self):
        world = self.world()
        world.nodes[2].weights = world.nodes[0].weights
        with pytest.raises(SimulationInvariantError,
                           match="nodes 0 and 2 share one weight map"):
            world._validate(25)

    def test_a_stage_map_as_weights_fails_validation(self):
        world = self.world()
        world.nodes[1].weights = world.nodes[1].stages
        with pytest.raises(SimulationInvariantError,
                           match="node 1 weights in a stage map"):
            world._validate(25)

@st.composite
def small_scenarios(draw):
    """Small valid scenarios over both PU models, sensing windows of 1-8
    ticks, frame jitter, and the superframe layout extremes (one mini-slot,
    four detection blocks, public RA 2-6 ticks)."""
    frame = dict(
        max_slots=draw(st.integers(1, 8)),
        public_ra_ticks=draw(st.integers(2, 6)),
        detect_periods=draw(st.integers(1, 4)),
    )
    # a cap on the frame plus its jitter; the scan interval exceeds it
    cap = draw(st.sampled_from([32, 40, 48]))
    frame["frame_jitter_max"] = draw(st.integers(0, 4))
    fixed = (ScenarioConfig.beacon_ticks + ScenarioConfig.intra_ra_ticks
             + frame["max_slots"] + frame["public_ra_ticks"]
             + frame["detect_periods"] * ScenarioConfig.detect_ticks)
    room = cap - frame["frame_jitter_max"] - fixed
    frame["data_ticks"] = draw(st.integers(1, min(8, room)))
    frame["scan_interval_ticks"] = cap + draw(st.integers(1, 10))
    side = draw(st.floats(200.0, 1000.0))
    return ScenarioConfig(
        area_width=side, area_height=side,
        su_count=draw(st.integers(0, 40)),
        channel_count=draw(st.integers(1, 8)),
        pu_count=draw(st.integers(0, 6)),
        pu_model=draw(st.sampled_from(["periodic", "markov"])),
        pu_period_ticks=draw(st.integers(1, 150)),
        pu_duty=draw(st.floats(0.0, 1.0)),
        pu_hop=draw(st.booleans()),
        pu_p_on=draw(st.floats(0.0, 1.0)),
        pu_p_off=draw(st.floats(0.0, 1.0)),
        sensing_window_ticks=draw(st.integers(1, 8)),
        neighbor_ttl_superframes=draw(st.integers(1, 4)),
        swarm_enabled=draw(st.booleans()),
        reform_enabled=draw(st.booleans()),
        reform_cadence=draw(st.integers(1, 5)),
        startup_spread_ticks=draw(st.integers(0, 100)),
        metrics_period=draw(st.integers(1, 50)),
        duration_ticks=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**32)),
        **frame,
    )


def run_recording_heads(cfg):
    """Run with per-sample validation; also count HEAD nodes at each sample."""
    world = World(cfg, validate=True)
    heads = []
    take_sample = world._sample

    def sample_and_count(tick):
        take_sample(tick)
        heads.append(sum(n.role is Role.HEAD for n in world.nodes))

    world._sample = sample_and_count
    return world.run(), heads


@st.composite
def long_scenarios(draw):
    """Up to 80 SUs over 200-1500 ticks at about the default density, long
    and crowded enough for reformation commits and gateway links."""
    cfg = draw(small_scenarios())
    n = draw(st.integers(20, 80))
    side = 1000.0 * math.sqrt(n / 50) * draw(st.floats(0.7, 1.3))
    return replace(cfg, su_count=n, area_width=side, area_height=side,
                   duration_ticks=draw(st.integers(200, 1500)),
                   reform_enabled=True)


def run_capturing_ether(cfg, always_awake):
    """Outputs of one validated run, plus what the ether saw on every tick
    with a transmission: (transmissions, node id -> channel listened on, None
    for the senders). `always_awake` clears each node's wake tick before its
    step, so every step runs in full."""
    ether = []
    deliver = engine.deliver_messages
    step = Node.step

    def deliver_and_record(txs, nodes, adjacency):
        senders = {sender for sender, _, _ in txs}
        ether.append((list(txs), {n.id: (None if n.id in senders else n.listen)
                                  for n in nodes}))
        return deliver(txs, nodes, adjacency)

    def step_awake(node, tick, ctx):
        node.wake = 0
        step(node, tick, ctx)

    with mock.patch.object(engine, "deliver_messages", deliver_and_record), \
            mock.patch.object(Node, "step", step_awake if always_awake else step):
        result = World(cfg, validate=True).run()
    return ether, output_files(result)


class TestWakeGuard:
    """A node that skips the steps before its wake tick must act exactly like
    one stepped in full on every tick."""

    def assert_same_as_always_awake(self, cfg):
        ether, files = run_capturing_ether(cfg, always_awake=False)
        ether_awake, files_awake = run_capturing_ether(cfg, always_awake=True)
        assert files["metrics.csv"] == files_awake["metrics.csv"]
        assert files["events.log"] == files_awake["events.log"]
        assert ether == ether_awake

    @given(small_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_small_scenarios(self, cfg):
        self.assert_same_as_always_awake(cfg)

    @given(long_scenarios())
    @settings(max_examples=12, deadline=None)
    def test_long_scenarios(self, cfg):
        self.assert_same_as_always_awake(cfg)


class TestStandingChoice:
    """Every node that chooses a channel has what the choice reads: a stage
    map, and weights when the swarm is on. Only a dormant node lacks them,
    and it never chooses."""

    @given(small_scenarios())
    # nodes lose every channel there, in every role
    @example(BASES["blackout"]())
    @example(replace(BASES["blackout"](), swarm_enabled=False))
    @settings(max_examples=50, deadline=None)
    def test_a_node_that_chooses_has_a_stage_map(self, cfg):
        select = Node._select_current

        def select_checked(node):
            assert node.stages
            assert node.weights or not node.p.swarm_enabled
            return select(node)

        with mock.patch.object(Node, "_select_current", select_checked):
            World(cfg, validate=True).run()


class TestWireFacts:
    """What a receiver takes from its config and the tick it hears a message
    instead of from the wire. A beacon heard at tick t comes from a head
    whose frame starts at t, on the master that the beacon's HELLO names and
    with the schedule the beacon carries. A join request reaches a head
    without a schedule only before its first frame starts. A HELLO frame
    names a cluster head exactly when it names a public RA."""

    @staticmethod
    def run_checked(cfg) -> int:
        """Run `cfg` with every delivered message checked; returns the
        number of beacons heard."""
        on_message = Node.on_message
        beacons = [0]

        def on_message_checked(node, msg, tick, ctx):
            if isinstance(msg, Beacon):
                beacons[0] += 1
                head = ctx.nodes[msg.hello.sender]
                assert head.role is Role.HEAD
                assert head.frame_start == tick
                assert head.master == msg.hello.master
                assert head.sched is msg.schedule
            elif isinstance(msg, JoinRequest):
                if (msg.head == node.id and node.role is Role.HEAD
                        and node.sched is None):
                    assert tick < node.frame_start
            elif isinstance(msg, HelloFrame):
                assert (msg.cluster_head is None) == (msg.pra_start is None)
            on_message(node, msg, tick, ctx)

        with mock.patch.object(Node, "on_message", on_message_checked):
            World(cfg, validate=True).run()
        return beacons[0]

    @given(small_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_small_scenarios(self, cfg):
        self.run_checked(cfg)

    # the scale bases take longest and add no case the others lack
    @pytest.mark.parametrize("name", sorted(set(BASES) - SCALE_BASES))
    def test_golden_bases(self, name):
        assert self.run_checked(BASES[name]()) > 0


class TestHelloMemo:
    """A node hands out its last HELLO again only while a fresh one would be
    equal to it."""

    @given(small_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_every_sent_hello_is_as_fresh(self, cfg):
        transmit = World.transmit

        def transmit_checked(world, node, channel, msg):
            if isinstance(msg, (HelloFrame, Beacon)):
                assert msg.hello == emit_hello(node.id, node.master,
                                               node.table, node.stages)
            transmit(world, node, channel, msg)

        with mock.patch.object(World, "transmit", transmit_checked):
            World(cfg, validate=True).run()


class TestGatewayLabel:
    """The `role=` field of a `master-change` event names the role the node
    left, except that a member carrying a link that `_link_valid` accepts
    left as `gateway`. The label reads the links themselves, so a link gone
    stale since the last maintenance pass does not count, and a member that
    re-entered its role since then does."""

    def world(self, *entries):
        """Clusters 0 {1, 2} and 3 {4}, all nodes in range on channel 0 of
        two, each (x, y) of `entries` a 1-hop entry of x's table, after one
        maintenance pass. The pass leaves every role as it was."""
        cfg = ScenarioConfig(su_count=6, channel_count=2, duration_ticks=100)
        world = World(cfg, su_positions=[(10.0 * i, 0.0) for i in range(6)])
        for n in world.nodes:
            n.stages = {0: 1, 1: 1}
        for head, members in ((0, [1, 2]), (3, [4])):
            world.nodes[head].become_head(
                0, {m: i for i, m in enumerate(members)}, 0, 0)
            for i, m in enumerate(members):
                world.nodes[m].become_member(head, 0, i, None)
        for x, y in entries:
            world.nodes[x].table[y] = NeighborEntry(master=0, last_seen=0)
        roles = [n.role for n in world.nodes]
        world._gateway_maintenance(32)
        assert [n.role for n in world.nodes] == roles
        return world

    @staticmethod
    def label(world, nid, tick=40):
        """The `role=` label as node `nid` leaves its role for channel 1."""
        logged = len(world.events)
        world.nodes[nid]._leave_for(1, tick, world)
        (event,) = [e for e in world.events[logged:] if e.kind == "master-change"]
        return event.get("role")

    def test_a_member_carrying_a_valid_link_is_a_gateway(self):
        world = self.world((1, 0), (1, 3))      # 1 alone links 0 and 3
        assert world.links == {(0, 3): (1,)}
        assert self.label(world, 1) == "gateway"

    def test_a_link_gone_stale_before_the_pass_does_not_count(self):
        world = self.world((1, 0), (1, 3))
        assert self.label(world, 3) == "head"   # the far cluster dissolves
        assert world.links == {(0, 3): (1,)}    # until the next pass
        assert self.label(world, 1) == "ordinary"

    def test_a_member_that_reentered_its_role_after_the_pass_is_a_gateway(self):
        world = self.world((1, 0), (1, 3))
        world.nodes[1].become_member(0, 0, 0, None)
        assert self.label(world, 1) == "gateway"

    def test_a_head_carrying_a_pair_link_is_a_head(self):
        world = self.world((0, 4))              # no single gateway: 0 and 4
        assert world.links == {(0, 3): (0, 4)}
        assert self.label(world, 4) == "gateway"
        assert self.label(world, 0) == "head"

    @staticmethod
    def label_by_scan(world, node):
        """The label as a scan of every link in `World.links` reads it."""
        if node.role is Role.ORDINARY and any(
                node.id in gateways and world._link_valid(key, gateways)
                for key, gateways in world.links.items()):
            return "gateway"
        return node.role.value

    def run_checked(self, cfg) -> list:
        """Run `cfg`, checking each `master-change` label against the scan;
        returns the labels."""
        leave = World.leave
        labels = []

        def leave_checked(world, node, new_master, tick):
            want = self.label_by_scan(world, node)
            logged = len(world.events)
            leave(world, node, new_master, tick)
            for event in world.events[logged:]:
                if event.kind == "master-change":
                    assert event.get("role") == want
                    labels.append(want)

        with mock.patch.object(World, "leave", leave_checked):
            World(cfg, validate=True).run()
        return labels

    @given(small_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_small_scenarios(self, cfg):
        self.run_checked(cfg)

    # nodes leave their roles often in both, gateways among them
    @pytest.mark.parametrize("name", ["blackout", "dynamic_pus"])
    def test_golden_bases(self, name):
        assert "gateway" in self.run_checked(BASES[name]())


class TestScenarioFuzz:
    @given(small_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_random_valid_scenarios_keep_invariants(self, cfg):
        result, heads = run_recording_heads(cfg)
        assert len(result.samples) == cfg.duration_ticks // cfg.metrics_period
        for sample, n_heads in zip(result.samples, heads):
            assert sum(sample.counts) <= cfg.su_count
            assert sample.cluster_count == n_heads
        replay, _ = run_recording_heads(cfg)
        assert output_files(replay) == output_files(result)


# Edge values as a scenario file spells them: in range, huge (ints of 2**64
# or more), and out of range or malformed. A huge su_count, pu_count or
# channel_count would loop and allocate without end, so those keys and
# duration_ticks are small unless set to one of their own edge values.
HUGE_INTS = st.integers(2**64, 2**80) | st.sampled_from([10**400, -2**64])
WORDS = ["true", "off", "yes", "0", "1"]
EDGES = {
    "float": st.sampled_from(["5e-324", "1e-300", "0.5", "1", "250", "1e300",
                              "1.7976931348623157e308", str(2**64)])
             | st.floats()
             | st.sampled_from(["0", "-0.0", "-1", "1e400", "nan", "inf", "-inf"]
                               + WORDS),
    "int": st.sampled_from(["1", "2", "3", "0x10"])
           | HUGE_INTS.map(str)
           | st.sampled_from(["0", "-1", "1.5", "nan", "inf"] + WORDS),
    "bool": st.sampled_from(WORDS + ["no", "on", "false", "maybe", "2"]),
    "str": st.sampled_from(["periodic", "markov", " Markov ", "", "nan"]),
}
SIZE_CAPS = {"su_count": 40, "pu_count": 8, "channel_count": 16, "duration_ticks": 200}
for key in SIZE_CAPS:
    EDGES[key] = st.sampled_from(["0", "-1", str(-2**64), "nan", "1.5", "yes"])
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


@st.composite
def edge_mappings(draw):
    """Small valid size keys, then up to six keys set to an edge value."""
    mapping = {key: str(draw(st.integers(1, cap))) for key, cap in SIZE_CAPS.items()}
    for key in draw(st.lists(st.sampled_from(sorted(FIELD_TYPES)), unique=True,
                             max_size=6)):
        mapping[key] = draw(EDGES.get(key, EDGES[FIELD_TYPES[key]]))
    return mapping


class TestConfigFuzz:
    """An accepted config runs: each mapping is either rejected with a
    `ConfigError` naming one of the config's keys or runs to the end, and a
    config that runs reads back from its own config.txt unchanged."""

    @given(edge_mappings())
    # accepted once, and then the run overflowed
    @example({"pu_count": "1", "duration_ticks": "200", "pu_period_ticks": str(10**400)})
    @example({"pu_count": "1", "duration_ticks": "200", "sensing_window_ticks": str(2**64)})
    # the longest accepted window, with Markov PUs
    @example({"pu_count": "4", "duration_ticks": "200", "pu_model": "markov",
              "sensing_window_ticks": str(sys.maxsize)})
    # accepted once with a bound on the superframe of 2**66, and too large to
    # lay out while the layout listed every detection tick
    @example({"duration_ticks": "200", "detect_ticks": str(2**64),
              "scan_interval_ticks": str(2**67)})
    @settings(max_examples=200, deadline=None)
    def test_edge_values_are_rejected_or_run(self, mapping):
        try:
            cfg = config_from_mapping(mapping)
        except ConfigError as exc:
            assert exc.key in FIELD_TYPES
            return
        World(cfg, validate=True).run()
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "config.txt"
            path.write_text(_config_text(cfg))
            assert parse_scenario(str(path)) == cfg
