"""Weight lists, the reward map, HELLO reinforcement, and master selection.

`apply_hello` and `refresh_from_sensing` each work in one pass; the
oracles below are the compositions they replaced, kept here so that every
result can be required to match them bit for bit."""

from dataclasses import FrozenInstanceError, replace

import math
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from cogmesh.engine import ScenarioConfig
from cogmesh.protocol import Beacon
from cogmesh.swarm import (
    HelloMessage,
    NoAvailableChannels,
    RewardParams,
    apply_hello,
    initial_weights,
    refresh_from_sensing,
    reward,
    select_master,
)

DEFAULTS = RewardParams()


def stage_map(stages):
    """A stage map as `radio.sense` returns it: ascending channel order."""
    return dict(sorted(stages.items()))


def hello(master, stages, sender=99):
    return HelloMessage(sender=sender, master=master, stages=stage_map(stages))


# --- oracles: the multi-step forms of the swarm kernels ----------------------

def hello_reinforce(weights, master, r):
    """One pheromone update: boost `master` by r*(1-W), decay the rest by (1-r)."""
    decay = 1.0 - r
    out = {}
    for ch, w in weights.items():
        if ch == master:
            out[ch] = w + r * (1.0 - w)
        else:
            out[ch] = w * decay
    return out


def blend_refresh(weights, target, alpha):
    """Convex blend (1-alpha)*W + alpha*target, channel by channel."""
    keep = 1.0 - alpha
    out = {}
    for ch, w in weights.items():
        out[ch] = keep * w + alpha * target[ch]
    return out


def composed_apply_hello(weights, msg, local_stages, params):
    """`select_master` + `reward` + `hello_reinforce`, as apply_hello was."""
    target = msg.master
    if target not in weights:
        return weights
    local_stage = local_stages[select_master(weights)]
    reported = None
    for ch, stage in msg.stages.items():
        if ch == target:
            reported = stage
            break
    if reported is None:
        return weights
    r = reward(float(reported - local_stage), params)
    return hello_reinforce(weights, target, r)


def composed_refresh(weights, stages, alpha):
    """`initial_weights` + renormalization + `blend_refresh`, as
    refresh_from_sensing was."""
    target = initial_weights(stages)
    kept = {ch: weights.get(ch, 0.0) for ch in target}
    mass = sum(kept.values())
    if mass <= 0.0:
        return target
    kept = {ch: w / mass for ch, w in kept.items()}
    return blend_refresh(kept, target, alpha)


def same_bits(a, b):
    """Equal keys in equal order with bit-identical weights."""
    return ([(ch, w.hex()) for ch, w in a.items()]
            == [(ch, w.hex()) for ch, w in b.items()])


channel_ids = st.integers(min_value=0, max_value=9)
stage_values = st.integers(min_value=0, max_value=7)
weight_values = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                          st.sampled_from([0.0, 0.5, 1.0, 5e-324]))
weight_lists = st.dictionaries(channel_ids, weight_values, max_size=8)
stage_maps = st.dictionaries(channel_ids, stage_values, max_size=10).map(stage_map)


@st.composite
def weighted_stage_maps(draw):
    """A stage map and weights over some of its channels, in any order: a
    node's weight channels are always a subset of its stage-map channels."""
    stages = draw(stage_maps)
    if not stages:
        return {}, stages
    weights = draw(st.dictionaries(st.sampled_from(sorted(stages)),
                                   weight_values, max_size=8))
    return weights, stages

hellos = st.builds(hello, channel_ids,
                   st.dictionaries(channel_ids, stage_values, max_size=8),
                   st.integers(min_value=0, max_value=50))
reward_params = st.one_of(
    st.just(DEFAULTS),
    st.builds(RewardParams, st.floats(min_value=1e-3, max_value=1e3)),
    st.just(RewardParams(a=1e308)))


class TestReward:
    def test_equal_quality_gives_half(self):
        assert reward(0.0, DEFAULTS) == pytest.approx(0.5, abs=1e-15)

    def test_unit_gap_gives_three_quarters(self):
        # arctan(1) = pi/4, so ((pi/4) + (pi/2)) / pi = 3/4
        assert reward(1.0, DEFAULTS) == pytest.approx(0.75, abs=1e-15)

    def test_limits(self):
        assert reward(1e15, DEFAULTS) > 1.0 - 1e-9
        assert reward(-1e15, DEFAULTS) < 1e-9
        assert 0.0 <= reward(-1e300, DEFAULTS) <= 1.0
        assert 0.0 <= reward(1e300, DEFAULTS) <= 1.0

    def test_clamps_within_validation_tolerance(self):
        # RewardParams accepts curves that overshoot [0, 1] by rounding slack;
        # unclamped, the second value would read 1.0000000000000318
        assert reward(-1e308, RewardParams(b=math.pi / 2 - 1e-13)) == 0.0
        assert reward(1e308, RewardParams(b=math.pi / 2 + 1e-13)) == 1.0

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=-50, max_value=50))
    def test_monotone(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert reward(lo, DEFAULTS) <= reward(hi, DEFAULTS)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RewardParams(a=0.0)
        with pytest.raises(ValueError):
            RewardParams(c=-1.0)
        # curve must stay in [0, 1] at the limits: b=0 dips below zero
        with pytest.raises(ValueError):
            RewardParams(b=0.0)
        with pytest.raises(ValueError):
            RewardParams(b=10.0, c=math.pi)
        RewardParams(a=2.0, b=math.pi / 2, c=math.pi)  # boundary case is fine


class TestApplyHello:
    # with a = 1e308 the curve is a step: r is exactly 0 below equal quality
    # and exactly 1 above it
    STEP = RewardParams(a=1e308)

    def test_zero_reward_is_identity(self):
        # local choice ch1 at stage 3; the sender reports stage 2 -> r = 0
        w = {0: 0.3, 1: 0.7}
        local = {0: 3, 1: 3}
        assert apply_hello(w, hello(0, {0: 2}), local, self.STEP) == w

    def test_hand_evaluated_update(self):
        # equal stages make delta_q = 0, so r = 0.5 with defaults
        w = {0: 0.25, 1: 0.75}
        local = {0: 2, 1: 2}
        out = apply_hello(w, hello(0, {0: 2, 1: 2}), local, DEFAULTS)
        assert out[0] == pytest.approx(0.625)
        assert out[1] == pytest.approx(0.375)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)

    def test_full_capture_at_unit_reward(self):
        # the tie picks ch0 (stage 1) as the local choice; the sender
        # reports stage 2 for it -> r = 1
        local = {0: 1, 1: 3}
        out = apply_hello({0: 0.5, 1: 0.5}, hello(0, {0: 2}), local, self.STEP)
        assert out == {0: 1.0, 1: 0.0}

    def test_unavailable_master_changes_nothing(self):
        w = {0: 0.4, 1: 0.6}
        local = {0: 1, 1: 1}
        out = apply_hello(w, hello(5, {5: 3}), local, DEFAULTS)
        assert out == w

    def test_delta_q_uses_senders_reported_stage_vs_local_choice(self):
        # local choice is ch1 (highest weight) with stage 3; sender reports
        # stage 1 for its master ch0 -> delta_q = -2
        w = {0: 0.2, 1: 0.8}
        local = {0: 3, 1: 3}
        out = apply_hello(w, hello(0, {0: 1, 1: 1}), local, DEFAULTS)
        r = reward(-2.0, DEFAULTS)
        assert out[0] == pytest.approx(0.2 + r * 0.8)
        assert out[1] == pytest.approx(0.8 * (1 - r))

    def test_conservation_and_range_over_random_sequences(self):
        rng = Random(5)
        w = {c: 0.25 for c in range(4)}
        local = {c: rng.randrange(4) for c in range(4)}
        for _ in range(5000):
            msg = hello(rng.randrange(4), {c: rng.randrange(4) for c in range(4)})
            w2 = apply_hello(w, msg, local, DEFAULTS)
            assert abs(sum(w2.values()) - 1.0) < 1e-9
            assert all(0.0 <= v <= 1.0 for v in w2.values())
            w = w2

    @given(weighted_stage_maps(), hellos, reward_params)
    # the tie picks ch0, sensed at stage 3; the sender reports 2 for ch1
    @example(({0: 0.5, 1: 0.5}, {0: 3, 1: 0}), hello(1, {1: 2}), DEFAULTS)
    # a tie listed highest channel first: the local choice is still ch1
    @example(({3: 0.5, 1: 0.5}, {1: 0, 3: 3}), hello(3, {3: 2}), DEFAULTS)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_the_composition(self, sensed, msg, params):
        weights, local = sensed
        # the kernel updates its map in place, so it gets a copy and the
        # oracle, which builds a new map, gets the original
        mine = dict(weights)
        # reuses `params`, so later draws also read its reward memo
        got = apply_hello(mine, msg, local, params)
        want = composed_apply_hello(weights, msg, local, params)
        assert same_bits(got, want)
        # the map passed in is the map handed back
        assert got is mine

    @given(weighted_stage_maps().filter(lambda sensed: sensed[0]),
           st.lists(hellos, max_size=30), reward_params)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_over_sequences(self, sensed, msgs, params):
        weights, local = sensed
        mine = dict(weights)
        want = weights
        for msg in msgs:
            assert apply_hello(mine, msg, local, params) is mine
            want = composed_apply_hello(want, msg, local, params)
            assert same_bits(mine, want)

    def test_reward_memo_holds_the_reward_of_each_stage_gap(self):
        params = RewardParams(a=0.7)
        w = {0: 0.2, 1: 0.8}
        for reported in range(4):
            # a copy each time: the kernel updates the map it is given, and
            # every call must see the local choice ch1 at stage 2
            apply_hello(dict(w), hello(0, {0: reported}), {0: 0, 1: 2}, params)
        assert params.rewards == {d: reward(float(d), params) for d in (-2, -1, 0, 1)}
        # the memo is no part of the constants' identity
        assert params == RewardParams(a=0.7) and hash(params) == hash(RewardParams(a=0.7))

    def test_single_channel_absorbs(self):
        w = {3: 1.0}
        local = {3: 2}
        out = apply_hello(w, hello(3, {3: 3}), local, DEFAULTS)
        assert out == {3: 1.0}
        out = refresh_from_sensing(out, {3: 1}, 0.3)
        assert out == {3: 1.0}


class TestRefreshFromSensing:
    def test_zero_alpha_same_availability_is_identity(self):
        w = {0: 0.6, 1: 0.4}
        out = refresh_from_sensing(w, {0: 3, 1: 1}, 0.0)
        assert out == w

    def test_full_blend_matches_normalized_stages(self):
        out = refresh_from_sensing({0: 0.5, 1: 0.5}, {0: 3, 1: 1}, 1.0)
        assert out == {0: 0.75, 1: 0.25}

    def test_lost_channel_renormalizes(self):
        # ch1 is missing from the stage map: it became unavailable
        out = refresh_from_sensing({0: 0.6, 1: 0.4}, {0: 2}, 0.0)
        assert out == {0: 1.0}

    def test_new_channel_enters_via_blend(self):
        out = refresh_from_sensing({0: 1.0}, {0: 2, 1: 2}, 0.5)
        assert out[1] == pytest.approx(0.25)
        assert sum(out.values()) == pytest.approx(1.0)

    def test_all_unavailable_raises(self):
        with pytest.raises(NoAvailableChannels):
            refresh_from_sensing({0: 1.0}, {}, 0.1)

    def test_all_zero_stages_blend_toward_uniform(self):
        out = refresh_from_sensing({0: 1.0, 1: 0.0}, {0: 0, 1: 0}, 1.0)
        assert out == {0: 0.5, 1: 0.5}

    def test_initial_weights(self):
        assert initial_weights({0: 3, 1: 1}) == {0: 0.75, 1: 0.25}
        assert initial_weights({0: 0, 2: 0}) == {0: 0.5, 2: 0.5}
        with pytest.raises(NoAvailableChannels):
            initial_weights({})

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_result_always_sums_to_one(self, stages, alpha):
        sensed = dict(enumerate(stages))
        w = initial_weights(sensed)
        out = refresh_from_sensing(w, sensed, alpha)
        assert abs(sum(out.values()) - 1.0) < 1e-9

    # the weights may name channels the new map lacks: they are dropped
    @given(weight_lists, stage_maps.filter(bool),
           st.one_of(st.floats(min_value=0.0, max_value=1.0),
                     st.sampled_from([0.0, 0.1, 1.0])))
    @example({0: 0.0, 1: 0.0}, {0: 2, 1: 1}, 0.3)
    @example({0: 1.0}, {0: 0, 1: 0}, 0.5)
    # all-zero stages over 5 channels: alpha * (1/5) and alpha / 5 round apart
    @example({0: 1.0}, {c: 0 for c in range(5)}, 0.1)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_the_composition(self, weights, stages, alpha):
        got = refresh_from_sensing(weights, stages, alpha)
        assert same_bits(got, composed_refresh(weights, stages, alpha))
        # what keeps `apply_hello`'s lookup safe
        assert got.keys() == stages.keys()

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.booleans()), min_size=1, max_size=8)
           .filter(lambda chans: any(avail for _, avail in chans)),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_refresh_of_no_weights_is_initial_weights(self, chans, alpha):
        # a node without weights enters the swarm through the same call
        sensed = {c: s for c, (s, a) in enumerate(chans) if a}
        assert refresh_from_sensing({}, sensed, alpha) == initial_weights(sensed)


class TestSelectMaster:
    def test_strict_argmax(self):
        assert select_master({1: 0.7, 2: 0.3}) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert select_master({3: 0.5, 0: 0.5}) == 0

    def test_empty_raises(self):
        with pytest.raises(NoAvailableChannels):
            select_master({})

    def test_scale_free(self):
        rng = Random(11)
        for _ in range(50):
            w = {c: rng.random() for c in range(6)}
            total = sum(w.values())
            w = {c: v / total for c, v in w.items()}
            pick = select_master(w)
            # order-preserving transform must not change the selection
            squashed = {c: v ** 3 for c, v in w.items()}
            assert select_master(squashed) == pick

    def test_switch_tick_matches_scalar_recurrence_oracle(self):
        # repeated HELLOs for ch2 eventually flip the argmax from ch0; the
        # oracle tracks the two scalars through the same reinforcement
        # recurrence and predicts the flip index
        local = {0: 3, 2: 1}
        stages = {0: 1, 2: 1}

        w0, w2 = 0.9, 0.1
        oracle_switch = None
        for k in range(1, 200):
            ref_stage = 3 if w0 >= w2 else 1
            r = reward(stages[2] - ref_stage, DEFAULTS)
            w2 = w2 + r * (1 - w2)
            w0 = w0 * (1 - r)
            if w2 > w0:
                oracle_switch = k
                break
        assert oracle_switch is not None

        w = {0: 0.9, 2: 0.1}
        switch = None
        for k in range(1, 200):
            w = apply_hello(w, hello(2, stages), local, DEFAULTS)
            if select_master(w) == 2:
                switch = k
                break
        assert switch == oracle_switch


class TestRecords:
    def test_hello_derives_its_stages(self):
        msg = HelloMessage(sender=4, master=2, stages={0: 1, 2: 3, 5: 0})
        assert msg.stages == {0: 1, 2: 3, 5: 0}
        assert msg == HelloMessage(4, 2, {0: 1, 2: 3, 5: 0})
        assert hash(msg) == hash(HelloMessage(4, 2, {0: 1, 2: 3, 5: 0}))

    def test_one_map_builds_one_hello(self):
        stages = {0: 1, 2: 3, 5: 0}
        mapped = HelloMessage(4, 2, neighbor_list=((7, 2),), stages=stages)
        assert mapped == HelloMessage(4, 2, dict(stages), ((7, 2),))
        assert mapped.stages is stages
        # the map is compared but not hashed: a dict is not hashable
        assert mapped != HelloMessage(4, 2, {0: 1}, ((7, 2),))
        assert hash(mapped) == hash(
            HelloMessage(4, 2, neighbor_list=((7, 2),), stages={0: 2}))
        moved = replace(mapped, master=5)
        assert (moved.master, moved.stages) == (5, stages)
        beacon = Beacon(25, ScenarioConfig().layouts[(1,)], {}, (), mapped)
        assert replace(beacon, gap=30).hello is mapped

    def test_a_hello_needs_its_map_and_has_no_pairs(self):
        with pytest.raises(TypeError):
            HelloMessage(4, 2)
        with pytest.raises(AttributeError):
            HelloMessage(4, 2, {0: 1}).channels

    @pytest.mark.parametrize("record, name", [
        (HelloMessage(1, 0, {0: 2}), "master"),
        (HelloMessage(1, 0, {0: 2}), "stages"),
    ])
    def test_frozen(self, record, name):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 7)
        assert not hasattr(record, "__dict__")
