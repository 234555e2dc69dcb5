"""Weight lists, the reward map, HELLO reinforcement, and master selection."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cogmesh.radio import ChannelObservation
from cogmesh.swarm import (
    HelloMessage,
    NoAvailableChannels,
    RewardParams,
    apply_hello,
    hello_reinforce,
    initial_weights,
    refresh_from_sensing,
    reward,
    select_master,
)

DEFAULTS = RewardParams()


def obs(channel, stage, available=True):
    return ChannelObservation(channel=channel, available=available,
                              q_raw=stage / 4, q_stage=stage)


def hello(master, stages, sender=99):
    return HelloMessage(sender=sender, master=master,
                        channels=tuple(sorted(stages.items())))


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
    def test_zero_reward_is_identity(self):
        w = {0: 0.3, 1: 0.7}
        assert hello_reinforce(w, 0, 0.0) == w

    def test_hand_evaluated_update(self):
        # equal stages make delta_q = 0, so r = 0.5 with defaults
        w = {0: 0.25, 1: 0.75}
        local = [obs(0, 2), obs(1, 2)]
        out = apply_hello(w, hello(0, {0: 2, 1: 2}), local, DEFAULTS)
        assert out[0] == pytest.approx(0.625)
        assert out[1] == pytest.approx(0.375)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)

    def test_full_capture_at_unit_reward(self):
        out = hello_reinforce({0: 0.5, 1: 0.5}, 0, 1.0)
        assert out == {0: 1.0, 1: 0.0}

    def test_unavailable_master_changes_nothing(self):
        w = {0: 0.4, 1: 0.6}
        local = [obs(0, 1), obs(1, 1)]
        out = apply_hello(w, hello(5, {5: 3}), local, DEFAULTS)
        assert out == w

    def test_delta_q_uses_senders_reported_stage_vs_local_choice(self):
        # local choice is ch1 (highest weight) with stage 3; sender reports
        # stage 1 for its master ch0 -> delta_q = -2
        w = {0: 0.2, 1: 0.8}
        local = [obs(0, 3), obs(1, 3)]
        out = apply_hello(w, hello(0, {0: 1, 1: 1}), local, DEFAULTS)
        r = reward(-2.0, DEFAULTS)
        assert out[0] == pytest.approx(0.2 + r * 0.8)
        assert out[1] == pytest.approx(0.8 * (1 - r))

    def test_conservation_and_range_over_random_sequences(self):
        rng = Random(5)
        w = {c: 0.25 for c in range(4)}
        local = [obs(c, rng.randrange(4)) for c in range(4)]
        for _ in range(5000):
            msg = hello(rng.randrange(4), {c: rng.randrange(4) for c in range(4)})
            w2 = apply_hello(w, msg, local, DEFAULTS)
            assert abs(sum(w2.values()) - 1.0) < 1e-9
            assert all(0.0 <= v <= 1.0 for v in w2.values())
            w = w2

    def test_single_channel_absorbs(self):
        w = {3: 1.0}
        local = [obs(3, 2)]
        out = apply_hello(w, hello(3, {3: 3}), local, DEFAULTS)
        assert out == {3: 1.0}
        out = refresh_from_sensing(out, [obs(3, 1)], 0.3)
        assert out == {3: 1.0}


class TestRefreshFromSensing:
    def test_zero_alpha_same_availability_is_identity(self):
        w = {0: 0.6, 1: 0.4}
        out = refresh_from_sensing(w, [obs(0, 3), obs(1, 1)], 0.0)
        assert out == w

    def test_full_blend_matches_normalized_stages(self):
        out = refresh_from_sensing({0: 0.5, 1: 0.5},
                                   [obs(0, 3), obs(1, 1)], 1.0)
        assert out == {0: 0.75, 1: 0.25}

    def test_lost_channel_renormalizes(self):
        out = refresh_from_sensing({0: 0.6, 1: 0.4},
                                   [obs(0, 2), obs(1, 2, available=False)], 0.0)
        assert out == {0: 1.0}

    def test_new_channel_enters_via_blend(self):
        out = refresh_from_sensing({0: 1.0}, [obs(0, 2), obs(1, 2)], 0.5)
        assert out[1] == pytest.approx(0.25)
        assert sum(out.values()) == pytest.approx(1.0)

    def test_all_unavailable_raises(self):
        with pytest.raises(NoAvailableChannels):
            refresh_from_sensing({0: 1.0}, [obs(0, 0, available=False)], 0.1)

    def test_all_zero_stages_blend_toward_uniform(self):
        out = refresh_from_sensing({0: 1.0, 1: 0.0},
                                   [obs(0, 0), obs(1, 0)], 1.0)
        assert out == {0: 0.5, 1: 0.5}

    def test_initial_weights(self):
        assert initial_weights([obs(0, 3), obs(1, 1)]) == {0: 0.75, 1: 0.25}
        assert initial_weights([obs(0, 0), obs(2, 0)]) == {0: 0.5, 2: 0.5}
        with pytest.raises(NoAvailableChannels):
            initial_weights([obs(0, 1, available=False)])

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_result_always_sums_to_one(self, stages, alpha):
        observations = [obs(c, s) for c, s in enumerate(stages)]
        w = initial_weights(observations)
        out = refresh_from_sensing(w, observations, alpha)
        assert abs(sum(out.values()) - 1.0) < 1e-9

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.booleans()), min_size=1, max_size=8)
           .filter(lambda chans: any(avail for _, avail in chans)),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_refresh_of_no_weights_is_initial_weights(self, chans, alpha):
        # a node without weights enters the swarm through the same call
        observations = [obs(c, s, available=a) for c, (s, a) in enumerate(chans)]
        assert (refresh_from_sensing({}, observations, alpha)
                == initial_weights(observations))


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
        local = [obs(0, 3), obs(2, 1)]
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
