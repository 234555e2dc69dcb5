"""Radio environment: PU activity models, sensing, and quantization."""

import math
import sys
from random import Random
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from cogmesh import radio
from cogmesh.radio import (
    MarkovActivity,
    PeriodicActivity,
    PrimaryUser,
    make_environment,
    quantize,
    sense,
    step_environment,
)


def make_pu(channel=0, model=None, pos=(0.0, 0.0), radius=150.0, power=1.0,
            active=False):
    return PrimaryUser(id=0, pos=pos, channel=channel,
                       model=model or PeriodicActivity(10),
                       protection_radius=radius, interference_power=power,
                       active=active)


def advance(env, ticks, seed=0):
    rng = Random(seed)
    for _ in range(ticks):
        step_environment(env, rng)
    return env


class TestStepEnvironment:
    def test_periodic_hop_advances_channel_at_period_boundary(self):
        pu = make_pu(channel=2, model=PeriodicActivity(10, 1.0, hop=True))
        env = make_environment(4, [pu])
        env = advance(env, 9)
        assert env.pus[0].channel == 2
        env = advance(env, 1)
        assert env.tick == 10
        assert env.pus[0].channel == 3

    def test_absorbing_off_state(self):
        pu = make_pu(model=MarkovActivity(p_on=0.0, p_off=1.0), active=False)
        env = make_environment(2, [pu])
        for _ in range(200):
            step_environment(env, Random(1))
            assert not env.pus[0].active

    def test_markov_stationary_fraction(self):
        # long-run counting oracle for the two-state chain: on-fraction
        # converges to p_on / (p_on + p_off) = 2/3
        pu = make_pu(model=MarkovActivity(p_on=0.2, p_off=0.1))
        env = make_environment(2, [pu])
        rng = Random(7)
        active = 0
        ticks = 10**5
        for _ in range(ticks):
            step_environment(env, rng)
            active += env.pus[0].active
        assert abs(active / ticks - 2 / 3) < 0.02

    def test_periodic_duty_cycle(self):
        pu = make_pu(model=PeriodicActivity(10, 0.5))
        env = make_environment(2, [pu])
        states = []
        for _ in range(20):
            step_environment(env, Random(0))
            states.append(env.pus[0].active)
        # ticks 1..20: active during the first half of each period
        assert states == [True] * 4 + [False] * 5 + [True] * 5 + [False] * 5 + [True]

    def test_hopping_pu_visits_every_channel_once_per_cycle(self):
        n = 5
        pu = make_pu(channel=0, model=PeriodicActivity(7, 1.0, hop=True))
        env = make_environment(n, [pu])
        seen = []
        for _ in range(7 * n):
            step_environment(env, Random(0))
            seen.append(env.pus[0].channel)
        visits = {ch: sum(1 for c in set_range if c == ch)
                  for set_range in [seen[::7]] for ch in range(n)}
        assert all(v == 1 for v in visits.values())


# a stage at this resolution is exactly q_raw * FINE (below the top stage),
# so it shows every bit of q_raw
FINE = 2**70


class TestSense:
    def test_no_pus_all_channels_clean(self):
        env = make_environment(3, [], quant_stages=4)
        stages = sense(env, (10.0, 10.0))
        assert list(stages.items()) == [(0, 3), (1, 3), (2, 3)]
        # q_raw = 1.0: the top stage, even at the finest resolution
        fine = make_environment(3, [], quant_stages=FINE)
        assert sense(fine, (10.0, 10.0)) == dict.fromkeys(range(3), FINE - 1)

    def test_active_pu_inside_protection_blocks_channel(self):
        pu = make_pu(channel=2, pos=(0.0, 0.0), radius=100.0,
                     model=PeriodicActivity(10, 1.0))
        env = make_environment(4, [pu])
        assert list(sense(env, (50.0, 0.0))) == [0, 1, 3]

    def test_far_field_interference_value(self):
        # one PU on ch 1 at distance 10, exponent 2, power 100, window 1:
        # I = 100/(1+100), q = 1/(1 + 100/101) = 101/201
        pu = make_pu(channel=1, pos=(0.0, 0.0), radius=5.0, power=100.0,
                     model=PeriodicActivity(10, 1.0))
        env = make_environment(2, [pu], pathloss_exponent=2.0,
                               quant_stages=FINE)
        stages = sense(env, (10.0, 0.0))
        assert stages[1] / FINE == pytest.approx(101.0 / 201.0, rel=1e-12)
        assert stages[0] == FINE - 1

    def test_idle_pu_contributes_nothing(self):
        pu = make_pu(channel=0, model=PeriodicActivity(10, 0.0))
        env = make_environment(2, [pu], quant_stages=FINE)
        assert sense(env, (1.0, 0.0))[0] == FINE - 1

    def test_window_accumulates_over_history(self):
        pu = make_pu(channel=0, pos=(0.0, 0.0), radius=5.0, power=100.0,
                     model=PeriodicActivity(10, 1.0))
        one = advance(make_environment(1, [pu], history_ticks=1,
                                       quant_stages=FINE), 2)
        three = advance(make_environment(1, [pu], history_ticks=3,
                                         quant_stages=FINE), 2)
        assert sense(three, (10.0, 0.0))[0] < sense(one, (10.0, 0.0))[0]

    def test_removing_a_pu_never_hurts(self):
        # availability monotonicity: dropping a PU keeps channels available
        # and never lowers quality
        rng = Random(3)
        pus = [make_pu(channel=rng.randrange(3),
                       pos=(rng.uniform(0, 300), rng.uniform(0, 300)),
                       radius=80.0, power=rng.uniform(0.5, 5.0),
                       model=PeriodicActivity(10, 1.0))
               for _ in range(4)]
        for i, pu in enumerate(pus):
            pus[i] = PrimaryUser(id=i, pos=pu.pos, channel=pu.channel,
                                 model=pu.model, protection_radius=pu.protection_radius,
                                 interference_power=pu.interference_power)
        full = make_environment(3, pus, quant_stages=FINE)
        for drop in range(len(pus)):
            reduced = make_environment(3, pus[:drop] + pus[drop + 1:],
                                       quant_stages=FINE)
            for pos in [(0, 0), (150, 150), (299, 10)]:
                before = sense(full, pos)
                after = sense(reduced, pos)
                assert before.keys() <= after.keys()
                for ch, stage in before.items():
                    assert after[ch] >= stage

    def test_sensing_is_deterministic(self):
        pu = make_pu(model=MarkovActivity(0.3, 0.2))
        streams = []
        for _ in range(2):
            env = make_environment(3, [pu])
            rng = Random(42)
            trace = []
            for _ in range(50):
                step_environment(env, rng)
                trace.append(tuple(sense(env, (20.0, 30.0)).items()))
            streams.append(trace)
        assert streams[0] == streams[1]



@st.composite
def pu_worlds(draw):
    """A few PUs of both models on at most four channels (so channels are
    often shared), in a 300 m square where protection radii of 10-150 m put
    sensing positions both inside and outside them. Powers reach 1000, so
    that interference sums are large enough for a last-bit difference in
    them to survive into q_raw, and so into a stage at resolution `FINE`."""
    channel_count = draw(st.integers(1, 4))
    coord = st.floats(0.0, 300.0)
    pus = []
    for i in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            model = PeriodicActivity(draw(st.integers(1, 6)),
                                     draw(st.sampled_from([0.0, 0.34, 0.5, 1.0])),
                                     hop=draw(st.booleans()))
        else:
            model = MarkovActivity(p_on=draw(st.floats(0.0, 1.0)),
                                   p_off=draw(st.floats(0.0, 1.0)))
        pus.append(PrimaryUser(
            id=i, pos=(draw(coord), draw(coord)),
            channel=draw(st.integers(0, channel_count - 1)), model=model,
            protection_radius=draw(st.floats(10.0, 150.0)),
            interference_power=draw(st.floats(0.0, 1000.0)),
            active=draw(st.booleans())))
    positions = [pu.pos for pu in pus] + draw(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    return channel_count, pus, positions


def reference_trace(pus, channel_count, steps, seed):
    """(channel, active) of every PU at ticks 0..steps, straight from the
    models: the periodic formula, and Markov draws in PU order."""
    rng = Random(seed)
    state = []
    for pu in pus:
        if isinstance(pu.model, PeriodicActivity):
            state.append([pu.channel, None])
        else:
            state.append([pu.channel, pu.active])
    trace = []
    for tick in range(steps + 1):
        for pu, s in zip(pus, state):
            m = pu.model
            if isinstance(m, PeriodicActivity):
                phase = tick % m.period_ticks
                if m.hop and phase == 0 and tick > 0:
                    s[0] = (s[0] + 1) % channel_count
                s[1] = phase < m.duty_fraction * m.period_ticks
            elif tick > 0:
                s[1] = rng.random() >= m.p_off if s[1] else rng.random() < m.p_on
        trace.append([tuple(s) for s in state])
    return trace


def reference_sense(pus, window, pos, channel_count, exponent, stages):
    """Brute force: every PU, every tick of the window, oldest tick first;
    (channel, stage) of each available channel, in channel order."""
    x, y = pos
    blocked = [False] * channel_count
    acc = [0.0] * channel_count
    for i, pu in enumerate(pus):
        px, py = pu.pos
        d2 = (x - px) * (x - px) + (y - py) * (y - py)
        inside = d2 <= pu.protection_radius * pu.protection_radius
        contrib = pu.interference_power / (1.0 + math.sqrt(d2) ** exponent)
        for states in window:
            ch, active = states[i]
            if active and inside:
                blocked[ch] = True
            elif active:
                acc[ch] += contrib
    return [(ch, quantize(1.0 / (1.0 + acc[ch]), stages))
            for ch in range(channel_count) if not blocked[ch]]


# quant_stages: coarse stages, and stages at resolution `FINE`, where a
# last-bit difference in an interference sum changes the stage
quantizations = st.integers(2, 6) | st.just(FINE)


# the arguments of `check_against_reference`
ORACLE = (pu_worlds(), st.integers(1, 8), st.integers(0, 60),
          st.integers(0, 2**32), st.sampled_from([0.5, 2.0, 3.5]),
          quantizations)


def check_against_reference(world, history_ticks, steps, seed, exponent,
                            stages):
    """Step an environment and sense at every position on every tick, and
    require the PU states and stage maps of the reference models."""
    channel_count, pus, positions = world
    env = make_environment(channel_count, pus, pathloss_exponent=exponent,
                           quant_stages=stages, history_ticks=history_ticks)
    expected = reference_trace(pus, channel_count, steps, seed)
    rng = Random(seed)
    for tick in range(steps + 1):
        if tick:
            step_environment(env, rng)
        assert [(s.channel, s.active) for s in env.pus] == expected[tick]
        window = expected[max(0, tick + 1 - history_ticks):tick + 1]
        for pos in positions:
            got = list(sense(env, pos).items())
            assert got == reference_sense(pus, window, pos, channel_count,
                                          exponent, stages)


class TestSenseMatchesReference:
    @given(*ORACLE)
    @settings(max_examples=150, deadline=None)
    def test_every_tick_at_every_position(self, world, history_ticks, steps,
                                          seed, exponent, stages):
        check_against_reference(world, history_ticks, steps, seed, exponent,
                                stages)

    def test_oracle_catches_a_position_that_skips_the_far_field(self):
        geometry = radio._geometry

        def near_only(env, pos):
            near, _ = geometry(env, pos)
            return near, None

        oracle = settings(max_examples=150, deadline=None, database=None,
                          phases=[Phase.generate], report_multiple_bugs=False)(
            given(*ORACLE)(check_against_reference))
        with mock.patch.object(radio, "_geometry", near_only):
            with pytest.raises(AssertionError):
                oracle()

    @given(pu_worlds(), st.integers(0, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_window_longer_than_the_run_senses_every_tick(self, world, steps,
                                                          seed):
        # after `steps` steps the environment has seen ticks 0..steps
        channel_count, pus, positions = world
        longest = make_environment(channel_count, pus, quant_stages=FINE,
                                   history_ticks=sys.maxsize)
        exact = make_environment(channel_count, pus, quant_stages=FINE,
                                 history_ticks=steps + 1)
        advance(longest, steps, seed)
        advance(exact, steps, seed)
        for pos in positions:
            assert list(sense(longest, pos).items()) == list(sense(exact, pos).items())

    def test_environments_built_from_one_pu_list_share_no_state(self):
        pus = [make_pu(channel=1, model=MarkovActivity(0.5, 0.5), power=2.0),
               PrimaryUser(id=1, pos=(40.0, 0.0), channel=0,
                           model=PeriodicActivity(3, 0.5, hop=True))]
        pos = (200.0, 0.0)       # outside both radii: every far term counts

        def build():
            return make_environment(3, pus, history_ticks=4, quant_stages=FINE)

        def state_of(env):
            return (env.tick, list(env.busy), len(env.moving),
                    [(s.channel, s.active, list(s.changes), s.active_ticks)
                     for s in env.pus])

        a, b = build(), build()
        fresh = sense(b, pos)
        advance(a, 30, seed=5)
        assert state_of(a) != state_of(build())
        assert state_of(b) == state_of(build())
        assert sense(b, pos) == fresh
        advance(b, 30, seed=5)
        assert state_of(b) == state_of(a)
        assert sense(b, pos) == sense(a, pos)
        for sa, sb in zip(a.pus, b.pus):
            assert sa is not sb
            assert sa.changes is not sb.changes
            assert sa.active_ticks is not sb.active_ticks
        assert all(s in a.pus for s in a.markov + a.periodic + tuple(a.moving))
        assert a.moving is not b.moving and a.busy is not b.busy
        assert a.geometry is not b.geometry and a.clean is not b.clean


def far_terms(pus, pos, exponent=2.0):
    """The far-field term of every PU outside its protection radius."""
    x, y = pos
    out = []
    for pu in pus:
        d2 = (x - pu.pos[0]) ** 2 + (y - pu.pos[1]) ** 2
        if d2 > pu.protection_radius ** 2:
            out.append(pu.interference_power / (1.0 + math.sqrt(d2) ** exponent))
    return out


class TestSensePath:
    """Where the far field cannot move a stage, `sense` reads only the PUs
    inside their protection radius (`terms` is None in the geometry)."""

    def test_the_bound_decides_at_the_edge_of_the_clean_stage(self):
        # one PU, always active, power 100, a 2-tick window: the clean stage
        # 3 of 4 needs 1 / (1 + acc) >= 3/4, so the far-field sum, twice
        # 100 / (1 + d**2), may reach 1/3: d is about 24.5 m
        pu = make_pu(channel=0, radius=5.0, power=100.0,
                     model=PeriodicActivity(10, 1.0))
        env = make_environment(2, [pu], history_ticks=2)

        def skips_far_field(x):
            return radio._geometry(env, (x, 0.0))[1] is None

        lo, hi = 10.0, 100.0            # full path at lo, near-only at hi
        while math.nextafter(lo, hi) != hi:
            mid = (lo + hi) / 2
            if skips_far_field(mid):
                hi = mid
            else:
                lo = mid
        assert 24.0 < lo < hi < 25.0
        assert not skips_far_field(lo) and skips_far_field(hi)
        advance(env, 1)                 # the window holds two active ticks
        inside, outside = (hi, 0.0), (lo, 0.0)
        for pos in (inside, outside):
            # just outside, the margin keeps the full path, although the sum
            # itself still quantizes to the clean stage
            assert sense(env, pos) == {0: 3, 1: 3}
        assert env.geometry[inside][1] is None
        assert env.geometry[outside][1] is not None

    @given(pu_worlds(), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_fine_stages_keep_every_far_term(self, world, history_ticks):
        # at resolution FINE, a far-field sum of 2**-40 already lowers the
        # stage, so a position with such a term always takes the full path
        channel_count, pus, positions = world
        env = make_environment(channel_count, pus, quant_stages=FINE,
                               history_ticks=history_ticks)
        for pos in positions:
            _, terms = radio._geometry(env, pos)
            if max(far_terms(pus, pos), default=0.0) >= 2**-40:
                assert terms is not None

    def test_windows_beyond_the_shown_margin_keep_every_far_term(self):
        # the rounding margin is shown for at most 2**32 additions into one
        # sum; past that the full path is kept, however small the terms
        pu = make_pu(channel=0, radius=5.0, power=1e-30,
                     model=PeriodicActivity(10, 1.0))
        for window, kept in ((2**32, False), (2**32 + 1, True),
                             (sys.maxsize, True)):
            env = make_environment(1, [pu], history_ticks=window)
            assert (radio._geometry(env, (10.0, 0.0))[1] is not None) is kept
            assert sense(env, (10.0, 0.0)) == {0: 3}

    def test_quiet_near_set_returns_the_clean_map_itself(self):
        near = make_pu(channel=1, pos=(0.0, 0.0), radius=100.0,
                       model=MarkovActivity(p_on=0.0, p_off=1.0))
        far = PrimaryUser(id=1, pos=(900.0, 0.0), channel=2,
                          model=PeriodicActivity(10, 1.0),
                          protection_radius=100.0)
        env = make_environment(4, [near, far])
        clean = dict(env.clean)
        pos = (50.0, 0.0)
        for _ in range(5):
            assert env.busy == [1]
            assert sense(env, pos) is env.clean
            advance(env, 1)
        assert env.geometry[pos][1] is None
        assert env.clean == clean

    def test_active_near_pu_blocks_its_channel_in_a_copy(self):
        near = make_pu(channel=1, pos=(0.0, 0.0), radius=100.0,
                       model=PeriodicActivity(10, 1.0))
        env = make_environment(4, [near])
        clean = dict(env.clean)
        stages = sense(env, (50.0, 0.0))
        assert env.geometry[(50.0, 0.0)][1] is None
        assert stages is not env.clean
        assert list(stages.items()) == [(0, 3), (2, 3), (3, 3)]
        assert env.clean == clean


class TestQuantize:
    def test_zero_maps_to_zero(self):
        assert quantize(0.0, 4) == 0

    def test_top_of_range_clamps(self):
        assert quantize(1.0, 4) == 3
        assert quantize(2.5, 4) == 3

    def test_interior_bin(self):
        assert quantize(0.6, 4) == 2

    @given(pu_worlds(), st.floats(0.1, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_far_field_terms_are_never_negative(self, world, exponent):
        # quantize has no branch for q_raw < 0: sense passes it 1 / (1 + acc),
        # and acc sums these terms; a window past the shown margin keeps them
        channel_count, pus, positions = world
        env = make_environment(channel_count, pus, pathloss_exponent=exponent,
                               history_ticks=2**32 + 1)
        for pos in positions:
            _, terms = radio._geometry(env, pos)
            assert all(term >= 0.0 for term in terms or () if term is not None)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.integers(min_value=2, max_value=16))
    def test_monotone_and_in_range(self, q1, q2, stages):
        lo, hi = sorted((q1, q2))
        s_lo = quantize(lo, stages)
        s_hi = quantize(hi, stages)
        assert s_lo <= s_hi
        assert 0 <= s_lo <= stages - 1
        assert 0 <= s_hi <= stages - 1
