"""Radio environment: channels, primary-user activity, and spectrum sensing.

Channels are integer indices ordered by ascending carrier frequency (0 is the
lowest channel). A primary user (PU) owns one channel at a time and is either
active or idle per tick, driven by a periodic or a two-state Markov model.
Sensing is per secondary-user position: a channel is unavailable when an
active PU on it sat inside its protection radius at any tick of the sensing
window; active PUs beyond the protection radius contribute additive far-field
interference that lowers the channel quality value.

All operations are functional: `step_environment` returns a new environment,
environments are never mutated in place, so replays with the same seed are
bit-identical.

Scenario values are validated once, by `engine.ScenarioConfig.validate`;
nothing here checks its arguments again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random

ChannelId = int


@dataclass(frozen=True)
class PeriodicActivity:
    """Active for the first duty fraction of each period; optionally hops to
    the next channel (mod channel count) at every period boundary."""

    period_ticks: int
    duty_fraction: float = 1.0
    hop: bool = False


@dataclass(frozen=True)
class MarkovActivity:
    """Per-tick two-state chain: idle->active with p_on, active->idle with p_off."""

    p_on: float
    p_off: float


@dataclass(frozen=True)
class PrimaryUser:
    id: int
    pos: tuple[float, float]
    channel: ChannelId
    model: PeriodicActivity | MarkovActivity
    protection_radius: float = 150.0
    interference_power: float = 1.0
    active: bool = False
    # (channel, active) for the last `history_ticks` ticks, newest last
    history: tuple[tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class ChannelObservation:
    channel: ChannelId
    available: bool
    q_raw: float
    q_stage: int


@dataclass(frozen=True)
class RadioEnvironment:
    channel_count: int
    pus: tuple[PrimaryUser, ...] = ()
    pathloss_exponent: float = 2.0
    q_max: float = 1.0
    quant_stages: int = 4
    history_ticks: int = 1
    tick: int = 0


def _periodic_state(model: PeriodicActivity, tick: int, channel: int, n: int):
    phase = tick % model.period_ticks
    if model.hop and phase == 0 and tick > 0:
        channel = (channel + 1) % n
    active = phase < model.duty_fraction * model.period_ticks
    return channel, active


def make_environment(channel_count, pus=(), pathloss_exponent=2.0, q_max=1.0,
                     quant_stages=4, history_ticks=1) -> RadioEnvironment:
    """Build a tick-0 environment, seeding each PU's state and history."""
    seeded = []
    for pu in pus:
        if isinstance(pu.model, PeriodicActivity):
            ch, active = _periodic_state(pu.model, 0, pu.channel, channel_count)
        else:
            ch, active = pu.channel, pu.active
        seeded.append(replace(pu, channel=ch, active=active,
                              history=((ch, active),)))
    return RadioEnvironment(channel_count=channel_count, pus=tuple(seeded),
                            pathloss_exponent=pathloss_exponent, q_max=q_max,
                            quant_stages=quant_stages,
                            history_ticks=history_ticks)


def step_environment(env: RadioEnvironment, rng: Random) -> RadioEnvironment:
    """Advance one tick; PU channel/activity evolve per their models.

    Markov draws consume `rng` in PU list order, so a fixed seed replays the
    exact activity trace.
    """
    tick = env.tick + 1
    new_pus = []
    for pu in env.pus:
        if isinstance(pu.model, PeriodicActivity):
            ch, active = _periodic_state(pu.model, tick, pu.channel,
                                         env.channel_count)
        else:
            ch = pu.channel
            if pu.active:
                active = not (rng.random() < pu.model.p_off)
            else:
                active = rng.random() < pu.model.p_on
        history = (pu.history + ((ch, active),))[-env.history_ticks:]
        new_pus.append(replace(pu, channel=ch, active=active, history=history))
    return replace(env, pus=tuple(new_pus), tick=tick)


def quantize(q_raw: float, q_max: float, stages: int) -> int:
    """Quality value -> stage index in [0, stages-1], uniform bins, monotone."""
    s = int(stages * q_raw / q_max)
    if s >= stages:
        return stages - 1
    if s < 0:
        return 0
    return s


def sense(env: RadioEnvironment, pos: tuple[float, float],
          window_ticks: int = 1) -> list[ChannelObservation]:
    """Sense every channel at `pos` over the trailing window.

    A channel is unavailable iff an active PU on it was inside its protection
    radius at any window tick. Active PUs beyond the radius add
    power/(1+d^exponent) per tick to the accumulated interference; quality is
    q_max/(1+I) and is then quantized.
    """
    window = min(window_ticks, env.history_ticks)
    x, y = pos
    blocked = [False] * env.channel_count
    acc = [0.0] * env.channel_count
    for pu in env.pus:
        px, py = pu.pos
        d2 = (x - px) * (x - px) + (y - py) * (y - py)
        prot2 = pu.protection_radius * pu.protection_radius
        inside = d2 <= prot2
        dist = math.sqrt(d2)
        contrib = pu.interference_power / (1.0 + dist ** env.pathloss_exponent)
        for ch, active in pu.history[-window:]:
            if not active:
                continue
            if inside:
                blocked[ch] = True
            else:
                acc[ch] += contrib
    out = []
    for ch in range(env.channel_count):
        q_raw = env.q_max / (1.0 + acc[ch])
        out.append(ChannelObservation(
            channel=ch,
            available=not blocked[ch],
            q_raw=q_raw,
            q_stage=quantize(q_raw, env.q_max, env.quant_stages),
        ))
    return out
