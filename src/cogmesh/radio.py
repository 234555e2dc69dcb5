"""Radio environment: channels, primary-user activity, and spectrum sensing.

Channels are integer indices ordered by ascending carrier frequency (0 is the
lowest channel). A primary user (PU) owns one channel at a time and is either
active or idle per tick, driven by a periodic or a two-state Markov model.
Sensing is per secondary-user position: a channel is unavailable when an
active PU on it sat inside its protection radius at any tick of the sensing
window; active PUs beyond the protection radius contribute additive far-field
interference that lowers the channel quality value. `sense` returns a stage
map, available channel -> quantized quality stage in ascending channel
order, which every other layer reads as it is.

`PrimaryUser` describes a PU's initial state and never changes.
`make_environment` copies each one into per-run `PUState`, and
`step_environment` advances that state in place, one tick per call. Each
environment owns its state, so two environments built from one PU list are
independent, and replays with the same seed are bit-identical.

No radio work is repeated. Each `PUState` keeps a per-channel count of its
active ticks in the window, so `sense` visits only the PUs that were active
in the window. The geometry of a sensing position is computed on its first
use and kept, and a window without any active PU returns one shared clean
stage map.

Scenario values are validated once, by `engine.ScenarioConfig.validate`;
nothing here checks its arguments again.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
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
    """A PU as a scenario places it: position, model and tick-0 state."""

    id: int
    pos: tuple[float, float]
    channel: ChannelId
    model: PeriodicActivity | MarkovActivity
    protection_radius: float = 150.0
    interference_power: float = 1.0
    active: bool = False


@dataclass(eq=False, slots=True)
class PUState:
    """One PU's state in one environment, updated in place every tick."""

    pu: PrimaryUser
    channel: ChannelId
    active: bool
    # (channel, active) for the last `history_ticks` ticks, newest last
    window: deque
    # channel -> active ticks in `window`; channels with none are absent
    active_ticks: dict


@dataclass(eq=False, slots=True)
class RadioEnvironment:
    channel_count: int
    pus: tuple[PUState, ...]
    pathloss_exponent: float
    q_max: float
    quant_stages: int
    # what `sense` returns while no PU was active in the window; shared,
    # so callers must not mutate it
    clean: dict
    tick: int = 0
    # indices into `pus` of the PUs with an active tick in the window
    busy: list[int] = field(default_factory=list)
    # sensing position -> per PU, None inside its protection radius, else
    # its far-field term
    geometry: dict = field(default_factory=dict)


def _periodic_state(model: PeriodicActivity, tick: int, channel: int, n: int):
    phase = tick % model.period_ticks
    if model.hop and phase == 0 and tick > 0:
        channel = (channel + 1) % n
    active = phase < model.duty_fraction * model.period_ticks
    return channel, active


def _advance(state: PUState, channel: int, active: bool):
    """Append one tick to the window, keeping the active-tick counts."""
    window, counts = state.window, state.active_ticks
    if len(window) == window.maxlen:
        old_ch, old_active = window[0]
        if old_active:
            left = counts[old_ch] - 1
            if left:
                counts[old_ch] = left
            else:
                del counts[old_ch]
    window.append((channel, active))
    if active:
        counts[channel] = counts.get(channel, 0) + 1
    state.channel = channel
    state.active = active


def make_environment(channel_count, pus=(), pathloss_exponent=2.0, q_max=1.0,
                     quant_stages=4, history_ticks=1) -> RadioEnvironment:
    """Build a tick-0 environment with its own copy of each PU's state."""
    states = []
    for pu in pus:
        if isinstance(pu.model, PeriodicActivity):
            ch, active = _periodic_state(pu.model, 0, pu.channel, channel_count)
        else:
            ch, active = pu.channel, pu.active
        state = PUState(pu, ch, active, deque(maxlen=history_ticks), {})
        _advance(state, ch, active)
        states.append(state)
    # sense's formula with no interference: q_max / (1.0 + 0.0) is q_max
    clean = dict.fromkeys(range(channel_count),
                          quantize(q_max, q_max, quant_stages))
    return RadioEnvironment(
        channel_count=channel_count, pus=tuple(states),
        pathloss_exponent=pathloss_exponent, q_max=q_max,
        quant_stages=quant_stages, clean=clean,
        busy=[i for i, state in enumerate(states) if state.active_ticks])


def step_environment(env: RadioEnvironment, rng: Random) -> None:
    """Advance one tick in place; PU channel/activity evolve per their models.

    Markov draws consume `rng` in PU list order, so a fixed seed replays the
    exact activity trace.
    """
    tick = env.tick + 1
    busy = []
    for i, state in enumerate(env.pus):
        model = state.pu.model
        if isinstance(model, MarkovActivity):
            ch = state.channel
            if state.active:
                active = not (rng.random() < model.p_off)
            else:
                active = rng.random() < model.p_on
        else:
            ch, active = _periodic_state(model, tick, state.channel,
                                         env.channel_count)
        _advance(state, ch, active)
        if state.active_ticks:
            busy.append(i)
    env.busy = busy
    env.tick = tick


def quantize(q_raw: float, q_max: float, stages: int) -> int:
    """Quality value -> stage index in [0, stages-1], uniform bins, monotone."""
    s = int(stages * q_raw / q_max)
    if s >= stages:
        return stages - 1
    if s < 0:
        return 0
    return s


def _geometry(env: RadioEnvironment, pos: tuple[float, float]):
    """Per PU: None inside its protection radius, else its far-field term."""
    x, y = pos
    out = []
    for state in env.pus:
        pu = state.pu
        px, py = pu.pos
        d2 = (x - px) * (x - px) + (y - py) * (y - py)
        if d2 <= pu.protection_radius * pu.protection_radius:
            out.append(None)
        else:
            dist = math.sqrt(d2)
            out.append(pu.interference_power
                       / (1.0 + dist ** env.pathloss_exponent))
    return out


def sense(env: RadioEnvironment, pos: tuple[float, float]) -> dict:
    """Sense every channel at `pos` over the last `history_ticks` ticks, the
    window that `make_environment` set, and return the stage map: available
    channel -> quantized quality stage, in ascending channel order.

    A channel is unavailable iff an active PU on it was inside its protection
    radius at any window tick. Active PUs beyond the radius add
    power/(1+d^exponent) per tick to the accumulated interference; quality is
    q_max/(1+I) and is then quantized. The returned map may be shared, so
    callers must not mutate it.
    """
    if not env.busy:
        return env.clean
    geometry = env.geometry.get(pos)
    if geometry is None:
        geometry = env.geometry[pos] = _geometry(env, pos)
    blocked = [False] * env.channel_count
    acc = [0.0] * env.channel_count
    pus = env.pus
    for i in env.busy:
        contrib = geometry[i]
        if contrib is None:
            for ch in pus[i].active_ticks:
                blocked[ch] = True
            continue
        for ch, ticks in pus[i].active_ticks.items():
            # one addition per active tick, never ticks * contrib, so the
            # sum matches a tick-by-tick accumulation bit for bit
            total = acc[ch]
            for _ in range(ticks):
                total += contrib
            acc[ch] = total
    q_max, stages = env.q_max, env.quant_stages
    top = stages - 1
    out = {}
    for ch in range(env.channel_count):
        if blocked[ch]:
            continue
        q_raw = q_max / (1.0 + acc[ch])
        s = int(stages * q_raw / q_max)         # `quantize`, inlined
        out[ch] = top if s > top else 0 if s < 0 else s
    return out
