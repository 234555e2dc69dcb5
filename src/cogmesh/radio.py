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
active ticks in the window and, instead of the window itself, only the
state changes inside it: one tick costs a PU one draw (Markov) or one phase
(periodic) and a few integer operations, and no PU holds memory in
proportion to the window. Every PU starts with a change at tick 0, from idle
before it, so a filling window slides like a full one. The geometry of a
sensing position is computed on its first use and kept. It splits the PUs
into those inside their protection radius (near) and the far field, and
bounds the largest far-field sum the window can build there; where that
bound quantizes to the clean stage, no far-field sum can move a stage, and
`sense` reads only the near PUs. A window without any active PU, and such a
position whose near PUs were all idle, return one shared clean stage map.

Scenario values are validated once, when `engine.ScenarioConfig` is built;
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
    # (tick, channel, active) for each state change inside the window, oldest
    # first: the state the PU held up to, not including, that tick; the first
    # is (0, channel, False), idle before tick 0
    changes: deque
    # channel -> active ticks in the window; channels with none are absent
    active_ticks: dict
    # the model, resolved once: Markov p_on and p_off, or the periodic
    # period, active ticks per period (duty * period) and hop flag
    p_on: float = 0.0
    p_off: float = 0.0
    period: int = 1
    on_ticks: float = 0.0
    hop: bool = False


@dataclass(eq=False, slots=True)
class RadioEnvironment:
    channel_count: int
    pus: tuple[PUState, ...]
    pathloss_exponent: float
    quant_stages: int
    # the sensing window: the last `window_ticks` ticks, this one included
    window_ticks: int
    # what `sense` returns while no PU was active in the window; shared,
    # so callers must not mutate it
    clean: dict
    # `pus` split by model, each in PU-list order
    markov: tuple[PUState, ...] = ()
    periodic: tuple[PUState, ...] = ()
    tick: int = 0
    # indices into `pus` of the PUs with an active tick in the window
    busy: list[int] = field(default_factory=list)
    # the PUs with a state change inside the window, in no fixed order
    moving: list[PUState] = field(default_factory=list)
    # sensing position -> `_geometry`'s (near, terms), built on first use
    geometry: dict = field(default_factory=dict)


def make_environment(channel_count, pus=(), pathloss_exponent=2.0,
                     quant_stages=4, history_ticks=1) -> RadioEnvironment:
    """Build a tick-0 environment with its own copy of each PU's state."""
    states, markov, periodic = [], [], []
    for pu in pus:
        model = pu.model
        if isinstance(model, MarkovActivity):
            state = PUState(pu, pu.channel, pu.active, deque(), {},
                            p_on=model.p_on, p_off=model.p_off)
            markov.append(state)
        else:
            # tick 0 is phase 0 of the first period, before any hop
            on_ticks = model.duty_fraction * model.period_ticks
            state = PUState(pu, pu.channel, 0 < on_ticks, deque(), {},
                            period=model.period_ticks, on_ticks=on_ticks,
                            hop=model.hop)
            periodic.append(state)
        state.changes.append((0, state.channel, False))
        if state.active:
            state.active_ticks[state.channel] = 1
        states.append(state)
    # sense's formula with no interference: 1.0 / (1.0 + 0.0) is 1.0
    clean = dict.fromkeys(range(channel_count), quantize(1.0, quant_stages))
    return RadioEnvironment(
        channel_count=channel_count, pus=tuple(states),
        pathloss_exponent=pathloss_exponent,
        quant_stages=quant_stages, window_ticks=history_ticks, clean=clean,
        markov=tuple(markov), periodic=tuple(periodic),
        busy=[i for i, state in enumerate(states) if state.active_ticks],
        moving=states)


def _change(state: PUState, tick: int, channel: int, active: bool,
            moving: list):
    """Record that `state` leaves its current state at `tick`."""
    if not state.changes:
        moving.append(state)
    state.changes.append((tick, state.channel, state.active))
    state.channel = channel
    state.active = active


def step_environment(env: RadioEnvironment, rng: Random) -> None:
    """Advance one tick in place; PU channel/activity evolve per their models.

    Markov draws consume `rng` in PU list order, one per PU, so a fixed seed
    replays the exact activity trace.
    """
    tick = env.tick + 1
    env.tick = tick
    moving = env.moving
    draw = rng.random
    for state in env.markov:
        # active -> idle with p_off, idle -> active with p_on
        if draw() < (state.p_off if state.active else state.p_on):
            _change(state, tick, state.channel, not state.active, moving)
    n = env.channel_count
    for state in env.periodic:
        phase = tick % state.period
        ch = state.channel
        if phase == 0 and state.hop:
            ch = (ch + 1) % n
        active = phase < state.on_ticks
        if active != state.active or ch != state.channel:
            _change(state, tick, ch, active, moving)

    # slide each window by one tick: add this tick, drop tick `gone`, which
    # is before tick 0, and idle, while the window fills. A PU without a
    # change in its window held its current state at `gone`, so its counts
    # stay; at most one change per tick can leave
    gone = tick - env.window_ticks
    # whether some PU's window gained its first active tick or lost its last
    reshaped = False
    settled = False
    for state in moving:
        changes = state.changes
        if changes[0][0] <= gone:
            changes.popleft()
            if not changes:
                settled = True
                continue            # `gone` held the current state
        _, old_ch, old_active = changes[0]
        counts = state.active_ticks
        if old_active:
            left = counts[old_ch] - 1
            if left:
                counts[old_ch] = left
            else:
                del counts[old_ch]
                reshaped = True
        if state.active:
            ticks = counts.get(state.channel, 0)
            counts[state.channel] = ticks + 1
            reshaped = reshaped or not ticks
    if settled:
        env.moving = [state for state in moving if state.changes]
    if reshaped:
        env.busy = [i for i, state in enumerate(env.pus) if state.active_ticks]


def quantize(q_raw: float, stages: int) -> int:
    """Quality in [0, 1] -> stage index in [0, stages-1], uniform bins,
    monotone; 1.0 is the top stage."""
    s = int(stages * q_raw)
    if s >= stages:
        return stages - 1
    if s < 0:
        return 0
    return s


# 1 + 2**-16: the bound on the far-field sum is scaled by this, see `_geometry`
FAR_FIELD_MARGIN = 1.0 + 2.0 ** -16
# the most additions into one far-field sum for which that margin is shown
FAR_FIELD_MAX_ADDITIONS = 2 ** 32


def _geometry(env: RadioEnvironment, pos: tuple[float, float]):
    """(near, terms) at `pos`: `near` holds the states of the PUs inside their
    protection radius; `terms` holds, per PU, None for those and the
    far-field term for the others, or is None itself where no far-field sum
    can move a stage.

    Why `terms` may be dropped. Of one channel's sum in `sense`, a far PU
    adds its term once per active tick, at most `window_ticks` times over
    all channels, so the sum has at most k = window_ticks * len(far) float
    additions, and its exact value is at most window_ticks * T, where T is
    the exact sum of the far terms. Each addition of non-negative floats
    rounds to at most (1 + u) times its exact result, u = 2**-53 (exactly,
    in the subnormal range), and rounding is monotone, so the float sum is at
    most window_ticks * T * (1 + u)**k, and (1 + u)**k < 1 + 2**-20 for
    k <= 2**32. `bound` is computed with len(far) - 1 <= k additions, each at
    least (1 - u) times exact, and two products, each at least (1 - u) times
    exact unless subnormal; FAR_FIELD_MARGIN covers all of these factors, and
    the floor of 2**-1000 covers a subnormal product, whose exact bound lies
    below 2**-1000. Every step of `sense`'s quantizer, q = 1.0 / (1.0 + acc),
    stages * q, int() and the clamp, is monotone in float arithmetic, so a
    bound that quantizes to the clean stage leaves every far-field sum at the
    clean stage (acc = 0.0 gives it exactly). Beyond 2**32 additions the
    margin is not shown, and the position keeps `terms`.
    """
    x, y = pos
    near = []
    terms = []
    for state in env.pus:
        pu = state.pu
        px, py = pu.pos
        d2 = (x - px) * (x - px) + (y - py) * (y - py)
        if d2 <= pu.protection_radius * pu.protection_radius:
            near.append(state)
            terms.append(None)
        else:
            dist = math.sqrt(d2)
            terms.append(pu.interference_power
                         / (1.0 + dist ** env.pathloss_exponent))
    far = [term for term in terms if term is not None]
    if env.window_ticks * len(far) <= FAR_FIELD_MAX_ADDITIONS:
        total = 0.0
        for term in far:
            total += term
        bound = max(env.window_ticks * total * FAR_FIELD_MARGIN, 2.0 ** -1000)
        stages = env.quant_stages
        if quantize(1.0 / (1.0 + bound), stages) == quantize(1.0, stages):
            return tuple(near), None
    return tuple(near), terms


def sense(env: RadioEnvironment, pos: tuple[float, float]) -> dict:
    """Sense every channel at `pos` over the last `history_ticks` ticks, the
    window that `make_environment` set, and return the stage map: available
    channel -> quantized quality stage, in ascending channel order.

    A channel is unavailable iff an active PU on it was inside its protection
    radius at any window tick. Active PUs beyond the radius add
    power/(1+d^exponent) per tick to the accumulated interference; quality is
    1/(1+I) and is then quantized. The returned map may be shared, so
    callers must not mutate it.
    """
    if not env.busy:
        return env.clean
    entry = env.geometry.get(pos)
    if entry is None:
        entry = env.geometry[pos] = _geometry(env, pos)
    near, terms = entry
    if terms is None:
        # no far-field sum moves a stage here: only near PUs block channels
        out = env.clean
        for state in near:
            if state.active_ticks:
                if out is env.clean:
                    out = out.copy()
                for ch in state.active_ticks:
                    out.pop(ch, None)
        return out
    blocked = [False] * env.channel_count
    acc = [0.0] * env.channel_count
    pus = env.pus
    for i in env.busy:
        contrib = terms[i]
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
    stages = env.quant_stages
    return {ch: quantize(1.0 / (1.0 + acc[ch]), stages)
            for ch in range(env.channel_count) if not blocked[ch]}
