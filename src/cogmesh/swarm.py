"""Swarm-intelligence master-channel selection.

Every node keeps a weight per available channel, summing to one. HELLO
messages act as pheromone: hearing a neighbor advertise its master channel
reinforces that channel's weight by r*(1-W) and decays every other channel by
(1-r), where r maps the quality difference between the neighbor's master and
the local standing choice through a bounded arctan curve. Periodic sensing
blends the weights back toward the measured channel qualities, which is the
disturbance that lets the selection track the radio environment. The master
channel is simply the argmax weight. Sensing arrives as the stage map that
`radio.sense` returns: available channel -> quality stage, ascending. A
HELLO's quality payload is that map, `HelloMessage.stages`: the sender's
own, so HELLOs built from one map share it. Its neighbor list names each
of the sender's 1-hop neighbors with that neighbor's master, (id, master),
which is all that 2-hop discovery reads.

Both kernels run once per event, so each makes one pass and builds as
little as it can, with every float expression as the composition they
replaced wrote it (`tests/test_swarm.py` keeps that composition as the
oracle). `apply_hello` updates the weight map it is given in place: each
node owns its map, and no other node or record holds it. Sensing replaces
the map: `refresh_from_sensing` returns a new one over the new stage map's
channels. Its sums stay `sum()` calls on purpose: from CPython 3.12 float
`sum()` is compensated, so a hand-written loop would round differently on
some interpreters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# channel id -> weight; invariant: values sum to 1 over the available set
WeightList = dict[int, float]


class NoAvailableChannels(RuntimeError):
    """Raised when an operation needs at least one available channel."""


class RewardParamError(ValueError):
    """An invalid reward constant; `param` names it ("a", "b" or "c")."""

    def __init__(self, param: str, message: str):
        self.param = param
        self.message = message
        super().__init__(f"reward param {param} {message}")


@dataclass(frozen=True)
class RewardParams:
    """Constants of the reinforcement curve r = (arctan(a*dq) + b) / c.

    Validated so the curve stays inside [0, 1] at both limits; the defaults
    span the full (0, 1) range and give r = 0.5 at equal quality.
    `rewards` memoises `reward` by stage difference for `apply_hello`.
    """

    a: float = 1.0
    b: float = math.pi / 2
    c: float = math.pi
    rewards: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.a <= 0:
            raise RewardParamError("a", "must be > 0")
        if self.c <= 0:
            raise RewardParamError("c", "must be > 0")
        lo = (-math.pi / 2 + self.b) / self.c
        hi = (math.pi / 2 + self.b) / self.c
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise RewardParamError("b", "puts the reward curve outside [0, 1] "
                                        "at the limits")


@dataclass(frozen=True, slots=True)
class HelloMessage:
    """Pheromone carrier: sender id, its master channel, `stages`, its
    stage map (available channel -> quantized quality stage, ascending),
    and its one-hop neighbor list.

    `protocol.emit_hello` builds every HELLO on the wire from the sender's
    own stage map, so the HELLOs built from one map share it; it is never
    mutated. `neighbor_list` is sorted by neighbor id. `stages` is compared
    but not hashed, because a dict is not hashable."""

    sender: int
    master: int
    stages: dict = field(hash=False)
    neighbor_list: tuple[tuple[int, int], ...] = ()  # (neighbor id, its master)


def reward(delta_q: float, params: RewardParams) -> float:
    """Reinforcement factor in [0, 1], monotone non-decreasing in delta_q.

    The clamp absorbs the rounding slack that `RewardParams` tolerates at
    the limits of the curve.
    """
    r = (math.atan(params.a * delta_q) + params.b) / params.c
    if r < 0.0:
        return 0.0
    if r > 1.0:
        return 1.0
    return r


def select_master(weights: WeightList) -> int:
    """Argmax-weight channel; ties break to the lowest channel index."""
    if not weights:
        raise NoAvailableChannels("empty weight list")
    best_ch = -1
    best_w = -1.0
    for ch, w in weights.items():
        if w > best_w or (w == best_w and ch < best_ch):
            best_ch, best_w = ch, w
    return best_ch


def apply_hello(weights: WeightList, hello: HelloMessage, stages: dict,
                params: RewardParams) -> WeightList:
    """Update a weight list from one received HELLO, in place.

    The advertised master is reinforced by r*(1-W) and every other channel
    decays by (1-r), keeping the sum at one. r is `reward` of the sender's
    reported stage of its master minus the stage in `stages` of the local
    standing choice (the `select_master` argmax), so every weight channel
    must be in `stages`. A HELLO for a channel that is not locally
    available, or whose stage the sender does not report, changes nothing:
    a node cannot adopt a channel it cannot use.

    `weights` itself is updated and returned, its channel order unchanged.
    A node owns its map and shares it with no other node or record
    (`engine.World._validate` checks this), so no copy is needed.
    """
    target = hello.master
    w = weights.get(target)
    if w is None:
        return weights
    reported = hello.stages.get(target)
    if reported is None:
        return weights
    delta = reported - stages[select_master(weights)]
    r = params.rewards.get(delta)
    if r is None:
        r = params.rewards[delta] = reward(float(delta), params)
    decay = 1.0 - r
    for ch, v in weights.items():
        weights[ch] = v * decay
    weights[target] = w + r * (1.0 - w)
    return weights


def initial_weights(stages: dict) -> WeightList:
    """First weight list: the normalized stage vector over the available
    channels of the stage map (uniform when every stage is zero)."""
    if not stages:
        raise NoAvailableChannels("no available channels")
    total = sum(stages.values())
    if total == 0:
        u = 1.0 / len(stages)
        return {ch: u for ch in stages}
    return {ch: s / total for ch, s in stages.items()}


def refresh_from_sensing(weights: WeightList, stages: dict,
                         alpha: float) -> WeightList:
    """Disturbance step after a sensing round that produced `stages`.

    Channels that became unavailable are dropped and the survivors are
    renormalized; newly available channels enter at weight zero; the result
    is then blended (1-alpha)*W + alpha*Q where Q is the stage vector scaled
    to sum one (uniform if all stages are zero). When no prior mass survives
    the result is Q itself, so `refresh_from_sensing({}, stages, alpha)`
    equals `initial_weights(stages)` for every alpha. `alpha` must lie in
    [0, 1]; configuration validation checks that, not each call.

    The result is a new map over exactly the channels of `stages`, in their
    order. Running this after every new stage map keeps a node's weight
    channels a subset of its stage-map channels, the invariant that
    `apply_hello` relies on. Past the two `sum()` calls (kept on purpose;
    see the module docstring) it makes one pass over the stage map,
    computing each Q entry where it is blended in; Q is built as a map
    (`initial_weights`) only when it is the result.
    """
    kept = [weights.get(ch, 0.0) for ch in stages]
    mass = sum(kept)
    if mass <= 0.0:
        return initial_weights(stages)      # raises when `stages` is empty
    keep = 1.0 - alpha
    total = sum(stages.values())
    if total == 0:
        q = alpha * (1.0 / len(stages))
        return {ch: keep * (w / mass) + q for ch, w in zip(stages, kept)}
    return {ch: keep * (w / mass) + alpha * (s / total)
            for (ch, s), w in zip(stages.items(), kept)}
