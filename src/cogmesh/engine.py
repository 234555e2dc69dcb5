"""Deterministic discrete-time world.

Per tick: the radio environment advances, due reformation entries run, every
node's state machine is clocked in id order (scheduling its transmissions and
setting `Node.listen`), messages are delivered to the in-range nodes whose
`listen` matches, senders excepted, and metrics are sampled on a fixed
period. A node returns at once from a tick before its `wake` tick and keeps
listening where it listened; role entries (including the reformation commits
made here), adopted beacons and newly armed exchanges reset `wake` (see
`protocol`). Reformation runs off one timed queue (`World._reform_timers`);
a negotiation is live exactly while `neg_by_working` holds it, and the queue
skips the entries of any other. `RunResult.settle_ticks` is read off the
event log: a node settles at its first `form` or `join`. All randomness
flows from one 64-bit seed through named substreams, so a (config, seed)
pair replays bit-identically.

The event log keeps each event as a slotted `Event`: its tick, its kind, a
field-name tuple that every event with the same names shares, and one
tuple of values. `cli.write_run_outputs` writes it one line at a time.

A cluster is its head: the head node keeps the member map and frame offset,
and `World.clusters` is a read-only view from each head's id to its node.
Each gateway link is kept once, in `World.links`, which maps its head pair
(low id first) to the gateway nodes that `select_gateways` chose.
Radio range is checked once, where delivery creates it: only delivered
messages write `Node.table`, so each entry names another node in range, which
`_validate` checks. Positions never change, so the gateway links and
reformation plans built from table entries are not range-checked again.
Gateway maintenance, once per `frame_len` ticks, drops every link that
`_link_valid` rejects and links each newly discovered pair. A pair is
discovered only through a 1-hop table entry x -> y across the two clusters,
so `select_gateways` finds at least the pair form, and a pair it cannot link
raises `SimulationInvariantError`. Links lag by design: a head
that leaves its cluster leaves `links` alone, so a link to a dissolved
cluster, and its nodes' GATEWAY role, last until the next pass; a reformation
commit drops the links of the clusters it rebuilds at once.

`ScenarioConfig` is the one frozen parameter object. It declares every
scenario default, checks its values when it is built (so a config parsed,
built in code or derived with `dataclasses.replace` is valid once it
exists), and is handed as it is to every `Node` and to the superframe
builder, which read the values derived from it (`frame_len`, `pra_start`,
`ttl_ticks`, `layouts`, `reward`) as cached properties. The one bound on
the superframe is a scan interval longer than its longest frame,
`frame_len + frame_jitter_max`.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, fields as dc_fields, replace
from functools import cached_property
from itertools import combinations
from random import Random
from types import MappingProxyType

from cogmesh import radio
from cogmesh.protocol import (
    GATEWAY,
    HEAD,
    MEMBER_ROLES,
    ORDINARY,
    Node,
    SuperframeSchedule,
    lay_out_superframe,
    select_gateways,
    _next_boundary,
)
from cogmesh.radio import MarkovActivity, PeriodicActivity, PrimaryUser
from cogmesh.reformation import (
    Negotiation,
    build_local_graph,
    cluster_nodes,
    greedy_mds,
)
from cogmesh.swarm import RewardParamError, RewardParams


PUBLIC_RA_MIN = 2
PUBLIC_RA_MAX = 6


class ConfigError(ValueError):
    """An out-of-range scenario value; `key` names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")


class SimulationInvariantError(AssertionError):
    pass


# the values each annotated field type accepts; a float field takes an int
_KINDS = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class ScenarioConfig:
    """Every scenario value and its default. The engine, each `Node` and the
    superframe builder all read this one object; derive a variant with
    `dataclasses.replace`. Each value is checked when the config is built,
    and a bad one raises a `ConfigError` naming its key."""

    area_width: float = 1000.0
    area_height: float = 1000.0
    su_count: int = 20
    pu_count: int = 0
    channel_count: int = 8
    comm_range: float = 250.0
    seed: int = 1
    duration_ticks: int = 2000
    swarm_enabled: bool = True
    reward_a: float = 1.0
    reward_b: float = math.pi / 2
    reward_c: float = math.pi
    alpha: float = 0.1
    quant_stages: int = 4
    pathloss_exponent: float = 2.0
    sensing_window_ticks: int = 1
    pu_model: str = "periodic"
    pu_period_ticks: int = 500
    pu_duty: float = 1.0
    pu_hop: bool = False
    pu_p_on: float = 0.2
    pu_p_off: float = 0.1
    pu_protection_radius: float = 150.0
    pu_power: float = 1.0
    beacon_ticks: int = 1
    max_slots: int = 8
    data_ticks: int = 8
    intra_ra_ticks: int = 2
    public_ra_ticks: int = 4
    detect_periods: int = 1
    detect_ticks: int = 2
    # heads stretch each frame by up to this many ticks so that the frames of
    # unsynchronized clusters cannot stay collision-aligned forever
    frame_jitter_max: int = 2
    scan_interval_ticks: int = 33
    metrics_period: int = 25
    reform_enabled: bool = True
    reform_cadence: int = 5
    neighbor_ttl_superframes: int = 3
    startup_spread_ticks: int = 100

    def __post_init__(self):
        def need(cond, key, msg):
            if not cond:
                raise ConfigError(key, msg)

        for f in dc_fields(self):
            value = getattr(self, f.name)
            # a bool is an int to isinstance, but only a bool field takes one
            need(isinstance(value, _KINDS[f.type])
                 and isinstance(value, bool) == (f.type == "bool"),
                 f.name, f"must be of type {f.type}, not {type(value).__name__}")
            if f.type == "float":       # no nan, no inf, no int past a float
                need(abs(value) <= sys.float_info.max, f.name, "must be finite")
        need(self.area_width > 0, "area_width", "must be > 0")
        need(self.area_height > 0, "area_height", "must be > 0")
        need(self.su_count >= 0, "su_count", "must be >= 0")
        need(self.pu_count >= 0, "pu_count", "must be >= 0")
        need(self.channel_count >= 1, "channel_count", "must be >= 1")
        need(self.comm_range > 0, "comm_range", "must be > 0")
        need(self.duration_ticks >= 1, "duration_ticks", "must be >= 1")
        need(0.0 <= self.alpha <= 1.0, "alpha", "must be in [0, 1]")
        need(self.quant_stages >= 2, "quant_stages", "must be >= 2")
        need(self.pathloss_exponent > 0, "pathloss_exponent", "must be > 0")
        self._validate_magnitudes()
        need(self.sensing_window_ticks >= 1, "sensing_window_ticks", "must be >= 1")
        # the size of the radio's history deque
        need(self.sensing_window_ticks <= sys.maxsize, "sensing_window_ticks",
             f"must be <= {sys.maxsize}")
        need(self.pu_model in ("periodic", "markov"), "pu_model",
             "must be 'periodic' or 'markov'")
        need(self.pu_period_ticks >= 1, "pu_period_ticks", "must be >= 1")
        try:
            # `radio.make_environment` scales the period by the duty fraction
            float(self.pu_period_ticks)
        except OverflowError:
            raise ConfigError("pu_period_ticks", "is too large for a float") from None
        need(0.0 <= self.pu_duty <= 1.0, "pu_duty", "must be in [0, 1]")
        need(0.0 <= self.pu_p_on <= 1.0, "pu_p_on", "must be in [0, 1]")
        need(0.0 <= self.pu_p_off <= 1.0, "pu_p_off", "must be in [0, 1]")
        need(self.pu_protection_radius > 0, "pu_protection_radius", "must be > 0")
        need(self.pu_power >= 0, "pu_power", "must be >= 0")
        need(self.metrics_period >= 1, "metrics_period", "must be >= 1")
        need(self.reform_cadence >= 1, "reform_cadence", "must be >= 1")
        need(self.neighbor_ttl_superframes >= 1, "neighbor_ttl_superframes",
             "must be >= 1")
        need(self.startup_spread_ticks >= 0, "startup_spread_ticks", "must be >= 0")
        try:
            self.reward                     # built, and so checked, once
        except RewardParamError as exc:
            raise ConfigError(f"reward_{exc.param}", exc.message) from exc
        need(self.frame_jitter_max >= 0, "frame_jitter_max", "must be >= 0")
        for key in ("beacon_ticks", "max_slots", "data_ticks", "intra_ra_ticks",
                    "detect_ticks"):
            need(getattr(self, key) >= 1, key, "must be >= 1 tick")
        need(PUBLIC_RA_MIN <= self.public_ra_ticks <= PUBLIC_RA_MAX,
             "public_ra_ticks", "must lie in [%d, %d]" % (PUBLIC_RA_MIN, PUBLIC_RA_MAX))
        need(1 <= self.detect_periods <= 4, "detect_periods", "must lie in [1, 4]")
        longest = self.frame_len + self.frame_jitter_max
        need(self.scan_interval_ticks > longest, "scan_interval_ticks",
             "must exceed the superframe plus its jitter (%d ticks)" % longest)

    def _validate_magnitudes(self):
        """Bound the physical floats by the arithmetic that uses them, so that
        an accepted config never overflows. Positions lie in the area, so no
        squared distance exceeds the squared diagonal, and no distance the
        diagonal."""
        w, h = self.area_width, self.area_height
        try:
            # squared as `in_range_lists` (**) and `radio._geometry` (*) do
            diag2 = max(w ** 2 + h ** 2, w * w + h * h)
        except OverflowError:
            diag2 = math.inf
        if diag2 == math.inf:
            raise ConfigError("area_width" if w >= h else "area_height",
                              "area_width**2 + area_height**2 must be finite")
        try:
            # the far-field term of `radio._geometry` at the largest distance
            math.sqrt(w * w + h * h) ** self.pathloss_exponent
        except OverflowError:
            raise ConfigError("pathloss_exponent",
                              "the area's diagonal to this power must be "
                              "finite") from None
        try:
            # `radio.quantize` scales a quality in [0, 1] by the stages
            float(self.quant_stages)
        except OverflowError:
            raise ConfigError("quant_stages", "is too large for a float") from None

    @cached_property
    def frame_len(self) -> int:
        return (self.beacon_ticks + self.max_slots + self.data_ticks
                + self.intra_ra_ticks + self.public_ra_ticks
                + self.detect_periods * self.detect_ticks)

    @cached_property
    def pra_start(self) -> int:
        """Ticks into a frame at which its public RA, the last main period,
        starts."""
        return self.frame_len - self.public_ra_ticks

    @cached_property
    def ttl_ticks(self) -> int:
        return self.neighbor_ttl_superframes * self.frame_len

    @cached_property
    def layouts(self) -> dict[tuple[int, ...], SuperframeSchedule]:
        """The frame laid out once for each sorted set of detection-block
        gaps that `protocol.build_superframe` can draw."""
        return {gaps: lay_out_superframe(self, gaps)
                for gaps in combinations(range(1, 5), self.detect_periods)}

    @cached_property
    def reward(self) -> RewardParams:
        """The one reward curve every node of a run shares (and memoises)."""
        return RewardParams(self.reward_a, self.reward_b, self.reward_c)


_FIELD_TYPES = {f.name: f.type for f in dc_fields(ScenarioConfig)}
_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def config_from_mapping(mapping: dict, source: str = "config") -> ScenarioConfig:
    """Build a config from key -> value (strings accepted), rejecting unknown
    keys and out-of-range values with diagnostics that name the key and the
    source."""
    values = {}
    try:
        for key, value in mapping.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(key, "unknown key")
            try:
                values[key] = _coerce(value, _FIELD_TYPES[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(key, f"bad value {value!r}: {exc}") from exc
        return ScenarioConfig(**values)
    except ConfigError as exc:
        raise ConfigError(exc.key, f"{exc.message} (in {source})") from exc


def _coerce(value, ftype: str):
    if ftype == "bool":
        if isinstance(value, bool):
            return value
        word = str(value).strip().lower()
        if word in _BOOL_WORDS:
            return _BOOL_WORDS[word]
        raise ValueError("expected a boolean")
    if ftype == "int":
        if isinstance(value, bool):
            raise ValueError("expected an integer")
        if isinstance(value, int):
            return value
        return int(str(value).strip(), 0)
    if ftype == "float":
        return float(value)
    return str(value).strip()


@dataclass(frozen=True)
class MetricsSample:
    tick: int
    counts: tuple[int, ...]     # SUs per channel by current master
    stddev: float
    largest_cloud: int
    cluster_count: int


@dataclass(frozen=True, slots=True)
class Event:
    """One logged protocol event: its field names in `keys` and their values,
    in the same order, in `values`. `World.log` hands every event with the
    same field names one shared `keys` tuple."""

    tick: int
    kind: str
    keys: tuple[str, ...]
    values: tuple

    def line(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in zip(self.keys, self.values))
        return f"tick={self.tick} event={self.kind} {parts}".rstrip()

    def get(self, key, default=None):
        keys = self.keys
        return self.values[keys.index(key)] if key in keys else default


@dataclass
class RunResult:
    config: ScenarioConfig
    samples: list
    events: list
    settle_ticks: dict
    gateway_latencies: list    # (head_a, head_b, discovered_tick, linked_tick)


def largest_same_master_component(neighbors: list, masters: list) -> int:
    """Largest connected component over edges whose endpoints share a master.

    `neighbors[i]` lists node i's physical neighbors; `masters[i]` is the
    node's master channel or -1 for none (such nodes are excluded).
    """
    n = len(masters)
    seen = bytearray(n)
    best = 0
    stack = []
    for start in range(n):
        if seen[start] or masters[start] < 0:
            continue
        m = masters[start]
        seen[start] = 1
        stack.append(start)
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in neighbors[u]:
                if not seen[v] and masters[v] == m:
                    seen[v] = 1
                    stack.append(v)
        if size > best:
            best = size
    return best


def compute_metrics(tick: int, masters: list, neighbors: list,
                    channel_count: int, cluster_count: int) -> MetricsSample:
    """Snapshot: per-channel master counts, their population standard
    deviation over ALL channels, and the largest control cloud (connected
    component over links whose endpoints share a master channel)."""
    counts = [0] * channel_count
    for m in masters:
        if m >= 0:
            counts[m] += 1
    mean = sum(counts) / channel_count
    var = sum((c - mean) ** 2 for c in counts) / channel_count
    largest = largest_same_master_component(neighbors, masters)
    return MetricsSample(tick=tick, counts=tuple(counts), stddev=math.sqrt(var),
                         largest_cloud=largest, cluster_count=cluster_count)


def deliver_messages(transmissions: list, nodes, adjacency):
    """Resolve one tick of the ether.

    A transmission on channel c reaches exactly the in-range nodes whose
    `listen` is c, except the tick's senders (one half-duplex radio each);
    two or more arrivals at one receiver collide and are all dropped there.
    `nodes[i].listen` is node i's channel, `adjacency[i]` lists its in-range
    nodes. Returns (delivered, dropped) as (receiver, message) lists, in
    transmission order.
    """
    senders = {sender for sender, _, _ in transmissions}
    heard = []
    arrivals = {}
    for sender, channel, msg in transmissions:
        for r in adjacency[sender]:
            if nodes[r].listen == channel and r not in senders:
                heard.append((r, msg))
                arrivals[r] = arrivals.get(r, 0) + 1
    if len(arrivals) == len(heard):
        return heard, []                 # one arrival at each receiver
    delivered = [hit for hit in heard if arrivals[hit[0]] == 1]
    dropped = [hit for hit in heard if arrivals[hit[0]] > 1]
    return delivered, dropped


# Cells per axis at most: a cell index this small is computed to within about
# 2**-40 of a cell, far inside the 1e-9 margin on the side.
_MAX_CELLS = 4096
# Squares of differences below about 1.5e-154 fall in or under the subnormal
# range, so at a tiny comm_range the predicate accepts pairs that far apart;
# no cell is narrower.
_MIN_SIDE = 1e-150


def in_range_lists(positions, comm_range: float) -> list[list[int]]:
    """For each position, the indices of the other positions within
    `comm_range`, in ascending order.

    A pair is in range when `(ax - bx) ** 2 + (ay - by) ** 2 <= r2`. The
    positions are bucketed into square cells whose side exceeds comm_range by
    a relative 1e-9, more than that predicate and a cell index can be off by
    rounding, so an in-range pair lies in the same or adjacent cells, and
    each position is tested only against the 3 x 3 block of cells around its
    own. Coordinates are halved first, so that the span of any finite
    coordinates is finite.
    """
    if not positions:
        return []
    r2 = comm_range * comm_range
    hxs = [x * 0.5 for x, _ in positions]
    hys = [y * 0.5 for _, y in positions]
    x0, y0 = min(hxs), min(hys)
    span = max(max(hxs) - x0, max(hys) - y0)
    side = max(comm_range * 0.5 * (1.0 + 1e-9), _MIN_SIDE, span / _MAX_CELLS)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (hx, hy) in enumerate(zip(hxs, hys)):
        cells.setdefault((int((hx - x0) / side), int((hy - y0) / side)), []).append(i)
    adjacency: list[list[int]] = [[] for _ in positions]
    for (cx, cy), members in cells.items():
        cand = sorted(j for gx in (cx - 1, cx, cx + 1) for gy in (cy - 1, cy, cy + 1)
                      for j in cells.get((gx, gy), ()))
        near = [(j, positions[j]) for j in cand]
        for i in members:
            ax, ay = positions[i]
            adjacency[i] = [j for j, (bx, by) in near
                            if j != i and (ax - bx) ** 2 + (ay - by) ** 2 <= r2]
    return adjacency


def _checked_position(pos, key: str = "su_positions", owner: str = "") -> tuple:
    """A position passed to `World`, as the (x, y) tuple that the radio keys
    its geometry on; both coordinates are finite ints or floats. A bad one
    raises a `ConfigError` naming `key`, and `owner` says whose it is."""
    try:
        x, y = pos
        ok = all(isinstance(c, (int, float)) and not isinstance(c, bool)
                 and math.isfinite(c) for c in (x, y))
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge int
        ok = False
    if not ok:
        raise ConfigError(key, f"{owner}{pos!r} is not a pair of finite "
                               f"coordinates")
    return (x, y)


def _listed(key: str, arg) -> list | None:
    """A sequence argument of `World` read once into a list (None stays
    None), so that an iterator is checked and used as the same entries."""
    if arg is None:
        return None
    try:
        return list(arg)
    except TypeError:
        raise ConfigError(key, f"must be an iterable, not "
                               f"{type(arg).__name__}") from None


# order of the reformation entries due on one tick
_PHASE = {"commit": 0, "req": 1, "ack": 1, "deny": 1, "deadline": 2}


class World:
    """One simulation instance; also the ctx handed to nodes."""

    def __init__(self, config: ScenarioConfig, su_positions=None,
                 su_start_ticks=None, pus=None, validate=True):
        su_positions = _listed("su_positions", su_positions)
        su_start_ticks = _listed("su_start_ticks", su_start_ticks)
        pus = _listed("pus", pus)
        for key, given in (("su_positions", su_positions),
                           ("su_start_ticks", su_start_ticks)):
            if given is not None and len(given) != config.su_count:
                raise ConfigError(key, f"has {len(given)} entries, "
                                       f"su_count is {config.su_count}")
        if su_positions is not None:
            su_positions = [_checked_position(pos) for pos in su_positions]
        if su_start_ticks is not None and not all(
                type(t) is int and t >= 0 for t in su_start_ticks):
            raise ConfigError("su_start_ticks", "each must be an int >= 0")
        for pu in pus or ():
            model = pu.model
            if isinstance(model, PeriodicActivity):
                own = dict(pu_model="periodic", pu_period_ticks=model.period_ticks,
                           pu_duty=model.duty_fraction, pu_hop=model.hop)
            else:
                own = dict(pu_model="markov", pu_p_on=model.p_on, pu_p_off=model.p_off)
            try:
                # a PU's own values obey the rules for the config's PU keys,
                # which building this variant checks
                replace(config, pu_protection_radius=pu.protection_radius,
                        pu_power=pu.interference_power, **own)
            except ConfigError as exc:
                raise ConfigError("pus", f"PU {pu.id} {exc}") from None
            # the radio keys the stages it senses by a PU's int channel
            if not (isinstance(pu.channel, int) and not isinstance(pu.channel, bool)
                    and 0 <= pu.channel < config.channel_count):
                raise ConfigError("pus", f"PU {pu.id} is on channel {pu.channel!r}, "
                                         f"not an int in [0, {config.channel_count})")
            _checked_position(pu.pos, "pus", f"PU {pu.id} position ")
            if not isinstance(pu.active, bool):
                raise ConfigError("pus", f"PU {pu.id} has active={pu.active!r}, "
                                         f"not a bool")
        # the config's bounds hold for points in the area; points passed in
        # are checked below, where the arithmetic runs
        passed = ("pus" if pus is not None
                  else "su_positions" if su_positions is not None else None)
        self.cfg = config
        self.validate_samples = validate

        base = Random(config.seed)
        self.env_rng = Random(base.getrandbits(64))
        topo_rng = Random(base.getrandbits(64))
        pu_rng = Random(base.getrandbits(64))
        node_seeds = [base.getrandbits(64) for _ in range(config.su_count)]

        if su_positions is None:
            su_positions = [
                (topo_rng.uniform(0.0, config.area_width),
                 topo_rng.uniform(0.0, config.area_height))
                for _ in range(config.su_count)
            ]
        if su_start_ticks is None:
            su_start_ticks = [topo_rng.randrange(config.startup_spread_ticks + 1)
                              for _ in range(config.su_count)]

        if pus is None:
            pus = []
            for i in range(config.pu_count):
                pos = (pu_rng.uniform(0.0, config.area_width),
                       pu_rng.uniform(0.0, config.area_height))
                channel = pu_rng.randrange(config.channel_count)
                if config.pu_model == "periodic":
                    model = PeriodicActivity(period_ticks=config.pu_period_ticks,
                                             duty_fraction=config.pu_duty,
                                             hop=config.pu_hop)
                else:
                    model = MarkovActivity(p_on=config.pu_p_on,
                                           p_off=config.pu_p_off)
                pus.append(PrimaryUser(id=i, pos=pos, channel=channel, model=model,
                                       protection_radius=config.pu_protection_radius,
                                       interference_power=config.pu_power))
        self.env = radio.make_environment(
            channel_count=config.channel_count, pus=pus,
            pathloss_exponent=config.pathloss_exponent,
            quant_stages=config.quant_stages,
            history_ticks=config.sensing_window_ticks,
        )
        if passed:
            try:
                for pos in su_positions:
                    self.env.geometry[pos] = radio._geometry(self.env, pos)
            except OverflowError:
                raise ConfigError(passed, "an SU's distance to a PU, to the power "
                                          "pathloss_exponent, must be finite") from None

        self.nodes = [
            Node(i, su_positions[i], Random(node_seeds[i]), config,
                 start_tick=su_start_ticks[i])
            for i in range(config.su_count)
        ]
        # indexed by node id: in-range nodes in id order
        try:
            self.adjacency = in_range_lists(su_positions, config.comm_range)
        except OverflowError:
            raise ConfigError("su_positions", "the squared distance of two nearby "
                                              "SUs must be finite") from None

        self.tick = 0
        self.events: list[Event] = []
        self._event_keys: dict[tuple, tuple] = {}   # each field-name tuple, once
        self.samples: list[MetricsSample] = []
        self.txs: list = []
        # (head_a, head_b), head_a < head_b -> its gateway nodes: (x,) for a
        # single gateway, (a, b) with a in head_a's cluster for a pair
        self.links: dict[tuple[int, int], tuple[int, ...]] = {}
        self.gateway_latencies: list = []
        self.neg_by_working: dict = {}     # working node id -> live negotiation
        self.reform_queue: list = []       # heap, see `_push`
        self._seq = 0

    # -- ctx services used by nodes --

    def sense(self, node: Node):
        return radio.sense(self.env, node.pos)

    def transmit(self, node: Node, channel: int, msg):
        self.txs.append((node.id, channel, msg))

    def log(self, tick: int, kind: str, **fields):
        keys = tuple(fields)
        keys = self._event_keys.setdefault(keys, keys)
        self.events.append(Event(tick, kind, keys, tuple(fields.values())))

    @property
    def clusters(self) -> MappingProxyType:
        """Head id -> head node of every live cluster."""
        return MappingProxyType({n.id: n for n in self.nodes
                                 if n.members is not None})

    # -- main loop --

    def run(self) -> RunResult:
        cfg = self.cfg
        frame_len = cfg.frame_len
        have_pus = bool(self.env.pus)
        queue = self.reform_queue
        for t in range(cfg.duration_ticks):
            self.tick = t
            if have_pus:
                radio.step_environment(self.env, self.env_rng)
            if queue and queue[0][0] <= t:
                self._reform_timers(t)
            self.txs = []
            for node in self.nodes:
                node.step(t, self)
            if self.txs:
                delivered, _ = deliver_messages(self.txs, self.nodes, self.adjacency)
                for receiver, msg in delivered:
                    self.nodes[receiver].on_message(msg, t, self)
            if t > 0 and t % frame_len == 0:
                self._gateway_maintenance(t)
                if self.validate_samples:
                    self._validate_links(t)
            if (t + 1) % cfg.metrics_period == 0:
                self._sample(t + 1)
        # a node settles when it first forms or joins a cluster
        settle_ticks = {}
        for event in self.events:
            if event.kind in ("form", "join"):
                settle_ticks.setdefault(event.get("node"), event.tick)
        return RunResult(
            config=cfg, samples=self.samples, events=self.events,
            settle_ticks=settle_ticks, gateway_latencies=self.gateway_latencies,
        )

    def _sample(self, tick: int):
        masters = [(-1 if n.master is None else n.master) for n in self.nodes]
        sample = compute_metrics(tick, masters, self.adjacency,
                                 self.cfg.channel_count, len(self.clusters))
        self.samples.append(sample)
        if self.validate_samples:
            self._validate(tick)

    def _validate(self, tick: int):
        """Cluster invariants, checked at every sample.

        A member that silently left stays in its old head's member map until
        the head times it out (the mini-slot TTL rule), so node-vs-head
        consistency is enforced for mutually consistent pairs; slot layout,
        adjacency, and the heads' own state are enforced unconditionally. A
        node keeps a member map exactly while it heads a cluster (checked
        first: `clusters` holds the nodes that keep one), a reform lock must
        be a negotiation still in progress, and every node weights only
        channels of its stage map, in a map of its own: `swarm.apply_hello`
        updates it in place, so no other node and no stage map may hold it.
        Every table entry names another node in range (the one range check;
        see the module docstring).
        """
        live = set(self.neg_by_working.values())
        adjacency = self.adjacency
        nodes = self.nodes
        for n in nodes:
            far = n.table.keys() - adjacency[n.id]
            if far:
                raise SimulationInvariantError(
                    f"t={tick}: node {n.id} lists node {min(far)}, out of its range")
            if (n.members is not None) != (n.role is HEAD):
                raise SimulationInvariantError(
                    f"t={tick}: node {n.id} ({n.role}) must keep a member map "
                    f"exactly while it heads a cluster")
            if n.role in MEMBER_ROLES and n.head_id is None:
                raise SimulationInvariantError(
                    f"t={tick}: member {n.id} has no cluster")
            if n.role is not None and n.stages and n.master is None:
                raise SimulationInvariantError(
                    f"t={tick}: node {n.id} has channels but no master choice")
            if not n.weights.keys() <= n.stages.keys():
                # `swarm.apply_hello` looks up the stage of every weight channel
                raise SimulationInvariantError(
                    f"t={tick}: node {n.id} weights a channel it did not sense")
            if n.lock is not None and n.lock not in live:
                raise SimulationInvariantError(
                    f"t={tick}: node {n.id} holds a lock of a finished plan")
        weight_maps = {id(n.weights): n for n in nodes}
        if len(weight_maps) < len(nodes):
            n = next(n for n in nodes if weight_maps[id(n.weights)] is not n)
            raise SimulationInvariantError(
                f"t={tick}: nodes {n.id} and {weight_maps[id(n.weights)].id} "
                f"share one weight map")
        stage_maps = {id(n.stages) for n in nodes}
        if not stage_maps.isdisjoint(weight_maps):
            n = next(n for n in nodes if id(n.weights) in stage_maps)
            raise SimulationInvariantError(
                f"t={tick}: node {n.id} weights in a stage map")
        max_slots = self.cfg.max_slots
        for head, hn in self.clusters.items():
            if len(hn.members) > max_slots:
                raise SimulationInvariantError(
                    f"t={tick}: cluster {head} exceeds its mini-slot budget")
            slots = sorted(hn.members.values())
            if len(set(slots)) != len(slots) or (slots and not (
                    0 <= slots[0] and slots[-1] < max_slots)):
                raise SimulationInvariantError(
                    f"t={tick}: cluster {head} has inconsistent mini-slots")
            for m in hn.members:
                if m == head:
                    raise SimulationInvariantError(
                        f"t={tick}: head {head} lists itself as a member")
                if head not in adjacency[m]:
                    raise SimulationInvariantError(
                        f"t={tick}: member {m} out of range of head {head}")
                mn = self.nodes[m]
                if mn.role in MEMBER_ROLES and mn.head_id == head \
                        and mn.master != hn.master:
                    raise SimulationInvariantError(
                        f"t={tick}: member {m} master disagrees with cluster")

    def _validate_links(self, tick: int):
        """Right after gateway maintenance, every link joins two live
        clusters through valid gateway nodes. (Between passes `links` may
        keep links that have gone stale.)"""
        for (ha, hb), gateways in self.links.items():
            if not self._link_valid((ha, hb), gateways):
                raise SimulationInvariantError(
                    f"t={tick}: gateway link {ha}-{hb} is stale after maintenance")

    # -- gateways --

    def _gateway_maintenance(self, tick: int):
        links = self.links
        for key in [key for key, gateways in links.items()
                    if not self._link_valid(key, gateways)]:
            del links[key]
        nodes = self.nodes
        for key in self._discovered_pairs():
            if key in links:
                continue
            ha, hb = key
            gateways = select_gateways(nodes[ha], nodes[hb], nodes)
            if gateways is None:
                raise SimulationInvariantError(
                    f"t={tick}: discovered clusters {ha} and {hb} have no "
                    f"gateway link")
            links[key] = gateways
            self.gateway_latencies.append((ha, hb, tick, tick))
            self.log(tick, "gateway", cluster_a=ha, cluster_b=hb,
                     nodes=":".join(str(x) for x in gateways))
        self._refresh_gateway_roles()

    def _discovered_pairs(self) -> list:
        """Head pairs (ha, hb), ha < hb, in sorted order, such that a node of
        one cluster holds a node of the other in its table at 1 hop (which
        also implies the two are in radio range).

        A member that silently left stays listed by its old head until the
        mini-slot TTL fires, so a node can have two owning heads.
        """
        owners = {}
        for head, hn in self.clusters.items():
            owners.setdefault(head, []).append(head)
            for m in hn.members:
                owners.setdefault(m, []).append(head)
        pairs = set()
        for x, mine in owners.items():
            for nid in self.nodes[x].table:
                for b in owners.get(nid, ()):
                    for a in mine:
                        if a != b:
                            pairs.add((a, b) if a < b else (b, a))
        return sorted(pairs)

    def _link_valid(self, key: tuple[int, int], gateways: tuple[int, ...]) -> bool:
        """Both heads still head and each gateway node is still on its side;
        `select_gateways` chose nodes in range, and no head as a single."""
        ha, hb = key
        ma = self.nodes[ha].members
        mb = self.nodes[hb].members
        if ma is None or mb is None:
            return False
        if len(gateways) == 1:
            x = gateways[0]
            return x in ma or x in mb
        a, b = gateways
        return (a == ha or a in ma) and (b == hb or b in mb)

    def _refresh_gateway_roles(self):
        gateway_nodes = set()
        for gateways in self.links.values():
            gateway_nodes.update(gateways)
        for n in self.nodes:
            if n.role is ORDINARY and n.id in gateway_nodes:
                n.role = GATEWAY
            elif n.role is GATEWAY and n.id not in gateway_nodes:
                n.role = ORDINARY

    # -- reformation --

    def _host_head(self, node: Node) -> Node | None:
        """The head of the cluster `node` heads, or lists it as a member."""
        if node.role is HEAD:
            return node
        if node.role in MEMBER_ROLES:
            head = self.nodes[node.head_id]
            if head.members is not None and node.id in head.members:
                return head
        return None

    def try_reform(self, node: Node, tick: int):
        """Working-node entry point, called on the node's reform cadence."""
        if node.id in self.neg_by_working or node.lock is not None:
            return
        host = self._host_head(node)
        if host is None:
            return
        table = node.table
        cands = sorted({e.cluster_head for e in table.values()
                        if e.cluster_head is not None})
        heads = [host]
        for h in cands:
            hn = self.nodes[h]
            if hn.members is None or hn is host or hn.master != host.master:
                continue
            if h in table or not table.keys().isdisjoint(hn.members):
                heads.append(hn)
        if len(heads) == 1:
            # one cluster cannot become fewer: no plan can gain
            return
        master = host.master
        nodes = self.nodes
        for hn in heads:
            for nid in (hn.id, *hn.members):
                if master not in nodes[nid].stages:
                    # every planned cluster is on the host master
                    return
        affected = {hn.id: cluster_nodes(hn) for hn in heads}
        plan = greedy_mds(build_local_graph(affected, nodes), node.id,
                          max_members=self.cfg.max_slots)
        if len(plan) >= len(heads):
            return
        neg = Negotiation(node.id, master, plan, affected,
                          waiting=set(affected) - {node.id})
        self.log(tick, "reform", working=node.id, status="proposed",
                 gain=neg.gain)
        self.neg_by_working[node.id] = neg
        self._push(tick + 2 * self.cfg.frame_len + 1, "deadline", neg)
        for head in sorted(affected):
            if head == node.id:
                node.lock = neg
                continue
            when = self._next_pra_start(self.nodes[head], tick)
            self._push(when, "req", neg, head)

    def cancel_reform(self, node: Node):
        neg = self.neg_by_working.get(node.id)
        if neg is not None:
            self._cancel(neg, self.tick)

    def _push(self, when: int, kind: str, neg: Negotiation, head: int | None = None):
        """Queue (when, phase, seq, kind, neg, head); `head` is the cluster
        head a req goes to or an ack/deny comes from."""
        self._seq += 1
        heapq.heappush(self.reform_queue,
                       (when, _PHASE[kind], self._seq, kind, neg, head))

    def _next_pra_start(self, head: Node, tick: int) -> int:
        frame_len = self.cfg.frame_len
        return (_next_boundary(tick + 1, head.frame_offset, frame_len)
                + self.cfg.pra_start)

    def _reform_timers(self, tick: int):
        """Run the queued entries due by `tick` of live negotiations:
        commits, then req/ack/deny in send order, then the deadline checks
        (a negotiation still waiting for an ack two superframes after its
        proposal times out on the next tick)."""
        queue = self.reform_queue
        live = self.neg_by_working
        while queue and queue[0][0] <= tick:
            _, _, _, kind, neg, head = heapq.heappop(queue)
            if neg is not live.get(neg.working):
                continue
            if kind == "commit":
                self._apply_commit(neg, tick)
            elif kind == "deadline":
                if neg.waiting:
                    self._cancel(neg, tick)
            else:
                self._route_reform(kind, neg, head, tick)

    def _route_reform(self, kind: str, neg: Negotiation, head: int, tick: int):
        if kind == "req":
            node = self.nodes[head]
            if node.members is None:
                return                              # silence -> timeout
            if node.lock is not None or head in self.neg_by_working:
                return                              # busy head stays silent
            # the decision goes back out in the tail of the same public RA
            reply_at = tick + 1
            if cluster_nodes(node) != neg.affected.get(head):
                self._push(reply_at, "deny", neg, head)
                return
            node.lock = neg
            self._push(reply_at, "ack", neg, head)
        elif kind == "ack":
            # each head gets one req, so it acks at most once
            neg.waiting.discard(head)
            if not neg.waiting:
                self._schedule_commit(neg, tick)
        else:                                       # deny
            self._cancel(neg, tick)

    def _schedule_commit(self, neg: Negotiation, tick: int):
        working = self.nodes[neg.working]
        host = self._host_head(working)
        if host is None:
            self._cancel(neg, tick)
            return
        self._push(_next_boundary(tick + 1, host.frame_offset, self.cfg.frame_len),
                   "commit", neg)

    def _finish(self, neg: Negotiation):
        """Retire a live negotiation and release the locks it holds."""
        del self.neg_by_working[neg.working]
        for head in neg.affected:
            node = self.nodes[head]
            if node.lock is neg:
                node.lock = None

    def _cancel(self, neg: Negotiation, tick: int):
        self._finish(neg)
        self.log(tick, "reform", working=neg.working, status="cancelled",
                 gain=neg.gain)

    def _commit_valid(self, neg: Negotiation) -> bool:
        for head, snapshot in neg.affected.items():
            hn = self.nodes[head]
            if hn.members is None or cluster_nodes(hn) != snapshot:
                return False
        # `greedy_mds` grouped along table edges within the mini-slot budget
        for _, members in neg.clusters:
            for m in members:
                node = self.nodes[m]
                if neg.master not in node.stages:
                    return False
                # a node that silently left an affected cluster (and may even
                # head its own by now) makes the plan stale; heads keep such
                # members listed until the mini-slot TTL fires, so the check
                # has to look at the node's own state
                if node.role is HEAD:
                    if m not in neg.affected:
                        return False
                elif node.role in MEMBER_ROLES:
                    if node.head_id not in neg.affected:
                        return False
                else:
                    return False
        return True

    def _apply_commit(self, neg: Negotiation, tick: int):
        if not self._commit_valid(neg):
            self._cancel(neg, tick)
            return
        self._finish(neg)
        grace = tick + self.cfg.ttl_ticks
        master = neg.master
        # each node is in one planned cluster, so a planned head's offset is
        # still its own: an affected head keeps it, a member (None) draws one
        for head, members in neg.clusters:
            hn = self.nodes[head]
            offset = hn.frame_offset
            if offset is None:
                offset = hn.rng.randrange(self.cfg.frame_len)
            slot_map = {m: i for i, m in enumerate(sorted(m for m in members
                                                          if m != head))}
            hn.become_head(master, slot_map, offset,
                           _next_boundary(tick, offset, self.cfg.frame_len))
            for m, slot in slot_map.items():
                self.nodes[m].become_member(head, master, slot, grace)
        affected = neg.affected
        for key in [key for key in self.links
                    if key[0] in affected or key[1] in affected]:
            del self.links[key]
        self._refresh_gateway_roles()
        self.log(tick, "reform", working=neg.working, status="committed",
                 gain=neg.gain, pre=len(affected), post=len(neg.clusters))


def run(config: ScenarioConfig) -> RunResult:
    """Run one scenario to completion; fully determined by (config, seed)."""
    return World(config).run()
