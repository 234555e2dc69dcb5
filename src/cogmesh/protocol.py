"""Per-node protocol: scanning, cluster formation and joining, superframe
scheduling, HELLO/beacon exchange, neighbor tables, and gateway selection.

Time is integer ticks, one tick per mini-slot. Each cluster runs its own
superframe cycle anchored at a random offset drawn by the head at formation;
clusters are deliberately unsynchronized. A node owns a single half-duplex
transceiver: it hears a message only when tuned to its channel for the whole
tick and not transmitting itself. Delivery enforces the latter (it drops
every arrival at a tick's senders), so a node does not retune to send.

Scanning follows the lowest-channel-first rule with a fixed interval longer
than the superframe. A beacon of a cluster that has not rejected the node
triggers a join request through that cluster's public random-access period
when it arrives, and the interval does not end before that join does; a
HELLO is recorded and answered through the public period when it arrives.
At the end of an interval, silence means form a cluster here and anything
heard means move on to the next channel. A node that iterates all channels
without joining or forming starts its own cluster on a random available
channel.

Past the beacon, heads and members share one in-frame path (`_in_frame`);
a member adds only its HELLO in its ND mini-slot. Every sensing round goes
through `_do_sensing`. A node keeps the stage map that `radio.sense` returned
(available channel -> stage, ascending) as `Node.stages`, and scanning and
the swarm read it. Every HELLO it builds carries that map as it is, so
nodes that adopt the radio's one shared clean map send that one map.

A node reads its constants (period lengths, scan interval, TTL, reward
curve) from the validated `engine.ScenarioConfig` it is given as `Node.p`;
nothing here checks them again. `build_superframe` picks one of the config's
`layouts`, each laid out once by `lay_out_superframe`.

A message carries only what its receiver cannot know. Every node reads the
same config, and delivery hands a message over on the tick it is sent. So
a beacon names its head and the head's master only through its HELLO, and
the frame it announces starts at the tick a receiver hears it; a member's
HELLO frame names its cluster head and the tick its public RA starts, whose
length is the config's `public_ra_ticks`. A HELLO heard in either record
takes one path (`_hear_hello`) into the neighbor maps and the weights.

The engine clocks every node on every tick, but a node acts only at the
edges of what it is doing: its start tick, the end of a scan interval or a
join wait, its own transmissions, and, inside a cluster frame, the period
edges of the superframe it follows (`SuperframeSchedule.edges`), its own
mini-slot and the frame end. Each full step therefore records the next such
tick in `Node.wake`, and `step` returns at once before it. Inside a frame,
`_sleep_in_frame` derives that tick from the schedule, the frame's gap and a
member's mini-slot; nothing stores it. Whatever changes a
node's plans from outside its own step clears `wake` so that its next step
runs in full: every role entry (`_clear_role_state`, hence `become_head`,
`become_member`, `_restart_scan` and the engine's reformation commits), a
beacon adopted (`_follow_beacon`) or heard while scanning (`_scan_beacon`,
`_give_up_join`), and a HELLO that arms a public-RA exchange (`_on_hello`).
A role entry is also a cluster's whole life: a cluster is its head, which
keeps its member map (`Node.members`, member id -> mini-slot) and
`frame_offset` from `become_head` until `_clear_role_state` clears them.
It times members out from `Node.member_heard`, member id -> the last of its
frames (`frames_in_cluster`) that heard the member (an admission counts as
heard in the frame before), and at each frame start drops the members not
heard in the last `neighbor_ttl_superframes` frames. Its beacon carries a
copy of the member map, and a receiver looks its own id up in it.

`Node` declares its state in `__slots__`, as do `NeighborEntry`, `ScanState`
and the per-message records, so no instance carries a `__dict__`. A scan is
one `ScanState`: its channel walk, its join in flight and its HELLO
exchanges. The entries that one HELLO writes into `two_hop` share one
(master, tick) tuple per master, and a role's `offscan_seen` set exists
only from its first add (before it, the shared empty `NONE_YET`). Every
HELLO a node sends, in a scan exchange, a beacon or its ND mini-slot, comes
from `Node.hello`. It rebuilds the message with `emit_hello` only when its
master or its stage map changed, or when the 1-hop content the HELLO lists,
each neighbor's id and master, changed: `upsert_from_hello` and
`evict_stale` report a 1-hop entry added, dropped, or given a new master,
and the node then drops the HELLO it kept. A refresh that moves only an
entry's `last_seen` or `cluster_head` keeps it.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

from cogmesh import swarm
from cogmesh.swarm import HelloMessage, NoAvailableChannels

if TYPE_CHECKING:
    from cogmesh.engine import ScenarioConfig

# join requests a scanning node sends to one cluster before it gives up on it
JOIN_ATTEMPT_LIMIT = 4

# the empty `offscan_seen` that every role entry starts from
NONE_YET = frozenset()


class Role(enum.Enum):
    SCANNING = "scanning"
    HEAD = "head"
    ORDINARY = "ordinary"
    GATEWAY = "gateway"


MEMBER_ROLES = (Role.ORDINARY, Role.GATEWAY)


@dataclass(frozen=True)
class SuperframeSchedule:
    """One superframe layout, in ticks into the frame. Its five main parts
    run in a fixed order: beacon (from tick 0), ND mini-slots, data,
    intra-cluster RA and public RA, each as long as the config says;
    detection blocks sit in the gaps before some of the last four. So the
    public RA is always the frame's last `public_ra_ticks` ticks
    (`ScenarioConfig.pra_start`), and a layout keeps only what the gaps
    move: where ND and data start and each detection block's (start, end)
    ticks, so the layout's size does not depend on the blocks' length."""

    nd_start: int
    data_start: int
    detect_blocks: tuple[tuple[int, int], ...]
    # ticks into the frame where a node stops doing what it did the tick
    # before: rel 1, detection-block and data-period edges, the frame's last
    # tick; sorted
    edges: tuple[int, ...]


def build_superframe(params: ScenarioConfig, rng: Random) -> SuperframeSchedule:
    """One superframe; spectrum-detection blocks land in gaps between the
    frame's five main parts at positions drawn fresh each frame."""
    return params.layouts[tuple(sorted(rng.sample(range(1, 5), params.detect_periods)))]


def lay_out_superframe(params: ScenarioConfig,
                       gaps: tuple[int, ...]) -> SuperframeSchedule:
    """The superframe with one detection block before each main period whose
    index is in `gaps` (sorted, each in 1..4)."""
    lengths = (params.beacon_ticks, params.max_slots, params.data_ticks,
               params.intra_ra_ticks, params.public_ra_ticks)
    starts = []
    blocks = []
    start = 0
    for i, length in enumerate(lengths):
        if i in gaps:
            blocks.append((start, start + params.detect_ticks))
            start += params.detect_ticks
        starts.append(start)
        start += length
    data_start = starts[2]
    edges = {1, data_start, data_start + params.data_ticks, start - 1}
    for block in blocks:
        edges.update(block)
    return SuperframeSchedule(
        nd_start=starts[1], data_start=data_start,
        detect_blocks=tuple(blocks), edges=tuple(sorted(edges)),
    )


@dataclass(slots=True)
class NeighborEntry:
    """A 1-hop neighbor as its last HELLO or beacon described it."""

    master: int
    last_seen: int
    cluster_head: int | None = None


@dataclass(slots=True)
class ScanState:
    visited: set
    current: int
    interval_end: int              # tick at which the scan interval is over
    heard: bool = False            # a HELLO or beacon arrived this interval
    rejections: set = field(default_factory=set)
    # the join in flight: the head asked, the tick of its request and the
    # requests sent so far
    join_target: int | None = None
    join_tx_tick: int | None = None
    join_attempts: int = 0
    # the armed HELLO exchange's tick, and the heads already answered
    exch_tx_tick: int | None = None
    exch_done: set = field(default_factory=set)


# --- scan outcomes -----------------------------------------------------------

@dataclass(frozen=True)
class FormCluster:
    channel: int


@dataclass(frozen=True)
class ContinueScan:
    channel: int


# --- wire records ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Beacon:
    """A head's beacon, sent on its master at the first tick of each frame
    and heard on that tick, so the frame starts at the tick a receiver hears
    it. The head and its master are the sender and master of `hello`, the
    head's own HELLO."""

    gap: int                               # ticks to the next frame start
    schedule: SuperframeSchedule
    # a copy of the head's map, node id -> mini-slot; left out of == and
    # hash, because a dict is not hashable
    members: dict = field(compare=False)
    rejects: tuple[int, ...]
    hello: HelloMessage


@dataclass(frozen=True, slots=True)
class HelloFrame:
    """HELLO on the wire: pheromone payload, plus, from a member's ND
    mini-slot, its cluster head and the absolute start tick of its cluster's
    current public random-access period (the Frame Map advertisement); the
    period is `public_ra_ticks` long."""

    hello: HelloMessage
    cluster_head: int | None = None
    pra_start: int | None = None


@dataclass(frozen=True, slots=True)
class JoinRequest:
    sender: int
    head: int


# --- pure protocol operations -------------------------------------------------

def start_scan(stages: dict, first_channel: int | None = None) -> ScanState:
    """Open a scan on the lowest available channel of the stage map (or a
    requested start channel when it is available); raises when nothing is
    available."""
    if not stages:
        raise NoAvailableChannels("no available channels to scan")
    current = first_channel if first_channel in stages else next(iter(stages))
    return ScanState(visited={current}, current=current, interval_end=0)


def finish_scan_interval(state: ScanState, stages: dict, rng: Random):
    """Resolve an elapsed scanning interval into its outcome.

    Silence means claim the current channel; anything heard (HELLOs, or
    beacons of clusters that would not take this node) means move on to the
    next unvisited channel. Once every channel has been visited without a
    home, the node starts its own cluster on a uniformly random available
    channel. A beacon that could lead to a join never reaches this point: the
    node asks to join when it arrives, and its join has ended by now.
    """
    if not state.heard and state.current in stages:
        return FormCluster(channel=state.current)
    # the lowest available channel not yet visited
    nxt = next((ch for ch in stages if ch not in state.visited), None)
    if nxt is not None:
        return ContinueScan(channel=nxt)
    return FormCluster(channel=rng.choice(list(stages)))


def handle_join_request(members: dict, requester: int,
                        max_slots: int) -> int | None:
    """Admission decision: lowest free mini-slot index below `max_slots`, or
    None when full. A requester that is already a member gets its existing
    slot back."""
    if requester in members:
        return members[requester]
    used = set(members.values())
    for slot in range(max_slots):
        if slot not in used:
            return slot
    return None


def emit_hello(node_id: int, master: int, table, stages: dict) -> HelloMessage:
    """Build this node's HELLO: its stage map `stages`, as it is, and the
    one-hop neighbor list, (id, master) sorted by id."""
    # ids are unique, so the pairs sort by id alone
    neighbors = tuple(sorted([(nid, e.master) for nid, e in table.items()]))
    return HelloMessage(node_id, master, neighbor_list=neighbors, stages=stages)


def upsert_from_hello(table: dict, two_hop: dict, hello: HelloMessage, tick: int,
                      cluster_head: int | None = None,
                      self_id: int | None = None) -> bool:
    """Fold one received HELLO into a node's neighbor maps.

    The sender becomes (or stays) a 1-hop entry in `table` and leaves
    `two_hop`. Each listed neighbor other than the receiver `self_id`
    enters `two_hop` as id -> (master, tick) unless `table` holds it, so a
    report never downgrades a 1-hop entry and no id is in both maps; the
    entries one HELLO writes share one (master, tick) tuple per master.
    Known 1-hop entries are updated in place.

    Returns whether the 1-hop content a HELLO lists (ids and masters)
    changed: a new sender, or a known one with a new master."""
    sender = hello.sender
    master = hello.master
    e = table.get(sender)
    if e is None:
        table[sender] = NeighborEntry(master, tick, cluster_head)
        two_hop.pop(sender, None)
        changed = True
    else:
        changed = e.master != master
        e.master = master
        e.last_seen = tick
        e.cluster_head = cluster_head
    stamps = {}                     # master -> its (master, tick) tuple
    for nid, nmaster in hello.neighbor_list:
        if nid not in table and nid != self_id:
            stamp = stamps.get(nmaster)
            if stamp is None:
                stamp = stamps[nmaster] = (nmaster, tick)
            two_hop[nid] = stamp
    return changed


def evict_stale(table: dict, two_hop: dict, tick: int, ttl_ticks: int) -> bool:
    """Drop the entries of both maps not refreshed within the TTL window;
    returns whether a 1-hop entry was dropped."""
    dead = [nid for nid, e in table.items() if tick - e.last_seen > ttl_ticks]
    for nid in dead:
        del table[nid]
    dead_two_hop = [nid for nid, (_, seen) in two_hop.items()
                    if tick - seen > ttl_ticks]
    for nid in dead_two_hop:
        del two_hop[nid]
    return bool(dead)


def select_offmaster_scan(master: int, stages: dict, two_hop: dict,
                          visited: set, rng: Random) -> int | None:
    """Pick a non-master channel for this frame's listening excursion.

    Channels where known 2-hop neighbors live (`two_hop` maps id ->
    (master, last seen)) and that were not yet visited come first (lowest
    index); otherwise sample the remaining channels with probability
    proportional to (q_stage + 1).
    """
    near = stages.keys() & {m for m, _ in two_hop.values()}
    near.discard(master)
    near -= visited
    if near:
        return min(near)
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


def select_gateways(head_a: Node, head_b: Node, nodes) -> tuple[int, ...] | None:
    """Choose the gateway nodes that link the clusters of two heads.

    Two nodes are linked when either one's table lists the other (`nodes` is
    indexed by id); a table lists only other nodes in range (the engine
    checks this), so no range test is needed here. A node linked to both heads becomes the single
    gateway `(x,)`, lowest id first; failing that, the lowest-id linked pair
    `(a, b)`, a from head_a's cluster and b from head_b's, carries the link.
    Heads themselves only ever appear in the pair form.
    """
    def linked(x, y):
        return y in nodes[x].table or x in nodes[y].table

    ha, hb = head_a.id, head_b.id
    nodes_a = [ha] + sorted(head_a.members)
    nodes_b = [hb] + sorted(head_b.members)
    singles = sorted(
        x for x in set(nodes_a) | set(nodes_b)
        if x not in (ha, hb) and linked(x, ha) and linked(x, hb)
    )
    if singles:
        return (singles[0],)
    pairs = sorted((a, b) for a in nodes_a for b in nodes_b if linked(a, b))
    if pairs:
        return pairs[0]
    return None


# --- node state machine --------------------------------------------------------

class Node:
    """One secondary user. The engine clocks it through step()/on_message();
    everything it knows is local: its stage map, weights, neighbor maps, and
    whatever beacons told it about its cluster's frame. `step` returns at
    once before the `wake` tick (see the module docstring).

    `table` maps each 1-hop neighbor's id to its `NeighborEntry`, and
    `two_hop` maps each id heard only in neighbor lists to (master, last
    seen); no id is in both."""

    __slots__ = (
        # outlive a role: set in __init__
        "id", "pos", "rng", "p", "start_tick", "role", "listen", "master",
        "weights", "stages", "table", "two_hop", "frame_gap", "_hello",
        # scoped to one role: set in _clear_role_state
        "wake", "scan", "head_id", "slot", "sched", "frame_start",
        "have_beacon", "beacons_missed", "frames_in_cluster", "offscan_ch",
        "offscan_seen", "member_grace", "members", "frame_offset",
        "member_heard", "join_first", "lock",
    )

    def __init__(self, node_id: int, pos, rng: Random, params: ScenarioConfig,
                 start_tick: int = 0):
        self.id = node_id
        self.pos = pos
        self.rng = rng
        self.p = params
        self.start_tick = start_tick

        self.role: Role | None = None
        self.listen: int | None = None
        self.master: int | None = None
        self.weights: dict = {}
        self.stages: dict = {}             # the last stage map sensed
        self.table: dict = {}
        self.two_hop: dict = {}
        self.frame_gap = params.frame_len
        self._hello: HelloMessage | None = None   # see `hello`
        self._clear_role_state()

    # -- helpers --

    def apply_observations(self, stages: dict):
        """Adopt a stage map from `sense`. A map equal to the one adopted is
        skipped, so the HELLO that `hello` keeps stays as it is: equal maps
        list the same channels in the same ascending order."""
        if stages != self.stages:
            self.stages = stages

    def hello(self) -> HelloMessage:
        """This node's HELLO as `emit_hello` builds it. The last one built is
        handed out again while its master is the node's master, it carries
        the node's current stage map and the 1-hop content of `table` is
        unchanged since: whatever adds, drops or changes the master of a
        1-hop entry clears `_hello`."""
        h = self._hello
        if h is None or h.master != self.master or h.stages is not self.stages:
            h = self._hello = emit_hello(self.id, self.master, self.table,
                                         self.stages)
        return h

    def _select_current(self) -> int:
        """The node's standing channel choice under the active arm. Only a
        dormant node lacks the stage map (and weights) it needs; it never
        chooses."""
        if self.p.swarm_enabled:
            return swarm.select_master(self.weights)
        stages = self.stages
        best = max(stages.values())
        if self.master in stages and stages[self.master] == best:
            return self.master
        return min(ch for ch, s in stages.items() if s == best)

    def _hear_hello(self, hello: HelloMessage, tick: int,
                    cluster_head: int | None):
        """Fold a HELLO heard in a HELLO frame or a beacon into the neighbor
        maps, and absorb its pheromone."""
        if upsert_from_hello(self.table, self.two_hop, hello, tick,
                             cluster_head, self.id):
            self._hello = None
        if not self.p.swarm_enabled or not self.weights:
            return
        self.weights = swarm.apply_hello(self.weights, hello, self.stages,
                                         self.p.reward)
        # a node with a scan is scanning; one without weights returned above
        if self.scan is not None and self.scan.join_target is None:
            self.master = swarm.select_master(self.weights)

    # -- lifecycle --

    def _clear_role_state(self):
        """Reset everything scoped to one role: scan and join progress, the
        cluster frame, and a head's member bookkeeping. Every role entry
        starts from here; what persists across roles (channel choice,
        weights, stage map, neighbor maps) is left alone. The next step
        runs in full."""
        self.wake = 0
        self.scan: ScanState | None = None

        # member/cluster frame state (heads use the same frame fields)
        self.head_id: int | None = None
        self.slot: int | None = None
        self.sched: SuperframeSchedule | None = None
        self.frame_start: int | None = None
        self.have_beacon = False
        self.beacons_missed = 0
        self.frames_in_cluster = 0
        self.offscan_ch: int | None = None
        self.offscan_seen: set | frozenset = NONE_YET
        self.member_grace: int | None = None

        self.members: dict | None = None   # a head's: member id -> mini-slot
        self.frame_offset: int | None = None
        self.member_heard: dict = {}   # a head's: member id -> frame last heard
        self.join_first: int | None = None   # a head's: see `_on_join_request`
        self.lock = None               # the live Negotiation locking it

    def become_head(self, master: int, members: dict, frame_offset: int,
                    frame_start: int):
        """Head a cluster on `master` with the member map `members`; its
        first frame starts at `frame_start`."""
        self._clear_role_state()
        self.role = Role.HEAD
        self.master = master
        self.members = members
        self.frame_offset = frame_offset
        self.frame_start = frame_start
        self.member_heard = dict.fromkeys(members, -1)

    def become_member(self, head: int, master: int, slot: int,
                      grace: int | None):
        """Member of `head`'s cluster in mini-slot `slot`; the node rescans
        at the `grace` tick unless a beacon arrives before it. `grace` is
        None only when the caller follows a beacon at once."""
        self._clear_role_state()
        self.role = Role.ORDINARY
        self.master = master
        self.head_id = head
        self.slot = slot
        self.member_grace = grace

    def activate(self, tick: int, ctx):
        self.apply_observations(ctx.sense(self))
        self._restart_scan(None, tick)
        if self.scan is not None:
            # the activation tick itself counts toward the first interval
            self.scan.interval_end -= 1

    def _restart_scan(self, first_channel: int | None, tick: int):
        """(Re-)enter scanning; with no channels the node idles dormant."""
        self.role = Role.SCANNING
        self._clear_role_state()
        if not self.stages:
            self.master = None
            self.weights = {}
            return
        if self.p.swarm_enabled:
            # prune channels that are gone; alpha 0 keeps the mix as-is (and
            # gives a node without weights its initial ones)
            self.weights = swarm.refresh_from_sensing(self.weights,
                                                      self.stages, 0.0)
        self.scan = start_scan(self.stages, first_channel)
        self.scan.interval_end = tick + self.p.scan_interval_ticks
        self.master = (self.scan.current if first_channel is not None
                       else self._select_current())

    def step(self, tick: int, ctx):
        if tick < self.wake:
            return
        self.wake = tick + 1
        if self.role is None:
            if tick < self.start_tick:
                self.listen = None
                self.wake = self.start_tick
                return
            self.activate(tick, ctx)
        if self.role is Role.SCANNING:
            self._step_scan(tick, ctx)
        elif self.role is Role.HEAD:
            self._step_head(tick, ctx)
        else:
            self._step_member(tick, ctx)

    # -- sensing --

    def _do_sensing(self, tick: int, ctx) -> bool:
        """Refresh the stage map and weights; returns False when the node had
        to abandon its current role (master lost or no channels left)."""
        self.apply_observations(ctx.sense(self))
        if not self.stages:
            self._leave_for(None, tick, ctx)
            return False
        if self.p.swarm_enabled:
            self.weights = swarm.refresh_from_sensing(self.weights, self.stages,
                                                      self.p.alpha)
        if self.master not in self.stages and self.role is not Role.SCANNING:
            new = self._select_current()
            self._leave_for(new, tick, ctx)
            return False
        return True

    def _leave_for(self, new_master: int | None, tick: int, ctx):
        """Leave the current role (a head's cluster dissolves with it) and
        rescan at the new standing choice. `None` means that no channel is
        left: the change is logged as new=-1 and the node idles dormant."""
        old = self.master
        ctx.cancel_reform(self)
        if new_master != old:
            ctx.log(tick, "master-change", node=self.id, old=old,
                    new=-1 if new_master is None else new_master,
                    role=self.role.value)
        self._restart_scan(new_master, tick)

    # -- scanning ----------------------------------------------------------------

    def _step_scan(self, tick: int, ctx):
        if self.scan is None:                      # dormant: nothing available
            self.listen = None
            self.apply_observations(ctx.sense(self))
            if self.stages:
                self._restart_scan(None, tick)
            return
        s = self.scan
        sent = True
        if s.join_tx_tick == tick:
            ctx.transmit(self, s.current, JoinRequest(self.id, s.join_target))
        elif s.exch_tx_tick == tick:
            ctx.transmit(self, s.current, HelloFrame(self.hello()))
            s.exch_tx_tick = None
        else:
            self.listen = s.current
            sent = False
        if tick < s.interval_end:
            if not sent:
                self._sleep_scanning(tick, s.interval_end)
            return
        if s.join_target is not None:
            # request in flight: allow the response window to play out; a
            # target is taken only before `interval_end`, a tick the node steps
            deadline = s.interval_end + 2 * self.p.frame_len
            if tick < deadline:
                if not sent:
                    self._sleep_scanning(tick, deadline)
                return
            self._give_up_join(s.join_target)
        self._advance_scan(tick, ctx)

    def _sleep_scanning(self, tick: int, until: int):
        """Listen on the scan channel up to `until` or the node's next
        transmission, whichever comes first."""
        wake = until
        for t in (self.scan.join_tx_tick, self.scan.exch_tx_tick):
            if t is not None and tick < t < wake:
                wake = t
        self.wake = wake

    def _give_up_join(self, head: int):
        """Drop the join in flight and never ask `head` again this scan."""
        self.wake = 0
        s = self.scan
        s.rejections.add(head)
        s.join_target = None
        s.join_tx_tick = None

    def _advance_scan(self, tick: int, ctx):
        s = self.scan
        s.exch_tx_tick = None
        if not self._do_sensing(tick, ctx):
            return
        outcome = finish_scan_interval(s, self.stages, self.rng)
        if isinstance(outcome, FormCluster):
            self._form_cluster(outcome.channel, tick, ctx)
            return
        s.visited.add(outcome.channel)
        s.current = outcome.channel
        s.interval_end = tick + self.p.scan_interval_ticks
        s.heard = False
        self.master = self._select_current()
        self.listen = outcome.channel

    def _form_cluster(self, channel: int, tick: int, ctx):
        offset = self.rng.randrange(self.p.frame_len)
        self.become_head(channel, {}, offset,
                         _next_boundary(tick + 1, offset, self.p.frame_len))
        self.listen = channel
        ctx.log(tick, "form", node=self.id, channel=channel)

    # -- head --------------------------------------------------------------------

    def _step_head(self, tick: int, ctx):
        if tick < self.frame_start:
            self.listen = self.master
            self.wake = self.frame_start
            return
        rel = tick - self.frame_start
        if rel >= self.frame_gap:
            self.frame_start += self.frame_gap
            rel = tick - self.frame_start
        if rel == 0:
            self._head_frame_start(tick, ctx)
            return
        self._sleep_in_frame(rel)
        self._in_frame(rel, tick, ctx, offscan=not self.members)

    def _head_frame_start(self, tick: int, ctx):
        members = self.members
        heard = self.member_heard
        # mini-slot upkeep: a member not heard in the last
        # neighbor_ttl_superframes frames, up to the one just ended, is dropped
        ended = self.frames_in_cluster
        self.frames_in_cluster += 1
        self.offscan_ch = None
        for m in list(members):
            if ended - heard[m] >= self.p.neighbor_ttl_superframes:
                del members[m]
                del heard[m]
        rejects = ()
        first = self.join_first
        if first is not None:
            self.join_first = None
            slot = handle_join_request(members, first, self.p.max_slots)
            if slot is None:
                rejects = (first,)
            else:
                members[first] = slot
                heard[first] = ended
        self.sched = build_superframe(self.p, self.rng)
        self.frame_gap = self.p.frame_len
        if self.p.frame_jitter_max:
            self.frame_gap += self.rng.randrange(self.p.frame_jitter_max + 1)
        beacon = Beacon(
            gap=self.frame_gap, schedule=self.sched,
            members=dict(members), rejects=rejects,
            hello=self.hello(),
        )
        ctx.transmit(self, self.master, beacon)

    # -- member ------------------------------------------------------------------

    def _step_member(self, tick: int, ctx):
        if self.sched is None:
            # freshly (re)assigned: wait for the first beacon on the master
            self.listen = self.master
            if tick >= self.member_grace:
                self._leave_for(self._select_current(), tick, ctx)
            else:
                self.wake = self.member_grace
            return
        rel = tick - self.frame_start
        if rel >= self.frame_gap:
            self.frame_start += self.frame_gap
            self.frames_in_cluster += 1
            self.have_beacon = False
            self.offscan_ch = None
            rel = tick - self.frame_start
        if rel == 0:
            self.listen = self.master
            return
        self._sleep_in_frame(rel)
        if rel == 1 and not self.have_beacon:
            self.beacons_missed += 1
            if self.beacons_missed >= self.p.neighbor_ttl_superframes:
                self._leave_for(self._select_current(), tick, ctx)
                return
        if not self.have_beacon:
            self.listen = self.master
            if rel == self.p.frame_len - 1:
                self._frame_end(tick, ctx)
            return
        if rel == self.sched.nd_start + self.slot:
            ctx.transmit(self, self.master, HelloFrame(
                self.hello(), cluster_head=self.head_id,
                pra_start=self.frame_start + self.p.pra_start))
        else:
            self._in_frame(rel, tick, ctx, offscan=True)

    def _in_frame(self, rel: int, tick: int, ctx, offscan: bool):
        """Sense in the detection blocks (never a frame's last tick), listen
        off the master through the data period when `offscan` and on it
        otherwise, and close the frame on its last tick."""
        sched = self.sched
        blocks = sched.detect_blocks
        for start, end in blocks:
            if start <= rel < end:
                self.listen = None
                if rel == blocks[0][0]:
                    self._do_sensing(tick, ctx)
                return
        data_start = sched.data_start
        if offscan and data_start <= rel < data_start + self.p.data_ticks:
            if rel == data_start:
                self.offscan_ch = select_offmaster_scan(
                    self.master, self.stages, self.two_hop,
                    self.offscan_seen, self.rng)
                if self.offscan_ch is not None:
                    if self.offscan_seen:
                        self.offscan_seen.add(self.offscan_ch)
                    else:
                        self.offscan_seen = {self.offscan_ch}
            self.listen = self.offscan_ch if self.offscan_ch is not None else self.master
        else:
            self.listen = self.master
        if rel == self.p.frame_len - 1:
            self._frame_end(tick, ctx)

    def _sleep_in_frame(self, rel: int):
        """Keep doing what this tick does until the frame's next break: the
        schedule's next edge, a member's HELLO mini-slot or the tick after
        it, or else `frame_gap`, the start of the next frame."""
        edges = self.sched.edges
        i = bisect_right(edges, rel)
        nxt = edges[i] if i < len(edges) else self.frame_gap
        slot = self.slot
        if slot is not None:
            own = self.sched.nd_start + slot
            if rel == own:
                own += 1                # the tick after its HELLO
            if rel < own < nxt:
                nxt = own
        self.wake = self.frame_start + nxt

    def _frame_end(self, tick: int, ctx):
        if evict_stale(self.table, self.two_hop, tick, self.p.ttl_ticks):
            self._hello = None
        new = self._select_current()
        if new != self.master:
            self._leave_for(new, tick, ctx)
            return
        if (self.p.reform_enabled and self.frames_in_cluster >= 2
                and (self.frames_in_cluster + self.id) % self.p.reform_cadence == 0):
            ctx.try_reform(self, tick)

    # -- message handling ----------------------------------------------------------

    def on_message(self, msg, tick: int, ctx):
        if isinstance(msg, HelloFrame):
            self._on_hello(msg, tick, ctx)
        elif isinstance(msg, Beacon):
            self._on_beacon(msg, tick, ctx)
        elif isinstance(msg, JoinRequest):
            self._on_join_request(msg, tick)

    def _on_join_request(self, msg: JoinRequest, tick: int):
        """Keep the first request heard in this frame's public RA: the one
        the next frame start can admit. A node hears at most one message per
        tick, so the first heard is the earliest sent. A head steps before
        delivery and lays out each frame at its start, so a head that has no
        schedule yet has not reached its first frame: `rel` is negative."""
        if self.role is not Role.HEAD or msg.head != self.id:
            return
        rel = tick - self.frame_start
        if self.join_first is None and self.p.pra_start <= rel < self.p.frame_len:
            self.join_first = msg.sender

    def _on_hello(self, frame: HelloFrame, tick: int, ctx):
        hello = frame.hello
        self._hear_hello(hello, tick, frame.cluster_head)
        if self.role is Role.HEAD and hello.sender in self.members:
            self.member_heard[hello.sender] = self.frames_in_cluster
        s = self.scan
        if s is not None:
            s.heard = True
            # only a member's ND HELLO names its head, and its public RA
            if (frame.cluster_head is not None
                    and frame.cluster_head not in s.exch_done
                    and s.exch_tx_tick is None):
                t0 = frame.pra_start + self.rng.randrange(self.p.public_ra_ticks)
                if t0 > tick and t0 != s.join_tx_tick:
                    s.exch_tx_tick = t0
                    s.exch_done.add(frame.cluster_head)
                    self.wake = 0

    def _on_beacon(self, b: Beacon, tick: int, ctx):
        head = b.hello.sender
        self._hear_hello(b.hello, tick, head)
        if self.role is Role.SCANNING:
            self._scan_beacon(b, tick, ctx)
        elif self.role in MEMBER_ROLES and head == self.head_id:
            self._sync_with_beacon(b, tick, ctx)

    def _scan_beacon(self, b: Beacon, tick: int, ctx):
        if self.scan is None:
            return
        self.wake = 0
        s = self.scan
        s.heard = True
        head = b.hello.sender
        slot = b.members.get(self.id)
        if slot is not None and head == s.join_target:
            self._complete_join(b, slot, tick, ctx)
            return
        if self.id in b.rejects and head == s.join_target:
            self._give_up_join(head)
            self.master = self._select_current()
            ctx.log(tick, "reject", node=self.id, head=head,
                    channel=b.hello.master)
            return
        if head in s.rejections:
            return
        if s.join_target is None:
            s.join_target = head
            s.join_attempts = 1
            self.master = b.hello.master
            s.join_tx_tick = self._pra_backoff(tick)
        elif s.join_target == head and s.join_tx_tick < tick:
            if s.join_attempts >= JOIN_ATTEMPT_LIMIT:
                self._give_up_join(head)
                self.master = self._select_current()
            else:
                s.join_attempts += 1
                s.join_tx_tick = self._pra_backoff(tick)

    def _pra_backoff(self, tick: int) -> int:
        """A random tick of the public RA of the frame whose beacon arrived
        at `tick`."""
        return tick + self.p.pra_start + self.rng.randrange(self.p.public_ra_ticks)

    def _complete_join(self, b: Beacon, slot: int, tick: int, ctx):
        head, master = b.hello.sender, b.hello.master
        self.become_member(head, master, slot, None)
        self._follow_beacon(b, slot, tick)
        ctx.log(tick, "join", node=self.id, head=head, channel=master,
                slot=slot)

    def _sync_with_beacon(self, b: Beacon, tick: int, ctx):
        slot = b.members.get(self.id)
        if slot is None:
            self._leave_for(self._select_current(), tick, ctx)
            return
        self._follow_beacon(b, slot, tick)

    def _follow_beacon(self, b: Beacon, slot: int, tick: int):
        """Adopt the frame the head's beacon, heard at `tick`, starts."""
        self.wake = 0
        self.slot = slot
        self.sched = b.schedule
        self.frame_start = tick
        self.frame_gap = b.gap
        self.have_beacon = True
        self.beacons_missed = 0


def _next_boundary(tick: int, offset: int, frame_len: int) -> int:
    """Smallest t >= tick with t % frame_len == offset."""
    r = (offset - tick) % frame_len
    return tick + r
