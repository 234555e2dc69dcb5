"""Periodic local cluster optimization.

A working node collects its host cluster and the 1-hop neighbor clusters on
the host's master into a local graph, once every node of them can use that
master. It runs a greedy dominating-set pass (max remaining same-channel
degree, lowest id on ties) to propose fewer clusters, and negotiates with
every affected head. The negotiation is all-or-nothing: the plan commits
atomically at a superframe boundary only once every head acknowledged within
the timeout; a denial, a timeout, or a stale world at commit time cancels it
with no state change, so a committed reformation always reduces the local
cluster count by exactly its stated gain.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LocalGraph:
    """The working node's optimization domain.

    nodes maps id -> control channel; edges maps each id to the ids its
    table entries join it to, symmetrically; current_clusters holds (head,
    master, member ids including the head) for every cluster represented in
    the node set.
    """

    nodes: dict
    edges: dict
    current_clusters: tuple


@dataclass(frozen=True)
class ReformPlan:
    """Proposed regrouping: (head, master, member ids including the head) per
    cluster; gain is current cluster count minus planned cluster count."""

    clusters: tuple
    gain: int


@dataclass(eq=False)
class Negotiation:
    """In-flight all-or-nothing exchange for one plan. It is live exactly
    while `World.neg_by_working` holds it, and each head it locks holds it as
    its `lock`; both compare by identity. `waiting` holds the heads whose ack
    is still due, never the working node: once it empties, the commit is
    queued."""

    working: int
    plan: ReformPlan
    affected: dict               # head id -> frozenset(member ids incl. head)
    deadline: int
    waiting: set


def build_local_graph(heads, tables) -> LocalGraph:
    """Assemble the local graph from cluster heads and neighbor tables.

    `heads` lists the host cluster's head first, then the heads of the 1-hop
    neighbor clusters, each with its `id`, `master` and `members` map; each
    node's control channel is its head's master. Edges come from the nodes'
    own 1-hop tables (either endpoint listing the other), which the engine
    keeps to nodes in range; stale knowledge yields a stale graph that
    commit-time validation will reject.
    """
    nodes = {}
    clusters = []
    for head in heads:
        ids = frozenset({head.id} | set(head.members))
        clusters.append((head.id, head.master, ids))
        for nid in ids:
            nodes[nid] = head.master
    edges = {nid: set() for nid in sorted(nodes)}
    for a, near in edges.items():
        for b in tables.get(a, ()):
            if b in edges and b != a:
                near.add(b)
                edges[b].add(a)
    return LocalGraph(nodes=nodes, edges={k: frozenset(v) for k, v in edges.items()},
                      current_clusters=tuple(clusters))


def greedy_mds(graph: LocalGraph, working_id: int,
               max_members: int | None = None) -> ReformPlan:
    """Greedy dominating-set regrouping of the local graph.

    The working node heads the first cluster and absorbs its unassigned
    1-hop neighbors on its control channel; then the remaining node with the
    most unassigned same-channel neighbors (ties to the lowest id) heads the
    next, until everyone is assigned. Cluster size respects the mini-slot
    budget when one is given.
    """
    control_of = graph.nodes
    unassigned = set(control_of)
    clusters = []

    def absorb(head):
        control = control_of[head]
        mates = [n for n in sorted(graph.edges[head])
                 if n in unassigned and n != head and control_of[n] == control]
        if max_members is not None:
            mates = mates[:max_members]
        members = (head, *mates)
        unassigned.difference_update(members)
        clusters.append((head, control, members))

    absorb(working_id)
    while unassigned:
        best_id = None
        best_deg = -1
        for n in sorted(unassigned):
            control = control_of[n]
            deg = sum(1 for v in graph.edges[n]
                      if v in unassigned and control_of[v] == control)
            if deg > best_deg:
                best_id, best_deg = n, deg
        absorb(best_id)
    gain = len(graph.current_clusters) - len(clusters)
    return ReformPlan(clusters=tuple(clusters), gain=gain)
