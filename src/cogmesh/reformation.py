"""Periodic local cluster optimization.

A working node collects its host cluster and the 1-hop neighbor clusters on
the host's master into a local graph, once every node of them can use that
master, so every node of the graph shares that one channel. It runs a greedy
dominating-set pass (max remaining degree, lowest id on ties) to propose
fewer clusters, and negotiates with every affected head. The negotiation is
all-or-nothing: the plan commits atomically at a superframe boundary only
once every head acknowledged within the timeout; a denial, a timeout, or a
stale world at commit time cancels it with no state change, so a committed
reformation always reduces the local cluster count by exactly its stated
gain.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LocalGraph:
    """The working node's optimization domain, on the one master its nodes
    share.

    edges maps each node id to the ids its table entries join it to,
    symmetrically, so its keys are the node set; clusters maps each current
    head to its member ids, the head included.
    """

    master: int
    edges: dict
    clusters: dict


@dataclass(frozen=True)
class ReformPlan:
    """Proposed regrouping on `master`: (head, member ids including the
    head) per cluster; gain is current cluster count minus planned cluster
    count."""

    master: int
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
    waiting: set


def build_local_graph(heads, tables) -> LocalGraph:
    """Assemble the local graph from cluster heads and neighbor tables.

    `heads` lists the host cluster's head first, then the heads of the 1-hop
    neighbor clusters, each with its `id`, `master` and `members` map; all
    share the host's master. Edges come from the nodes' own 1-hop tables
    (either endpoint listing the other), which the engine keeps to nodes in
    range; stale knowledge yields a stale graph that commit-time validation
    will reject.
    """
    clusters = {head.id: frozenset({head.id} | set(head.members)) for head in heads}
    edges = {nid: set() for nid in sorted(set().union(*clusters.values()))}
    for a, near in edges.items():
        for b in tables.get(a, ()):
            if b in edges and b != a:
                near.add(b)
                edges[b].add(a)
    return LocalGraph(master=heads[0].master,
                      edges={k: frozenset(v) for k, v in edges.items()},
                      clusters=clusters)


def greedy_mds(graph: LocalGraph, working_id: int,
               max_members: int | None = None) -> ReformPlan:
    """Greedy dominating-set regrouping of the local graph.

    The working node heads the first cluster and absorbs its unassigned
    1-hop neighbors; then the remaining node with the most unassigned
    neighbors (ties to the lowest id) heads the next, until everyone is
    assigned. Cluster size respects the mini-slot budget when one is given.
    """
    edges = graph.edges
    unassigned = set(edges)
    clusters = []

    def absorb(head):
        members = (head, *sorted(edges[head] & unassigned)[:max_members])
        unassigned.difference_update(members)
        clusters.append((head, members))

    absorb(working_id)
    while unassigned:
        # max keeps the first, so the lowest id, of the best degrees
        absorb(max(sorted(unassigned), key=lambda n: len(edges[n] & unassigned)))
    return ReformPlan(master=graph.master, clusters=tuple(clusters),
                      gain=len(graph.clusters) - len(clusters))
