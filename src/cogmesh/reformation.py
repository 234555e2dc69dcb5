"""Periodic local cluster optimization.

A working node collects its host cluster and the 1-hop neighbor clusters into
a local graph, runs a greedy dominating-set pass (max remaining same-channel
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

    nodes maps id -> (control channel, available channels, such as the
    node's stage map); edges is a symmetric adjacency map; current_clusters
    holds (head, master, member ids including the head) for every cluster
    represented in the node set.
    """

    nodes: dict
    edges: dict
    current_clusters: tuple

    def control(self, node_id: int) -> int:
        return self.nodes[node_id][0]


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


def build_local_graph(working_id: int, heads, tables, availability) -> LocalGraph:
    """Assemble the local graph from cluster heads and neighbor tables.

    `heads` lists the host cluster's head first, then the heads of the 1-hop
    neighbor clusters, each with its `id`, `master` and `members` map; edges
    come from the nodes' own 1-hop tables (either endpoint listing the
    other), so stale knowledge yields a stale graph that commit-time
    validation will reject.
    """
    nodes = {}
    clusters = []
    for head in heads:
        ids = frozenset({head.id} | set(head.members))
        clusters.append((head.id, head.master, ids))
        for nid in ids:
            nodes[nid] = (head.master, availability.get(nid, frozenset()))
    edges = {nid: set() for nid in sorted(nodes)}
    for a, near in edges.items():
        for b in tables.get(a, ()):
            if b in edges and b != a:
                near.add(b)
                edges[b].add(a)
    if working_id not in nodes:
        raise ValueError("working node missing from its own local graph")
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
    unassigned = set(graph.nodes)
    clusters = []

    def absorb(head):
        control = graph.control(head)
        mates = [n for n in sorted(graph.edges[head])
                 if n in unassigned and n != head and graph.control(n) == control]
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
            control = graph.control(n)
            deg = sum(1 for v in graph.edges[n]
                      if v in unassigned and graph.control(v) == control)
            if deg > best_deg:
                best_id, best_deg = n, deg
        absorb(best_id)
    gain = len(graph.current_clusters) - len(clusters)
    return ReformPlan(clusters=tuple(clusters), gain=gain)


def plan_is_feasible(plan: ReformPlan, graph: LocalGraph) -> bool:
    """Plan invariants: partition of the node set, members adjacent to their
    head, and every member able to use the cluster master."""
    covered = []
    for head, master, members in plan.clusters:
        if head not in members:
            return False
        for m in members:
            covered.append(m)
            if m != head and m not in graph.edges[head]:
                return False
            if master not in graph.nodes[m][1]:
                return False
    return sorted(covered) == sorted(graph.nodes)
