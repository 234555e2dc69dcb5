"""Periodic local cluster optimization.

A working node collects its host cluster and the 1-hop neighbor clusters on
the host's master, once every node of them can use that master, so every
node of the plan shares that one channel. `build_local_graph` joins those
nodes along their table entries, and a greedy dominating-set pass
(`greedy_mds`: max remaining degree, lowest id on ties) proposes fewer
clusters. One `Negotiation` holds the proposal and the exchange with every
affected head. The negotiation is all-or-nothing: the plan commits
atomically at a superframe boundary only once every head acknowledged within
the timeout; a denial, a timeout, or a stale world at commit time cancels it
with no state change, so a committed reformation always reduces the local
cluster count by exactly its stated gain.
"""

from __future__ import annotations

from dataclasses import dataclass


def cluster_nodes(head) -> frozenset:
    """The node ids of the cluster `head` heads: its own and its members'."""
    return frozenset({head.id} | set(head.members))


@dataclass(eq=False)
class Negotiation:
    """In-flight all-or-nothing exchange for one plan on `master`. It is live
    exactly while `World.neg_by_working` holds it, and each head it locks
    holds it as its `lock`; both compare by identity.

    `clusters` is the plan, a (head, member ids including the head) pair per
    planned cluster; `affected` maps each current head to the node ids of
    its cluster, as `cluster_nodes` gave them at proposal time. `waiting`
    holds the heads whose ack is still due, never the working node: once it
    empties, the commit is queued."""

    working: int
    master: int
    clusters: tuple
    affected: dict
    waiting: set

    @property
    def gain(self) -> int:
        """Current cluster count minus planned cluster count."""
        return len(self.affected) - len(self.clusters)


def build_local_graph(affected, nodes) -> dict:
    """The edge map over the nodes of the `affected` clusters (head id ->
    node ids): each node id maps to the frozenset of ids its table entries
    join it to, symmetrically, so its keys are the node set in ascending id
    order.

    `nodes` is indexed by id. Edges come from the nodes' own 1-hop tables
    (either endpoint listing the other), which the engine keeps to nodes in
    range; stale knowledge yields a stale graph that commit-time validation
    will reject.
    """
    edges = {nid: set() for nid in sorted(set().union(*affected.values()))}
    for a, near in edges.items():
        for b in nodes[a].table:
            if b in edges and b != a:
                near.add(b)
                edges[b].add(a)
    return {k: frozenset(v) for k, v in edges.items()}


def greedy_mds(edges, working_id: int, max_members: int | None = None) -> tuple:
    """Greedy dominating-set regrouping of the local graph `edges`, as
    (head, member ids including the head) per planned cluster.

    The working node heads the first cluster and absorbs its unassigned
    1-hop neighbors; then the remaining node with the most unassigned
    neighbors (ties to the lowest id) heads the next, until everyone is
    assigned. Cluster size respects the mini-slot budget when one is given.
    """
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
    return tuple(clusters)
