"""Simulator of cluster-based cognitive mesh secondary-user networks.

Secondary users sense primary-user activity, pick control (master) channels
through a pheromone-style weight exchange carried by HELLO messages, organize
into head-led clusters over an unsynchronized superframe MAC, bridge clusters
with gateway nodes, and periodically re-optimize the cluster layout with a
greedy dominating-set negotiation. The package exposes a deterministic
discrete-time engine plus a CLI for single runs, seed sweeps, and the
with/without-swarm comparison harness.
"""

__version__ = "0.1.0"
