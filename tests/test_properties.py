"""Metamorphic properties: two ways to change a run's input whose effect on
the outputs is known without knowing the outputs.

Goldens pin what a run writes, so a change that re-pins them is guarded by
nothing it re-pins. These properties hold across such a change. They catch
a hidden dependence on axis order, on state that nodes share, or between
parts of the network that cannot hear each other.

- Transposition: swapping every SU's and PU's x and y, and the area's width
  and height, leaves `metrics.csv` and `events.log` byte-identical. Every
  distance is `dx*dx + dy*dy`, and float addition commutes.
- Locality: a second, disjoint copy of a PU-free world, far out of range,
  leaves the events of the first copy as they were, in the same order. Node
  i's random stream does not depend on `su_count`, and nothing but the
  ether links two nodes. The property is stated for PU-free worlds only:
  Markov PUs draw from one environment stream in PU order, so a second
  group's PUs would shift the first group's draws, and every PU adds
  far-field interference at every position.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings

from cogmesh.engine import World
from test_engine import small_scenarios
from test_golden import BASES, GOLDEN, SCALE_BASES, digest, output_files

PROPERTY_BASES = sorted(set(BASES) - SCALE_BASES)
PU_FREE_BASES = [name for name in PROPERTY_BASES if BASES[name]().pu_count == 0]
SEEDS = (1, 2)
# the fields of an event that name a node
NODE_FIELDS = ("node", "head", "working", "cluster_a", "cluster_b")


def drawn_inputs(world):
    """The SU positions and start ticks and the PUs that `world` drew."""
    return ([n.pos for n in world.nodes], [n.start_tick for n in world.nodes],
            [state.pu for state in world.env.pus])


def run_with_inputs(cfg):
    """A run of `cfg`, with the inputs it drew and its output files."""
    world = World(cfg)
    inputs = drawn_inputs(world)
    result = world.run()
    return inputs, result.events, output_files(result)


@lru_cache(maxsize=None)
def golden_base_run(name, seed):
    """One run of a golden base, shared by both properties."""
    return run_with_inputs(replace(BASES[name](), seed=seed))


def transposed_outputs(cfg, inputs):
    positions, starts, pus = inputs
    world = World(replace(cfg, area_width=cfg.area_height,
                          area_height=cfg.area_width),
                  su_positions=[(y, x) for x, y in positions],
                  su_start_ticks=starts,
                  pus=[replace(pu, pos=(pu.pos[1], pu.pos[0])) for pu in pus])
    return output_files(world.run())


def first_group_events(cfg, inputs):
    """The events of the first `su_count` nodes when a copy of them runs
    beside them, more than ten comm ranges to their right; fails if an event
    names nodes of both copies."""
    positions, starts, _ = inputs
    k = cfg.su_count
    shift = cfg.area_width + 11 * cfg.comm_range
    world = World(replace(cfg, su_count=2 * k),
                  su_positions=positions + [(x + shift, y) for x, y in positions],
                  su_start_ticks=starts + starts)
    first = []
    for event in world.run().events:
        below = [event.get(key) < k for key in NODE_FIELDS if key in event.keys]
        assert all(below) or not any(below), event.line()
        if all(below):
            first.append(event.line())
    return first


class TestTransposition:
    @pytest.mark.parametrize("name, seed", product(PROPERTY_BASES, SEEDS))
    def test_golden_base(self, name, seed):
        cfg = replace(BASES[name](), seed=seed)
        transposed = transposed_outputs(cfg, drawn_inputs(World(cfg)))
        # `test_golden.py` checks the plain run against its pinned digest, so
        # a transposed run that matches the pin needs no plain run here
        if digest(transposed) != GOLDEN.get((name, seed)):
            assert transposed == golden_base_run(name, seed)[2]

    @given(small_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_small_scenarios(self, cfg):
        inputs, _, outputs = run_with_inputs(cfg)
        assert transposed_outputs(cfg, inputs) == outputs


class TestLocality:
    @pytest.mark.parametrize("name, seed", product(PU_FREE_BASES, SEEDS))
    def test_golden_base(self, name, seed):
        inputs, events, _ = golden_base_run(name, seed)
        cfg = replace(BASES[name](), seed=seed)
        assert first_group_events(cfg, inputs) == [e.line() for e in events]

    @given(small_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_small_scenarios(self, cfg):
        cfg = replace(cfg, pu_count=0)
        inputs, events, _ = run_with_inputs(cfg)
        assert first_group_events(cfg, inputs) == [e.line() for e in events]
