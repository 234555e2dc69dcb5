"""Golden digests: pinned sha256 of metrics.csv + events.log over a small
scenario matrix.

Criterion 8 only shows that one build agrees with itself; these digests
catch a refactor that quietly changes results between builds. A change that
alters behaviour on purpose re-pins them and says why.

The digests rely on CPython's `random` sequences for integer seeds
(`random.Random(int)`, `getrandbits`, `randrange`, `uniform`), so they hold
only on an interpreter that reproduces those sequences.
"""

import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from cogmesh.cli import parse_scenario, write_run_outputs
from cogmesh.engine import ScenarioConfig, World

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SIDE_200 = 1000.0 * math.sqrt(4)     # default density (50 SUs per km^2) at n=200
SIDE_1600 = 1000.0 * math.sqrt(32)   # the same density at n=1600
SIDE_3200 = 1000.0 * math.sqrt(64)   # and at n=3200

# the scale cases, which take longer than all other bases together; only
# their golden digests run them
SCALE_BASES = {"mesh1600", "mesh3200"}

BASES = {
    "default": lambda: parse_scenario(str(SCENARIOS / "default.cfg")),
    # the same 50 SUs choosing masters by best sensed stage, without the swarm
    "default_swarm_off": lambda: replace(
        parse_scenario(str(SCENARIOS / "default.cfg")), swarm_enabled=False),
    # periodic PUs hopping channel every 500 ticks
    "dynamic_pus": lambda: parse_scenario(str(SCENARIOS / "dynamic_pus.cfg")),
    "markov": lambda: ScenarioConfig(su_count=30, channel_count=4, pu_count=4,
                                     pu_model="markov", duration_ticks=1500),
    # criterion 7's single-channel formation setting
    "single_channel": lambda: ScenarioConfig(
        su_count=20, channel_count=1, area_width=700.0, area_height=700.0,
        duration_ticks=1800, startup_spread_ticks=1200, reform_enabled=False),
    "n200": lambda: ScenarioConfig(su_count=200, channel_count=8,
                                   area_width=SIDE_200, area_height=SIDE_200,
                                   duration_ticks=800),
    # Markov PUs sensed over an 8-tick window, two detection periods
    "markov_window": lambda: ScenarioConfig(
        su_count=30, channel_count=8, pu_count=16, pu_model="markov",
        pu_p_on=0.01, pu_p_off=0.02, sensing_window_ticks=8, detect_periods=2,
        pu_protection_radius=200.0),
    # PUs hop every 2 ticks, so each 3-tick window spans two channels
    "hop_window": lambda: ScenarioConfig(
        su_count=30, channel_count=6, pu_count=3, pu_model="periodic",
        pu_period_ticks=2, pu_duty=1.0, pu_hop=True, sensing_window_ticks=3),
    # comm_range beyond the area's diagonal: every SU hears every other
    "one_cell": lambda: ScenarioConfig(
        su_count=30, channel_count=4, area_width=400.0, area_height=400.0,
        comm_range=600.0, duration_ticks=1000),
    # a long thin strip whose in-range pairs cross many comm_range borders
    "long_thin": lambda: ScenarioConfig(
        su_count=60, channel_count=8, area_width=4000.0, area_height=250.0,
        duration_ticks=1000),
    # Markov PUs loud enough that their far-field interference lowers stages
    # at some sensing positions (seed 1: 15 of 40, seed 2: 8 of 40) and
    # cannot move a stage at the others
    "loud_pus": lambda: ScenarioConfig(
        su_count=40, channel_count=4, pu_count=6, pu_model="markov",
        pu_p_on=0.05, pu_p_off=0.05, pu_power=2000.0, sensing_window_ticks=4,
        duration_ticks=1200),
    # the scale case: cluster bookkeeping and gateway links at n=1600
    "mesh1600": lambda: ScenarioConfig(su_count=1600, channel_count=8,
                                       area_width=SIDE_1600,
                                       area_height=SIDE_1600,
                                       duration_ticks=500),
    # 200 ticks form about a thousand clusters and a few thousand gateway
    # links, so maintenance and link validation run on links at scale
    "mesh3200": lambda: ScenarioConfig(su_count=3200, area_width=SIDE_3200,
                                       area_height=SIDE_3200,
                                       duration_ticks=200),
    # PUs on air long enough, and wide enough, that nodes lose every channel:
    # heads, gateways, ordinary members and scanning nodes all rescan with
    # nothing left to choose (a `master-change` event with new=-1)
    "blackout": lambda: ScenarioConfig(
        su_count=30, channel_count=3, pu_count=9, pu_model="markov",
        pu_p_on=0.005, pu_p_off=0.01, pu_protection_radius=800.0,
        duration_ticks=1500),
}

GOLDEN = {
    ("default", 1): "726d2949c7c3456b749f29e84e47f54c4bdd7fd353f703dabe3f1819e8b2c8e9",
    ("default", 2): "3de068e9a3dbb3e7b94002da1c41e61488466b31e406ffd3da3ade908f6c1ecd",
    ("default", 3): "161b68bc74e917e616b118deab6e709ea4a60eb85fa872901cd69cde1e39c34d",
    ("default_swarm_off", 1): "1cd69fad9651b933d66b15841f7b55923bb227ca8b92a85d57ab99f8d681510b",
    ("default_swarm_off", 2): "65645d17e5bbb290a209bbd40d139a016b18e8ef0b9f866e5edf4636215bdfe8",
    ("default_swarm_off", 3): "23b99a43331210b30d4f253bebf878657dbbcaba42098b8a9486d6fa960f0bfe",
    ("dynamic_pus", 1): "8dc8592b24bc63b9e13e5a0f7cc5904a1ca3608dcc0fe05dd6ef3566a06b1662",
    ("dynamic_pus", 2): "ecc10a0a3f11f70788dca99fdf52b5cf040a23c2eb8a1099b3cfbab3470f07c9",
    ("dynamic_pus", 3): "f4c911d1e0317eab98872747e5897679e8cf4bc674d788309b44a3ba84109430",
    ("markov", 1): "bd358460c923273f102a5c3cfde803ad63f436e4173ddf0c3d056a59cd5a7cd5",
    ("markov", 2): "72e1224a3d68e06783393203b47209d021b16766ff9e8fe643b468adc08b62cb",
    ("markov", 3): "8e66922a7b6de5737516b848cca5533a99e7ca3ba902b15179499351c3c29f68",
    ("single_channel", 1): "bf83d8e2c98187036e731e3d767f2663ce155e8b96aabf805cf8e59505c1001a",
    ("single_channel", 2): "ecb080ea4540ee995415f0b77af67906926abd106da39a27faa30edcd43b86e1",
    ("single_channel", 3): "e3431436dea6083959b66f3feb69f5eb1767c508dd19a59dcac65a6aada6020d",
    ("n200", 1): "4be47220f03aacdbf9075f7a1c4a4f5ed78b45d9854f80208b5016298cc98977",
    ("markov_window", 1): "472b08ee73c99b3f97c5c02172f0c6ff9efda17ef8e9f876bc2c1ee93a912a30",
    ("markov_window", 2): "5a657a5aafeb3eb2e0a817817df002093d4700497d8bd1750fff9a3ac7a7bdac",
    ("markov_window", 3): "4d58f6d9c3461d28099e34a66b73a13fa6e4d9e7a2dbd07952448216f9c75e8d",
    ("hop_window", 1): "549fbfbe3491930439848b7ecf8ff9d35f7ecd82b858e7bdbbdf944189c2f259",
    ("hop_window", 2): "8a2dcb039d04e23719c06255698d3cce6c02029b6f2fb4ed52fc352c148fc83b",
    ("hop_window", 3): "72f96a2e7e3373f77167f38e5b3311ad71f00e5863dedfc8c23b2723f7bbbec6",
    ("one_cell", 1): "cf49e75081573c2e1c67ce1a808120c73abd5c354ca01f4b16add12bd02bfd1a",
    ("long_thin", 1): "efb5aca519209acc9f41dc80bbabc73c84553c99ace1a4ccebc857bc441f9057",
    ("loud_pus", 1): "4d2021442809b9c07f3bafb754334fa2755e35303cdcb1d2e1fb963f56b8dae3",
    ("loud_pus", 2): "59b161b0feb3d3ad8d14c14660301ef7e90dcce91e212fb55da4587eb077b0a8",
    ("mesh1600", 1): "ff9cf2aed784f6ff161a9090fb0aeba47b0a59528fb32ef5be9c9877a90c0b2f",
    ("mesh3200", 1): "9f430fe017d4331085febf81904c6acaf4f8530dfe7a93989725b5892a6deb4c",
    ("blackout", 1): "e8469cb7232acc08bf661c536f8c1d291d8fe0c34c559fd172276ba8018df865",
    ("blackout", 2): "e3b570515bc0ee1d246624350649c74c6ee56b3b1968f27e1cd54ac9b5acc470",
}


def output_files(result):
    """metrics.csv and events.log of a run, by name."""
    with tempfile.TemporaryDirectory() as out:
        write_run_outputs(result, out)
        return {name: (Path(out) / name).read_bytes()
                for name in ("metrics.csv", "events.log")}


def digest(outputs):
    """The golden digest of a run's output files."""
    return hashlib.sha256(outputs["metrics.csv"] + outputs["events.log"]).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_golden_digest(name, seed):
    result = World(replace(BASES[name](), seed=seed), validate=True).run()
    assert digest(output_files(result)) == GOLDEN[(name, seed)]
