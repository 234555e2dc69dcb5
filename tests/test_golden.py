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
    ("default", 1): "6783dbd7f5debfb6c51c59a386e6513b8cef645ddfe7dfd48a2456c9277b1442",
    ("default", 2): "8edc2fb4cedb9d099f880b48016d27fa7e30ffa36937f524ead38ce034b91250",
    ("default", 3): "e3289d4aef556559b9f1dee78ee93072a12ee019ecf7d5309e80b705163e42a3",
    ("default_swarm_off", 1): "1cd69fad9651b933d66b15841f7b55923bb227ca8b92a85d57ab99f8d681510b",
    ("default_swarm_off", 2): "65645d17e5bbb290a209bbd40d139a016b18e8ef0b9f866e5edf4636215bdfe8",
    ("default_swarm_off", 3): "23b99a43331210b30d4f253bebf878657dbbcaba42098b8a9486d6fa960f0bfe",
    ("dynamic_pus", 1): "9699000969a61b0a1e7fa5afe55cc574c8f84e5ca77da9d304a690c9cf64c875",
    ("dynamic_pus", 2): "9becdf0d3ab6ac1b16ddcf8b1a437c4e0dfe91397982ee5f8020e38706f58ae9",
    ("dynamic_pus", 3): "6b9519cbc8374b88eaf75ee21d4db2678c27a36b8f9de7814dce0b18413215de",
    ("markov", 1): "bd358460c923273f102a5c3cfde803ad63f436e4173ddf0c3d056a59cd5a7cd5",
    ("markov", 2): "a497361453240ee3088a162d3ae56e0c266ac2d166c8a6f3f10263cd0568ff0b",
    ("markov", 3): "8e66922a7b6de5737516b848cca5533a99e7ca3ba902b15179499351c3c29f68",
    ("single_channel", 1): "bf83d8e2c98187036e731e3d767f2663ce155e8b96aabf805cf8e59505c1001a",
    ("single_channel", 2): "ecb080ea4540ee995415f0b77af67906926abd106da39a27faa30edcd43b86e1",
    ("single_channel", 3): "e3431436dea6083959b66f3feb69f5eb1767c508dd19a59dcac65a6aada6020d",
    ("n200", 1): "98197b986894a0dc5f35c3ab5ef0bf84bdb703fd0c225b632b91622625c2f4c6",
    ("markov_window", 1): "a0664a83549090875bb7b3dc6b56bc616df1306f54a738f35cc2fd624be19077",
    ("markov_window", 2): "ea96dc4e08c568fb10bea09a5dc37cd2f399e40e971ced0064ab48a231997d4e",
    ("markov_window", 3): "4d58f6d9c3461d28099e34a66b73a13fa6e4d9e7a2dbd07952448216f9c75e8d",
    ("hop_window", 1): "3682f676a2767a1c6366f2624157edaed4efdd10641426e5a1d8af6326833b74",
    ("hop_window", 2): "0ef661846ae85403aebedeb18ba3b4e7cc426d690169da562a98dc190ef59fe2",
    ("hop_window", 3): "217eafe51ef7dfe06131b29e644de3aa32740d89350f02e2caadece8d0b0ee45",
    ("one_cell", 1): "9b7c78eb41700749d4c507aa378eb635fa3251735e1628228bc3e81708f4d47b",
    ("long_thin", 1): "6478ee43b8bf617fb54c08e85025a0415d873a2aaa2bee296c4d5929e5ae43d1",
    ("loud_pus", 1): "a3c38d633e0ea1d05d6b484dc2ebac5f1428061dd560156af1aa7b953ea61c1d",
    ("loud_pus", 2): "59b161b0feb3d3ad8d14c14660301ef7e90dcce91e212fb55da4587eb077b0a8",
    ("mesh1600", 1): "3ddfc96233ca4137d7a422f2dfe5b8e79fc26f4c493da2c1a806dde6710fe68a",
    ("mesh3200", 1): "8633d7a282d86bf8da35b95e102fbd16c65bbc2a8dad5dc19e67561de66bda5e",
    ("blackout", 1): "f5bba26c1d9e3b444ec0a3933a1309cc00bc19499096956af9511cb0f3e190cd",
    ("blackout", 2): "c0ee907daac269fa8955ffe6771328f69dc1562011fcb0a6b4b6f09500608c41",
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
