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
    ("default", 1): "ead3728592c5394bb1810ab6e99e9f8eba70bcf97bc3e7432840b14b40c88cf0",
    ("default", 2): "705373ef74811c39a31bba106f22126f8bb1317290cb03df2ecb61b9bcebe3dc",
    ("default", 3): "9b470f3faf8e6cca349ad31364029d725f49d1b95c0cac12c286ae8324e970e7",
    ("default_swarm_off", 1): "5a009c3027e635483beab5ff22764f766892c5e5331792d592f9080c1d0e18ec",
    ("default_swarm_off", 2): "4f1b6ab23aec13f326d06313c6fe999d067e2cfd884b4b1aec30b2ad5dcb7236",
    ("default_swarm_off", 3): "e0951c9cd2f385b2ecb45ed1ce1e50c92c6496aec386c310b9a1877d99bc8f85",
    ("dynamic_pus", 1): "675fd6eb0521b7a9057877f70bcbd969d5c08a0b428ada651211a02a60ad0111",
    ("dynamic_pus", 2): "f2c0e92634ab9c49ca8cf7c587fa4cc9dfb6bbba6be654e91d749f6a9d34f6fd",
    ("dynamic_pus", 3): "4b7ba99d4a4db22b7544bf9d52d96f832c91aceee2fc5c8a914dc3e5e9e67506",
    ("markov", 1): "3df5915d7cf4cf768d2976408f2becab4bc2f473291cff970517c5a2aae048e2",
    ("markov", 2): "eaa212bb6c5bbb0cfdf18e18beb77f6c3bf177a701785e8e15ac8f770e3e76f0",
    ("markov", 3): "608c23764f7171c8dabf61836a3b5d00983271796ac67730e204d0d37c896182",
    ("single_channel", 1): "bf83d8e2c98187036e731e3d767f2663ce155e8b96aabf805cf8e59505c1001a",
    ("single_channel", 2): "ecb080ea4540ee995415f0b77af67906926abd106da39a27faa30edcd43b86e1",
    ("single_channel", 3): "e3431436dea6083959b66f3feb69f5eb1767c508dd19a59dcac65a6aada6020d",
    ("n200", 1): "8ffd2f1ad3337328f6e5b1436bd3c0f002a135356d0d33a444f0562a97c34353",
    ("markov_window", 1): "472b08ee73c99b3f97c5c02172f0c6ff9efda17ef8e9f876bc2c1ee93a912a30",
    ("markov_window", 2): "5a657a5aafeb3eb2e0a817817df002093d4700497d8bd1750fff9a3ac7a7bdac",
    ("markov_window", 3): "f8c53a0b9a5f02a54b6012a3b2327a7b733aeb25bffb94dd3e9b821f363fb63b",
    ("hop_window", 1): "103a0b812f3e27ac41afb21931f9b383d96a4dafa88e7080d4ab5f9a69a97647",
    ("hop_window", 2): "3c3523f6f95f44222b1e501a002e9b9a5317e484b75c991628feaf7306e82c1d",
    ("hop_window", 3): "72f96a2e7e3373f77167f38e5b3311ad71f00e5863dedfc8c23b2723f7bbbec6",
    ("one_cell", 1): "40a14b18cf6a0f500cb96ea0c3b353515136ae92dec3b31d8ea7e7992526db1e",
    ("long_thin", 1): "d50f254e04e964b5224a0d9f2a8f4dd2be8fc4b9f1e4f5b09820237256e5a5bf",
    ("loud_pus", 1): "4d2021442809b9c07f3bafb754334fa2755e35303cdcb1d2e1fb963f56b8dae3",
    ("loud_pus", 2): "04bbe419fca60c3b5c93ebfde812de3e358a42470afff1f7ef1e75510840daa7",
    ("mesh1600", 1): "2f2930778a100ec1f34cb72aac7f337074944dc61766af55a34a7876976e009b",
    ("mesh3200", 1): "fc002ae3df14765e2741ffef079cb5e368e18b86a396e03efa7edabb19dc6c2b",
    ("blackout", 1): "5d1d940029594a7a8a542590a4d057a4919071cd0a2945aec8b850b5e1331435",
    ("blackout", 2): "6317404402d7f757f4ed0ac5ffe0a6cefd039de3bc87d929eee773a515dbf8a4",
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
