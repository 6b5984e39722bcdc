"""Golden sha256 of the canonical ``chain_report`` bytes.

The digests pin the whole report: manifest hashes, checks, oracle minima and
states, skip messages and gap rows.  A change that alters the report on
purpose regenerates them with ``sha256(canonical_bytes(run_chain(...)))`` and
says so.  The generated cases use state caps at which the walk stops every
oracle stage (an empty gap table) and at which some stages finish.  At a cap
below the label-cover search's nodes, which no stage can skip, ``run_chain``
raises instead.
"""

from __future__ import annotations

import hashlib

import pytest

from gapforge import fixtures
from gapforge.errors import SearchSpaceTooLarge
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.pipeline import run_chain
from gapforge.serialize import canonical_bytes

GOLDEN = {
    ("lc_id2", "default"): "dcefa0262d7f460d08f10de04574ca52358d9116d7cbbe650279041784e78223",
    ("lc_id2", "box1"): "18a86649178c4b79d593048e860a23eb0e422290c8848ecbb8ed032f23da0c07",
    ("lc_id2", "cap100"): "dcefa0262d7f460d08f10de04574ca52358d9116d7cbbe650279041784e78223",
    ("lc_cyc", "default"): "badb3be58272b3a1debc427d5da58241f9a0438a73acd5fe30fef4aeb9027149",
    ("lc_cyc", "box1"): "cb7db78c4a10826fb662682ab0f4aa423dae0c66d88eb8d69f8a11efd6026c1a",
    ("lc_cyc", "cap100"): "badb3be58272b3a1debc427d5da58241f9a0438a73acd5fe30fef4aeb9027149",
    ("lc_share", "default"): "a3e1c49b6b16901a70810221e9229d533d9ebf1d3e857d5ca806701bf9516e59",
    ("lc_share", "box1"): "832e2e3c606ec47132bc0df84e7c566376ea13c627967c156bfde32756243be9",
    ("lc_share", "cap100"): "a3e1c49b6b16901a70810221e9229d533d9ebf1d3e857d5ca806701bf9516e59",
    ("lc_2to1", "default"): "34040640e0c04c8825195833166253064c68491a1a3041ff79f07202da40ced6",
    ("lc_2to1", "box1"): "cc81179888eba5d4e05f9899387406e7af03a91e9644fb685a2edbef60551865",
    ("lc_2to1", "cap100"): "34040640e0c04c8825195833166253064c68491a1a3041ff79f07202da40ced6",
    ("planted", "cap3000"): "26bafdbcbcc5c6069f83833b84f5277139e96b9e873c97705ec21518f9e2d736",
    ("planted", "cap700"): "26bafdbcbcc5c6069f83833b84f5277139e96b9e873c97705ec21518f9e2d736",
    ("planted", "cap100"): "26bafdbcbcc5c6069f83833b84f5277139e96b9e873c97705ec21518f9e2d736",
    ("planted", "cap50"): "26bafdbcbcc5c6069f83833b84f5277139e96b9e873c97705ec21518f9e2d736",
    ("planted", "cap16"): "be4ab8bbfbdbd434598b2cb378855612f58e34f3f03b51da2eeecd41df39b924",
    ("planted", "cap15"): "fea0178b49ec8333ccaa0623dc822fa23751d3300a6b44e3e0351a6e4760208e",
    ("frustrated", "cap3000"): "22332b5e38f89de1ecf1f19c5ebaa832dcb3028d39a99fa20a6b528243f2f6a7",
    ("frustrated", "cap700"): "22332b5e38f89de1ecf1f19c5ebaa832dcb3028d39a99fa20a6b528243f2f6a7",
    ("frustrated", "cap100"): "22332b5e38f89de1ecf1f19c5ebaa832dcb3028d39a99fa20a6b528243f2f6a7",
    ("frustrated", "cap22"): "3ee22844ac576974f92a7368b8ec730e636a6af9cd82fff7264b8867136863cb",
}
# (states, cap) of the SearchSpaceTooLarge the label-cover search raises
RAISES = {("frustrated", "cap16"): (17, 16)}

SETTINGS = {"default": {}, "box1": {"box": 1}, "cap100": {"max_states": 100},
            "cap3000": {"max_states": 3000}, "cap700": {"max_states": 700}, "cap50": {"max_states": 50},
            "cap16": {"max_states": 16}, "cap15": {"max_states": 15}, "cap22": {"max_states": 22}}
# the oracle stages that run (are not skipped) in each generated case
RUNNING = {
    ("planted", "cap3000"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("planted", "cap700"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("planted", "cap100"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("planted", "cap50"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("planted", "cap16"): ["sis"],
    ("planted", "cap15"): [],
    ("frustrated", "cap3000"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("frustrated", "cap700"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("frustrated", "cap100"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("frustrated", "cap22"): ["sis"],
}


def _instance(name):
    if name in fixtures.FIXTURE_NAMES:
        return fixtures.load(name)
    planted = gen_label_cover(GenSpec(4, 3, 2, 2, 2, 1, planted=True, seed=11000))
    return planted if name == "planted" else frustrate(planted, 1, seed=11000)


@pytest.mark.parametrize("name,setting", sorted(GOLDEN.keys() | RAISES.keys()))
def test_chain_report_bytes_are_golden(name, setting):
    if (name, setting) in RAISES:
        with pytest.raises(SearchSpaceTooLarge) as exc:
            run_chain(_instance(name), **SETTINGS[setting])
        assert (exc.value.states, exc.value.cap) == RAISES[name, setting]
        return
    doc = run_chain(_instance(name), **SETTINGS[setting])
    if (name, setting) in RUNNING:
        assert [k for k, v in doc["oracles"].items() if "skipped" not in v] == RUNNING[name, setting]
        assert len(doc["gap_report"]["rows"]) == len(RUNNING[name, setting])
    assert hashlib.sha256(canonical_bytes(doc)).hexdigest() == GOLDEN[name, setting]
