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
    ("lc_id2", "default"): "eb33f6be0494ac510180304c41066a622ebdafb206598f3da8881bdbe8213814",
    ("lc_id2", "box1"): "01fc0aafb863d5ec3cd5ec08e9e240c353e79892610704f5db19095f650db4e0",
    ("lc_id2", "cap100"): "eb33f6be0494ac510180304c41066a622ebdafb206598f3da8881bdbe8213814",
    ("lc_cyc", "default"): "dcd1b761c400b3f6fe8b14486e7e1ae9369bc1e17412f3f90df57a60b196f15e",
    ("lc_cyc", "box1"): "a14ef1ecf4aa34ee485c0627b82832297634e79b2c807d80bef629618e9fed9c",
    ("lc_cyc", "cap100"): "dcd1b761c400b3f6fe8b14486e7e1ae9369bc1e17412f3f90df57a60b196f15e",
    ("lc_share", "default"): "3a726b1df7c15ea5e8de3a8ee3d2d7e22fef173f9229ed279b061047bb0e2e7b",
    ("lc_share", "box1"): "a979ac3869043a3c1d6aa8b55bd62b66f07fbaaa8144626d94e6dd6839333433",
    ("lc_share", "cap100"): "3a726b1df7c15ea5e8de3a8ee3d2d7e22fef173f9229ed279b061047bb0e2e7b",
    ("lc_2to1", "default"): "dc2e435cde4bdf9a1a25438fecd0afc2a628f965a087088eff2cee8bf3b90172",
    ("lc_2to1", "box1"): "fc3dd2bd3100ab34806cf998ec538bda7d8c76f6cb55e0bbee47fc91399d3fbc",
    ("lc_2to1", "cap100"): "dc2e435cde4bdf9a1a25438fecd0afc2a628f965a087088eff2cee8bf3b90172",
    ("planted", "cap3000"): "9986c09ee78f784c88fc14e6afbc333a35a3d182b3d550713c977b871f2502fd",
    ("planted", "cap700"): "9986c09ee78f784c88fc14e6afbc333a35a3d182b3d550713c977b871f2502fd",
    ("planted", "cap100"): "9986c09ee78f784c88fc14e6afbc333a35a3d182b3d550713c977b871f2502fd",
    ("planted", "cap50"): "9986c09ee78f784c88fc14e6afbc333a35a3d182b3d550713c977b871f2502fd",
    ("planted", "cap16"): "5d6c05db40d2a4632d197ea4cf50f4a0f665415defab6b4a95a66408c4bb0793",
    ("planted", "cap15"): "505e02deeaf32b3868adcab346aa4e158ff6319d3d2d23bd1b7ebe7b765fef14",
    ("frustrated", "cap3000"): "341842ab7c12bf2bf561379dfe42c30afa49dbc151d707aa0e56a96add633cb6",
    ("frustrated", "cap700"): "341842ab7c12bf2bf561379dfe42c30afa49dbc151d707aa0e56a96add633cb6",
    ("frustrated", "cap100"): "341842ab7c12bf2bf561379dfe42c30afa49dbc151d707aa0e56a96add633cb6",
    ("frustrated", "cap22"): "8e4fc569c02109c1e0aec8eef1771b2c2aed37e42e2b36e67e0ee8e7892a5b54",
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
