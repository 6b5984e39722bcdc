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
    ("lc_id2", "default"): "1bb153a103b928cdc9f3f4bedfdad4c744ffb227faa6937df91c05fe90924eb7",
    ("lc_id2", "box1"): "5798a84c528d5326e79058a18550f293dbcc1a4c69988050ba04577ef2003263",
    ("lc_id2", "cap100"): "1bb153a103b928cdc9f3f4bedfdad4c744ffb227faa6937df91c05fe90924eb7",
    ("lc_cyc", "default"): "71c44d9e996748fa527e74ba4ff53347eae4ca53237b1274b60e4476cee53442",
    ("lc_cyc", "box1"): "192da890a226b2414134cf7ec55aa16bf7245ea95f1bef7143ce1a92bddb4626",
    ("lc_cyc", "cap100"): "27a78af75b5d27ab2511ad31c734fdef750232b500dc5ac4b924e0b41c69afa4",
    ("lc_share", "default"): "4e341025c19d853004fe2871522394ad4d106aaf67413978ba557e91bf6417ab",
    ("lc_share", "box1"): "e9ce31fa8a7bb393abb13ab627e6cac29451b4aa90a4cc09c72045a516afcf53",
    ("lc_share", "cap100"): "4e341025c19d853004fe2871522394ad4d106aaf67413978ba557e91bf6417ab",
    ("lc_2to1", "default"): "8855a9567cd87cdf178b6c692ed3ac2e6e97ac467c39837e6577abbdb9d9816b",
    ("lc_2to1", "box1"): "784758665843732ea727123ecf7a16f4cea5acf7ff3fb7a2ef57317cfc95f7fd",
    ("lc_2to1", "cap100"): "8855a9567cd87cdf178b6c692ed3ac2e6e97ac467c39837e6577abbdb9d9816b",
    ("planted", "cap3000"): "0d1df9ba0b5c8d17f10740be9d3f001a33cd90c2245a5987e9f179c8cc968c9c",
    ("planted", "cap700"): "0d1df9ba0b5c8d17f10740be9d3f001a33cd90c2245a5987e9f179c8cc968c9c",
    ("planted", "cap100"): "151155a37e5b661cb11efcc0d9cf98d7a59d16b5c24cd7aff54a672c10fe1deb",
    ("planted", "cap16"): "5d85d39a9cf81570e785c43c3a2f7a56b16be227f0ad677d89f082f70718f8e5",
    ("frustrated", "cap3000"): "4d8c91310e5d47d8d3489c4f6537474c66005c44911ac27c5a894f9dd61c3f7a",
    ("frustrated", "cap700"): "1a87def47f0b24fbf2f58858ae284c54be83c0c5e22015d76f49e8cb9ef530ba",
    ("frustrated", "cap22"): "192e89525a72787d448e597cce80d44eab42b7c12fda4aab60b76e33ad320764",
}
# (states, cap) of the SearchSpaceTooLarge the label-cover search raises
RAISES = {("frustrated", "cap16"): (17, 16)}

SETTINGS = {"default": {}, "box1": {"box": 1}, "cap100": {"max_states": 100},
            "cap3000": {"max_states": 3000}, "cap700": {"max_states": 700}, "cap16": {"max_states": 16},
            "cap22": {"max_states": 22}}
# the oracle stages that run (are not skipped) in each generated case
RUNNING = {
    ("planted", "cap3000"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("planted", "cap700"): ["ssat_l1", "sis", "ncp_box", "lhp_grid"],
    ("planted", "cap100"): ["sis", "lhp_grid"],
    ("planted", "cap16"): [],
    ("frustrated", "cap3000"): ["ssat_l1", "sis", "lhp_grid"],
    ("frustrated", "cap700"): ["sis", "lhp_grid"],
    ("frustrated", "cap22"): [],
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
