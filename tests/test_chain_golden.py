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
    ("lc_id2", "default"): "38a2251ebdc79c6f959180510dcb554d14b63fe05a0384a977d7979789c1c09a",
    ("lc_id2", "box1"): "5e4c232367e3cd71e9a38ce77d92a733b5e3abc5ba41291e8850b4df7fe4f85a",
    ("lc_id2", "cap100"): "38a2251ebdc79c6f959180510dcb554d14b63fe05a0384a977d7979789c1c09a",
    ("lc_cyc", "default"): "62cc44c1127a4ecf91cd6b1d31a573de2af7b10f850acaed49c7abb6d28e5bba",
    ("lc_cyc", "box1"): "a9c16f777dd61acab5e51e0c04054582b981b62969a7ad9dec0f795e60f813af",
    ("lc_cyc", "cap100"): "b783ee23c7ee0693d0778e4ab3aed9aeeb8c783c3f83d8336e7dba977aeaa954",
    ("lc_share", "default"): "46148905b64ab628c51a895718ddf451132f0b5872abbabda76c46b46a9f0f72",
    ("lc_share", "box1"): "9aff7fd1f6a0ce73e45052b8d3ed97aba7f01f56e90f3da9f26205679c851b52",
    ("lc_share", "cap100"): "46148905b64ab628c51a895718ddf451132f0b5872abbabda76c46b46a9f0f72",
    ("lc_2to1", "default"): "e33257f58cf01eeb8054096df4bf8e34e7a0b2be1c1fc4fb3fa6aa6062804516",
    ("lc_2to1", "box1"): "3f62b777328899e5dfc4b63b4983f40d6aa44c34abcbc12ff6de6c227bcfc9a3",
    ("lc_2to1", "cap100"): "e33257f58cf01eeb8054096df4bf8e34e7a0b2be1c1fc4fb3fa6aa6062804516",
    ("planted", "cap3000"): "c7417931f08222b7f94dca1000afb2d943be5d5fc7d1ba3d6f18e7f105512296",
    ("planted", "cap700"): "c7417931f08222b7f94dca1000afb2d943be5d5fc7d1ba3d6f18e7f105512296",
    ("planted", "cap100"): "ec4ade9948208883156be9bb8aa492116f6840d66be456655b468dde481ba157",
    ("planted", "cap16"): "135086942f7a63b127b9af6b2d6cd8c4766d1422dab0d39565eeed4a3422b810",
    ("frustrated", "cap3000"): "068c42258e889ed1252baff2bf5df5b00096ee777cf53879b0453bfcfc3d676e",
    ("frustrated", "cap700"): "f29be9af4764709bcdb9270d03e402569f0aabffe9c52844aa56ca4b3f9b86c6",
    ("frustrated", "cap22"): "76e2106f7b3132f56024896989f5941b49bf6ccb450a201c88718f822a1351f9",
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
