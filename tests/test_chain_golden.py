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
    ("lc_id2", "default"): "25dfaff2f757c33bb9933065a83878a6c7fc0c50c503af71b732098088a80901",
    ("lc_id2", "box1"): "5e4c232367e3cd71e9a38ce77d92a733b5e3abc5ba41291e8850b4df7fe4f85a",
    ("lc_id2", "cap100"): "25dfaff2f757c33bb9933065a83878a6c7fc0c50c503af71b732098088a80901",
    ("lc_cyc", "default"): "9a6159bd10d5937e634bd4b0d0966965567e505da7054974c565b46236747e5a",
    ("lc_cyc", "box1"): "2107661ee64ae6a9d7ffb748b0497eb706d57e5125d7d7c9dd12e166c2855bb2",
    ("lc_cyc", "cap100"): "b783ee23c7ee0693d0778e4ab3aed9aeeb8c783c3f83d8336e7dba977aeaa954",
    ("lc_share", "default"): "55d74fe40304e47721fe281ec6364a0e4415f082f480b6a059688968fbfe0d77",
    ("lc_share", "box1"): "9554ee1e517e0772e835a12a29dd5b84fae60781ad6e86dba96ee6eaf5f2d153",
    ("lc_share", "cap100"): "55d74fe40304e47721fe281ec6364a0e4415f082f480b6a059688968fbfe0d77",
    ("lc_2to1", "default"): "04e65c388cabe552cd03c59c9fe6e395302b4c9a2ad3a08b9d47b16cde4dffe7",
    ("lc_2to1", "box1"): "3f62b777328899e5dfc4b63b4983f40d6aa44c34abcbc12ff6de6c227bcfc9a3",
    ("lc_2to1", "cap100"): "04e65c388cabe552cd03c59c9fe6e395302b4c9a2ad3a08b9d47b16cde4dffe7",
    ("planted", "cap3000"): "16d0408b051611e1d04cbefd02f57a8415c01a4555003142162fb829f4dc29fa",
    ("planted", "cap700"): "d4cd90457009957429fe0e903a6d77b2050ced0dfc00783baa8650226166e920",
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
    ("planted", "cap3000"): ["ssat_l1", "sis", "lhp_grid"],
    ("planted", "cap700"): ["ssat_l1", "sis", "lhp_grid"],
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
