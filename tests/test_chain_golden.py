"""Golden sha256 of the canonical ``chain_report`` bytes.

The digests pin the whole report: manifest hashes, checks, oracle minima and
states, skip messages and gap rows.  A change that alters the report on
purpose regenerates them with ``sha256(canonical_bytes(run_chain(...)))`` and
says so.  The generated cases use state caps at which every oracle stage
skips (an empty gap table) and at which only the LHP grid fits.
"""

from __future__ import annotations

import hashlib

import pytest

from gapforge import fixtures
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.pipeline import run_chain
from gapforge.serialize import canonical_bytes

GOLDEN = {
    ("lc_id2", "default"): "49b1b15aa914ffbec33a05a3028f7a29c1111c8c2418b43eb043b5771e114c6d",
    ("lc_id2", "box1"): "cad378846c550ce6b4d60c6daa64c019340c921af4ded0a95054702f127b1ae4",
    ("lc_id2", "cap100"): "49b1b15aa914ffbec33a05a3028f7a29c1111c8c2418b43eb043b5771e114c6d",
    ("lc_cyc", "default"): "b61184a973ad7919a37f63d89dfa5acbb866518b197b2f3774642b25d9509776",
    ("lc_cyc", "box1"): "526f12263ef2c3c5b8ed972edfd1857185db8b7e20a2c2a46911d16fd288c0db",
    ("lc_cyc", "cap100"): "a8ffbc6ae2331dec80249ca823beeb8d516380b0c8c1b1704b05981eac318262",
    ("lc_share", "default"): "61b5f895522774f218d4637f5d60ae9fb652b950f095587169a587e07ce26a30",
    ("lc_share", "box1"): "0f435238a41d5a936d9122334bd3c4d9d0c14cb02a3e24f3c05335ade7c2070a",
    ("lc_share", "cap100"): "cb9214100ee82e12108f93e3ffdb5adaf0c93f223a07fd0707af4e773cba8913",
    ("lc_2to1", "default"): "cfbdb8ce10a321c7c201e62112dbd97c591d8a1e817c1581f05e161551176d02",
    ("lc_2to1", "box1"): "d9913136e39009011e1db3a10fdfcfae33f45bcd955e1dbb80aab16f3f568fa0",
    ("lc_2to1", "cap100"): "cfbdb8ce10a321c7c201e62112dbd97c591d8a1e817c1581f05e161551176d02",
    ("planted", "cap3000"): "584cc85fcd39e7262069828bf75e2b02a109c2eec334764c427d7bb0fae0f523",
    ("planted", "cap700"): "f12845ff26eeb73c43ecae9bbf9481d9999b4273f848f93ab39a685723df297e",
    ("frustrated", "cap3000"): "92732d7f7d4a4e96579379413c21a24bfe45bc439384038158ec8e947ae24097",
    ("frustrated", "cap700"): "8b247f2c811dedc03c3b53db675a545c222b6beae0fb0bd155f121cdb0c8bdd4",
}

SETTINGS = {"default": {}, "box1": {"box": 1}, "cap100": {"max_states": 100},
            "cap3000": {"max_states": 3000}, "cap700": {"max_states": 700}}
# the oracle stages that run (are not skipped) at each generated-case cap
RUNNING = {"cap3000": ["lhp_grid"], "cap700": []}


def _instance(name):
    if name in fixtures.FIXTURE_NAMES:
        return fixtures.load(name)
    planted = gen_label_cover(GenSpec(4, 3, 2, 2, 2, 1, planted=True, seed=11000))
    return planted if name == "planted" else frustrate(planted, 1, seed=11000)


@pytest.mark.parametrize("name,setting", sorted(GOLDEN))
def test_chain_report_bytes_are_golden(name, setting):
    doc = run_chain(_instance(name), **SETTINGS[setting])
    if setting in RUNNING:
        assert [k for k, v in doc["oracles"].items() if "skipped" not in v] == RUNNING[setting]
        assert len(doc["gap_report"]["rows"]) == len(RUNNING[setting])
    assert hashlib.sha256(canonical_bytes(doc)).hexdigest() == GOLDEN[name, setting]
