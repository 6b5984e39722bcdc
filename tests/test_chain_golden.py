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
    ("lc_id2", "default"): "290333074a814c6d6c06443bbadb18103e1c8e2df629c4eee6f1a6709fc21cf7",
    ("lc_id2", "box1"): "b932c31a798ad514f68f3fa083342a3e7769e5c2f59c1e7c73297155f8856afc",
    ("lc_id2", "cap100"): "290333074a814c6d6c06443bbadb18103e1c8e2df629c4eee6f1a6709fc21cf7",
    ("lc_cyc", "default"): "e420f5a82bea56152579ba3572edd785c3c57744e91e87e479de7fc57b92a514",
    ("lc_cyc", "box1"): "51cc66763525e36903f24357584c2770f89c6f6da4239063b601d7ac2107202f",
    ("lc_cyc", "cap100"): "e420f5a82bea56152579ba3572edd785c3c57744e91e87e479de7fc57b92a514",
    ("lc_share", "default"): "e707c1d23cfe4ff4b91a5e83a21ec2cade28e50a1bb3f2091e73679b8e92bda3",
    ("lc_share", "box1"): "8facaf804aefc826e1dfa2c744e4ffd58c5e065468513adfe90f2ea67ca44041",
    ("lc_share", "cap100"): "e707c1d23cfe4ff4b91a5e83a21ec2cade28e50a1bb3f2091e73679b8e92bda3",
    ("lc_2to1", "default"): "85b2b169faa6e8511602130d3a73c0a136d76d33967ac0b491aa296092b15fcc",
    ("lc_2to1", "box1"): "c9d46df1152b4e07b64a8815d2c0b2439cbee6eab3ee50e27f64f76d8c0d54d0",
    ("lc_2to1", "cap100"): "85b2b169faa6e8511602130d3a73c0a136d76d33967ac0b491aa296092b15fcc",
    ("planted", "cap3000"): "8b749eedb00581247e892b458dee5d18484f503c2d0d297eaae8cf9ea8d53988",
    ("planted", "cap700"): "8b749eedb00581247e892b458dee5d18484f503c2d0d297eaae8cf9ea8d53988",
    ("planted", "cap100"): "8b749eedb00581247e892b458dee5d18484f503c2d0d297eaae8cf9ea8d53988",
    ("planted", "cap50"): "8b749eedb00581247e892b458dee5d18484f503c2d0d297eaae8cf9ea8d53988",
    ("planted", "cap16"): "dc473f74e785f863c85d691efd90a2abcb2117fb2b7ec6a0124f13f2d190c828",
    ("planted", "cap15"): "70b9f95e7474f7286d3570c8af420f6e2087e6a306c355d15847b552c2c5d5d9",
    ("frustrated", "cap3000"): "0126c47148a252bef89625aebcfff8a49fad7cf016c9234234f5695076ce0923",
    ("frustrated", "cap700"): "0126c47148a252bef89625aebcfff8a49fad7cf016c9234234f5695076ce0923",
    ("frustrated", "cap100"): "0126c47148a252bef89625aebcfff8a49fad7cf016c9234234f5695076ce0923",
    ("frustrated", "cap22"): "47a1f1afd3c046912966c983d672e80dc1a8b11fb624881bd6ebba07d94ced68",
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
