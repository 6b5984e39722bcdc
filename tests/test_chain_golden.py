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
    ("lc_id2", "default"): "06586ef19c530606a8e6b7e45d28bf00849448b2a30eb47d7b83174ce1a86b2a",
    ("lc_id2", "box1"): "a6c48c399e607d9f052149e1d43e58b226078dfb1ae49e4247d79416db479a99",
    ("lc_id2", "cap100"): "06586ef19c530606a8e6b7e45d28bf00849448b2a30eb47d7b83174ce1a86b2a",
    ("lc_cyc", "default"): "78ab9e0cf13814946a7810da760ca9fe05f74e7021b7246a100221eb25d249f4",
    ("lc_cyc", "box1"): "22328e35f82550caf35bc7cf34ade4ae1e71b5ac0db3d47a8d162049f4a09e65",
    ("lc_cyc", "cap100"): "78ab9e0cf13814946a7810da760ca9fe05f74e7021b7246a100221eb25d249f4",
    ("lc_share", "default"): "dcb20dc5b6e7f7c6b97144d91bceb32055cea24bf7bc56f50d26ca76704462c3",
    ("lc_share", "box1"): "e7505667b8d777291657b27522da44c0fad2c983b416cca58f5b8ee3c4e8bc55",
    ("lc_share", "cap100"): "dcb20dc5b6e7f7c6b97144d91bceb32055cea24bf7bc56f50d26ca76704462c3",
    ("lc_2to1", "default"): "c11d074580190202fc5613db956a6a7665b7484bf3d42a32047f1b390a7f65a6",
    ("lc_2to1", "box1"): "fced61592efa115427d431a7dfbe2f760ec31144ef42ae1dd1b0a0c376da13fc",
    ("lc_2to1", "cap100"): "c11d074580190202fc5613db956a6a7665b7484bf3d42a32047f1b390a7f65a6",
    ("planted", "cap3000"): "4de6fe37cd1482c51d654f5cb0d1c497bf33b665ce35b51eaf3d538d3769224c",
    ("planted", "cap700"): "4de6fe37cd1482c51d654f5cb0d1c497bf33b665ce35b51eaf3d538d3769224c",
    ("planted", "cap100"): "4de6fe37cd1482c51d654f5cb0d1c497bf33b665ce35b51eaf3d538d3769224c",
    ("planted", "cap50"): "4de6fe37cd1482c51d654f5cb0d1c497bf33b665ce35b51eaf3d538d3769224c",
    ("planted", "cap16"): "8b752231209ae05e9394e74c9411c91b7ae42310192a2734004b76ed3fd360dc",
    ("planted", "cap15"): "ebbdbe0e43421c11264b202f7fd6f087026b9924f5f8250681ce561ee06c3e08",
    ("frustrated", "cap3000"): "e9a3e408918fed51442f9f7f7148db502c8dc55557fc834773913a10d81648b3",
    ("frustrated", "cap700"): "e9a3e408918fed51442f9f7f7148db502c8dc55557fc834773913a10d81648b3",
    ("frustrated", "cap100"): "e9a3e408918fed51442f9f7f7148db502c8dc55557fc834773913a10d81648b3",
    ("frustrated", "cap22"): "d05afa7fdb508a56a282180b7e8eea65d4616c2ddbe00f0009912d0d129af7ee",
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
