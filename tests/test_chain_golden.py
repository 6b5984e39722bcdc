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
    ("lc_id2", "default"): "bed5aea7b1d4086653b20a325ae3f65a80a33361c8025a409d5f5cffa15679dd",
    ("lc_id2", "box1"): "66265b6d9a7188221a82e6932af4489449ee990ace838927bff610d63ba12433",
    ("lc_id2", "cap100"): "bed5aea7b1d4086653b20a325ae3f65a80a33361c8025a409d5f5cffa15679dd",
    ("lc_cyc", "default"): "a31f8e119bed0bf47aebddc9ea3a4dd0cf4bd19eff5833065c68f3359d4c9c80",
    ("lc_cyc", "box1"): "fb1d508584149024aae3330dc0f6468618777c4655593ced2b9df75453a8a31e",
    ("lc_cyc", "cap100"): "b3f6fa39bae12d33e7095c2127eab9164bdbf8e710fd5b6928834bd1f7517802",
    ("lc_share", "default"): "594fed3f1c6988703a49a5c070321fb25c34583b591acecb388528ca890575b9",
    ("lc_share", "box1"): "cefbbbeef8eea12758f5232ea57763eed33a45bff769f2d70968e4580db0c3a8",
    ("lc_share", "cap100"): "594fed3f1c6988703a49a5c070321fb25c34583b591acecb388528ca890575b9",
    ("lc_2to1", "default"): "0cfe5d59518b76e7b5894927c85790989d50b54cb5d20af9c3728e6ecee2c72e",
    ("lc_2to1", "box1"): "67074c443f43375369fadacfa3c84b4ef513d888fa7893fe0b859a58b1ca88e3",
    ("lc_2to1", "cap100"): "0cfe5d59518b76e7b5894927c85790989d50b54cb5d20af9c3728e6ecee2c72e",
    ("planted", "cap3000"): "46a542d9c703f62b91a67000b2644bbec088b68b7ccefac94a617008c706b6f0",
    ("planted", "cap700"): "46a542d9c703f62b91a67000b2644bbec088b68b7ccefac94a617008c706b6f0",
    ("planted", "cap100"): "ccc606f4a5fedaf86da0ae1e37e9e5a43b0a4a90e4d7a7d73eecc8231a38dc15",
    ("planted", "cap16"): "5d85d39a9cf81570e785c43c3a2f7a56b16be227f0ad677d89f082f70718f8e5",
    ("frustrated", "cap3000"): "2dd79a6c2b5a856abe2fa2dfe944e7801b1fe45dd1adc0be95c40c4f193d87e3",
    ("frustrated", "cap700"): "4c385f5dbc80c73c9b0b0221ad1e882cfce341ff7af34f7aea76057266945897",
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
    ("planted", "cap100"): ["ssat_l1", "sis", "lhp_grid"],
    ("planted", "cap16"): [],
    ("frustrated", "cap3000"): ["ssat_l1", "sis", "lhp_grid"],
    ("frustrated", "cap700"): ["ssat_l1", "sis", "lhp_grid"],
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
