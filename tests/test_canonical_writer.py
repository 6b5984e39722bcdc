"""The canonical writer against ``json.dumps``, its reference.

``canonical_bytes`` has a writer of its own; these tests pin its output to
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline, byte for byte, on every kind of document the package writes and on
a hand-written document that reaches every escape and empty-container case.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from gapforge import fixtures as shipped
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import LhpAssignment
from gapforge.oracles import solve_lc_max
from gapforge.pipeline import run_chain
from gapforge.reductions import (
    lc_to_ssat,
    lhp_assignment_from_sis_solution,
    sis_solution_from_superassignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
)
from gapforge.serialize import canonical_bytes, to_document
from gapforge.superassign import natural_from_labeling


def reference(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def ladder_instances():
    """Every document kind, from small seeded specs, planted and frustrated.

    The planted labeling is embedded down the chain, which gives the
    super-assignment and LHP assignment documents.
    """
    for spec in (GenSpec(2, 2, 2, 2, 2, 1, True, 3), GenSpec(3, 2, 2, 2, 2, 1, True, 5),
                 GenSpec(4, 3, 2, 3, 2, 2, True, 7)):
        planted = gen_label_cover(spec)
        for lc in (planted, frustrate(planted, num_flips=1, seed=spec.seed)):
            ssat = lc_to_ssat(lc)
            sis = ssat_to_sis(ssat)
            labeling = solve_lc_max(lc).witness
            yield from (lc, labeling, ssat, sis, sis_to_ncp(sis, g=1), sis_to_lhp(sis, u_param=3))
            if lc is planted:
                natural = natural_from_labeling(ssat, labeling)
                z = sis_solution_from_superassignment(ssat, natural)
                yield from (natural, lhp_assignment_from_sis_solution(z),
                            LhpAssignment.of(z, y=Fraction(3, 2), delta=Fraction(-1, 7)))


def test_every_fixture_writes_the_reference_bytes():
    for name in shipped.FIXTURE_NAMES:
        obj = shipped.load(name)
        assert canonical_bytes(obj) == reference(to_document(obj)) == shipped.fixture_path(name).read_bytes()


def test_every_kind_from_a_seeded_ladder_writes_the_reference_bytes():
    kinds = set()
    for obj in ladder_instances():
        doc = to_document(obj)
        kinds.add(doc["kind"])
        assert canonical_bytes(obj) == canonical_bytes(doc) == reference(doc), doc["kind"]
    assert len(kinds) == 8


def test_a_chain_report_writes_the_reference_bytes():
    lc = frustrate(gen_label_cover(GenSpec(3, 2, 2, 2, 2, 1, True, 5)), num_flips=1, seed=5)
    for doc in (run_chain(shipped.load("lc_share")), run_chain(lc, max_states=3000)):
        assert canonical_bytes(doc) == reference(doc)


HAND_WRITTEN = {
    "quotes": 'say "hi"',
    "back\\slash": "a\\b\\\\c",
    "control": "".join(map(chr, range(32))) + "\x7f",
    "text": "café 漢字 \U0001f642   ",
    "": "",
    "empty": [[], {}, [[]], [{}], {"a": {}, "b": []}],
    "scalars": [None, True, False, 0, -1, -(2 ** 53 - 1), 2 ** 53 - 1, "-123456789012345678901234567890"],
    "nested": {"z": [[0, "1/2"], [3, "-7/4"]], "a": {"deep": [{"k": None}, (1, "x")]}},
    "\n\té": -42,
    "B": 1,
    "a": 2,
}


def test_a_hand_written_document_writes_the_reference_bytes():
    assert canonical_bytes(HAND_WRITTEN) == reference(HAND_WRITTEN)


@pytest.mark.parametrize("doc", [
    {"x": 1.0},
    {"x": [0, 2.5]},
    {"x": {1: "a"}},
    {"x": {"a": 1, 2: "b"}},
    {"x": {"a"}},
])
def test_a_float_a_non_string_key_or_another_type_raises_type_error(doc):
    with pytest.raises(TypeError):
        canonical_bytes(doc)
