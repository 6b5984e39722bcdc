"""The record writers: canonical text straight from the instances.

``canonical_bytes`` writes an instance from its field table, without building
its document, and a plain document passes each instance it holds to that
writer.  These tests pin both to ``json.dumps`` (``reference``) and to the
round trip through ``from_document``: an instance nested at any depth of a
plain document writes the bytes of that document with ``to_document`` of the
instance in its place, and labels and integers that need escaping or string
encoding come back unchanged.
"""

from __future__ import annotations

import json

import pytest
from naive import replace
from test_canonical_writer import ladder_instances, reference

from gapforge.instances import LabelCoverInstance, Labeling, NcpInstance, SisInstance
from gapforge.reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp
from gapforge.serialize import SCHEMA_VERSION, canonical_bytes, from_document, to_document

LADDER = list(ladder_instances())


def nest(node, depth: int):
    """``node`` inside ``depth`` plain containers: an object, then a list, then a tuple, and so on."""
    for level in range(depth):
        node = ({"kind": "solve_result", "witness": node, "a": 1}, [None, node, "tail"], ("head", node))[level % 3]
    return node


@pytest.mark.parametrize("depth", range(4))
def test_a_record_nested_in_a_plain_document_writes_its_documents_bytes(depth):
    assert len({type(obj) for obj in LADDER}) == 8
    for obj in LADDER:
        expected = reference(nest(to_document(obj), depth))
        assert canonical_bytes(nest(obj, depth)) == expected, (type(obj).__name__, depth)


def round_trips_to_the_reference_bytes(obj) -> dict:
    doc = to_document(obj)
    assert canonical_bytes(obj) == reference(doc)
    assert from_document(doc) == obj
    assert from_document(json.loads(canonical_bytes(obj))) == obj
    return doc


# quotes, backslashes, every control character, DEL, non-ASCII, an astral code point
AWKWARD = ('q"uote', "back\\slash", "".join(map(chr, range(32))), "\x7f", "café 漢字", "\U0001f642", "/", "")


def awkward_cover() -> LabelCoverInstance:
    a_vertices, b_vertices = AWKWARD[:3], AWKWARD[3:6]
    sigma_a, sigma_b = AWKWARD[2:], (*AWKWARD[:2], 7)
    edges = tuple((a, b) for a in a_vertices for b in b_vertices)
    projections = {e: {x: sigma_b[(i + j) % len(sigma_b)] for j, x in enumerate(sigma_a)} for i, e in enumerate(edges)}
    return LabelCoverInstance(a_vertices, b_vertices, sigma_a, sigma_b, edges, projections)


def test_string_labels_that_need_escaping_round_trip_and_write_the_reference_bytes():
    lc = awkward_cover()
    doc = round_trips_to_the_reference_bytes(lc)
    assert doc["sigma_a"] == list(lc.sigma_a)
    assert [edge["pi"] for edge in doc["edges"]] == [[lc.projections[e][x] for x in lc.sigma_a] for e in lc.edges]
    ssat = lc_to_ssat(lc)
    assert round_trips_to_the_reference_bytes(ssat)["provenance"] == doc
    phi_a = {a: lc.sigma_a[i] for i, a in enumerate(lc.a_vertices)}
    for labeling in (Labeling(phi_a), Labeling(phi_a, {b: lc.sigma_b[i % 3] for i, b in enumerate(lc.b_vertices)})):
        assert round_trips_to_the_reference_bytes(labeling)["phi_a"] == [list(pair) for pair in phi_a.items()]


BIG = 2 ** 53  # the first integer a file stores as a string
MERSENNE_61 = 2 ** 61 - 1  # a prime above 2^53


def test_integers_beyond_2_53_round_trip_as_strings_and_write_the_reference_bytes():
    sis = SisInstance(num_cols=3, matrix=(((0, BIG), (2, -(BIG - 1))), ((1, -BIG - 7),)),
                      target=(3 ** 40, -BIG), bound=BIG + 1)
    doc = round_trips_to_the_reference_bytes(sis)
    assert doc["target"] == [str(3 ** 40), str(-BIG)]
    assert doc["bound"] == str(BIG + 1)
    assert doc["matrix"] == [[[0, str(BIG)], [2, -(BIG - 1)]], [[1, str(-BIG - 7)]]]
    # the reductions carry them on: the LHP image's coefficients, the NCP image's bound and replication
    lhp = sis_to_lhp(sis)
    assert round_trips_to_the_reference_bytes(lhp) == {"kind": "lhp", "version": SCHEMA_VERSION, "provenance": doc,
                                                       "u_param": str(BIG + 2)}
    standalone = round_trips_to_the_reference_bytes(replace(lhp, provenance=None))
    assert standalone["inequalities"][2]["coeff_x"] == [[0, str(BIG)], [2, -(BIG - 1)]]
    assert round_trips_to_the_reference_bytes(sis_to_ncp(sis, g=1))["replication"] == str(BIG + 2)
    ncp = NcpInstance(modulus=MERSENNE_61, num_cols=2, matrix=(((0, MERSENNE_61 - 1),), ((1, 5),)),
                      target=(BIG * 3, 4), bound=BIG, replication=BIG - 1, multiplicity=(1, BIG))
    doc = round_trips_to_the_reference_bytes(ncp)
    assert (doc["modulus"], doc["bound"], doc["replication"]) == (str(MERSENNE_61), str(BIG), BIG - 1)
    assert doc["multiplicity"] == [1, str(BIG)]
