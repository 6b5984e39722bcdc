"""Serialization: canonical bytes, typed decoding, text formats."""

from __future__ import annotations

import copy
import time
from fractions import Fraction

import pytest

from gapforge import fixtures as shipped
from gapforge.errors import SchemaViolation
from gapforge.instances import EPSILON, Labeling, LhpAssignment, NcpInstance
from gapforge.reductions import (
    lc_to_ssat,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
)
from gapforge.serialize import (
    canonical_bytes,
    content_hash,
    decode_fraction,
    decode_int,
    encode_fraction,
    encode_int,
    from_document,
    SCHEMA_VERSION,
    ncp_to_text,
    read_instance,
    sis_from_text,
    sis_to_text,
    to_document,
    write_instance,
)
from gapforge.superassign import SuperAssignment


def test_scalar_codecs():
    assert encode_int(5) == 5
    big = 2 ** 60
    assert encode_int(big) == str(big)
    assert decode_int(encode_int(big)) == big
    assert decode_int(encode_int(-big)) == -big
    assert encode_fraction(Fraction(-3, 7)) == "-3/7"
    assert decode_fraction("-3/7") == Fraction(-3, 7)
    assert decode_fraction("4") == 4


def test_round_trip_all_fixtures(tmp_path):
    for name in shipped.FIXTURE_NAMES:
        original = shipped.load(name)
        path = tmp_path / f"{name}.json"
        write_instance(path, original)
        again = read_instance(path)
        assert again == original
        # byte-identical re-serialization
        assert canonical_bytes(again) == path.read_bytes()


def test_round_trip_derived_instances(tmp_path, ssat_share, lc_cyc):
    sis = ssat_to_sis(ssat_share)
    ncp = sis_to_ncp(sis, g=1)
    lhp = sis_to_lhp(sis, u_param=3)
    objects = {
        "ssat_cyc.json": lc_to_ssat(lc_cyc),
        "sis.json": sis,
        "ncp.json": ncp,
        "lhp.json": lhp,
        "super.json": SuperAssignment.from_rows(((1, 0), (1, 0))),
        "labeling.json": Labeling({"a0": 0}, {"b0": 1}),
        "assignment.json": LhpAssignment.of([1, 0], y=Fraction(1, 2), delta=Fraction(1, 7)),
        "assignment_eps.json": LhpAssignment.of([1, 0]),
    }
    for name, obj in objects.items():
        path = tmp_path / name
        write_instance(path, obj)
        assert read_instance(path) == obj


def test_epsilon_round_trips():
    a = LhpAssignment.of([1], y=1)
    doc = to_document(a)
    assert doc["delta_value"] == "epsilon"
    assert from_document(doc).delta_value is EPSILON


def test_canonical_bytes_stable(lc_cyc):
    assert canonical_bytes(lc_cyc) == canonical_bytes(lc_cyc)
    assert content_hash(lc_cyc) == content_hash(lc_cyc)


def test_kind_mismatch(tmp_path, lc_id2):
    path = tmp_path / "lc.json"
    write_instance(path, lc_id2)
    with pytest.raises(SchemaViolation):
        read_instance(path, kind="sis")


def test_truncated_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(f'{{"kind": "label_cover", "version": {SCHEMA_VERSION}', encoding="utf-8")
    with pytest.raises(SchemaViolation):
        read_instance(path)


def test_schema_violation_has_pointer(tmp_path):
    # edges item missing its projection table
    doc = {
        "kind": "label_cover",
        "version": SCHEMA_VERSION,
        "a": ["a0"],
        "b": ["b0"],
        "sigma_a": [0],
        "sigma_b": [0],
        "edges": [{"a": "a0", "b": "b0"}],
    }
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert "edges" in str(exc.value)


def test_unknown_kind():
    with pytest.raises(SchemaViolation):
        from_document({"kind": "mystery", "version": SCHEMA_VERSION})


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_instance("/does/not/exist.json")


def test_label_key_collision_rejected():
    doc = {
        "kind": "label_cover",
        "version": SCHEMA_VERSION,
        "a": ["a0"],
        "b": ["b0"],
        "sigma_a": [0, "0"],
        "sigma_b": [0],
        "edges": [{"a": "a0", "b": "b0", "pi": {"0": 0}}],
    }
    with pytest.raises(SchemaViolation):
        from_document(doc)


def test_sis_text_round_trip(ssat_share):
    sis = ssat_to_sis(ssat_share)
    text = sis_to_text(sis)
    # the text format is lossless: dense lines back to the same sparse rows
    assert sis_from_text(text) == sis
    assert text.splitlines()[1:3] == ["1 1 0 0", "0 0 1 1"]


def test_sis_text_header(ssat_share):
    text = sis_to_text(ssat_to_sis(ssat_share))
    assert text.splitlines()[0] == "4 4 2"


def test_sis_text_malformed():
    with pytest.raises(SchemaViolation):
        sis_from_text("not a header\n")
    with pytest.raises(SchemaViolation):
        sis_from_text("2 2 1\n1 0\n")  # missing rows


def test_sis_text_non_integer_token_names_the_line():
    with pytest.raises(SchemaViolation) as exc:
        sis_from_text("1 1 1\nx\n1\n")
    assert exc.value.pointer == "/1"
    assert "line 2" in exc.value.detail
    with pytest.raises(SchemaViolation) as exc:
        sis_from_text("1 1 1\n1\n1.5\n")  # target line
    assert exc.value.pointer == "/2"


def test_version_1_document_is_rejected():
    doc = to_document(shipped.load("lc_id2"))
    doc["version"] = 1
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == "/version"
    assert "version 1 is not supported" in exc.value.detail


def test_lhp_document_is_sparse_with_multiplicity(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    records = to_document(lhp)["inequalities"]
    assert len(records) == len(lhp.inequalities) == 27
    # the "+" inequality of the first SIS row: x_0 + x_1 - y + delta > 0, ten copies
    assert records[2] == {
        "coeff_x": [[0, "1/1"], [1, "1/1"]],
        "coeff_y": "-1/1",
        "coeff_delta": "1/1",
        "sense": "gt",
        "group": "G2",
        "copies_of": "g2_row0_plus",
        "multiplicity": 10,
    }
    assert from_document(to_document(lhp)) == lhp


def test_sis_and_ncp_documents_are_sparse(ssat_share):
    sis = ssat_to_sis(ssat_share)
    ncp = sis_to_ncp(sis, g=1)
    sis_doc, ncp_doc = to_document(sis), to_document(ncp)
    assert sorted(sis_doc) == ["bound", "kind", "matrix", "num_cols", "target", "version"]
    assert sis_doc["num_cols"] == ncp_doc["num_cols"] == 4
    # non-triviality rows, then one gadget row per field value of the shared variable
    assert sis_doc["matrix"] == [[[0, 1], [1, 1]], [[2, 1], [3, 1]], [[0, 1], [3, 1]], [[1, 1], [2, 1]]]
    # the SIS rows, then the identity block, one pair per row
    assert ncp_doc["matrix"] == sis_doc["matrix"] + [[[c, 1]] for c in range(4)]
    assert from_document(sis_doc) == sis and from_document(ncp_doc) == ncp


def test_ncp_text_shape(ssat_share):
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    lines = ncp_to_text(ncp).splitlines()
    assert lines[0] == "16 4 5 2"
    assert len(lines) == 1 + 16 + 1


def test_labeling_integer_vertices_round_trip():
    lab = Labeling({0: 1, 1: 0}, {10: 1})
    assert from_document(to_document(lab)) == lab


@pytest.mark.parametrize("field", ["phi_a", "phi_b"])
def test_labeling_listing_a_vertex_twice_is_refused(field):
    doc = to_document(Labeling({0: 1}, {10: 1}))
    doc[field] = [[0, 1], [0, 0]]
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == f"/{field}/1/0"


def test_fifteen_digit_prime_modulus_loads_fast():
    doc = to_document(NcpInstance(modulus=5, num_cols=1, matrix=(((0, 1),),), target=(0,), bound=1,
                                  replication=1, multiplicity=(1,)))
    doc["modulus"] = 100000000000031
    start = time.perf_counter()
    ncp = from_document(doc)
    assert time.perf_counter() - start < 0.05
    assert ncp.modulus == 100000000000031


def test_strict_scalars():
    for float_or_bool in (1.0, True):
        with pytest.raises(SchemaViolation):
            decode_int(float_or_bool)
    for text in ("1_0", " 1", "1", str(2 ** 53 - 1), "9" * 5000):  # not beyond 2^53, or too long
        with pytest.raises(SchemaViolation):
            decode_int(text, "/matrix/0/0")
    with pytest.raises(SchemaViolation):
        decode_int(2 ** 60)  # beyond 2^53 an integer is a string
    for text in ("1_0/2", "1/ 2", "1.5", "9" * 5000 + "/7", 1):
        with pytest.raises(SchemaViolation):
            decode_fraction(text)


def test_schema_violation_points_at_the_node():
    doc = to_document(shipped.load("ssat_share"))
    doc["provenance"]["lc"]["edges"][1]["pi"]["0"] = 1.0
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == "/provenance/lc/edges/1/pi/0"
    del doc["provenance"]["lc"]["edges"][1]["pi"]
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == "/provenance/lc/edges/1"


@pytest.mark.parametrize("name", shipped.FIXTURE_NAMES)
def test_shipped_fixture_files_are_canonical(name):
    assert shipped.fixture_path(name).read_bytes() == canonical_bytes(shipped.load(name))


_HEADER = ("kind", "version")
_LC_FIELDS = _HEADER + ("a", "b", "sigma_a", "sigma_b", "edges", "edges/0/a", "edges/0/b", "edges/0/pi")
_INEQUALITY_FIELDS = ("coeff_x", "coeff_y", "coeff_delta", "sense", "group", "copies_of", "multiplicity")
FIELDS = {
    "label_cover": _LC_FIELDS,
    "labeling": _HEADER + ("phi_a", "phi_b"),
    "ssat": _HEADER + ("variables", "field_values", "tests", "tests/0/variables", "tests/0/assignments",
                       "provenance", "provenance/lc", "provenance/var_to_a", "provenance/test_to_b")
    + tuple(f"provenance/lc/{field}" for field in _LC_FIELDS),
    "superassignment": _HEADER + ("weights",),
    "sis": _HEADER + ("num_cols", "matrix", "target", "bound"),
    "ncp": _HEADER + ("modulus", "num_cols", "matrix", "target", "bound", "replication", "multiplicity"),
    "lhp": _HEADER + ("num_x", "u_param", "inequalities") + tuple(f"inequalities/0/{f}" for f in _INEQUALITY_FIELDS),
    "lhp_assignment": _HEADER + ("x_values", "y_value", "delta_value"),
}


def _one_document_per_kind() -> dict:
    ssat = shipped.load("ssat_share")
    sis = ssat_to_sis(ssat)
    objs = (shipped.load("lc_share"), Labeling({0: 1}, {10: 1}), ssat, SuperAssignment.from_rows(((1, 0), (1, 0))),
            sis, sis_to_ncp(sis, g=1), sis_to_lhp(sis), LhpAssignment.of((1, -2), 3, Fraction(1, 2)))
    docs = {doc["kind"]: doc for doc in map(to_document, objs)}
    assert docs.keys() == FIELDS.keys()
    return docs


def _field_pointers(node, ptr=""):
    """The pointer of every key of every object below ``node``, through the first item of each array."""
    if isinstance(node, list) and node:
        yield from _field_pointers(node[0], f"{ptr}/0")
    elif isinstance(node, dict):
        for key, value in node.items():
            yield f"{ptr}/{key}"
            if key != "pi":  # keyed by labels, not by field names
                yield from _field_pointers(value, f"{ptr}/{key}")


def _replaced(doc, ptr: str, value):
    doc = copy.deepcopy(doc)
    *path, last = (int(part) if part.isdigit() else part for part in ptr.split("/")[1:])
    node = doc
    for part in path:
        node = node[part]
    node[last] = value
    return doc


@pytest.mark.parametrize("kind", FIELDS)
def test_a_float_in_any_field_is_refused_at_that_field(kind):
    doc = _one_document_per_kind()[kind]
    pointers = list(_field_pointers(doc))
    assert sorted(pointers) == sorted(f"/{field}" for field in FIELDS[kind])
    for ptr in pointers:
        with pytest.raises(SchemaViolation) as exc:
            from_document(_replaced(doc, ptr, 1.0))
        assert exc.value.pointer == ptr


# the top-level fields of each kind in the order they are read
READ_ORDER = {
    "label_cover": ("sigma_a", "edges", "a", "b", "sigma_b"),
    "labeling": ("phi_a", "phi_b"),
    "ssat": ("provenance", "variables", "field_values", "tests"),
    "superassignment": ("weights",),
    "sis": ("num_cols", "matrix", "target", "bound"),
    "ncp": ("modulus", "num_cols", "matrix", "target", "bound", "replication", "multiplicity"),
    "lhp": ("num_x", "u_param", "inequalities"),
    "lhp_assignment": ("x_values", "y_value", "delta_value"),
}


@pytest.mark.parametrize("kind", FIELDS)
def test_of_several_faulty_fields_the_first_read_is_reported(kind):
    doc = _one_document_per_kind()[kind]
    order = READ_ORDER[kind]
    assert set(order) == doc.keys() - set(_HEADER)
    for i, field in enumerate(order):
        with pytest.raises(SchemaViolation) as exc:
            from_document(dict(doc, **dict.fromkeys(order[i:], 1.0)))
        assert exc.value.pointer == f"/{field}"
