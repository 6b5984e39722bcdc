"""Serialization: canonical bytes, typed decoding, text formats."""

from __future__ import annotations

import copy
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from naive import replace
from test_walk_outcomes import ladder

from gapforge import fixtures as shipped
from gapforge.errors import InfeasibleSpec, MalformedInstance, SchemaViolation
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import EPSILON, LabelCoverInstance, Labeling, LhpAssignment, NcpInstance
from gapforge.reductions import (
    lc_to_ssat,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
)
from gapforge.plaintext import ncp_to_text, sis_from_text, sis_to_text
from gapforge.serialize import (
    canonical_bytes,
    content_hash,
    decode_fraction,
    decode_int,
    encode_fraction,
    encode_int,
    from_document,
    SCHEMA_VERSION,
    read_instance,
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
    assert decode_fraction("4/1") == 4


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


# (sigma_a, sigma_b, p) of the generated covers: one-to-one and two-to-one tables
_ALPHABETS = ((2, 2, 1), (3, 3, 1), (2, 1, 2), (3, 2, 2))


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2), st.sampled_from(_ALPHABETS), st.booleans(),
       st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_every_kind_round_trips_on_generated_chains(num_a, num_b, d_b, alphabet, planted, seed, flips, flip_seed):
    """Each of the five instances of a generated chain reads back equal, with the same content hash."""
    assume(num_a <= num_b * d_b)  # every A-vertex has an edge, so every SSAT variable is in a test
    try:
        lc = frustrate(gen_label_cover(GenSpec(num_a, num_b, d_b, *alphabet, planted=planted, seed=seed)),
                       flips, flip_seed)
    except InfeasibleSpec:
        assume(False)
    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    for x in (lc, ssat, sis, sis_to_ncp(sis, g=1), sis_to_lhp(sis)):
        again = from_document(to_document(x))
        assert again == x
        assert content_hash(again) == content_hash(x)


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
    # G1 times U: y + 10 delta > 0 and -y + 10 delta < 0, ten copies each
    assert records[:2] == [
        {"coeff_x": [], "coeff_y": 1, "coeff_delta": 10, "sense": "gt", "group": "G1", "multiplicity": 10},
        {"coeff_x": [], "coeff_y": -1, "coeff_delta": 10, "sense": "lt", "group": "G1", "multiplicity": 10},
    ]
    # the "+" inequality of the first SIS row: x_0 + x_1 - y + delta > 0, ten copies
    assert records[2] == {
        "coeff_x": [[0, 1], [1, 1]],
        "coeff_y": -1,
        "coeff_delta": 1,
        "sense": "gt",
        "group": "G2",
        "multiplicity": 10,
    }
    assert from_document(to_document(lhp)) == lhp


def test_counts_beyond_2_53_are_digit_strings(ssat_share):
    # num_x, u_param and multiplicity follow the one integer rule: a JSON number within 2^53 - 1, a string beyond
    u = 2 ** 60
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=u)
    doc = to_document(lhp)
    assert (doc["num_x"], doc["u_param"]) == (4, str(u))
    assert doc["inequalities"][0]["multiplicity"] == doc["inequalities"][0]["coeff_delta"] == str(u)
    assert from_document(doc) == lhp
    for at, bare in (("u_param", u), ("num_x", 2 ** 53)):
        with pytest.raises(SchemaViolation) as exc:
            from_document(dict(doc, **{at: bare}))
        assert exc.value.pointer == f"/{at}"
    sis = ssat_to_sis(ssat_share)
    assert from_document(dict(to_document(sis), num_cols=str(2 ** 53))).num_cols == 2 ** 53


def test_version_4_file_is_refused_at_version(tmp_path, ssat_share):
    # an SSAT file as version 4 wrote it: the cover under "lc", with its two identity maps
    doc = to_document(ssat_share)
    lc = dict(doc["provenance"], version=4)
    doc.update(version=4, provenance={"lc": lc, "var_to_a": ["x"], "test_to_b": ["b0", "b1"]})
    path = tmp_path / "ssat_v4.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation) as exc:
        read_instance(path)
    assert exc.value.pointer == "/version"
    assert "version 4 is not supported" in exc.value.detail
    assert f"re-run the step that wrote the file to get version {SCHEMA_VERSION}" in exc.value.detail


# every label-cover fixture, then the walk-outcome ladder, whose covers all reduce
COVERS = {name: shipped.load(name) for name in shipped.FIXTURE_NAMES if name != "ssat_share"}
COVERS.update(ladder())


@pytest.mark.parametrize("name", list(COVERS))
def test_lc_to_ssat_of_every_fixture_and_ladder_cover_round_trips(tmp_path, name):
    lc = COVERS[name]
    ssat = lc_to_ssat(lc)
    assert ssat.provenance is lc
    path = tmp_path / "ssat.json"
    write_instance(path, ssat)
    again = read_instance(path)
    assert again == ssat and again.provenance == lc
    assert canonical_bytes(again) == path.read_bytes()


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
    doc["provenance"]["edges"][1]["pi"][0] = 1.0
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == "/provenance/edges/1/pi/0"
    del doc["provenance"]["edges"][1]["pi"]
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == "/provenance/edges/1"


def _one_edge_cover(sigma_a) -> LabelCoverInstance:
    edge = ("a0", "b0")
    table = {x: i % 2 for i, x in enumerate(sigma_a)}
    return LabelCoverInstance(("a0",), ("b0",), tuple(sigma_a), (0, 1), (edge,), {edge: table})


def test_labels_with_the_same_string_form_round_trip_bare_and_nested():
    # a projection table is the array of its images in sigma_a order, so 1 and '1' need no string keys
    lc = _one_edge_cover((1, "1"))
    ssat = lc_to_ssat(lc)
    for obj, node in ((lc, lambda doc: doc), (ssat, lambda doc: doc["provenance"])):
        doc = to_document(obj)
        assert node(doc)["sigma_a"] == [1, "1"] and node(doc)["edges"][0]["pi"] == [0, 1]
        assert from_document(doc) == obj
    assert ssat.tests[0].assignments == ((1,), ("1",))


@pytest.mark.parametrize("images,pointer", [([0], "/edges/0/pi"), ([0, 1, 0], "/edges/0/pi"),
                                            ([0, 1.0], "/edges/0/pi/1"), ({"0": 0, "1": 1}, "/edges/0/pi")])
def test_a_pi_that_is_not_one_label_per_sigma_a_label_is_refused_at_its_node(images, pointer):
    doc = to_document(_one_edge_cover((0, 1)))
    doc["edges"][0]["pi"] = images
    with pytest.raises(SchemaViolation) as exc:
        from_document(doc)
    assert exc.value.pointer == pointer


def test_a_pi_image_outside_sigma_b_is_malformed():
    doc = to_document(_one_edge_cover((0, 1)))
    doc["edges"][0]["pi"] = [0, 2]
    with pytest.raises(MalformedInstance, match="maps outside sigma_b"):
        from_document(doc)


def test_an_ssat_document_is_its_cover_or_its_tests_and_nothing_else():
    ssat = lc_to_ssat(shipped.load("lc_cyc"))
    derived, standalone = to_document(ssat), to_document(replace(ssat, provenance=None))
    assert sorted(derived) == ["kind", "provenance", "version"]
    assert sorted(standalone) == ["field_values", "kind", "tests", "variables", "version"]
    assert from_document(standalone) == replace(ssat, provenance=None)
    for doc in (dict(derived, tests=standalone["tests"]), dict(standalone, provenance=derived["provenance"]),
                dict(standalone, provenance=None), {"kind": "ssat", "version": SCHEMA_VERSION}):
        with pytest.raises(SchemaViolation) as exc:
            from_document(doc)
        assert exc.value.pointer == ""
        assert "['kind', 'provenance', 'version'] or ['field_values', 'kind', 'tests', 'variables', 'version']" in (
            exc.value.detail)
    with pytest.raises(SchemaViolation) as exc:
        from_document(dict(derived, provenance=None))
    assert exc.value.pointer == "/provenance"


def test_version_5_files_are_refused_at_version():
    # as version 5 wrote them: pi objects keyed by str(label), and a derived SSAT file that also lists its tests
    lc_doc = to_document(shipped.load("lc_share"))
    for edge in lc_doc["edges"]:
        edge["pi"] = {str(x): y for x, y in zip(lc_doc["sigma_a"], edge["pi"])}
    lc_doc["version"] = 5
    ssat_doc = dict(to_document(replace(shipped.load("ssat_share"), provenance=None)), provenance=lc_doc, version=5)
    for doc in (lc_doc, ssat_doc):
        with pytest.raises(SchemaViolation) as exc:
            from_document(doc)
        assert exc.value.pointer == "/version"
        assert "version 5 is not supported" in exc.value.detail


@pytest.mark.parametrize("name", shipped.FIXTURE_NAMES)
def test_shipped_fixture_files_are_canonical(name):
    assert shipped.fixture_path(name).read_bytes() == canonical_bytes(shipped.load(name))


_HEADER = ("kind", "version")
_LC_FIELDS = _HEADER + ("a", "b", "sigma_a", "sigma_b", "edges", "edges/0/a", "edges/0/b", "edges/0/pi")
_INEQUALITY_FIELDS = ("coeff_x", "coeff_y", "coeff_delta", "sense", "group", "multiplicity")
FIELDS = {
    "label_cover": _LC_FIELDS,
    "labeling": _HEADER + ("phi_a", "phi_b"),
    "ssat": _HEADER + ("provenance",) + tuple(f"provenance/{field}" for field in _LC_FIELDS),
    "ssat_standalone": _HEADER + ("variables", "field_values", "tests", "tests/0/variables", "tests/0/assignments"),
    "superassignment": _HEADER + ("weights",),
    "sis": _HEADER + ("num_cols", "matrix", "target", "bound"),
    "ncp": _HEADER + ("modulus", "num_cols", "matrix", "target", "bound", "replication", "multiplicity"),
    "lhp": _HEADER + ("num_x", "u_param", "inequalities") + tuple(f"inequalities/0/{f}" for f in _INEQUALITY_FIELDS),
    "lhp_assignment": _HEADER + ("x_values", "y_value", "delta_value"),
}


def _one_document_per_kind() -> dict:
    """One document of each kind, by its kind; an SSAT document in each of its two forms."""
    ssat = shipped.load("ssat_share")
    sis = ssat_to_sis(ssat)
    objs = (shipped.load("lc_share"), Labeling({0: 1}, {10: 1}), ssat, SuperAssignment.from_rows(((1, 0), (1, 0))),
            sis, sis_to_ncp(sis, g=1), sis_to_lhp(sis), LhpAssignment.of((1, -2), 3, Fraction(1, 2)))
    docs = {doc["kind"]: doc for doc in map(to_document, objs)}
    docs["ssat_standalone"] = to_document(replace(ssat, provenance=None))
    assert docs.keys() == FIELDS.keys()
    return docs


def _field_pointers(node, ptr=""):
    """The pointer of every key of every object below ``node``, through the first item of each array."""
    if isinstance(node, list) and node:
        yield from _field_pointers(node[0], f"{ptr}/0")
    elif isinstance(node, dict):
        for key, value in node.items():
            yield f"{ptr}/{key}"
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


def _item_pointers(node, ptr=""):
    """The pointer of every item of every array below ``node``, both slots of each pair included."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield f"{ptr}/{i}"
            yield from _item_pointers(item, f"{ptr}/{i}")
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _item_pointers(value, f"{ptr}/{key}")


# a few of the pointers the walk must reach: pair slots and nested items
ITEM_EXAMPLES = {
    "label_cover": {"/sigma_a/0", "/a/0"},
    "labeling": {"/phi_a/0/0", "/phi_a/0/1"},
    "ssat": {"/provenance/sigma_b/0", "/provenance/edges/1/pi/1"},
    "ssat_standalone": {"/tests/0/assignments/0/0", "/tests/0/variables/0"},
    "superassignment": {"/weights/0/0"},
    "sis": {"/matrix/0/0/0", "/matrix/0/0/1", "/target/0"},
    "ncp": {"/matrix/0/0/0", "/matrix/0/0/1", "/multiplicity/0"},
    "lhp": {"/inequalities/0", "/inequalities/2/coeff_x/0/0", "/inequalities/2/coeff_x/0/1"},
    "lhp_assignment": {"/x_values/0", "/x_values/1"},
}


@pytest.mark.parametrize("kind", FIELDS)
def test_a_float_in_any_array_item_is_refused_at_that_item(kind):
    doc = _one_document_per_kind()[kind]
    pointers = list(_item_pointers(doc))
    assert ITEM_EXAMPLES[kind] <= set(pointers)
    for ptr in pointers:
        with pytest.raises(SchemaViolation) as exc:
            from_document(_replaced(doc, ptr, 1.0))
        assert exc.value.pointer == ptr


# the top-level fields of each kind in the order they are read
READ_ORDER = {
    "label_cover": ("sigma_a", "edges", "a", "b", "sigma_b"),
    "labeling": ("phi_a", "phi_b"),
    "ssat": ("provenance",),
    "ssat_standalone": ("variables", "field_values", "tests"),
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
