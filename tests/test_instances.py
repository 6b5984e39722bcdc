"""Core instance types: validation, preimages, edge satisfaction."""

from __future__ import annotations

import json
import re

import pytest
from naive import replace

from gapforge.errors import (
    MalformedInstance,
    PartialLabeling,
    SchemaViolation,
    UnknownEdge,
    UnknownLabel,
)
from gapforge.instances import (
    PRIME_TEST_LIMIT,
    LabelCoverInstance,
    Labeling,
    LhpSystem,
    NcpInstance,
    SsatInstance,
    _is_prime,
    sis_inequalities,
    count_satisfied_edges,
    preimage,
    validate_label_cover,
)
from gapforge.reductions import lc_to_ssat, sis_to_lhp, ssat_to_sis
from gapforge.serialize import read_instance, to_document, write_instance
from gapforge.superassign import natural_from_labeling


def test_validate_lc_id2(lc_id2):
    report = validate_label_cover(lc_id2)
    assert report.bi_regular is True
    assert (report.d_a, report.d_b, report.p, report.size_n) == (1, 2, 1, 5)


def test_validate_lc_cyc(lc_cyc):
    report = validate_label_cover(lc_cyc)
    assert report.bi_regular is True
    assert (report.d_a, report.d_b, report.p, report.size_n) == (2, 2, 1, 8)


def test_validate_is_pure(lc_cyc):
    assert validate_label_cover(lc_cyc) == validate_label_cover(lc_cyc)


def test_partial_projection_table_rejected():
    edges = (("a0", "b0"), ("a1", "b0"))
    tables = {("a0", "b0"): {0: 0}, ("a1", "b0"): {0: 0, 1: 1}}
    with pytest.raises(MalformedInstance):
        LabelCoverInstance(("a0", "a1"), ("b0",), (0, 1), (0, 1), edges, tables)


def test_dangling_edge_rejected():
    edges = (("a0", "b9"),)
    tables = {("a0", "b9"): {0: 0, 1: 1}}
    with pytest.raises(MalformedInstance):
        LabelCoverInstance(("a0",), ("b0",), (0, 1), (0, 1), edges, tables)


def test_duplicate_edge_rejected():
    edges = (("a0", "b0"), ("a0", "b0"))
    tables = {("a0", "b0"): {0: 0, 1: 1}}
    with pytest.raises(MalformedInstance):
        LabelCoverInstance(("a0",), ("b0",), (0, 1), (0, 1), edges, tables)


def test_preimage_identity(lc_id2):
    assert preimage(lc_id2, ("a0", "b0"), 0) == (0,)


def test_preimage_flip(lc_cyc):
    assert preimage(lc_cyc, ("a1", "b1"), 0) == (1,)


def test_preimage_empty(lc_2to1):
    assert preimage(lc_2to1, ("a0", "b0"), 1) == ()


def test_preimage_errors(lc_id2):
    with pytest.raises(UnknownEdge):
        preimage(lc_id2, ("a0", "b9"), 0)
    with pytest.raises(UnknownLabel):
        preimage(lc_id2, ("a0", "b0"), 7)


def test_preimages_partition_sigma_a(lc_cyc, lc_2to1):
    for lc in (lc_cyc, lc_2to1):
        for e in lc.edges:
            pieces = [preimage(lc, e, y) for y in lc.sigma_b]
            flat = [x for piece in pieces for x in piece]
            assert sorted(flat, key=lc.sigma_a.index) == list(lc.sigma_a)
            assert len(set(flat)) == len(flat)


def test_count_satisfied_id2(lc_id2):
    lab = Labeling({"a0": 0, "a1": 0}, {"b0": 0})
    assert count_satisfied_edges(lc_id2, lab) == 2


def test_count_satisfied_cyc_all_zero(lc_cyc):
    lab = Labeling({"a0": 0, "a1": 0}, {"b0": 0, "b1": 0})
    assert count_satisfied_edges(lc_cyc, lab) == 3


def test_count_satisfied_cyc_mixed(lc_cyc):
    lab = Labeling({"a0": 0, "a1": 1}, {"b0": 0, "b1": 0})
    assert count_satisfied_edges(lc_cyc, lab) == 3


def test_count_requires_phi_b(lc_id2):
    with pytest.raises(PartialLabeling):
        count_satisfied_edges(lc_id2, Labeling({"a0": 0, "a1": 0}))


def test_count_bounded_by_edges_with_equality_iff_all_hold(lc_cyc):
    # exhaustive over all 16 labelings
    for pa0 in (0, 1):
        for pa1 in (0, 1):
            for pb0 in (0, 1):
                for pb1 in (0, 1):
                    lab = Labeling({"a0": pa0, "a1": pa1}, {"b0": pb0, "b1": pb1})
                    count = count_satisfied_edges(lc_cyc, lab)
                    assert count <= len(lc_cyc.edges)
                    every = all(
                        lc_cyc.projections[e][lab.phi_a[e[0]]] == lab.phi_b[e[1]]
                        for e in lc_cyc.edges
                    )
                    assert (count == len(lc_cyc.edges)) == every


def _tests_reversed(ssat):
    return {"tests": ssat.tests[::-1]}


def _variable_renamed(ssat):
    return {"variables": ("y",), "tests": tuple(replace(t, variables=("y",)) for t in ssat.tests)}


def _field_value_added(ssat):
    first = replace(ssat.tests[0], assignments=ssat.tests[0].assignments + ((2,),))
    return {"field_values": ssat.field_values + (2,), "tests": (first, *ssat.tests[1:])}


def _test_dropped(ssat):
    return {"tests": ssat.tests[:1]}


def _test_variables_swapped(ssat):
    first = ssat.tests[0]
    swapped = replace(first, variables=first.variables[::-1], assignments=tuple(r[::-1] for r in first.assignments))
    return {"tests": (swapped, *ssat.tests[1:])}


def _every_assignment(ssat):
    # test 0 of lc_cyc reads (a0, a1) under two bijections: past |sigma_b| * 1^2 = 2 assignments, one has two labels
    return {"tests": (replace(ssat.tests[0], assignments=((0, 0), (0, 1), (1, 0), (1, 1))), *ssat.tests[1:])}


def _test_cut(ssat):
    # test 0 of lc_share lists (0,) and (1,); cut to the second, it no longer lists what its B-labels derive
    return {"tests": (replace(ssat.tests[0], assignments=((1,),)), *ssat.tests[1:])}


_NOT_DERIVED = "the tests are not the ones its label cover derives"
# (cover, change to lc_to_ssat of it, the refusal's message)
LAYOUT_BREAKS = {
    "tests-reversed": ("lc_cyc", _tests_reversed, _NOT_DERIVED),
    "variable-renamed": ("lc_share", _variable_renamed, "the variables are not the ones its label cover derives"),
    "field-value-added": ("lc_share", _field_value_added, "the field_values are not the ones its label cover derives"),
    "test-dropped": ("lc_share", _test_dropped, _NOT_DERIVED),
    "test-variables-swapped": ("lc_cyc", _test_variables_swapped, _NOT_DERIVED),
    "over-the-bound": ("lc_cyc", _every_assignment, _NOT_DERIVED),
    "test-cut": ("lc_share", _test_cut, _NOT_DERIVED),
}


@pytest.mark.parametrize("case", list(LAYOUT_BREAKS))
def test_provenance_with_another_layout_than_lc_to_ssat_is_malformed(request, case):
    name, change, message = LAYOUT_BREAKS[case]
    ssat = lc_to_ssat(request.getfixturevalue(name))
    with pytest.raises(MalformedInstance, match=re.escape(message)):
        replace(ssat, **change(ssat))
    # the same tests and values stand alone
    assert replace(ssat, provenance=None, **change(ssat)).provenance is None


def test_a_cut_test_never_reaches_natural_from_labeling(lc_share):
    # format 5 let ssat_share with test 0 cut to [[1]] load, and natural_from_labeling then blamed the edge
    # ('x', 'b0'), which this labeling satisfies; the cut instance is refused, and the derived one takes the labeling
    labeling = Labeling({"x": 0}, {"b0": 0, "b1": 0})
    ssat = lc_to_ssat(lc_share)
    with pytest.raises(MalformedInstance, match=re.escape(_NOT_DERIVED)):
        replace(ssat, **_test_cut(ssat))
    assert natural_from_labeling(ssat, labeling).weights == ((1, 0), (1, 0))


# format version 4 could write these three with its maps from variables and tests to the cover's
# vertices; each file loaded, then broke a consumer.  Format 5 wrote the cover beside the tests and
# refused these layouts on construction; a format-6 file with a cover lists no tests
FILE_BREAKS = ("tests-reversed", "variable-renamed", "field-value-added")


def write_layout_break(path, lc, case) -> None:
    """An SSAT file that nests ``lc`` as its provenance beside the tests and values of ``case``."""
    ssat = lc_to_ssat(lc)
    write_instance(path, replace(ssat, provenance=None, **LAYOUT_BREAKS[case][1](ssat)))
    doc = json.loads(path.read_text())
    doc["provenance"] = to_document(lc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("case", FILE_BREAKS)
def test_a_file_with_another_layout_is_refused_on_read(request, tmp_path, case):
    # a derived file is its cover alone: beside its tests, even tests it would derive, the cover is refused
    write_layout_break(tmp_path / "ssat.json", request.getfixturevalue(LAYOUT_BREAKS[case][0]), case)
    with pytest.raises(SchemaViolation, match="expected exactly the keys") as exc:
        read_instance(tmp_path / "ssat.json")
    assert exc.value.pointer == ""


def test_provenance_is_the_cover_and_its_layout_is_lc_to_ssats(lc_cyc):
    ssat = lc_to_ssat(lc_cyc)
    assert ssat.provenance is lc_cyc
    assert ssat.variables == lc_cyc.a_vertices and ssat.field_values == lc_cyc.sigma_a
    assert [t.variables for t in ssat.tests] == [tuple(a for a, _ in lc_cyc.edges_of_b[b]) for b in lc_cyc.b_vertices]


def test_empty_ssat_and_negative_num_x_are_malformed():
    with pytest.raises(MalformedInstance, match="at least one variable and one test"):
        SsatInstance(variables=(), field_values=(0,), tests=())
    with pytest.raises(MalformedInstance, match="num_x"):
        LhpSystem(num_x=-1, u_param=1, inequalities=())


def test_an_lhp_system_with_a_sis_is_the_one_its_sis_and_u_derive(ssat_share):
    sis = ssat_to_sis(ssat_share)
    lhp = LhpSystem(u_param=3, provenance=sis)
    assert lhp == sis_to_lhp(sis, u_param=3)
    assert lhp.num_x == sis.num_cols and lhp.inequalities == sis_inequalities(sis, 3)
    # given the derived fields too, it takes them when they agree and refuses them when they differ
    assert LhpSystem(u_param=3, num_x=4, inequalities=lhp.inequalities, provenance=sis) == lhp
    for changes, field in (({"num_x": 5}, "num_x"), ({"inequalities": lhp.inequalities[1:]}, "inequalities"),
                           ({"u_param": 4}, "inequalities"),
                           ({"provenance": replace(sis, target=(2, *sis.target[1:]))}, "inequalities")):
        with pytest.raises(MalformedInstance, match=f"^{field} differs from what its SIS system derives$"):
            replace(lhp, **changes)
    with pytest.raises(MalformedInstance, match="u_param must be at least 1"):
        LhpSystem(u_param=0, provenance=sis)
    with pytest.raises(MalformedInstance, match="needs num_x or the SIS system"):
        LhpSystem(u_param=1)


# ---------------------------------------------------------------------------
# Prime moduli
# ---------------------------------------------------------------------------

def _ncp(modulus):
    return NcpInstance(modulus=modulus, num_cols=1, matrix=(((0, 1),),), target=(0,), bound=1, replication=1, multiplicity=(1,))


def test_prime_test_matches_trial_division_below_ten_thousand():
    primes = [n for n in range(10_000) if n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(10_000) if _is_prime(n)] == primes


@pytest.mark.parametrize("composite", [561, 3215031751, 3825123056546413051])
def test_pseudoprimes_are_not_prime_moduli(composite):
    # a Carmichael number, the strong pseudoprime to bases 2, 3, 5, 7, and
    # the strong pseudoprime to the first nine prime bases
    with pytest.raises(MalformedInstance, match="is not prime"):
        _ncp(composite)


@pytest.mark.parametrize("prime", [100000000000031, 2 ** 61 - 1])
def test_large_prime_modulus_is_accepted(prime):
    assert _ncp(prime).modulus == prime


def test_modulus_beyond_the_exact_prime_test_is_refused():
    with pytest.raises(MalformedInstance, match=str(PRIME_TEST_LIMIT)):
        _ncp(PRIME_TEST_LIMIT)
    with pytest.raises(MalformedInstance, match=str(PRIME_TEST_LIMIT)):
        _ncp(2 ** 89 - 1)  # a Mersenne prime, above the limit

