"""Super-assignment algebra: projections, consistency, norms, arrays, claims."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from gapforge.cli import main
from gapforge.errors import EdgeUnsatisfied, InconsistentInput, VariableNotInTest
from gapforge.instances import Labeling, SsatInstance, SsatTest
from gapforge.oracles import enumerate_consistent_superassignments
from gapforge.serialize import write_instance
from gapforge.superassign import (
    SuperAssignment,
    TestKind,
    assigned_value_sets,
    check_bad_array_sums,
    classify_tests,
    decompose_arrays,
    good_coordinates,
    is_consistent,
    is_nontrivial,
    is_not_all_zero,
    natural_from_labeling,
    norm_l1,
    norm_linf,
    project,
    test_norm,
    zero_all_bad_arrays,
)


def _sa(*rows):
    return SuperAssignment.from_rows(rows)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_direct_sum(ssat_share):
    vec = project(ssat_share, _sa((2, -1), (0, 0)), 0, "x")
    assert vec == {0: 2, 1: -1}
    assert list(vec) == [0, 1]  # field order


def test_project_cancellation(ssat_2to1_wide):
    # both assignments with a0 = 0 cancel; a0 = 1 pair cancels too
    s = _sa((1, -1, 0, 0))
    vec = project(ssat_2to1_wide, s, 0, "a0")
    assert vec == {}


def test_project_cyc(ssat_cyc):
    vec = project(ssat_cyc, _sa((0, 0), (1, 1)), 1, "a1")
    assert vec == {0: 1, 1: 1}


def test_project_unknown_variable(ssat_share):
    with pytest.raises(VariableNotInTest):
        project(ssat_share, _sa((1, 0), (1, 0)), 0, "nope")


def test_project_linearity(ssat_cyc):
    s1 = _sa((1, -2), (0, 1))
    s2 = _sa((2, 2), (-1, 0))
    both = s1.add(s2)
    for t in range(2):
        for x in ssat_cyc.tests[t].variables:
            left = project(ssat_cyc, both, t, x)
            p1, p2 = project(ssat_cyc, s1, t, x), project(ssat_cyc, s2, t, x)
            right = {a: p1.get(a, 0) + p2.get(a, 0) for a in ssat_cyc.field_values}
            assert list(left.items()) == [(a, w) for a, w in right.items() if w]


def test_projection_mass_conservation(ssat_cyc, ssat_share):
    for ssat in (ssat_cyc, ssat_share):
        s = _sa((2, -1), (1, 1))
        for t in range(len(ssat.tests)):
            total = sum(s.weights[t])
            for x in ssat.tests[t].variables:
                vec = project(ssat, s, t, x)
                assert sum(vec.values()) == total


# ---------------------------------------------------------------------------
# consistency, triviality, norms
# ---------------------------------------------------------------------------

def test_consistent_share(ssat_share):
    assert is_consistent(ssat_share, _sa((1, 0), (1, 0))).consistent


def test_inconsistent_share_witness(ssat_share):
    result = is_consistent(ssat_share, _sa((1, 0), (0, 1)))
    assert not result.consistent
    assert result.witness == (0, 1, "x", 0)


def test_inconsistency_witness_is_first_in_pair_order(tmp_path, capsys):
    """Pair (0, 1) on y comes before pair (0, 2) on x, although x is the first variable."""
    ssat = SsatInstance(
        variables=("x", "y"),
        field_values=(0, 1),
        tests=(
            SsatTest(("x", "y"), ((0, 0), (1, 1))),
            SsatTest(("y",), ((0,), (1,))),
            SsatTest(("x",), ((0,), (1,))),
        ),
    )
    s = _sa((1, 0), (0, 1), (0, 1))
    assert is_consistent(ssat, s).witness == (0, 1, "y", 0)
    write_instance(tmp_path / "ssat.json", ssat)
    write_instance(tmp_path / "s.json", s)
    code = main(["check", "consistency", "--in", str(tmp_path / "ssat.json"), "--super", str(tmp_path / "s.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["witness"] == {"test_i": 0, "test_j": 1, "variable": "y", "value": 0}


def test_consistent_cyc_all_ones(ssat_cyc):
    assert is_consistent(ssat_cyc, _sa((1, 1), (1, 1))).consistent


def test_nontrivial_natural(ssat_id2):
    assert is_nontrivial(ssat_id2, _sa((1, 0)))


def test_not_all_zero(ssat_share):
    assert not is_not_all_zero(SuperAssignment.zeros(ssat_share))
    assert is_not_all_zero(_sa((0, 0), (0, 1)))


def test_nonzero_projection_vector_is_nontrivial(ssat_share):
    # (1, -1) projects to {0: 1, 1: -1}, which is a nonzero vector, so the
    # variable is not cancelled even though the entries sum to zero
    s = _sa((1, -1), (1, -1))
    assert is_not_all_zero(s)
    assert is_nontrivial(ssat_share, s)


def test_cancelled_variable_is_trivial(ssat_2to1_wide):
    # per-value cancellation on every variable of the only test
    s = _sa((1, -1, -1, 1))
    assert is_not_all_zero(s)
    assert not is_nontrivial(ssat_2to1_wide, s)


def test_norms_natural(ssat_id2):
    s = _sa((1, 0))
    assert norm_l1(s) == 1
    assert norm_linf(s) == 1


def test_norms_cyc_all_ones(ssat_cyc):
    s = _sa((1, 1), (1, 1))
    assert norm_l1(s) == 2
    assert norm_linf(s) == 2
    assert test_norm(s, 0) == 2


def test_norms_zero():
    s = _sa((0, 0), (0,), (0, 0, 0))
    assert norm_l1(s) == 0
    assert norm_linf(s) == 0


def test_norm_l1_is_exact_fraction():
    s = _sa((1, 0), (0, 0), (0, 0))
    assert norm_l1(s) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# natural_from_labeling
# ---------------------------------------------------------------------------

def test_natural_id2(ssat_id2):
    s = natural_from_labeling(ssat_id2, Labeling({"a0": 0, "a1": 0}, {"b0": 0}))
    assert s.weights == ((1, 0),)


def test_natural_cyc_unsatisfied(ssat_cyc):
    with pytest.raises(EdgeUnsatisfied) as exc:
        natural_from_labeling(ssat_cyc, Labeling({"a0": 0, "a1": 0}))
    assert exc.value.edge == ("a1", "b1")


def test_natural_id2_ones(ssat_id2):
    s = natural_from_labeling(ssat_id2, Labeling({"a0": 1, "a1": 1}, {"b0": 1}))
    assert s.weights == ((0, 1),)
    assert is_consistent(ssat_id2, s).consistent
    assert norm_l1(s) == 1


# ---------------------------------------------------------------------------
# arrays
# ---------------------------------------------------------------------------

def test_decompose_id2_natural(ssat_id2):
    views = decompose_arrays(ssat_id2, _sa((1, 0)), 0)
    assert [v.b_label for v in views] == [0, 1]
    assert views[0].cells == (((0, 0), 1),)
    assert views[1].cells == (((1, 1), 0),)
    assert views[0].norm == 1 and views[1].norm == 0


def test_decompose_cyc(ssat_cyc):
    views = decompose_arrays(ssat_cyc, _sa((0, 0), (1, 1)), 1)
    assert [(v.b_label, v.cells) for v in views] == [
        (0, (((0, 1), 1),)),
        (1, (((1, 0), 1),)),
    ]


def test_decompose_zero_weights(ssat_cyc):
    views = decompose_arrays(ssat_cyc, SuperAssignment.zeros(ssat_cyc), 0)
    assert all(v.norm == 0 for v in views)


def test_decompose_partitions_assignments(ssat_cyc, ssat_share, ssat_2to1_wide):
    for ssat in (ssat_cyc, ssat_share, ssat_2to1_wide):
        s = SuperAssignment.from_rows(
            tuple(tuple(i + 1 for i in range(len(t.assignments))) for t in ssat.tests)
        )
        for psi in range(len(ssat.tests)):
            views = decompose_arrays(ssat, s, psi)
            covered = sorted(i for v in views for i in v.assignment_indices)
            assert covered == list(range(len(ssat.tests[psi].assignments)))
            assert sum(v.norm for v in views) == test_norm(s, psi)


def test_good_coordinates_all_good(ssat_id2):
    views = decompose_arrays(ssat_id2, _sa((1, 0)), 0)
    flags = good_coordinates(views[0], {"a0": frozenset({0}), "a1": frozenset({0})})
    assert flags == {"a0": True, "a1": True}


def test_good_coordinates_mixed(ssat_id2):
    views = decompose_arrays(ssat_id2, _sa((1, 0)), 0)
    flags = good_coordinates(views[1], {"a0": frozenset({1}), "a1": frozenset()})
    assert flags == {"a0": True, "a1": False}


def test_good_coordinates_all_bad(ssat_id2):
    views = decompose_arrays(ssat_id2, _sa((0, 0)), 0)
    flags = good_coordinates(views[0], {"a0": frozenset(), "a1": frozenset()})
    assert flags == {"a0": False, "a1": False}


# ---------------------------------------------------------------------------
# zero_all_bad_arrays / bad-array sums / classification
# ---------------------------------------------------------------------------

def test_zero_all_bad_zeroes_cancelling_array(ssat_2to1_wide):
    # checkerboard weights: all projections cancel, both coordinates bad
    s = _sa((1, -1, -1, 1))
    assert is_consistent(ssat_2to1_wide, s).consistent
    assert test_norm(s, 0) == 4
    out = zero_all_bad_arrays(ssat_2to1_wide, s)
    assert out.weights == ((0, 0, 0, 0),)
    assert is_consistent(ssat_2to1_wide, out).consistent


def test_zero_all_bad_keeps_natural(ssat_id2):
    s = _sa((1, 0))
    assert zero_all_bad_arrays(ssat_id2, s) == s


def test_zero_all_bad_keeps_cyc_all_ones(ssat_cyc):
    s = _sa((1, 1), (1, 1))
    assert zero_all_bad_arrays(ssat_cyc, s) == s


def test_zero_all_bad_rejects_inconsistent(ssat_share):
    with pytest.raises(InconsistentInput):
        zero_all_bad_arrays(ssat_share, _sa((1, 0), (0, 1)))


def test_bad_array_sums_exhaustive_share(ssat_share):
    for s in enumerate_consistent_superassignments(ssat_share, 2):
        assert check_bad_array_sums(ssat_share, s) == []


def test_bad_array_sums_rejects_inconsistent(ssat_share):
    with pytest.raises(InconsistentInput):
        check_bad_array_sums(ssat_share, _sa((1, 0), (0, 1)))


def test_bad_array_sums_natural_vacuous(ssat_id2):
    assert check_bad_array_sums(ssat_id2, _sa((1, 0))) == []


def test_classify_natural_multi_good(ssat_id2):
    assert classify_tests(ssat_id2, _sa((1, 0)), [0]) == [TestKind.MULTI_GOOD]


def test_classify_zero(ssat_share):
    s = _sa((0, 0), (0, 0))
    assert classify_tests(ssat_share, s, [0, 1]) == [TestKind.ZERO, TestKind.ZERO]


def test_classify_never_aborts_on_consistent_boxes(ssat_share, ssat_cyc):
    for ssat in (ssat_share, ssat_cyc):
        for s in enumerate_consistent_superassignments(ssat, 2):
            classify_tests(ssat, s, range(len(ssat.tests)))  # must not raise


def test_zero_all_bad_never_increases_norm_exhaustive(ssat_share, ssat_cyc, ssat_2to1_wide):
    for ssat in (ssat_share, ssat_cyc, ssat_2to1_wide):
        for s in enumerate_consistent_superassignments(ssat, 2):
            out = zero_all_bad_arrays(ssat, s)
            assert is_consistent(ssat, out).consistent
            assert norm_l1(out) <= norm_l1(s)


def test_assigned_values_global(ssat_share):
    s = _sa((1, 0), (1, 0))
    assert assigned_value_sets(ssat_share, s) == {"x": frozenset({0})}


def test_classification_impossible_aborts_loudly(ssat_2to1_wide):
    """A consistent checkerboard has nonzero weight but zero assigned values.

    All projections cancel, so every nonzero assignment has no assigned value
    and no multi-good witness exists; the classifier must abort rather than
    return a bucket.  (Reducing with zero_all_bad_arrays first removes the
    weight entirely, after which the test classifies as Zero.)
    """
    from gapforge.errors import ClassificationImpossible

    s = _sa((1, -1, -1, 1))
    assert is_consistent(ssat_2to1_wide, s).consistent
    with pytest.raises(ClassificationImpossible):
        classify_tests(ssat_2to1_wide, s, [0])
    reduced = zero_all_bad_arrays(ssat_2to1_wide, s)
    assert classify_tests(ssat_2to1_wide, reduced, [0]) == [TestKind.ZERO]
