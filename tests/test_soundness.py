"""Agreement soundness, the soundness-bound inequality, list constructions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gapforge.errors import (
    InfeasibleSpec,
    MalformedInstance,
    NormBoundViolated,
    PreconditionFailed,
    SearchSpaceTooLarge,
)
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import LabelCoverInstance
from gapforge.oracles import enumerate_consistent_superassignments
from gapforge.reductions import lc_to_ssat
from gapforge.soundness import (
    ListConstructionParams,
    ListLabeling,
    agreement_soundness_exact,
    check_list_soundness_bound,
    list_agreement_soundness_exact,
    list_construction,
    list_construction_linf,
    list_totally_disagree,
    select_low_norm_tests,
    totally_disagree,
    verify_defeats_list_soundness,
)
from gapforge.superassign import SuperAssignment, is_nontrivial, norm_l1


def _sa(*rows):
    return SuperAssignment.from_rows(rows)


# ---------------------------------------------------------------------------
# disagreement predicates
# ---------------------------------------------------------------------------

def test_totally_disagree_cyc(lc_cyc):
    assert totally_disagree(lc_cyc, {"a0": 0, "a1": 0}, "b0") is False
    assert totally_disagree(lc_cyc, {"a0": 0, "a1": 0}, "b1") is True


def test_totally_disagree_single_neighbor(lc_2to1):
    assert totally_disagree(lc_2to1, {"a0": 0}, "b0") is True


def test_list_totally_disagree_cyc(lc_cyc):
    lists = ListLabeling.from_sets(lc_cyc, {"a0": {0}, "a1": {1}})
    assert list_totally_disagree(lc_cyc, lists, "b1") is False
    lists2 = ListLabeling.from_sets(lc_cyc, {"a0": {0}, "a1": {0}})
    assert list_totally_disagree(lc_cyc, lists2, "b1") is True


def test_full_lists_always_agree_on_cyc(lc_cyc):
    lists = ListLabeling.from_sets(lc_cyc, {"a0": {0, 1}, "a1": {0, 1}})
    for b in lc_cyc.b_vertices:
        assert list_totally_disagree(lc_cyc, lists, b) is False


# ---------------------------------------------------------------------------
# exact soundness numbers
# ---------------------------------------------------------------------------

def test_agreement_id2(lc_id2):
    assert agreement_soundness_exact(lc_id2) == 1


def test_agreement_cyc_brute_force_cross_check(lc_cyc):
    # independent: enumerate labelings directly against the definition
    best = 0
    for pa0 in (0, 1):
        for pa1 in (0, 1):
            phi = {"a0": pa0, "a1": pa1}
            agreeing = sum(1 for b in lc_cyc.b_vertices if not totally_disagree(lc_cyc, phi, b))
            best = max(best, agreeing)
    assert agreement_soundness_exact(lc_cyc) == Fraction(best, 2) == Fraction(1, 2)


def test_agreement_single_neighbor_is_zero(lc_2to1):
    assert agreement_soundness_exact(lc_2to1) == 0


def test_agreement_cap(lc_cyc):
    with pytest.raises(SearchSpaceTooLarge):
        agreement_soundness_exact(lc_cyc, max_states=3)


def test_list_agreement_cyc(lc_cyc):
    assert list_agreement_soundness_exact(lc_cyc, 2) == 1
    assert list_agreement_soundness_exact(lc_cyc, 1) == Fraction(1, 2)


def test_list_agreement_l1_reduces_to_plain(lc_id2, lc_cyc, lc_share):
    for lc in (lc_id2, lc_cyc, lc_share):
        assert list_agreement_soundness_exact(lc, 1) == agreement_soundness_exact(lc)


def test_list_agreement_full_lists_direct(lc_cyc, lc_id2):
    # l = |sigma_a|: the fraction of B-vertices where two neighbors can share
    # an image, computed directly
    for lc in (lc_cyc, lc_id2):
        full = ListLabeling.from_sets(lc, {a: set(lc.sigma_a) for a in lc.a_vertices})
        direct = Fraction(
            sum(1 for b in lc.b_vertices if not list_totally_disagree(lc, full, b)),
            len(lc.b_vertices),
        )
        assert list_agreement_soundness_exact(lc, len(lc.sigma_a)) == direct


def test_bound_cyc(lc_cyc):
    two = check_list_soundness_bound(lc_cyc, 2)
    assert (two.lhs, two.rhs, two.holds) == (1, 1, True)
    one = check_list_soundness_bound(lc_cyc, 1)
    assert (one.lhs, one.rhs, one.holds) == (Fraction(1, 2), Fraction(1, 2), True)


def test_bound_id2(lc_id2):
    one = check_list_soundness_bound(lc_id2, 1)
    assert (one.lhs, one.rhs, one.holds) == (1, 1, True)


# ---------------------------------------------------------------------------
# params and the low-norm test selection
# ---------------------------------------------------------------------------

def test_params_derivation():
    params = ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=2)
    assert params.g1 == Fraction(3, 2)
    assert params.p_include == Fraction(3, 4)
    forced = ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=2, force_p_one=True)
    assert forced.p_include == 1


def test_params_reject_bad_s_list():
    with pytest.raises(MalformedInstance):
        ListConstructionParams.derive(g=1, s_list=Fraction(1, 2), d_a=2)


# random.Random seeds from abs(seed): each of these would repeat the run of its positive twin
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda lc: GenSpec(2, 1, 2, 2, 2, 1, True, -1), InfeasibleSpec),
        (lambda lc: frustrate(lc, 1, -3), InfeasibleSpec),
        (lambda lc: ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=1, seed=-1), MalformedInstance),
        (lambda lc: list_construction_linf(lc_to_ssat(lc), _sa((1, 0)), 1, -1), MalformedInstance),
    ],
    ids=["gen-spec", "frustrate", "list-params", "list-construction-linf"],
)
def test_negative_seed_is_refused(lc_id2, build, error):
    with pytest.raises(error, match="the seed must be non-negative"):
        build(lc_id2)


def test_select_low_norm_natural(ssat_id2):
    params = ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=1)
    assert select_low_norm_tests(ssat_id2, _sa((1, 0)), params) == (0,)


def test_select_low_norm_cyc(ssat_cyc):
    params = ListConstructionParams.derive(g=2, s_list=Fraction(1, 4), d_a=2)
    assert params.g1 == 3
    assert select_low_norm_tests(ssat_cyc, _sa((1, 1), (1, 1)), params) == (0, 1)


def test_select_threshold_arithmetic():
    # norms (1, 5), g = 3, s_list = 1/4: threshold 4.5 keeps only the first
    from gapforge.instances import SsatInstance, SsatTest

    ssat = SsatInstance(
        variables=("u", "v"),
        field_values=(0, 1, 2, 3, 4),
        tests=(
            SsatTest(("u",), ((0,), (1,), (2,), (3,), (4,))),
            SsatTest(("v",), ((0,), (1,), (2,), (3,), (4,))),
        ),
    )
    s = _sa((1, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    params = ListConstructionParams.derive(g=3, s_list=Fraction(1, 4), d_a=1)
    assert params.g1 == Fraction(9, 2)
    assert select_low_norm_tests(ssat, s, params) == (0,)


def test_select_rejects_norm_violation(ssat_cyc):
    params = ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=2)
    with pytest.raises(NormBoundViolated):
        select_low_norm_tests(ssat_cyc, _sa((2, 2), (2, 2)), params)


def test_select_floor_breach_is_typed_error(ssat_id2):
    # g1 = 0 is below the derived g(1 - s_list)/(1 - 2 s_list) = 3/2, so the
    # natural super-assignment (norm 1) leaves no test under the threshold
    params = ListConstructionParams(
        g=Fraction(1), s_list=Fraction(1, 4), g1=Fraction(0), p_include=Fraction(1), seed=0
    )
    with pytest.raises(PreconditionFailed, match="below the s_list = 1/4 floor"):
        select_low_norm_tests(ssat_id2, _sa((1, 0)), params)


# ---------------------------------------------------------------------------
# list_construction (average-norm variant)
# ---------------------------------------------------------------------------

def test_list_construction_cyc_full_lists(ssat_cyc, lc_cyc):
    s = _sa((1, 1), (1, 1))
    params = ListConstructionParams.derive(g=2, s_list=Fraction(1, 4), d_a=2, seed=0)
    labeling = list_construction(ssat_cyc, s, params)
    assert labeling.lists == {"a0": (0, 1), "a1": (0, 1)}
    for b in lc_cyc.b_vertices:
        assert list_totally_disagree(lc_cyc, labeling, b) is False


def test_list_construction_natural_id2(ssat_id2, lc_id2):
    s = _sa((1, 0))
    params = ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=1, seed=0)
    labeling = list_construction(ssat_id2, s, params)
    assert labeling.lists == {"a0": (0,), "a1": (0,)}
    assert list_totally_disagree(lc_id2, labeling, "b0") is False


def test_list_construction_p_one_includes_all_nonassigned(lc_2to1_wide, ssat_2to1_wide):
    # weights 1,-1 on assignments sharing a0 = 0: a0's projection is zero, so
    # test 0 has single-good assignments through a1 only
    s = _sa((1, 0, -1, 0))
    # projections: a0 cancels? (0,0): +1, (0,1): 0, (1,0): -1, (1,1): 0
    # pi_a0 = {0: 1, 1: -1}; pi_a1 = {0: 0}; so a1 is unassigned: not nontrivial
    assert not is_nontrivial(ssat_2to1_wide, s)
    with pytest.raises(PreconditionFailed):
        params = ListConstructionParams.derive(g=2, s_list=Fraction(1, 4), d_a=1, force_p_one=True)
        list_construction(ssat_2to1_wide, s, params)


def test_list_construction_step1_dominates_assigned(ssat_cyc):
    from gapforge.superassign import assigned_value_sets

    s = _sa((1, 1), (1, 1))
    assigned = assigned_value_sets(ssat_cyc, s)
    for seed in range(20):
        params = ListConstructionParams.derive(g=2, s_list=Fraction(1, 4), d_a=2, seed=seed)
        labeling = list_construction(ssat_cyc, s, params)
        for var, values in assigned.items():
            assert values.issubset(set(labeling.lists[var]))


def test_list_construction_seed_determinism(ssat_cyc):
    s = _sa((1, 1), (1, 1))
    params = ListConstructionParams.derive(g=2, s_list=Fraction(1, 4), d_a=2, seed=11)
    assert list_construction(ssat_cyc, s, params) == list_construction(ssat_cyc, s, params)


def test_list_construction_requires_consistency(ssat_share):
    params = ListConstructionParams.derive(g=2, s_list=Fraction(1, 4), d_a=2)
    with pytest.raises(PreconditionFailed):
        list_construction(ssat_share, _sa((1, 0), (0, 1)), params)


def _single_good_fixture():
    """One AllSingleGood test with a genuinely random step 2.

    Both neighbors are 2-to-1 onto label 0, so the single test has one 2x2
    array.  Weights (1, 0, 0, -1) assign {0,1} to a0 but cancel a1... no:
    pi_a0 = {0: 1, 1: -1}, pi_a1 = {0: 1, 1: -1}: both assigned, and each
    nonzero assignment has two good coordinates.  Use weights (1, 0, -1, 0):
    pi_a0 = {0: 1, 1: -1} good; pi_a1 = {0: 0} zero: not non-trivial.
    A clean AllSingleGood non-trivial case needs a second B-vertex covering
    a1, built here explicitly.
    """
    edges = (("a0", "b0"), ("a1", "b0"), ("a1", "b1"))
    tables = {
        ("a0", "b0"): {0: 0, 1: 0},
        ("a1", "b0"): {0: 0, 1: 0},
        ("a1", "b1"): {0: 0, 1: 1},
    }
    lc = LabelCoverInstance(("a0", "a1"), ("b0", "b1"), (0, 1), (0, 1), edges, tables)
    ssat = lc_to_ssat(lc)
    # test 0 assignments: (0,0), (0,1), (1,0), (1,1); test 1: (0,), (1,)
    # weights: psi0 = (1, 0, 0, -1): pi_a0 = {0:1, 1:-1}, pi_a1 = {0:1, 1:-1}
    # psi1 = (1, -1) matches a1's projection: consistent, non-trivial
    s = _sa((1, 0, 0, -1), (1, -1))
    return lc, ssat, s


def test_single_good_fixture_classification():
    from gapforge.superassign import TestKind, classify_tests, is_consistent

    lc, ssat, s = _single_good_fixture()
    assert is_consistent(ssat, s).consistent
    assert is_nontrivial(ssat, s)
    # every nonzero assignment of either test has two good coordinates (test 0)
    # or one (test 1, single variable)
    assert classify_tests(ssat, s, [0, 1]) == [TestKind.MULTI_GOOD, TestKind.ALL_SINGLE_GOOD]


def test_linf_matches_l1_law_when_nontrivial(ssat_cyc):
    # V' empty: step 3 is vacuous, steps 1-2 with threshold g and p = g/D_A
    s = _sa((1, 1), (1, 1))
    result = list_construction_linf(ssat_cyc, s, g=2, seed=5)
    assert result.marked_step3 == ()
    assert result.labeling.lists == {"a0": (0, 1), "a1": (0, 1)}
    assert result.g_times_d_a == 4


def _step3_fixture():
    """Nonzero multi-good test sharing an unassigned variable with a zero test.

    b0 has three 2-to-1 neighbors (u0, u1, v); the chosen weights assign both
    values to u0 and u1 but cancel v per value.  b1 sees v alone and carries
    zero weight, forcing v's projections to zero everywhere: v has no assigned
    value anywhere, so step 3 must cover it.
    """
    edges = (("u0", "b0"), ("u1", "b0"), ("v", "b0"), ("v", "b1"))
    tables = {e: {0: 0, 1: 0} for e in edges}
    lc = LabelCoverInstance(("u0", "u1", "v"), ("b0", "b1"), (0, 1), (0, 1), edges, tables)
    ssat = lc_to_ssat(lc)
    # R(psi_b0): product order over ({0,1})^3; weight +1 at (0,0,0), -1 at (1,1,0)
    weights0 = [0] * 8
    weights0[0] = 1   # (0,0,0)
    weights0[6] = -1  # (1,1,0)
    s = SuperAssignment.from_rows((tuple(weights0), (0, 0)))
    return lc, ssat, s


def test_linf_step3_covers_unassigned_variable():
    from gapforge.superassign import TestKind, classify_tests, is_consistent, assigned_value_sets

    lc, ssat, s = _step3_fixture()
    assert is_consistent(ssat, s).consistent
    assert not is_nontrivial(ssat, s)
    assigned = assigned_value_sets(ssat, s)
    assert assigned["v"] == frozenset()
    assert classify_tests(ssat, s, [0]) == [TestKind.MULTI_GOOD]

    result = list_construction_linf(ssat, s, g=2, seed=0)
    # step 2 marks nothing (no AllSingleGood test), step 3 starts from the
    # nonzero test b0 and takes v's value from its first assignment
    assert result.marked_step2 == ()
    assert result.marked_step3 == (0, 1)
    assert 0 in result.labeling.lists["v"]
    assert result.marked_value_counts["v"] >= 1
    # every list is nonempty, including the otherwise untouched variable v
    assert all(result.labeling.lists[x] for x in ssat.variables)


def test_linf_value_cap_stops_walk():
    """With g = 1, a test offering only a fresh value stays unmarked.

    The assignment lists are hand-restricted (valid: a test's range may be any
    assignment list) so the second zero test has no assignment carrying the
    already-taken value.
    """
    from gapforge.instances import LcProvenance, SsatInstance, SsatTest

    edges = (("u", "b0"), ("v", "b1"), ("v", "b2"))
    tables = {e: {0: 0, 1: 1} for e in edges}
    lc = LabelCoverInstance(("u", "v"), ("b0", "b1", "b2"), (0, 1), (0, 1), edges, tables)
    ssat = SsatInstance(
        variables=("u", "v"),
        field_values=(0, 1),
        tests=(
            SsatTest(("u",), ((0,), (1,))),
            SsatTest(("v",), ((0,),)),
            SsatTest(("v",), ((1,),)),
        ),
        provenance=LcProvenance(lc=lc, var_to_a=("u", "v"), test_to_b=("b0", "b1", "b2")),
    )
    s = _sa((1, 0), (0,), (0,))
    result = list_construction_linf(ssat, s, g=1, seed=0)
    # the walk takes v = 0 from the first zero test; the second test only
    # offers v = 1, and the one-value cap stops before taking it
    assert result.labeling.lists["v"] == (0,)
    assert result.marked_step3 == (1,)
    assert result.marked_value_counts["v"] == 1


def test_linf_rejects_g_zero(ssat_cyc):
    with pytest.raises(PreconditionFailed):
        list_construction_linf(ssat_cyc, _sa((1, 1), (1, 1)), g=0, seed=0)


def test_linf_rejects_all_zero(ssat_cyc):
    with pytest.raises(PreconditionFailed):
        list_construction_linf(ssat_cyc, SuperAssignment.zeros(ssat_cyc), g=1, seed=0)


# ---------------------------------------------------------------------------
# defeat verification
# ---------------------------------------------------------------------------

def test_defeat_full_lists_cyc(lc_cyc):
    lists = ListLabeling.from_sets(lc_cyc, {"a0": {0, 1}, "a1": {0, 1}})
    report = verify_defeats_list_soundness(lc_cyc, lists, Fraction(1, 2))
    assert report.non_disagree_fraction == 1
    assert report.defeats


def test_defeat_singletons_cyc(lc_cyc):
    lists = ListLabeling.from_sets(lc_cyc, {"a0": {0}, "a1": {0}})
    report = verify_defeats_list_soundness(lc_cyc, lists, Fraction(3, 4))
    assert report.non_disagree_fraction == Fraction(1, 2)
    assert not report.defeats


def test_defeat_single_neighbor_instance_is_zero(lc_share):
    # every B-vertex has one neighbor: no pair can agree, whatever the lists
    lists = ListLabeling.from_sets(lc_share, {"x": {0, 1}})
    report = verify_defeats_list_soundness(lc_share, lists, Fraction(1, 4))
    assert report.non_disagree_fraction == 0
    assert not report.defeats


# ---------------------------------------------------------------------------
# the constructive soundness argument, exhaustively at desk scale
# ---------------------------------------------------------------------------

def test_every_low_norm_cyc_superassignment_is_defeated(lc_cyc, ssat_cyc):
    found = 0
    for s in enumerate_consistent_superassignments(ssat_cyc, 2):
        if not is_nontrivial(ssat_cyc, s) or norm_l1(s) > 2:
            continue
        found += 1
        params = ListConstructionParams.derive(
            g=2, s_list=Fraction(1, 4), d_a=2, seed=0, force_p_one=True
        )
        labeling = list_construction(ssat_cyc, s, params)
        selected = select_low_norm_tests(ssat_cyc, s, params)
        for t in selected:
            b = ssat_cyc.provenance.test_to_b[t]
            assert list_totally_disagree(lc_cyc, labeling, b) is False
        report = verify_defeats_list_soundness(lc_cyc, labeling, Fraction(1, 4))
        assert report.defeats
    assert found > 0


def test_generator_instances_satisfy_soundness_bound():
    for seed in range(5):
        spec = GenSpec(
            num_a=4, num_b=3, d_b=2, sigma_a_size=2, sigma_b_size=2,
            arity_p=2, planted=False, seed=seed,
        )
        lc = gen_label_cover(spec)
        for l in (1, 2):
            assert check_list_soundness_bound(lc, l).holds


def _all_single_good_toy():
    """One test, 3-to-1 edges, weighted so every nonzero assignment is 1-good.

    Weights -1, -1, +1, +1 at (0,0), (1,1), (1,2), (2,0) give projections
    (-1, 0, 1) on u and (0, -1, 1) on v: both variables assigned, every
    nonzero assignment has exactly one value in its variable's assigned set.
    """
    edges = (("u", "b0"), ("v", "b0"))
    tables = {e: {0: 0, 1: 0, 2: 0} for e in edges}
    lc = LabelCoverInstance(("u", "v"), ("b0",), (0, 1, 2), (0, 1), edges, tables)
    ssat = lc_to_ssat(lc)
    weights = [0] * 9
    weights[0] = -1  # (0, 0)
    weights[4] = -1  # (1, 1)
    weights[5] = 1   # (1, 2)
    weights[6] = 1   # (2, 0)
    return lc, ssat, SuperAssignment.from_rows((tuple(weights),))


def test_all_single_good_toy_step2_p1_includes_all_nonassigned():
    from gapforge.superassign import TestKind, classify_tests, is_consistent

    lc, ssat, s = _all_single_good_toy()
    assert is_consistent(ssat, s).consistent
    assert is_nontrivial(ssat, s)
    assert classify_tests(ssat, s, [0]) == [TestKind.ALL_SINGLE_GOOD]
    params = ListConstructionParams.derive(
        g=4, s_list=Fraction(1, 4), d_a=1, seed=0, force_p_one=True
    )
    labeling = list_construction(ssat, s, params)
    # the chosen assignment is the lowest-index nonzero one, (0, 0): u's value
    # is assigned, v's value 0 is not and must be included deterministically
    assert labeling.lists["u"] == (0, 2)
    assert labeling.lists["v"] == (0, 1, 2)


def test_linf_step2_includes_nonassigned_value_of_private_variable():
    """Max-norm variant on a not-all-zero, trivial input: step 2 still donates.

    v is private to the single test and fully cancelled, so the average-norm
    construction rejects the input (not non-trivial) while the max-norm one
    accepts it and step 2 adds v's value from the chosen assignment.
    """
    edges = (("u", "b0"), ("v", "b0"))
    tables = {e: {0: 0, 1: 0} for e in edges}
    lc = LabelCoverInstance(("u", "v"), ("b0",), (0, 1), (0, 1), edges, tables)
    ssat = lc_to_ssat(lc)
    # assignments (0,0), (0,1), (1,0), (1,1); weights 1, 0, -1, 0:
    # pi_u = {0: 1, 1: -1}, pi_v = 0 everywhere
    s = SuperAssignment.from_rows(((1, 0, -1, 0),))
    result = list_construction_linf(ssat, s, g=2, seed=0)
    assert result.marked_step2 == (0,)
    assert result.labeling.lists["v"] == (0,)
    assert result.labeling.lists["u"] == (0, 1)
