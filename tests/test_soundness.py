"""Agreement soundness, the soundness-bound inequality, the list construction."""

from __future__ import annotations

import tracemalloc
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


def test_list_agreement_cap_bounds_the_set_up():
    """Only the first cap + 1 label subsets are built and imaged, not all C(20, 10) of them."""
    lc = gen_label_cover(GenSpec(2, 1, 2, 20, 10, 2, planted=True, seed=1))
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge, match="charged 11 states, more than the cap of 10"):
            list_agreement_soundness_exact(lc, 10, max_states=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


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


@pytest.mark.parametrize("d_a", [0, -1])
def test_params_reject_degree_below_one(d_a):
    with pytest.raises(MalformedInstance, match="d_a must be at least 1"):
        ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=d_a)


@pytest.mark.parametrize("g", [0, -1])
def test_params_reject_a_norm_bound_that_is_not_positive(g):
    """A bound g <= 0 is refused by name, before the inclusion probability it gives is checked."""
    message = f"the norm bound g must be positive, got {g}$"
    for force_p_one in (False, True):
        with pytest.raises(MalformedInstance, match=message):
            ListConstructionParams.derive(g=g, s_list=Fraction(1, 4), d_a=1, force_p_one=force_p_one)
    with pytest.raises(MalformedInstance, match=message):
        ListConstructionParams(g=Fraction(g), s_list=Fraction(1, 4), g1=Fraction(1), p_include=Fraction(1), seed=0)


# random.Random seeds from abs(seed): each of these would repeat the run of its positive twin
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda lc: GenSpec(2, 1, 2, 2, 2, 1, True, -1), InfeasibleSpec),
        (lambda lc: frustrate(lc, 1, -3), InfeasibleSpec),
        (lambda lc: ListConstructionParams.derive(g=1, s_list=Fraction(1, 4), d_a=1, seed=-1), MalformedInstance),
    ],
    ids=["gen-spec", "frustrate", "list-params"],
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
# list_construction
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
            b = ssat_cyc.provenance.b_vertices[t]
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


def _two_draw_donor_toy():
    """Three variables on 3-to-1 edges into one B-vertex, whose one test donates two values.

    Weights +1, -1, +1, -1, +1, -1 at (0,0,0), (0,0,1), (0,1,2), (0,2,2),
    (1,0,2), (2,0,2) assign {1, 2} to u and v and {0, 1} to w; every nonzero
    assignment has one assigned value, so the lowest-index one, (0, 0, 0),
    offers u = 0 and then v = 0, two draws in that order from the test's stream.
    """
    edges = (("u", "b0"), ("v", "b0"), ("w", "b0"))
    tables = {e: {0: 0, 1: 0, 2: 0} for e in edges}
    lc = LabelCoverInstance(("u", "v", "w"), ("b0",), (0, 1, 2), (0, 1), edges, tables)
    ssat = lc_to_ssat(lc)
    weights = [0] * 27
    for i, w in ((0, 1), (1, -1), (5, 1), (8, -1), (11, 1), (20, -1)):
        weights[i] = w
    return ssat, SuperAssignment.from_rows((tuple(weights),))


# per seed 0..63: 2 if u's list took 0, plus 1 if v's list took 0
_TWO_DRAW_OUTCOMES = {
    Fraction(1, 2): "2233221020333101103121113103301003010011121123311332110211000110",
    Fraction(1, 3): "0013020000233000103120113101301002010010121122110120000011000100",
}


@pytest.mark.parametrize("p", sorted(_TWO_DRAW_OUTCOMES), ids=str)
def test_list_construction_randomized_draws_are_pinned(p):
    from gapforge.superassign import TestKind, classify_tests

    ssat, s = _two_draw_donor_toy()
    assert is_nontrivial(ssat, s)
    assert classify_tests(ssat, s, [0]) == [TestKind.ALL_SINGLE_GOOD]
    for seed, code in enumerate(_TWO_DRAW_OUTCOMES[p]):
        params = ListConstructionParams(g=Fraction(6), s_list=Fraction(1, 4), g1=Fraction(9), p_include=p, seed=seed)
        expected = {
            "u": (0, 1, 2) if int(code) & 2 else (1, 2),
            "v": (0, 1, 2) if int(code) & 1 else (1, 2),
            "w": (0, 1),
        }
        assert list_construction(ssat, s, params).lists == expected, seed
