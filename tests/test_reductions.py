"""Reductions: constructions, gadget structure, embedding/extraction maps."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from test_ssat_layout import gadget_rows_by_scan

from gapforge.errors import (
    BadParameters,
    EmptyRange,
    Infeasible,
    LengthMismatch,
    VariableNotShared,
)
from gapforge.instances import (
    EPSILON,
    LabelCoverInstance,
    Labeling,
    LhpAssignment,
)
from gapforge.oracles import count_lhp_violations, enumerate_consistent_superassignments
from gapforge.reductions import (
    gadget_pair,
    lc_to_ssat,
    lhp_assignment_from_sis_solution,
    sis_solution_from_lhp_assignment,
    sis_solution_from_superassignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
    superassignment_from_sis_solution,
)
from gapforge.superassign import (
    SuperAssignment,
    is_consistent,
    natural_from_labeling,
    norm_l1,
)


# ---------------------------------------------------------------------------
# lc_to_ssat
# ---------------------------------------------------------------------------

def test_lc_to_ssat_id2(lc_id2):
    ssat = lc_to_ssat(lc_id2)
    assert ssat.variables == ("a0", "a1")
    assert len(ssat.tests) == 1
    assert ssat.tests[0].assignments == ((0, 0), (1, 1))


def test_lc_to_ssat_cyc(lc_cyc):
    ssat = lc_to_ssat(lc_cyc)
    assert len(ssat.tests) == 2
    assert ssat.tests[0].assignments == ((0, 0), (1, 1))
    assert ssat.tests[1].assignments == ((0, 1), (1, 0))


def test_lc_to_ssat_two_to_one(lc_2to1):
    ssat = lc_to_ssat(lc_2to1)
    assert ssat.tests[0].assignments == ((0,), (1,))


def test_lc_to_ssat_empty_range():
    # the only B-label with full preimages does not exist: a0 maps all to 0,
    # a1 maps all to 1, so no label has a preimage at both neighbors
    edges = (("a0", "b0"), ("a1", "b0"))
    tables = {("a0", "b0"): {0: 0, 1: 0}, ("a1", "b0"): {0: 1, 1: 1}}
    lc = LabelCoverInstance(("a0", "a1"), ("b0",), (0, 1), (0, 1), edges, tables)
    with pytest.raises(EmptyRange):
        lc_to_ssat(lc)


def test_lc_to_ssat_respects_r_bound(lc_cyc):
    ssat = lc_to_ssat(lc_cyc)
    # |R| <= |sigma_b| * p^D_B = 2 * 1^2
    assert all(len(t.assignments) <= 2 for t in ssat.tests)


# ---------------------------------------------------------------------------
# ssat_to_sis and the gadget
# ---------------------------------------------------------------------------

def test_sis_share_matrix(ssat_share):
    sis = ssat_to_sis(ssat_share)
    # dense: (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)
    assert sis.num_cols == 4
    assert sis.matrix == (
        ((0, 1), (1, 1)),
        ((2, 1), (3, 1)),
        ((0, 1), (3, 1)),
        ((1, 1), (2, 1)),
    )
    assert sis.target == (1, 1, 1, 1)
    assert sis.bound == 2
    assert sis.multiply((1, 0, 1, 0)) == sis.target


def test_sis_cyc_shape(ssat_cyc):
    sis = ssat_to_sis(ssat_cyc)
    assert (sis.num_rows, sis.num_cols) == (6, 4)
    assert sis.bound == 2
    # one non-triviality row per test, then two shared variables times two field values
    assert sis.matrix[:2] == (((0, 1), (1, 1)), ((2, 1), (3, 1)))
    assert sis.matrix[2:] == gadget_rows_by_scan(ssat_cyc)
    assert len(sis.matrix[2:]) == 4


def test_sis_disjoint_tests_have_no_consistency_rows():
    from gapforge.instances import SsatInstance, SsatTest

    ssat = SsatInstance(
        variables=("u", "v"),
        field_values=(0, 1),
        tests=(
            SsatTest(("u",), ((0,), (1,))),
            SsatTest(("v",), ((0,), (1,))),
        ),
    )
    sis = ssat_to_sis(ssat)
    assert sis.matrix == (((0, 1), (1, 1)), ((2, 1), (3, 1)))
    assert sis.num_rows == 2


def test_gadget_pair_share(ssat_share):
    pair = gadget_pair(ssat_share, 0, 1, "x")
    assert pair.g1 == ((1, 0), (0, 1))
    assert pair.g2 == ((0, 1), (1, 0))


def test_gadget_pair_not_shared():
    from gapforge.instances import SsatInstance, SsatTest

    ssat = SsatInstance(
        variables=("u", "v"),
        field_values=(0,),
        tests=(SsatTest(("u",), ((0,),)), SsatTest(("v",), ((0,),))),
    )
    with pytest.raises(VariableNotShared):
        gadget_pair(ssat, 0, 1, "u")


def test_gadget_field_of_three():
    from gapforge.instances import SsatInstance, SsatTest

    ssat = SsatInstance(
        variables=("x",),
        field_values=(0, 1, 2),
        tests=(
            SsatTest(("x",), ((0,), (1,), (2,))),
            SsatTest(("x",), ((1,),)),
        ),
    )
    pair = gadget_pair(ssat, 0, 1, "x")
    # column of r with x = 1: characteristic (0,1,0); complemented (1,0,1)
    assert tuple(row[1] for row in pair.g1) == (0, 1, 0)
    assert tuple(row[0] for row in pair.g2) == (1, 0, 1)


def test_gadget_columns_sum_to_ones_iff_values_agree(ssat_share, ssat_cyc):
    for ssat in (ssat_share, ssat_cyc):
        for i in range(len(ssat.tests)):
            for j in range(i + 1, len(ssat.tests)):
                shared = [x for x in ssat.variables
                          if x in ssat.tests[i].variables and x in ssat.tests[j].variables]
                for x in shared:
                    pair = gadget_pair(ssat, i, j, x)
                    pos_i = ssat.tests[i].variables.index(x)
                    pos_j = ssat.tests[j].variables.index(x)
                    for ri, r in enumerate(ssat.tests[i].assignments):
                        for rj, rp in enumerate(ssat.tests[j].assignments):
                            column_sum = tuple(
                                pair.g1[f][ri] + pair.g2[f][rj]
                                for f in range(len(ssat.field_values))
                            )
                            agree = r[pos_i] == rp[pos_j]
                            assert (column_sum == (1,) * len(ssat.field_values)) == agree


# ---------------------------------------------------------------------------
# embeddings and extractions
# ---------------------------------------------------------------------------

def test_embed_natural_share(ssat_share):
    sis = ssat_to_sis(ssat_share)
    s = SuperAssignment.from_rows(((1, 0), (1, 0)))
    z = sis_solution_from_superassignment(ssat_share, s)
    assert z == (1, 0, 1, 0)
    assert sis.multiply(z) == (1, 1, 1, 1)
    assert sum(abs(v) for v in z) == 2


def test_embed_zero(ssat_share):
    sis = ssat_to_sis(ssat_share)
    z = sis_solution_from_superassignment(ssat_share, SuperAssignment.zeros(ssat_share))
    assert z == (0, 0, 0, 0)
    assert sis.multiply(z) != sis.target


def test_embed_cyc_all_ones_norm(ssat_cyc):
    z = sis_solution_from_superassignment(ssat_cyc, SuperAssignment.from_rows(((1, 1), (1, 1))))
    assert sum(abs(v) for v in z) == 4


def test_extract_natural(ssat_share):
    s = superassignment_from_sis_solution(ssat_share, (1, 0, 1, 0))
    assert s.weights == ((1, 0), (1, 0))
    assert is_consistent(ssat_share, s).consistent
    assert norm_l1(s) == 1


def test_extract_row_sums(ssat_share):
    s = superassignment_from_sis_solution(ssat_share, (2, -1, 0, 1))
    assert tuple(sum(row) for row in s.weights) == (1, 1)
    assert not is_consistent(ssat_share, s).consistent


def test_extract_length_mismatch(ssat_share):
    with pytest.raises(LengthMismatch):
        superassignment_from_sis_solution(ssat_share, (1, 0, 1))


def test_embed_extract_round_trip(ssat_cyc):
    for s in enumerate_consistent_superassignments(ssat_cyc, 1):
        z = sis_solution_from_superassignment(ssat_cyc, s)
        assert superassignment_from_sis_solution(ssat_cyc, z) == s


def test_box_solutions_match_consistency_share(ssat_share):
    """B'z = t' iff extraction is consistent with per-test sums 1; norms match."""
    sis = ssat_to_sis(ssat_share)
    n = len(ssat_share.tests)
    for z in itertools.product(range(-2, 3), repeat=4):
        s = superassignment_from_sis_solution(ssat_share, z)
        solves = sis.multiply(z) == sis.target
        equivalent = (
            is_consistent(ssat_share, s).consistent
            and all(sum(row) == 1 for row in s.weights)
        )
        assert solves == equivalent
        if solves:
            assert norm_l1(s) == Fraction(sum(abs(v) for v in z), n)


def test_consistency_rows_equal_projection_equality(ssat_share):
    """Given unit test sums, gadget rows hold exactly when projections agree."""
    sis = ssat_to_sis(ssat_share)
    cons_rows = sis.matrix[len(ssat_share.tests):]
    assert cons_rows == gadget_rows_by_scan(ssat_share)
    for z in itertools.product(range(-2, 3), repeat=4):
        s = superassignment_from_sis_solution(ssat_share, z)
        if any(sum(row) != 1 for row in s.weights):
            continue
        rows_hold = all(sum(a * z[c] for c, a in row) == 1 for row in cons_rows)
        assert rows_hold == is_consistent(ssat_share, s).consistent


# ---------------------------------------------------------------------------
# sis_to_ncp
# ---------------------------------------------------------------------------

def test_ncp_share_layout(ssat_share):
    sis = ssat_to_sis(ssat_share)
    ncp = sis_to_ncp(sis, g=1)
    assert ncp.replication == 3
    assert ncp.modulus == 5
    assert (ncp.num_rows, ncp.num_cols) == (16, 4)
    identity = tuple(((i, 1),) for i in range(4))
    # each SIS row stored once with multiplicity D, then the identity rows once each, one pair per row
    assert ncp.matrix == sis.matrix + identity
    assert ncp.multiplicity == (3,) * 4 + (1,) * 4
    # expanded by multiplicity: upper block each SIS row D times, lower block identity
    rows = [row for row, k in zip(ncp.matrix, ncp.multiplicity) for _ in range(k)]
    target = tuple(t for t, k in zip(ncp.target, ncp.multiplicity) for _ in range(k))
    for i in range(sis.num_rows):
        for k in range(3):
            assert rows[i * 3 + k] == sis.matrix[i]
    for i in range(4):
        assert rows[12 + i] == identity[i]
    assert target == (1,) * 12 + (0,) * 4
    assert ncp.distance((1, 0, 1, 0)) == 2


def test_ncp_zero_distance_is_replicated_rows(ssat_share):
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    assert ncp.distance((0, 0, 0, 0)) == 12


def test_ncp_bad_parameters(ssat_share):
    sis = ssat_to_sis(ssat_share)
    with pytest.raises(BadParameters):
        sis_to_ncp(sis, g=1, d_rep=2)
    with pytest.raises(BadParameters):
        sis_to_ncp(sis, g=1, q=4)  # not prime
    with pytest.raises(BadParameters):
        sis_to_ncp(sis, g=1, q=3)  # not above g*max(n', m')


def test_ncp_distance_decomposition(ssat_share):
    """Distance splits into replicated-row mismatches plus the weight of z."""
    sis = ssat_to_sis(ssat_share)
    ncp = sis_to_ncp(sis, g=1)
    q, d = ncp.modulus, ncp.replication
    for z in itertools.product(range(-2, 3), repeat=4):
        upper = sum(
            d
            for row, t in zip(sis.matrix, sis.target)
            if sum(a * z[c] for c, a in row) % q != t % q
        )
        weight = sum(1 for v in z if v % q != 0)
        assert ncp.distance(z) == upper + weight


# ---------------------------------------------------------------------------
# sis_to_lhp
# ---------------------------------------------------------------------------

def test_lhp_share_counts(ssat_share):
    sis = ssat_to_sis(ssat_share)
    lhp = sis_to_lhp(sis, u_param=10)
    # one record per member: 2 (G1) + 2 per SIS row (G2) + 2 per column (G3, G4) + 1 (G5)
    assert len(lhp.inequalities) == 2 + 2 * 4 + 2 * 4 + 2 * 4 + 1
    expanded = [q for q in lhp.inequalities for _ in range(q.multiplicity)]
    assert lhp.num_inequalities == len(expanded) == 198
    per_copy = {g: sum(1 for q in expanded if q.group == g) for g in ("G1", "G2", "G3", "G4", "G5")}
    assert lhp.group_counts() == per_copy == {"G1": 20, "G2": 80, "G3": 80, "G4": 8, "G5": 10}


def test_lhp_u1_group1(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=1)
    assert lhp.group_counts()["G1"] == 2


def test_lhp_group4_shape(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    g4 = [q for q in lhp.inequalities if q.group == "G4"]
    plus, minus = g4[2], g4[3]  # the pair for x_1
    assert plus.coeff_x == ((1, Fraction(1)),) and plus.coeff_delta == 1 and plus.sense == "gt"
    assert minus.coeff_x == ((1, Fraction(1)),) and minus.coeff_delta == -1 and minus.sense == "lt"
    assert plus.coeff_y == 0 and minus.coeff_y == 0


def test_lhp_default_u(ssat_share):
    sis = ssat_to_sis(ssat_share)
    assert sis_to_lhp(sis).u_param == sis.bound + 1
    assert sis_to_lhp(sis, g=3).u_param == 3 * sis.bound + 1


def test_lhp_bad_u(ssat_share):
    with pytest.raises(BadParameters):
        sis_to_lhp(ssat_to_sis(ssat_share), u_param=0)


@pytest.mark.parametrize("reduce", [sis_to_ncp, sis_to_lhp])
@pytest.mark.parametrize("g", [0, -1])
def test_g_below_one_is_refused_by_both_reductions(ssat_share, reduce, g):
    with pytest.raises(BadParameters, match="g must be at least 1"):
        reduce(ssat_to_sis(ssat_share), g=g)


def test_lhp_embedding_violations(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    a = lhp_assignment_from_sis_solution((1, 0, 1, 0))
    assert a.y_value == 1 and a.delta_value is EPSILON
    assert count_lhp_violations(lhp, a) == 2
    violated = [q.group for q in lhp.inequalities if not q.satisfied_by(a)]
    assert violated == ["G4", "G4"]


def test_lhp_y1_epsilon_satisfies_g1_g5(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    a = LhpAssignment.of([0, 0, 0, 0])
    for q in lhp.inequalities:
        if q.group in ("G1", "G5"):
            assert q.satisfied_by(a)


def test_lhp_zero_x_violates_g2_plus_rows(ssat_share):
    sis = ssat_to_sis(ssat_share)
    lhp = sis_to_lhp(sis, u_param=10)
    a = LhpAssignment.of([0, 0, 0, 0])
    assert count_lhp_violations(lhp, a) == sis.num_rows * 10


def test_lhp_round_trip(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    a = lhp_assignment_from_sis_solution((1, 0, 1, 0))
    assert sis_solution_from_lhp_assignment(lhp, a) == (1, 0, 1, 0)


def test_lhp_extraction_blocks_out_of_range(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    with pytest.raises(Infeasible) as exc:
        sis_solution_from_lhp_assignment(lhp, LhpAssignment.of([2, 0, 0, 0]))
    assert exc.value.group == "G3"


def test_lhp_extraction_blocks_scaled_out_of_range(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    a = LhpAssignment.of([Fraction(1, 2), Fraction(1, 2), 1, 0], y=Fraction(1, 2))
    with pytest.raises(Infeasible) as exc:
        sis_solution_from_lhp_assignment(lhp, a)
    assert exc.value.group == "G3"


def test_lhp_extraction_scales_by_y(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    a = LhpAssignment.of([Fraction(1, 2), 0, Fraction(1, 2), 0], y=Fraction(1, 2))
    assert sis_solution_from_lhp_assignment(lhp, a) == (1, 0, 1, 0)


def test_lhp_extraction_rejects_nonintegral(ssat_share):
    # explicit delta leaves enough slack for a fractional point that still
    # satisfies G1-G3 and even the exact equations; integrality must catch it
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    a = LhpAssignment.of(
        [Fraction(3, 4), Fraction(1, 4), Fraction(3, 4), Fraction(1, 4)],
        y=1,
        delta=Fraction(1, 100),
    )
    with pytest.raises(Infeasible) as exc:
        sis_solution_from_lhp_assignment(lhp, a)
    assert exc.value.group == "integrality"


def test_completeness_chain_id2(ssat_id2):
    lab = Labeling({"a0": 0, "a1": 0}, {"b0": 0})
    natural = natural_from_labeling(ssat_id2, lab)
    sis = ssat_to_sis(ssat_id2)
    z = sis_solution_from_superassignment(ssat_id2, natural)
    assert sis.multiply(z) == sis.target
    assert sum(abs(v) for v in z) == len(ssat_id2.tests)
    ncp = sis_to_ncp(sis, g=1)
    assert ncp.distance(z) == len(ssat_id2.tests)
    lhp = sis_to_lhp(sis)
    a = lhp_assignment_from_sis_solution(z)
    assert count_lhp_violations(lhp, a) == len(ssat_id2.tests)
    assert sis_solution_from_lhp_assignment(lhp, a) == z
