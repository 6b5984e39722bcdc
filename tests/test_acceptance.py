"""Acceptance criteria, one numbered block per criterion.

Each check prints ``ACCEPTANCE <n> PASS|FAIL <detail>`` (run pytest with -s
or -rA to see the lines for passing tests) and then asserts.  All tolerances
are exact; stated runtime caps are asserted too.

Criteria 3 and 6 each have one clause whose originally stated value is
unattainable on its fixture (a one-way soundness bound read as an equality,
and a lemma applied outside its hypothesis).  Those clauses assert the
statement that does hold, derived by hand in the test's docstring.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from gapforge import fixtures as shipped
from gapforge.genlab import GenSpec, gen_label_cover
from gapforge.instances import validate_label_cover
from gapforge.oracles import (
    SearchBudget,
    count_lhp_violations,
    enumerate_consistent_superassignments,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from gapforge.pipeline import run_chain
from gapforge.reductions import (
    lc_to_ssat,
    lhp_assignment_from_sis_solution,
    sis_solution_from_lhp_assignment,
    sis_solution_from_superassignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
    superassignment_from_sis_solution,
)
from gapforge.serialize import canonical_bytes, read_instance, write_instance
from gapforge.soundness import (
    ListConstructionParams,
    agreement_soundness_exact,
    check_list_soundness_bound,
    list_agreement_soundness_exact,
    list_construction,
    list_totally_disagree,
    select_low_norm_tests,
    verify_defeats_list_soundness,
)
from gapforge.superassign import (
    check_bad_array_sums,
    classify_tests,
    is_consistent,
    is_nontrivial,
    natural_from_labeling,
    norm_l1,
    zero_all_bad_arrays,
)


def report(criterion: str, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} {detail}")
    return passed


# 50 planted generation specs: |A| <= 6, |B| <= 4, D_B in {2, 3}, |sigma_A| <= 3
_PLANTED_COMBOS = [
    (2, 2, 2, 2, 2, 1),
    (4, 3, 2, 2, 2, 2),
    (6, 4, 3, 3, 3, 2),
    (5, 4, 3, 3, 2, 2),
    (4, 2, 2, 3, 2, 3),
    (6, 3, 3, 2, 2, 2),
    (3, 4, 2, 3, 3, 1),
    (6, 4, 2, 2, 3, 2),
    (5, 3, 3, 3, 3, 3),
    (4, 4, 2, 2, 2, 1),
]


def test_criterion_1_completeness_chain():
    start = time.monotonic()
    for seed in range(50):
        num_a, num_b, d_b, sa, sb, p = _PLANTED_COMBOS[seed % len(_PLANTED_COMBOS)]
        lc = gen_label_cover(GenSpec(num_a, num_b, d_b, sa, sb, p, True, seed))
        rep = validate_label_cover(lc)
        assert rep.d_b in (2, 3) and len(lc.a_vertices) <= 6 and len(lc.b_vertices) <= 4
        assert len(lc.sigma_a) <= 3

        best = solve_lc_max(lc)
        assert best.best_fraction == 1, f"seed {seed}: planted instance not satisfiable"
        ssat = lc_to_ssat(lc)
        natural = natural_from_labeling(ssat, best.witness)
        assert norm_l1(natural) == 1

        sis = ssat_to_sis(ssat)
        z = sis_solution_from_superassignment(ssat, natural)
        n = len(ssat.tests)
        assert sis.multiply(z) == sis.target
        assert sum(abs(v) for v in z) == n

        ncp = sis_to_ncp(sis, g=1)
        assert ncp.distance(z) == n

        lhp = sis_to_lhp(sis)
        assert count_lhp_violations(lhp, lhp_assignment_from_sis_solution(z)) == n
    elapsed = time.monotonic() - start
    assert report("1", elapsed < 5.0,
                  f"completeness chain exact on 50 planted instances ({elapsed:.2f}s)")


def test_criterion_2_sis_soundness_extraction():
    start = time.monotonic()
    ssat = shipped.load("ssat_share")
    sis = ssat_to_sis(ssat)
    n = len(ssat.tests)
    checked = 0
    for z in itertools.product(range(-2, 3), repeat=4):
        checked += 1
        s = superassignment_from_sis_solution(ssat, z)
        solves = sis.multiply(z) == sis.target
        extracted_ok = (
            is_consistent(ssat, s).consistent
            and all(sum(row) == 1 for row in s.weights)
        )
        assert solves == extracted_ok, f"equivalence broke at z = {z}"
        if solves:
            assert norm_l1(s) == Fraction(sum(abs(v) for v in z), n)
    elapsed = time.monotonic() - start
    assert report("2", elapsed < 1.0,
                  f"extraction equivalence exact over {checked} vectors ({elapsed:.2f}s)")


def test_criterion_3_oracle_gap_on_lc_cyc():
    start = time.monotonic()
    lc = shipped.load("lc_cyc")
    ssat = lc_to_ssat(lc)
    ok = True
    ok &= solve_lc_max(lc).best_fraction == Fraction(3, 4)
    ok &= solve_ssat_min_norm(ssat, SearchBudget(coeff_box=2, mode="l1")).minimum == 2
    ok &= solve_ssat_min_norm(ssat, SearchBudget(coeff_box=2, mode="linf")).minimum == 2
    ok &= agreement_soundness_exact(lc) == Fraction(1, 2)
    elapsed = time.monotonic() - start
    assert report("3", ok and elapsed < 10.0,
                  f"LC-CYC oracles: lc 3/4, ssat l1 2, linf 2, agreement 1/2 ({elapsed:.2f}s)")
    assert ok


def test_criterion_3_sis_minimum_stated_value():
    """SIS(SSAT(LC-CYC)) has no integer solution, so no box minimum exists.

    The value once stated here, solve_sis_min(K=2) = 4, is |tests| x the SSAT
    minimum norm (2 x 2).  It comes from the SSAT witness ((-1, -1), (-1, -1)),
    whose blocks sum to -2, not 1, so it does not embed.  SIS solutions
    extract to SSAT solutions (criterion 2) but not the other way round: the
    reduction promises only min_l1 >= 4, not equality.

    Columns are z00, z01 (test b0) and z10, z11 (test b1).  All six rows have
    target 1:

        non-triviality   z00 + z01,  z10 + z11
        gadget           z00 + z11,  z01 + z10,  z00 + z10,  z01 + z11

    The gadget rows z00 + z11 = z00 + z10 give z10 = z11, and
    z01 + z10 = z00 + z10 give z00 = z01.  The unit-sum rows then need
    2 z00 = 1, so no integer solution exists at any box radius, while the
    all-1/2 vector solves every row over the rationals.

    Checked: the oracle reports no minimum; a plain loop over all 625 vectors
    of {-2..2}^4, independent of the oracle's walk, finds no solution;
    the all-1/2 vector solves, so the obstruction is integrality, not the box.
    """
    ssat = lc_to_ssat(shipped.load("lc_cyc"))
    sis = ssat_to_sis(ssat)
    result = solve_sis_min(sis, SearchBudget(coeff_box=2))

    def solves(z):
        return all(
            sum(a * z[c] for c, a in row) == t
            for row, t in zip(sis.matrix, sis.target)
        )

    assert sis.num_cols == 4
    box_solutions = [z for z in itertools.product(range(-2, 3), repeat=4) if solves(z)]
    half_solves = solves((Fraction(1, 2),) * 4)
    ssat_min = solve_ssat_min_norm(ssat, SearchBudget(coeff_box=2, mode="l1")).minimum
    lower_bound = len(ssat.tests) * ssat_min
    report("3", result.minimum is None and not box_solutions and half_solves,
           f"SIS(SSAT(LC-CYC)) K=2: expected no integer solution (soundness "
           f"promises only min_l1 >= {lower_bound}) and all-1/2 solving; actual "
           f"min_l1 {result.minimum}, {len(box_solutions)}/625 box vectors solve, "
           f"all-1/2 solves: {half_solves}")
    assert result.minimum is None, f"oracle reports a minimum {result.minimum}"
    assert not box_solutions, f"integer solutions found: {box_solutions}"
    assert half_solves, "the all-1/2 vector does not solve B'z = t'"


def test_criterion_4_array_claims_exhaustive():
    start = time.monotonic()
    cases = 0
    for name in ("ssat_share", None):
        ssat = shipped.load("ssat_share") if name else lc_to_ssat(shipped.load("lc_cyc"))
        for s in enumerate_consistent_superassignments(ssat, 2):
            cases += 1
            assert check_bad_array_sums(ssat, s) == []
            reduced = zero_all_bad_arrays(ssat, s)
            assert is_consistent(ssat, reduced).consistent
            assert norm_l1(reduced) <= norm_l1(s)
            classify_tests(ssat, s, range(len(ssat.tests)))  # must never abort
    elapsed = time.monotonic() - start
    assert report("4", elapsed < 30.0,
                  f"array claims hold for all {cases} consistent box super-assignments ({elapsed:.2f}s)")


def test_criterion_5_list_soundness_bound():
    start = time.monotonic()
    instances = [shipped.load("lc_id2"), shipped.load("lc_cyc")]
    gen_combos = [
        (3, 2, 2, 2, 2, 1),
        (4, 3, 2, 2, 2, 2),
        (4, 4, 2, 3, 3, 2),
        (5, 3, 2, 2, 2, 1),
    ]
    for seed in range(20):
        num_a, num_b, d_b, sa, sb, p = gen_combos[seed % len(gen_combos)]
        instances.append(gen_label_cover(GenSpec(num_a, num_b, d_b, sa, sb, p, seed % 2 == 0, seed)))
    for lc in instances:
        for l in (1, 2):
            check = check_list_soundness_bound(lc, l)
            assert check.holds, f"bound violated at l={l}"
    elapsed = time.monotonic() - start
    assert report("5", elapsed < 60.0,
                  f"list-soundness bound holds for l in (1, 2) on {len(instances)} instances ({elapsed:.2f}s)")


def _low_norm_candidates(ssat, g, box):
    out = []
    for s in enumerate_consistent_superassignments(ssat, box):
        if is_nontrivial(ssat, s) and norm_l1(s) <= g:
            out.append(s)
    return out


def test_criterion_6_list_construction_defeats_lc_cyc():
    start = time.monotonic()
    lc = shipped.load("lc_cyc")
    ssat = lc_to_ssat(lc)
    d_a = validate_label_cover(lc).d_a
    candidates = _low_norm_candidates(ssat, g=2, box=2)
    assert candidates, "oracle found no low-norm consistent non-trivial super-assignment"
    for s in candidates:
        params = ListConstructionParams.derive(
            g=2, s_list=Fraction(1, 4), d_a=d_a, seed=0, force_p_one=True
        )
        labeling = list_construction(ssat, s, params)
        for t in select_low_norm_tests(ssat, s, params):
            b = ssat.provenance.b_vertices[t]
            assert not list_totally_disagree(lc, labeling, b)
        assert verify_defeats_list_soundness(lc, labeling, Fraction(1, 4)).defeats
    elapsed = time.monotonic() - start
    assert report("6", elapsed < 5.0,
                  f"derandomized lists defeat list soundness for all {len(candidates)} "
                  f"low-norm witnesses on SSAT(LC-CYC) ({elapsed:.2f}s)")


def _labels_reached_by_every_neighbor(lc, labeling, b):
    """B-labels that the list of every neighbor of ``b`` projects onto."""
    return set.intersection(*(
        {lc.projections[e][x] for x in labeling.lists[e[0]]}
        for e in lc.edges_of_b[b]
    ))


def test_criterion_6_list_construction_defeats_ssat_share():
    """On SSAT-SHARE the lists reach a common label per test, yet cannot defeat.

    The target once stated here was the defeat shown on SSAT(LC-CYC): a
    non-disagreement fraction of at least s_list = 1/4.  Agreement at a
    B-vertex is pairwise: two distinct neighbors whose lists project to a
    common label (Arora, Babai, Stern and Sweedyk, JCSS 1997; the
    ``totally_disagree`` and ``list_totally_disagree`` docstrings; the
    single-neighbor tests in test_soundness.py).  Every B-vertex of
    SSAT-SHARE's label cover has one neighbor (d_b = 1), so no lists of any
    size create agreement anywhere: the exact list-agreement optimum is 0,
    below 1/4.  The defeat lemma needs every B-vertex to have at least two
    neighbors, and this fixture lies outside that hypothesis.

    Checked for each low-norm candidate (g = 1, box 1, p_include = 1):

    * the construction's per-test claim, in a form that does not depend on
      degree: for every test that select_low_norm_tests returns, some B-label
      is reached by the list of every neighbor of that test's B-vertex (with
      two neighbors, as on LC-CYC, this is exactly "not totally disagreeing");
    * the defeat verdict is bounded by the exact optimum for lists of the
      labeling's size;
    * the premise: d_b = 1, the exact optimum is 0 for l = 1 and 2, and no
      candidate defeats.
    """
    ssat = shipped.load("ssat_share")
    lc = ssat.provenance
    rep = validate_label_cover(lc)
    optima = [list_agreement_soundness_exact(lc, l) for l in (1, 2)]
    candidates = _low_norm_candidates(ssat, g=1, box=1)
    assert candidates
    tests_reached = tests_checked = defeated = bounded = 0
    for s in candidates:
        params = ListConstructionParams.derive(
            g=1, s_list=Fraction(1, 4), d_a=rep.d_a, seed=0, force_p_one=True
        )
        labeling = list_construction(ssat, s, params)
        for t in select_low_norm_tests(ssat, s, params):
            b = ssat.provenance.b_vertices[t]
            tests_checked += 1
            tests_reached += bool(_labels_reached_by_every_neighbor(lc, labeling, b))
        verdict = verify_defeats_list_soundness(lc, labeling, Fraction(1, 4))
        defeated += verdict.defeats
        bounded += verdict.non_disagree_fraction <= list_agreement_soundness_exact(
            lc, labeling.max_list_size
        )
    report("6",
           rep.d_b == 1 and optima == [0, 0] and tests_reached == tests_checked
           and bounded == len(candidates) and not defeated,
           f"SSAT-SHARE g=1: expected d_b 1, optimum 0 for l=1,2, a common label "
           f"at every low-norm test, verdict <= optimum, no defeat; actual d_b "
           f"{rep.d_b}, optimum {optima[0]}, {optima[1]}, common label at "
           f"{tests_reached}/{tests_checked} tests, verdict <= optimum for "
           f"{bounded}/{len(candidates)}, "
           f"defeated {defeated}/{len(candidates)} witnesses")
    assert rep.d_b == 1
    assert optima == [0, 0], f"exact list-agreement optima {optima} with d_b = 1"
    assert tests_reached == tests_checked, "a low-norm test's B-vertex gets no common label"
    assert bounded == len(candidates), "defeat verdict exceeds the exact list-agreement optimum"
    assert not defeated, "a labeling defeats although no B-vertex can agree"


def test_criterion_6_expected_list_size_over_seeds():
    start = time.monotonic()
    cases = [
        ("lc_cyc", 2),
        (None, 1),  # ssat_share
    ]
    for name, g in cases:
        if name:
            lc = shipped.load(name)
            ssat = lc_to_ssat(lc)
        else:
            ssat = shipped.load("ssat_share")
            lc = ssat.provenance
        d_a = validate_label_cover(lc).d_a
        candidates = _low_norm_candidates(ssat, g=g, box=g)
        s = candidates[0]
        sizes = []
        g1 = None
        for seed in range(200):
            params = ListConstructionParams.derive(
                g=g, s_list=Fraction(1, 4), d_a=d_a, seed=seed
            )
            g1 = params.g1
            sizes.append(list_construction(ssat, s, params).max_list_size)
        mean = Fraction(sum(sizes), len(sizes))
        variance = sum((Fraction(v) - mean) ** 2 for v in sizes) / len(sizes)
        slack = 3 * (variance / len(sizes)) ** Fraction(1, 2) if variance else 0
        assert mean <= 2 * g1 + slack, f"mean list size {mean} above 2*g1 = {2 * g1}"
    elapsed = time.monotonic() - start
    assert report("6", elapsed < 5.0,
                  f"mean max list size within 2*g1 over 200 seeds per fixture ({elapsed:.2f}s)")


def test_criterion_7_ncp_distance_decomposition():
    start = time.monotonic()
    ssat = shipped.load("ssat_share")
    sis = ssat_to_sis(ssat)
    ncp = sis_to_ncp(sis, g=1)
    assert (ncp.replication, ncp.modulus) == (3, 5)
    q, d = ncp.modulus, ncp.replication
    for z in itertools.product(range(-2, 3), repeat=4):
        upper = sum(
            d
            for row, t in zip(sis.matrix, sis.target)
            if sum(a * z[c] for c, a in row) % q != t % q
        )
        weight = sum(1 for v in z if v % q != 0)
        assert ncp.distance(z) == upper + weight, f"decomposition broke at z = {z}"
    full = solve_ncp_min(ncp, SearchBudget(), full_field=True)
    assert full.minimum == 2
    elapsed = time.monotonic() - start
    assert report("7", elapsed < 2.0,
                  f"distance decomposition over 625 vectors; full-field minimum 2 ({elapsed:.2f}s)")


def test_criterion_8_lhp_round_trip():
    start = time.monotonic()
    ssat = shipped.load("ssat_share")
    sis = ssat_to_sis(ssat)
    lhp = sis_to_lhp(sis)
    # box solutions within the soundness range (-2, 2) enforced by group G3:
    # embeddings of larger-entry solutions violate G3 by construction
    solutions = [
        z for z in itertools.product((-1, 0, 1), repeat=4)
        if sis.multiply(z) == sis.target
    ]
    assert solutions
    for z in solutions:
        a = lhp_assignment_from_sis_solution(z)
        assert sis_solution_from_lhp_assignment(lhp, a) == z
    optimum = solve_sis_min(sis, SearchBudget(coeff_box=1)).witness
    embedded = lhp_assignment_from_sis_solution(optimum)
    assert count_lhp_violations(lhp, embedded) == 2
    assert solve_lhp_min(lhp).minimum == 2
    elapsed = time.monotonic() - start
    assert report("8", elapsed < 2.0,
                  f"round trip identity on {len(solutions)} box solutions; "
                  f"embedded optimum costs exactly 2 ({elapsed:.2f}s)")


def test_criterion_9_determinism_and_serialization(tmp_path):
    start = time.monotonic()
    lc = shipped.load("lc_id2")
    doc1 = run_chain(lc, g=1, box=2)
    doc2 = run_chain(lc, g=1, box=2)
    assert canonical_bytes(doc1) == canonical_bytes(doc2)
    for name in shipped.FIXTURE_NAMES:
        original = shipped.load(name)
        path = tmp_path / f"{name}.json"
        write_instance(path, original)
        assert read_instance(path) == original
        assert canonical_bytes(read_instance(path)) == path.read_bytes()
    elapsed = time.monotonic() - start
    assert report("9", elapsed < 2.0,
                  f"chain bytes identical across runs; read/write identity on "
                  f"{len(shipped.FIXTURE_NAMES)} fixtures ({elapsed:.2f}s)")
