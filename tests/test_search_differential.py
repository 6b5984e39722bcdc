"""The label cover searches, and one 8-column chain, against the naive references of ``naive``.

``solve_lc_max`` and the two agreement searches against a plain enumeration
of the labelings, or list labelings, of small seeded label covers:
``solve_lc_max`` enters exactly its cap and never more nodes than the
unpruned tree; the agreement searches raise at cap 0 having entered one node
and finish at the unpruned tree's node count.  The four walked oracles get
the same check here on one chain of eight columns, and in
``test_compiled_kernels`` on chains of up to six.  The SSAT l1 minimum gets
it once more on the chains, with its floor: every admissible l1 cost is at
least 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st
from naive import (
    box,
    cap_states,
    chains,
    check_optimum,
    check_walk_cap,
    lhp_violations,
    naive_min,
    ncp_values,
    norm_costs,
    ssat_box,
    superassignment,
    tree_nodes,
)

from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import Labeling, LhpAssignment, SsatInstance, SsatTest
from gapforge.oracles import (
    SearchBudget,
    count_lhp_violations,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from gapforge.reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis
from gapforge.soundness import (
    ListLabeling,
    agreement_soundness_exact,
    list_agreement_soundness_exact,
    list_totally_disagree,
    totally_disagree,
)
from gapforge.superassign import SuperAssignment, is_consistent, is_nontrivial


def lc_satisfied(lc, combo):
    phi_a = dict(zip(lc.a_vertices, combo))
    phi_b, satisfied = {}, 0
    for b in lc.b_vertices:
        counts = {y: 0 for y in lc.sigma_b}
        for e in lc.edges_of_b[b]:
            counts[lc.projections[e][phi_a[e[0]]]] += 1
        top = max(counts.values(), default=0)
        phi_b[b] = next(y for y in lc.sigma_b if counts[y] == top)
        satisfied += top
    return satisfied, Labeling(phi_a=phi_a, phi_b=phi_b)


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains(), st.integers(1, 3))
def test_label_cover_searches_match_naive_reference(chain, l):
    lc, _, _, k = chain
    budget = SearchBudget(coeff_box=k)
    n_a, n_b = len(lc.a_vertices), len(lc.b_vertices)
    labelings = list(itertools.product(lc.sigma_a, repeat=n_a))

    # label cover: maximize satisfied edges == minimize their negation
    best, combo = naive_min((c, -lc_satisfied(lc, c)[0]) for c in labelings)
    res = solve_lc_max(lc, budget)
    assert res.best_fraction == Fraction(-best, len(lc.edges))
    assert res.witness == lc_satisfied(lc, combo)[1]
    check_walk_cap(lambda b: solve_lc_max(lc, b), budget, res, n_a, len(lc.sigma_a))

    # agreement soundness: maximize agreeing B-vertices
    best, _ = naive_min(
        (c, -sum(not totally_disagree(lc, dict(zip(lc.a_vertices, c)), b) for b in lc.b_vertices)) for c in labelings
    )
    assert agreement_soundness_exact(lc) == Fraction(-best, n_b)
    assert cap_states(lambda: agreement_soundness_exact(lc, 0)) == 1
    assert agreement_soundness_exact(lc, tree_nodes(n_a, len(lc.sigma_a))) == Fraction(-best, n_b)

    subsets = list(itertools.combinations(lc.sigma_a, min(l, len(lc.sigma_a))))
    best, _ = naive_min(
        (c, -sum(not list_totally_disagree(lc, ListLabeling.from_sets(lc, dict(zip(lc.a_vertices, c))), b)
                 for b in lc.b_vertices))
        for c in itertools.product(subsets, repeat=n_a)
    )
    assert list_agreement_soundness_exact(lc, l) == Fraction(-best, n_b)
    assert cap_states(lambda: list_agreement_soundness_exact(lc, l, 0)) == 1
    assert list_agreement_soundness_exact(lc, l, tree_nodes(n_a, len(subsets))) == Fraction(-best, n_b)


def test_eight_columns_at_box_1_match_naive_reference():
    """The four walked oracles on one unsatisfiable 8-column chain, against all 3^8 points."""
    lc = frustrate(gen_label_cover(GenSpec(4, 4, 2, 2, 2, 1, planted=True, seed=0)), 1, seed=0)
    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    ncp = sis_to_ncp(sis, g=1)
    lhp = sis_to_lhp(sis, g=1)
    assert sis.num_cols == lhp.num_x == 8

    points = list(ssat_box(ssat, 1))
    for mode in ("l1", "linf"):
        check_optimum(lambda b: solve_ssat_min_norm(ssat, b), SearchBudget(coeff_box=1, mode=mode),
                      norm_costs(points, mode), 8, 3, lambda f: superassignment(ssat, f))
    budget = SearchBudget(coeff_box=1)
    costs = [(z, sum(map(abs, z)) if sis.multiply(z) == sis.target else None) for z in box(1, 8)]
    check_optimum(lambda b: solve_sis_min(sis, b), budget, costs, 8, 3)
    costs = [(z, ncp.distance(z)) for z in itertools.product(ncp_values(ncp, 1, False), repeat=8)]
    check_optimum(lambda b: solve_ncp_min(ncp, b), budget, costs, 8, 3)
    violations = lhp_violations(lhp.inequalities)
    res = check_optimum(lambda b: solve_lhp_min(lhp, b), budget, [(xs, violations(xs)) for xs in box(1, 8)], 8, 3,
                        LhpAssignment.of)
    assert res.minimum == count_lhp_violations(lhp, res.witness)


# ---------------------------------------------------------------------------
# The l1 completion floor
# ---------------------------------------------------------------------------

@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains())
def test_l1_nontrivial_minimum_is_at_least_one(chain):
    """Every test of a nontrivial consistent point has l1 at least 1, so the walk may charge it up front."""
    _, ssat, _, k = chain
    costs = norm_costs(ssat_box(ssat, k), "l1")
    res = check_optimum(lambda b: solve_ssat_min_norm(ssat, b), SearchBudget(coeff_box=k), costs,
                        len(costs[0][0]), 2 * k + 1, lambda f: superassignment(ssat, f))
    assert all(c is None or c >= 1 for _, c in costs)
    assert res.minimum is None or res.minimum >= 1


def test_l1_leaf_rejects_a_variable_that_cancels():
    """x is 0 in every assignment of test 0 and 1 in every one of test 1.

    Consistency then zeroes each test's sum, so x is trivial at every
    consistent point, yet no test need be all zero: ``((1, -1), (1, -1))``
    passes the floor and is still not nontrivial.  A mutant that drops the
    leaf's ``admissible`` check returns norm 2 here instead of ``None``.
    """
    ssat = SsatInstance(
        variables=("x", "y", "z"),
        field_values=(0, 1),
        tests=(SsatTest(("x", "y"), ((0, 0), (0, 1))), SsatTest(("x", "z"), ((1, 0), (1, 1)))),
    )
    cancelled = SuperAssignment(((1, -1), (1, -1)))
    assert is_consistent(ssat, cancelled) and not is_nontrivial(ssat, cancelled)
    for k in (1, 2):
        res = check_optimum(lambda b: solve_ssat_min_norm(ssat, b), SearchBudget(coeff_box=k),
                            norm_costs(ssat_box(ssat, k), "l1"), 4, 2 * k + 1)
        assert res.minimum is None


def test_test_with_no_assignments_keeps_every_minimum():
    """A test with no columns has l1 0 and no floor; y, its only variable, is never nontrivial.

    So l1, which needs every variable nontrivial, has no minimum, while linf,
    which needs only a nonzero weight, has one.
    """
    ssat = SsatInstance(
        variables=("x", "y"),
        field_values=(0, 1),
        tests=(SsatTest(("x",), ((0,), (1,))), SsatTest(("y",), ())),
    )
    for mode, minimum in (("l1", None), ("linf", 1)):
        res = check_optimum(lambda b: solve_ssat_min_norm(ssat, b), SearchBudget(coeff_box=1, mode=mode),
                            norm_costs(ssat_box(ssat, 1), mode), 2, 3, lambda f: superassignment(ssat, f))
        assert res.minimum == minimum
