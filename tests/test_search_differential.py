"""Every exact search against a naive best-so-far reference.

The reference is the plain enumeration the oracles are specified by: walk the
box with ``itertools.product`` in lexicographic order and keep the first
strict improvement.  The property compares optimum and witness on small
seeded label covers, planted and frustrated.  Every search runs on the one
branch-and-bound walk: where a result reports its nodes entered, the test
checks that they are the exact cap and never exceed the node count of the
unpruned tree; the agreement searches raise at cap 0 having entered one node
and finish at the unpruned tree's node count.  The searches that take hint
points rerun with the optimum, a point costing one more, an infeasible point,
a point outside the box, points one coordinate too long and one too short,
and all of them at once: each run gives the unhinted optimum and witness in
no more nodes.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gapforge.errors import EmptyRange, InfeasibleSpec, SearchSpaceTooLarge
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
from gapforge.superassign import (
    SuperAssignment,
    is_consistent,
    is_nontrivial,
    is_not_all_zero,
    norm_l1,
    norm_linf,
)


# ---------------------------------------------------------------------------
# Naive reference
# ---------------------------------------------------------------------------

def naive_min(points, cost):
    """(best cost, first point attaining it, every (point, cost) in order); None rejects."""
    best_cost = best = None
    costs = []
    for point in points:
        c = cost(point)
        costs.append((point, c))
        if c is not None and (best_cost is None or c < best_cost):
            best_cost, best = c, point
    return best_cost, best, costs


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


def superassignment(ssat, flat):
    rows, off = [], 0
    for t in ssat.tests:
        rows.append(flat[off:off + len(t.assignments)])
        off += len(t.assignments)
    return SuperAssignment(tuple(rows))


def ssat_cost(ssat, mode, s):
    """l1 over the nontrivial consistent points, linf over the consistent points that are not all zero."""
    admissible = is_nontrivial(ssat, s) if mode == "l1" else is_not_all_zero(s)
    if not admissible or not is_consistent(ssat, s):
        return None
    return norm_l1(s) if mode == "l1" else norm_linf(s)


def ncp_values(ncp, k, full_field):
    if full_field:
        return list(range(ncp.modulus))
    return list(dict.fromkeys(v % ncp.modulus for v in range(-k, k + 1)))


def cap_states(fn):
    with pytest.raises(SearchSpaceTooLarge) as exc:
        fn()
    assert exc.value.cap == 0
    return exc.value.states


def tree_nodes(n, v):
    """Nodes of the unpruned tree: ``v`` values per coordinate over ``n`` coordinates."""
    return sum(v ** d for d in range(1, n + 1))


def check_walk_cap(solve, budget, res, n, v):
    """The nodes a walk enters are its exact cap, and at most those of the unpruned tree.

    ``solve(budget)`` reruns the search.
    """
    assert res.states_visited <= tree_nodes(n, v)
    assert solve(dataclasses.replace(budget, max_states=res.states_visited)) == res
    if res.states_visited == 0:  # a row with no entry misses its target: no node is entered
        assert res.witness is None
        return
    with pytest.raises(SearchSpaceTooLarge) as exc:
        solve(dataclasses.replace(budget, max_states=res.states_visited - 1))
    assert (exc.value.states, exc.value.cap) == (res.states_visited, res.states_visited - 1)


def hint_cases(costs, unit, raw=None, outside=()):
    """Hint lists from the naive ``costs``: each alone, then all at once.

    The first optimum and the first point costing ``unit`` more, where they
    exist; the infeasible points whose ``raw`` cost, taken without the
    feasibility check, is below the optimum, so that trusting any one would
    lose the optimum, or else the first infeasible point; the points
    ``outside`` the box; and points one coordinate too long and one too short.
    """
    n = len(costs[0][0])
    best = min((c for _, c in costs if c is not None), default=None)
    infeasible = [p for p, c in costs if c is None]
    cheaper = [p for p in infeasible if best is not None and raw(p) < best]
    cases = [[p for p, c in costs if c == want][:1] for want in ([] if best is None else [best, best + unit])]
    cases += [cheaper or infeasible[:1], list(outside), [(0,) * (n + 1)], [(0,) * (n - 1)] if n else []]
    cases = [case for case in cases if case]
    return cases + [[p for case in cases for p in case]]


def check_hints(solve, budget, res, cases, n, v):
    """Each hint list gives the unhinted result in no more nodes, at its own exact cap.

    ``solve(budget, hints)`` reruns the search.
    """
    for hints in cases:
        hinted = solve(budget, hints)
        assert dataclasses.replace(hinted, states_visited=res.states_visited) == res
        assert hinted.states_visited <= res.states_visited
        check_walk_cap(lambda b: solve(b, hints), budget, hinted, n, v)


# ---------------------------------------------------------------------------
# Property
# ---------------------------------------------------------------------------

@st.composite
def chains(draw, max_columns=6):
    num_a = draw(st.integers(2, 3))
    num_b = draw(st.integers(1, 3))
    sigma_a = draw(st.integers(2, 3))
    spec_args = dict(
        num_a=num_a,
        num_b=num_b,
        d_b=draw(st.integers(-(-num_a // num_b), num_a)),  # every A-vertex gets an edge
        sigma_a_size=sigma_a,
        sigma_b_size=2,
        arity_p=draw(st.integers(1, 2)),
        planted=draw(st.booleans()),
        seed=draw(st.integers(0, 10 ** 6)),
    )
    try:
        lc = gen_label_cover(GenSpec(**spec_args))
    except InfeasibleSpec:
        assume(False)
    flips = draw(st.integers(0, min(2, len(lc.edges))))
    lc = frustrate(lc, flips, draw(st.integers(0, 10 ** 6)))
    try:
        ssat = lc_to_ssat(lc)
    except EmptyRange:  # some B-vertex has no satisfying assignment at all
        assume(False)
    sis = ssat_to_sis(ssat)
    # the naive references cost (2k + 1)^columns evaluations: three tests take
    # at least six columns, searched in the box of radius 1 only
    k = draw(st.integers(1, 2))
    assume(sis.num_cols <= min(max_columns, 6 if k == 1 else 4))
    return lc, ssat, sis, k


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains(), st.sampled_from(("l1", "linf")), st.integers(1, 3))
def test_every_search_matches_naive_reference(chain, mode, l):
    lc, ssat, sis, k = chain
    budget = SearchBudget(coeff_box=k, mode=mode)

    # label cover: maximize satisfied edges == minimize their negation
    best, combo, _ = naive_min(
        itertools.product(lc.sigma_a, repeat=len(lc.a_vertices)),
        lambda c: -lc_satisfied(lc, c)[0],
    )
    res = solve_lc_max(lc, budget)
    assert res.best_fraction == Fraction(-best, len(lc.edges))
    assert res.witness == lc_satisfied(lc, combo)[1]
    check_walk_cap(lambda b: solve_lc_max(lc, b), budget, res, len(lc.a_vertices), len(lc.sigma_a))

    # SSAT
    total = sum(len(t.assignments) for t in ssat.tests)
    best, flat, costs = naive_min(
        itertools.product(range(-k, k + 1), repeat=total),
        lambda f: ssat_cost(ssat, mode, superassignment(ssat, f)),
    )
    res = solve_ssat_min_norm(ssat, budget)
    assert (res.mode, res.minimum) == (mode, best)
    assert best is None or type(res.minimum) is Fraction
    assert res.witness == (None if flat is None else superassignment(ssat, flat))
    check_walk_cap(lambda b: solve_ssat_min_norm(ssat, b), budget, res, total, 2 * k + 1)
    unit, norm = (Fraction(1, len(ssat.tests)), norm_l1) if mode == "l1" else (1, norm_linf)
    cases = hint_cases(costs, unit, lambda f: norm(superassignment(ssat, f)), [(k + 1,) * total])
    check_hints(lambda b, h: solve_ssat_min_norm(ssat, b, hints=h), budget, res, cases, total, 2 * k + 1)

    # SIS
    best, z, costs = naive_min(
        itertools.product(range(-k, k + 1), repeat=sis.num_cols),
        lambda z: sum(map(abs, z)) if sis.multiply(z) == sis.target else None,
    )
    res = solve_sis_min(sis, budget)
    assert (res.minimum, res.witness) == (best, z)
    check_walk_cap(lambda b: solve_sis_min(sis, b), budget, res, sis.num_cols, 2 * k + 1)
    cases = hint_cases(costs, 1, lambda z: sum(map(abs, z)), [(-k - 1,) * sis.num_cols])
    check_hints(lambda b, h: solve_sis_min(sis, b, hints=h), budget, res, cases, sis.num_cols, 2 * k + 1)

    # NCP, box and (when small) full field
    ncp = sis_to_ncp(sis, g=1)
    for full in (False, True):
        values = ncp_values(ncp, k, full)
        if len(values) ** ncp.num_cols <= 1000:
            best, z, costs = naive_min(itertools.product(values, repeat=ncp.num_cols), ncp.distance)
            res = solve_ncp_min(ncp, budget, full_field=full)
            assert (res.minimum, res.witness) == (best, z)
            assert res.mode == ("full" if full else "box")
            check_walk_cap(lambda b: solve_ncp_min(ncp, b, full_field=full), budget, res, ncp.num_cols, len(values))
            # every residue is in the full field; k + 1 is outside the box unless it is a residue of [-k, k]
            outside = [] if (k + 1) % ncp.modulus in values else [(k + 1,) * ncp.num_cols]
            check_hints(lambda b, h: solve_ncp_min(ncp, b, full_field=full, hints=h), budget, res,
                        hint_cases(costs, 1, outside=outside), ncp.num_cols, len(values))

    # LHP grid
    lhp = sis_to_lhp(sis, g=1)
    res = solve_lhp_min(lhp, budget=budget)
    best, xs, costs = naive_min(
        itertools.product((-1, 0, 1), repeat=lhp.num_x), lambda xs: count_lhp_violations(lhp, LhpAssignment.of(xs))
    )
    assert (res.minimum, res.witness) == (best, LhpAssignment.of(xs))
    check_walk_cap(lambda b: solve_lhp_min(lhp, budget=b), budget, res, lhp.num_x, 3)
    check_hints(lambda b, h: solve_lhp_min(lhp, budget=b, hints=h), budget, res,
                hint_cases(costs, 1, outside=[(2,) * lhp.num_x]), lhp.num_x, 3)

    # agreement soundness: maximize agreeing B-vertices
    n_a, n_b = len(lc.a_vertices), len(lc.b_vertices)
    best, _, _ = naive_min(
        itertools.product(lc.sigma_a, repeat=n_a),
        lambda c: -sum(not totally_disagree(lc, dict(zip(lc.a_vertices, c)), b) for b in lc.b_vertices),
    )
    assert agreement_soundness_exact(lc) == Fraction(-best, n_b)
    assert cap_states(lambda: agreement_soundness_exact(lc, 0)) == 1
    assert agreement_soundness_exact(lc, tree_nodes(n_a, len(lc.sigma_a))) == Fraction(-best, n_b)

    subsets = list(itertools.combinations(lc.sigma_a, min(l, len(lc.sigma_a))))
    best, _, _ = naive_min(
        itertools.product(subsets, repeat=n_a),
        lambda c: -sum(
            not list_totally_disagree(lc, ListLabeling.from_sets(lc, dict(zip(lc.a_vertices, c))), b)
            for b in lc.b_vertices
        ),
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
    points = list(itertools.product((-1, 0, 1), repeat=8))

    for mode in ("l1", "linf"):
        budget = SearchBudget(coeff_box=1, mode=mode)
        best, flat, _ = naive_min(points, lambda f: ssat_cost(ssat, mode, superassignment(ssat, f)))
        res = solve_ssat_min_norm(ssat, budget)
        assert (res.minimum, res.witness) == (best, None if flat is None else superassignment(ssat, flat))
        check_walk_cap(lambda b: solve_ssat_min_norm(ssat, b), budget, res, 8, 3)

    budget = SearchBudget(coeff_box=1)
    best, z, _ = naive_min(points, lambda z: sum(map(abs, z)) if sis.multiply(z) == sis.target else None)
    res = solve_sis_min(sis, budget)
    assert (res.minimum, res.witness) == (best, z)
    check_walk_cap(lambda b: solve_sis_min(sis, b), budget, res, 8, 3)

    values = ncp_values(ncp, 1, False)
    best, z, _ = naive_min(itertools.product(values, repeat=8), ncp.distance)
    res = solve_ncp_min(ncp, budget)
    assert (res.minimum, res.witness) == (best, z)
    check_walk_cap(lambda b: solve_ncp_min(ncp, b), budget, res, 8, 3)

    # count_lhp_violations at each point, with each inequality evaluated once per
    # value of its own columns, the only ones its value depends on
    satisfied = {}

    def violations(xs):
        count = 0
        for idx, ineq in enumerate(lhp.inequalities):
            key = (idx, *(xs[i] for i, _ in ineq.coeff_x))
            if key not in satisfied:
                satisfied[key] = ineq.satisfied_by(LhpAssignment.of(xs))
            count += 0 if satisfied[key] else ineq.multiplicity
        return count

    best, xs, _ = naive_min(points, violations)
    assert best == count_lhp_violations(lhp, LhpAssignment.of(xs))
    res = solve_lhp_min(lhp, budget=budget)
    assert (res.minimum, res.witness) == (best, LhpAssignment.of(xs))
    check_walk_cap(lambda b: solve_lhp_min(lhp, budget=b), budget, res, 8, 3)


# ---------------------------------------------------------------------------
# The l1 completion floor
# ---------------------------------------------------------------------------

def naive_ssat(ssat, k, mode):
    """The reference minimum and first witness of the SSAT search."""
    total = sum(len(t.assignments) for t in ssat.tests)
    best, flat, _ = naive_min(
        itertools.product(range(-k, k + 1), repeat=total),
        lambda f: ssat_cost(ssat, mode, superassignment(ssat, f)),
    )
    return best, None if flat is None else superassignment(ssat, flat)


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains())
def test_l1_nontrivial_minimum_is_at_least_one(chain):
    """Every test of a nontrivial consistent point has l1 at least 1, so the walk may charge it up front."""
    _, ssat, _, k = chain
    best, witness = naive_ssat(ssat, k, "l1")
    res = solve_ssat_min_norm(ssat, SearchBudget(coeff_box=k))
    assert (res.minimum, res.witness) == (best, witness)
    assert best is None or best >= 1


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
        res = solve_ssat_min_norm(ssat, SearchBudget(coeff_box=k))
        assert (res.minimum, res.witness) == naive_ssat(ssat, k, "l1") == (None, None)


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
        res = solve_ssat_min_norm(ssat, SearchBudget(coeff_box=1, mode=mode))
        assert (res.minimum, res.witness) == naive_ssat(ssat, 1, mode)
        assert res.minimum == minimum
