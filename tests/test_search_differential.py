"""Every exact search against a naive best-so-far reference.

The reference is the plain enumeration the oracles are specified by: walk the
box with ``itertools.product`` in lexicographic order and keep the first
strict improvement.  The property compares optimum, witness, states visited
and the state count reported when the cap is zero, on small seeded label
covers, planted and frustrated.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gapforge.errors import EmptyRange, InfeasibleSpec, SearchSpaceTooLarge
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import Labeling, LhpAssignment
from gapforge.oracles import (
    SearchBudget,
    _non_triviality_groups,
    _vectors_with_sum,
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
    """(best cost, first point attaining it, points visited); None rejects."""
    best_cost = best = None
    states = 0
    for point in points:
        states += 1
        c = cost(point)
        if c is not None and (best_cost is None or c < best_cost):
            best_cost, best = c, point
    return best_cost, best, states


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


def ssat_cost(ssat, mode, side, s):
    admissible = is_nontrivial(ssat, s) if side == "nontrivial" else is_not_all_zero(s)
    if not admissible or not is_consistent(ssat, s):
        return None
    return norm_l1(s) if mode == "l1" else norm_linf(s)


def sis_candidates(sis, k):
    groups = _non_triviality_groups(sis)
    if groups is None:
        return itertools.product(range(-k, k + 1), repeat=sis.num_cols)
    blocks = [list(_vectors_with_sum(hi - lo, k, 1)) for lo, hi in groups]
    return (sum(combo, ()) for combo in itertools.product(*blocks))


def ncp_values(ncp, k, full_field):
    if full_field:
        return list(range(ncp.modulus))
    return list(dict.fromkeys(v % ncp.modulus for v in range(-k, k + 1)))


def cap_states(fn):
    with pytest.raises(SearchSpaceTooLarge) as exc:
        fn()
    assert exc.value.cap == 0
    return exc.value.states


# ---------------------------------------------------------------------------
# Property
# ---------------------------------------------------------------------------

@st.composite
def chains(draw):
    num_a = draw(st.integers(2, 3))
    num_b = draw(st.integers(1, 2))
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
    assume(sis.num_cols <= 4)  # the LHP grid costs 3^columns evaluations
    k = draw(st.integers(1, 2))
    return lc, ssat, sis, k


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains(), st.sampled_from(("l1", "linf")), st.sampled_from((None, "nontrivial", "not_all_zero")),
       st.integers(1, 3))
def test_every_search_matches_naive_reference(chain, mode, side, l):
    lc, ssat, sis, k = chain
    budget = SearchBudget(coeff_box=k, mode=mode)
    zero = dataclasses.replace(budget, max_states=0)

    # label cover: maximize satisfied edges == minimize their negation
    best, combo, states = naive_min(
        itertools.product(lc.sigma_a, repeat=len(lc.a_vertices)),
        lambda c: -lc_satisfied(lc, c)[0],
    )
    res = solve_lc_max(lc, budget)
    assert res.best_fraction == Fraction(-best, len(lc.edges))
    assert res.witness == lc_satisfied(lc, combo)[1]
    assert res.states_visited == states
    assert cap_states(lambda: solve_lc_max(lc, zero)) == len(lc.sigma_a) ** len(lc.a_vertices)

    # SSAT
    total = sum(len(t.assignments) for t in ssat.tests)
    effective = side or ("nontrivial" if mode == "l1" else "not_all_zero")
    best, flat, states = naive_min(
        itertools.product(range(-k, k + 1), repeat=total),
        lambda f: ssat_cost(ssat, mode, effective, superassignment(ssat, f)),
    )
    res = solve_ssat_min_norm(ssat, budget, side)
    assert (res.mode, res.min_norm, res.states_visited) == (mode, best, states)
    assert res.witness == (None if flat is None else superassignment(ssat, flat))
    assert cap_states(lambda: solve_ssat_min_norm(ssat, zero, side)) == (2 * k + 1) ** total

    # SIS, with the trusted block layout and as plain text without it
    plain = dataclasses.replace(sis, column_provenance=None, row_provenance=None)
    for inst in (sis, plain):
        best, z, states = naive_min(
            sis_candidates(inst, k),
            lambda z: sum(map(abs, z)) if inst.multiply(z) == inst.target else None,
        )
        res = solve_sis_min(inst, budget)
        assert (res.min_l1, res.witness, res.states_visited) == (best, z, states)
        assert cap_states(lambda: solve_sis_min(inst, zero)) == (2 * k + 1) ** inst.num_cols

    # NCP, box and (when small) full field
    ncp = sis_to_ncp(sis, g=1)
    for full in (False, True):
        values = ncp_values(ncp, k, full)
        if len(values) ** ncp.num_cols <= 1000:
            best, z, states = naive_min(itertools.product(values, repeat=ncp.num_cols), ncp.distance)
            res = solve_ncp_min(ncp, budget, full_field=full)
            assert (res.min_dist, res.witness, res.states_visited) == (best, z, states)
            assert res.mode == ("full" if full else "box")
        assert cap_states(lambda: solve_ncp_min(ncp, zero, full_field=full)) == len(values) ** ncp.num_cols

    # LHP grid, default and supplied
    lhp = sis_to_lhp(sis, g=1)
    grid = [LhpAssignment.of(xs) for xs in itertools.product((-1, 0, 1), repeat=lhp.num_x)]
    supplied = grid[::-1][:5]  # a supplied grid is not charged to the cap
    for res, points in ((solve_lhp_min(lhp, budget=budget), grid), (solve_lhp_min(lhp, supplied, zero), supplied)):
        want = naive_min(points, lambda a: count_lhp_violations(lhp, a))
        assert (res.min_violations, res.witness, res.states_visited) == want
    assert cap_states(lambda: solve_lhp_min(lhp, budget=zero)) == 3 ** lhp.num_x

    # agreement soundness: maximize agreeing B-vertices
    n_a, n_b = len(lc.a_vertices), len(lc.b_vertices)
    best, _, _ = naive_min(
        itertools.product(lc.sigma_a, repeat=n_a),
        lambda c: -sum(not totally_disagree(lc, dict(zip(lc.a_vertices, c)), b) for b in lc.b_vertices),
    )
    assert agreement_soundness_exact(lc) == Fraction(-best, n_b)
    assert cap_states(lambda: agreement_soundness_exact(lc, 0)) == len(lc.sigma_a) ** n_a

    subsets = list(itertools.combinations(lc.sigma_a, min(l, len(lc.sigma_a))))
    best, _, _ = naive_min(
        itertools.product(subsets, repeat=n_a),
        lambda c: -sum(
            not list_totally_disagree(lc, ListLabeling.from_sets(lc, dict(zip(lc.a_vertices, c))), b)
            for b in lc.b_vertices
        ),
    )
    assert list_agreement_soundness_exact(lc, l) == Fraction(-best, n_b)
    assert cap_states(lambda: list_agreement_soundness_exact(lc, l, 0)) == (
        comb(len(lc.sigma_a), min(l, len(lc.sigma_a))) ** n_a
    )
