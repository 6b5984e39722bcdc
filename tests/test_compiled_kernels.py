"""The walked oracles against the naive references of ``naive``, one pass per (chain, box).

On the seeded chains of ``naive.chains``, each point of the box is costed
once by the reference (``None`` where it rejects the point).  That cost is
compared with the point followed as a hint down the walk that the solver
sets up, and ``naive.check_search`` compares the solver's minimum, witness,
cap and hinted reruns with the first optimum (``naive.check_optimum`` for
LHP, which takes no hints):

* SSAT: ``is_consistent`` once for both norms, then l1 over
  ``is_nontrivial`` points and linf over ``is_not_all_zero`` ones; the
  coverage sets agree with ``is_nontrivial``, the walk enumerates exactly
  the consistent points, at every l1 point each test with a column has l1
  at least 1 and at least the projection l1 of each of its variables' first
  test, and down every point's path the walk's costs never fall;
* SIS: ``multiply(z) == target``, ``multiply`` checked against the dense
  rows, then the l1 norm; also on rows with any small integer entries;
* NCP: ``distance``; at the box points the full-field walk and a twin with
  unreduced entries too, and the full field when it is small;
* LHP: ``naive.lhp_violations``, which evaluates over ``Fraction``s, and
  ``count_lhp_violations`` at every grid point.

``count_lhp_violations`` and ``sis_solution_from_lhp_assignment`` read an
assignment scaled to integers; on random rational assignments of the same
chains they agree with the ``Fraction`` references ``naive.lhp_violations``
and ``naive.lhp_extraction``.

A point with one coordinate outside the box costs ``None`` on every walk.
On small hand-built NCP and LHP instances, every child of every prefix
costs exactly the reference over the rows completed so far.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st
from naive import (
    box,
    chains,
    check_optimum,
    check_search,
    dense,
    hint_cost,
    lhp_extraction,
    lhp_violations,
    ncp_values,
    norm_costs,
    path_costs,
    satisfied,
    ssat_box,
    superassignment,
)

from gapforge.errors import Infeasible
from gapforge.instances import EPSILON, GT, LT, LhpAssignment, LhpInequality, LhpSystem, NcpInstance, SisInstance
from gapforge.oracles import (
    SearchBudget,
    _compile_lhp,
    _compile_ncp,
    _compile_ssat,
    count_lhp_violations,
    enumerate_consistent_superassignments,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from gapforge.reductions import sis_solution_from_lhp_assignment, sis_to_lhp, sis_to_ncp
from gapforge.plaintext import sis_from_text, sis_to_text
from gapforge.superassign import is_nontrivial, norm_l1, norm_linf, project

SETTINGS = settings(max_examples=12, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def outside(point, value):
    """``point`` with its last coordinate replaced by ``value``, which lies outside the box."""
    return point[:-1] + (value,)


@SETTINGS
@given(chains())
def test_compiled_ssat_matches_reference(chain):
    _, ssat, _, k = chain
    rows, = _compile_ssat(ssat)
    n = rows.num_cols
    budgets = {mode: SearchBudget(k, mode=mode) for mode in ("l1", "linf")}
    walks = {mode: hint_cost(lambda: solve_ssat_min_norm(ssat, budget)) for mode, budget in budgets.items()}
    scale = {"l1": len(ssat.tests), "linf": 1}  # the walk's l1 cost is the sum of the test norms, not their average
    points = list(ssat_box(ssat, k))
    for flat, s, _, reference in points:
        # the coverage sets the walk's last column reads: each variable has a set of nonzero sum
        assert all(any(sum(flat[c] for c in cols) for cols in sets) for sets in rows.coverage) == is_nontrivial(ssat, s)
        assert {mode: walk(flat) for mode, walk in walks.items()} == {
            mode: None if c is None else c * scale[mode] for mode, c in reference.items()}
    assert all(walk(outside(flat, k + 1)) is None for walk in walks.values())
    assert enumerate_consistent_superassignments(ssat, k) == [s for _, s, ok, _ in points if ok]

    for (mode, budget), norm in zip(budgets.items(), (norm_l1, norm_linf)):
        res = check_search(lambda b, h: solve_ssat_min_norm(ssat, b, hints=h), budget, norm_costs(points, mode), n,
                           2 * k + 1, lambda f: superassignment(ssat, f), Fraction(1, scale[mode]),
                           lambda f: norm(superassignment(ssat, f)), [(k + 1,) * n])
        assert res.mode == mode and (res.minimum is None or type(res.minimum) is Fraction)
    # the l1 floor's premise: at a nontrivial consistent point each test with a column has l1 at least 1, and
    # at least the projection l1 that the first test of each of its variables has
    for _, s, _, reference in points:
        if reference["l1"] is not None:
            for test, row in zip(ssat.tests, s.weights):
                l1 = sum(map(abs, row))
                assert l1 >= 1 or not row
                for x in test.variables:
                    assert l1 >= sum(map(abs, project(ssat, s, ssat.tests_of_variable[x][0], x).values()))
    # the walk's cost contract: down each point's path, the costs charged from the root on never fall
    for budget in budgets.values():
        path = path_costs(lambda: solve_ssat_min_norm(ssat, budget))
        for flat, *_ in points:
            charged = path(flat)
            assert charged == sorted(charged)


@SETTINGS
@given(chains())
def test_compiled_ncp_matches_reference(chain):
    _, _, sis, k = chain
    ncp = sis_to_ncp(sis, g=1)
    n, q = ncp.num_cols, ncp.modulus
    budget = SearchBudget(k)
    # the same rows written with unreduced entries: negative, q for zero, and shifted targets
    raw = NcpInstance(
        modulus=q,
        num_cols=n,
        matrix=tuple(tuple((c, a - q if a else q) for c, a in enumerate(dense(row, n))) for row in ncp.matrix),
        target=tuple(t - 3 * q for t in ncp.target),
        bound=ncp.bound,
        replication=ncp.replication,
        multiplicity=ncp.multiplicity,
    )
    # at every box point, the box walks of both and the full-field walk of one: its children differ from the box's
    # only in their values
    walks = {full: hint_cost(lambda: solve_ncp_min(ncp, budget, full_field=full)) for full in (False, True)}
    raw_walk = hint_cost(lambda: solve_ncp_min(raw, budget))
    for full in (False, True):
        values = ncp_values(ncp, k, full)
        if full and len(values) ** n > 1000:  # the box is always searched, the full field when it is this small
            continue
        costs = [(z, ncp.distance(z)) for z in itertools.product(values, repeat=n)]
        if not full:
            for z, distance in costs:
                assert walks[False](z) == walks[True](z) == raw_walk(z) == raw.distance(z) == distance
        # every residue is in the full field; k + 1 is outside the box unless it is a residue of [-k, k]
        outside_box = [] if (k + 1) % q in values else [(k + 1,) * n]
        res = check_search(lambda b, h: solve_ncp_min(ncp, b, full_field=full, hints=h), budget, costs, n,
                           len(values), outside=outside_box)
        assert res.mode == ("full" if full else "box")
    assert [walk(outside(z, q)) for walk in (*walks.values(), raw_walk)] == [None] * 3  # q is no residue


@SETTINGS
@given(chains())
def test_compiled_lhp_matches_reference(chain):
    _, _, sis, _ = chain
    lhp = sis_to_lhp(sis, g=1)
    n = lhp.num_x
    walk = hint_cost(lambda: solve_lhp_min(lhp))
    violations = lhp_violations(lhp.inequalities)
    costs = [(xs, violations(xs)) for xs in box(1, n)]
    assert all(walk(xs) == count == count_lhp_violations(lhp, LhpAssignment.of(xs)) for xs, count in costs)
    assert walk(outside(costs[-1][0], 2)) is None
    check_optimum(lambda b: solve_lhp_min(lhp, b), SearchBudget(), costs, n, 3, LhpAssignment.of)


def random_assignments(solution, u, rng, count):
    """``count`` rational assignments ``(x, y, delta) = y * (q, 1, d)`` around an SIS solution.

    y is a small rational, zero and negative ones included.  q is
    ``solution``, that point moved by +-1/(4u) in some coordinates, or
    random small rationals in [-2, 2].  d is the infinitesimal, exactly
    +-1/u, zero, +-1/(2u), or a random rational in [-1, 1].  The first q
    reaches the extraction's vector, the second its exactness and
    integrality checks, and the third the boundaries of G3.
    """
    n = len(solution)

    def small(lo, hi, den):
        return Fraction(rng.randint(lo * den, hi * den), den)

    for _ in range(count):
        y = small(-1, 3, rng.choice((1, 2, 3, 4)))
        shape = rng.randrange(3)
        if shape == 0:
            q = list(solution)
        elif shape == 1:
            q = [v + rng.choice((0, 0, Fraction(1, 4 * u), Fraction(-1, 4 * u))) for v in solution]
        else:
            q = [small(-2, 2, rng.choice((1, 2, 4))) for _ in range(n)]
        d = rng.choice((EPSILON, Fraction(1, u), Fraction(-1, u), 0, Fraction(1, 2 * u), Fraction(-1, 2 * u),
                        small(-1, 1, 8)))
        yield LhpAssignment.of([y * v for v in q], y=y, delta=d if d is EPSILON else y * d)


def extraction(lhp, a, extract):
    """The vector ``extract`` pulls back, or the group, index and message of its ``Infeasible``."""
    try:
        return extract(lhp, a)
    except Infeasible as exc:
        return exc.group, exc.index, str(exc)


@SETTINGS
@given(chains(), st.integers(0, 2 ** 32))
def test_integer_lhp_evaluation_matches_fraction_reference(chain, seed):
    _, _, sis, _ = chain
    lhp = sis_to_lhp(sis, g=1)
    solution = solve_sis_min(sis, SearchBudget(1)).witness
    outcomes = set()
    for a in random_assignments(solution or (0,) * sis.num_cols, lhp.u_param, random.Random(seed), 60):
        reference = sum(ineq.multiplicity for ineq in lhp.inequalities if not satisfied(ineq, a))
        assert count_lhp_violations(lhp, a) == reference
        assert [ineq.satisfied_by(a) for ineq in lhp.inequalities] == [
            satisfied(ineq, a) for ineq in lhp.inequalities]
        got = extraction(lhp, a, sis_solution_from_lhp_assignment)
        assert got == extraction(lhp, a, lhp_extraction)
        outcomes.add(got[0] if type(got[0]) is str else "vector")
    assert "G1" in outcomes and ("vector" in outcomes) == (solution is not None)


def check_sis(sis, k):
    """One pass over the box of radius ``k``: ``multiply`` against the dense rows, then the walk and the solver against
    the reference cost."""
    n = sis.num_cols
    rows = [dense(row, n) for row in sis.matrix]
    budget = SearchBudget(k)
    walk = hint_cost(lambda: solve_sis_min(sis, budget))
    costs = []
    for z in box(k, n):
        product = sis.multiply(z)
        assert product == tuple(sum(a * v for a, v in zip(row, z)) for row in rows)
        costs.append((z, sum(map(abs, z)) if product == sis.target else None))
        assert walk(z) == costs[-1][1]
    assert walk(outside(z, -k - 1)) is None
    check_search(lambda b, h: solve_sis_min(sis, b, hints=h), budget, costs, n, 2 * k + 1,
                 raw=lambda z: sum(map(abs, z)), outside=[(-k - 1,) * n])


@SETTINGS
@given(chains())
def test_compiled_sis_matches_reference(chain):
    _, _, sis, k = chain
    check_sis(sis, k)
    # the text format writes the dense rows
    assert sis_to_text(sis).splitlines()[1:-1] == [" ".join(map(str, dense(row, sis.num_cols))) for row in sis.matrix]
    assert sis_from_text(sis_to_text(sis)) == sis


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2),
       st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(-5, 5)),
                min_size=1, max_size=3))
def test_equality_bounds_on_any_integer_rows(m, k, rows):
    """Entries beyond +-1, negative entries, all-zero rows and unreachable targets."""
    matrix = tuple(tuple((c, a) for c, a in enumerate(r[:m]) if a) for r, _ in rows)
    check_sis(SisInstance(num_cols=m, matrix=matrix, target=tuple(t for _, t in rows), bound=1), k)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.sampled_from((2, 3, 5, 7)), st.integers(1, 3),
       st.lists(st.tuples(st.lists(st.integers(-8, 8), min_size=4, max_size=4), st.integers(-8, 15), st.integers(1, 3)),
                min_size=1, max_size=6))
def test_ncp_walk_on_any_rows(m, q, k, rows):
    """Rows of any length with entries that vanish mod q or are not reduced, and targets that are not reduced."""
    ncp = NcpInstance(modulus=q, num_cols=m, matrix=tuple(tuple((c, a) for c, a in enumerate(r[:m]) if a) for r, _, _ in rows),
                      target=tuple(t for _, t, _ in rows), bound=1, replication=1,
                      multiplicity=tuple(n for _, _, n in rows))
    values = ncp_values(ncp, k, False)
    costs = [(z, ncp.distance(z)) for z in itertools.product(values, repeat=m)]
    outside_box = [] if (k + 1) % q in values else [(k + 1,) * m]
    check_search(lambda b, h: solve_ncp_min(ncp, b, hints=h), SearchBudget(k), costs, m, len(values),
                 outside=outside_box)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(-3, 3), st.integers(-1, 1),
                          st.sampled_from((GT, LT)), st.integers(1, 3)),
                min_size=1, max_size=6))
def test_lhp_walk_on_any_inequalities(m, rows):
    """Inequalities of any length, with coefficients beyond +-1 and both senses."""
    lhp = LhpSystem(num_x=m, u_param=1, inequalities=tuple(
        ineq([(c, a) for c, a in enumerate(r[:m]) if a], cy, cd, sense, k) for r, cy, cd, sense, k in rows))
    walk = hint_cost(lambda: solve_lhp_min(lhp))
    violations = lhp_violations(lhp.inequalities)
    costs = [(xs, violations(xs)) for xs in box(1, m)]
    assert all(walk(xs) == count for xs, count in costs)
    check_optimum(lambda b: solve_lhp_min(lhp, b), SearchBudget(), costs, m, 3, LhpAssignment.of)


def ineq(coeff_x, cy, cd, sense, k=1):
    return LhpInequality(coeff_x=tuple(coeff_x), coeff_y=cy, coeff_delta=cd, sense=sense, group="G2", multiplicity=k)


def test_rows_with_no_column_and_zero_standard_parts():
    """Rows charged at the root, and LHP rows decided by their delta coefficient."""
    # dense: (0, 0), (1, 2), (5, 0)
    ncp = NcpInstance(modulus=5, num_cols=2, matrix=((), ((0, 1), (1, 2)), ((0, 5),)), target=(3, 1, 0), bound=1,
                      replication=1, multiplicity=(2, 1, 4))
    assert _compile_ncp(ncp)[0] == 2
    cost = hint_cost(lambda: solve_ncp_min(ncp, SearchBudget(), full_field=True))
    for z in itertools.product(range(5), repeat=2):
        assert cost(z) == ncp.distance(z)

    lhp = LhpSystem(num_x=2, u_param=1, inequalities=(
        ineq((), -1, 0, GT, k=3),                 # -y > 0: violated at y = 1
        ineq((), 1, 0, GT),                       # y > 0: holds
        ineq(((0, 1),), -1, 0, GT),               # x0 - y > 0: zero standard part at x0 = 1, violated
        ineq(((0, 1), (1, 1)), 0, -1, LT),        # x0 + x1 - delta < 0: holds at x0 + x1 = 0
        ineq(((1, 1),), 0, 4, LT),                # x1 + 4 delta < 0: violated at x1 = 0
    ))
    assert _compile_lhp(lhp)[0] == 3
    cost = hint_cost(lambda: solve_lhp_min(lhp))
    for xs in itertools.product((-1, 0, 1), repeat=2):
        assert cost(xs) == count_lhp_violations(lhp, LhpAssignment.of(xs))


def check_children(walk, values, root, n, reference):
    """At every prefix over ``values``, the children are ``values`` in order, each costing ``reference``.

    ``walk`` is (children, advance, floor); a prefix's state is carried from
    the empty one by ``advance``.  ``reference(d, point)`` is the cost of
    the rows completed within the first ``d`` coordinates of ``point``; the
    root costs ``reference(0, ())``.  The floor of a prefix is at most what
    its cheapest completion adds, and at most a child's step plus the
    child's floor; at a leaf it is 0.
    """
    children, advance, floor = walk
    assert root == reference(0, ())
    states = {(): ()}
    for d in range(n):
        for prefix in itertools.product(values, repeat=d):
            state = states[prefix]
            cost = reference(d, prefix)
            kids = list(children(d, state, cost))
            assert [v for v, _ in kids] == list(values)
            assert all(c == reference(d + 1, prefix + (v,)) for v, c in kids)
            for v, c in kids:
                states[prefix + (v,)] = advance(d, state, v)
            completions = itertools.product(values, repeat=n - d)
            assert floor(d, state) <= min(reference(n, prefix + rest) for rest in completions) - cost
            assert all(floor(d, state) <= c - cost + floor(d + 1, states[prefix + (v,)]) for v, c in kids)
    assert all(floor(n, states[point]) == 0 for point in itertools.product(values, repeat=n))


# (row, target, multiplicity) over three columns; the comments read the rows mod 7
NCP_ROWS = (
    ((), 1, 2),                          # no column, missed at the root unless q divides 1
    ((), 0, 1),                          # no column, met
    (((0, 1),), 3, 1),                   # one column, met at 3: outside the box of radius 1 or 2
    (((0, 2), (1, 3)), 1, 3),            # last column 1, multiplicity 3
    (((1, 1),), 2, 1),                   # last column 1, one column
    (((0, 1), (1, 1)), 0, 2),            # last column 1, multiplicity 2
    (((0, 4), (2, 5)), 6, 1),
    (((1, 7), (2, 1)), 0, 1),            # the entry at column 1 vanishes mod 7
    (((0, 1), (2, 14)), 5, 2),           # the entry at column 2 vanishes mod 7 and 2: filed under column 0
    (((2, -1),), -2, 1),                 # negative entry and target
    (((0, 3), (2, 3)), 3, 4),            # last column 2, sharing it with three more rows
)


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_every_ncp_child_costs_the_rows_completed_so_far(q):
    def instance(rows, num_cols=3):
        return NcpInstance(modulus=q, num_cols=num_cols, matrix=tuple(r for r, _, _ in rows),
                           target=tuple(t for _, t, _ in rows), bound=1, replication=1,
                           multiplicity=tuple(k for _, _, k in rows))

    def reference(d, point):
        """The distance over the rows whose last nonzero residue lies in a column below ``d``."""
        done = [r for r in NCP_ROWS if all(c < d for c, a in r[0] if a % q)]
        return instance([(tuple((c, a) for c, a in row if a % q), t, k) for row, t, k in done], d).distance(point)

    root, [(cols, rows)] = _compile_ncp(instance(NCP_ROWS))  # the rows join the three columns into one block
    assert cols == (0, 1, 2)
    boxes = [tuple(dict.fromkeys(v % q for v in range(-k, k + 1))) for k in (1, 2)]
    for values in [range(q), *boxes]:
        check_children(rows.residue_walk(values), values, root, 3, reference)


LHP_SYSTEM = LhpSystem(num_x=3, u_param=1, inequalities=(
    ineq((), -1, 0, GT, k=3),                           # no column: -y > 0, violated
    ineq((), 1, 0, GT),                                 # no column: y > 0, holds
    ineq(((0, 1),), 0, 0, GT, k=2),                     # x0 > 0: one column
    ineq(((0, 1), (1, 1)), -1, 1, GT),                  # x0 + x1 - y + delta > 0: a tie at x0 + x1 = 1 is met
    ineq(((0, 1), (1, 1)), -1, -1, LT, k=2),            # x0 + x1 - y - delta < 0: the other half of the pair
    ineq(((0, -1), (1, -1)), 0, 0, GT),                 # -x0 - x1 > 0: the same sum, negated
    ineq(((1, 2),), -2, 0, GT),                         # 2 x1 - 2y > 0: a tie at x1 = 1 is missed
    ineq(((0, 1), (1, -2)), 0, -2, LT, k=4),            # x0 - 2 x1 - 2 delta < 0
    ineq(((1, -2),), 1, 0, LT),                         # -2 x1 + y < 0
    ineq(((0, 1), (2, 1)), 0, 0, GT, k=2),
    ineq(((2, -1),), 1, -1, GT),                        # -x2 + y - delta > 0: a tie at x2 = 1 is missed
    ineq(((1, 1), (2, 1)), 1, 1, LT),                   # x1 + x2 + y + delta < 0
))


def test_every_lhp_child_costs_the_inequalities_completed_so_far():
    def reference(d, point):
        """The violations among the inequalities whose x columns all lie below ``d``, at ``point`` padded with 0."""
        done = tuple(i for i in LHP_SYSTEM.inequalities if all(c < d for c, _ in i.coeff_x))
        system = LhpSystem(num_x=3, u_param=1, inequalities=done)
        return count_lhp_violations(system, LhpAssignment.of(point + (0,) * (3 - d)))

    root, [(cols, rows)] = _compile_lhp(LHP_SYSTEM)
    assert cols == (0, 1, 2)
    check_children(rows.grid_walk(), (-1, 0, 1), root, 3, reference)
