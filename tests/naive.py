"""The naive references the differential tests compare the program with.

Each reference is the plain enumeration a search or a fast path is
specified by: walk a box with ``itertools.product`` in lexicographic order,
cost every point from the instance-level definitions, and keep the first
strict improvement.  LHP inequalities are evaluated over ``Fraction``s at
the unscaled assignment (``value_at``), the reference for the package's
integer evaluation.  ``chains`` draws the small seeded label covers,
planted and frustrated, with the reductions of each, that the differential
properties share.  ``replace`` copies a record with some fields changed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, strategies as st

from gapforge import oracles
from gapforge.errors import EmptyRange, Infeasible, InfeasibleSpec, SearchSpaceTooLarge
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import EPSILON, GT, LhpAssignment
from gapforge.reductions import lc_to_ssat, ssat_to_sis
from gapforge.superassign import SuperAssignment, is_consistent, is_nontrivial, is_not_all_zero, norm_l1, norm_linf


def replace(record, **changes):
    """A new ``record`` of the same class with ``changes`` to some of its fields, checked again on construction."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


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


def box(k, n):
    """The points of [-k, k]^n in lexicographic order; the LHP grid is ``box(1, n)``."""
    return itertools.product(range(-k, k + 1), repeat=n)


def ncp_values(ncp, k, full_field):
    """The NCP coordinate values in the order the walk tries them: the field, or the residues of [-k, k]."""
    if full_field:
        return list(range(ncp.modulus))
    return list(dict.fromkeys(v % ncp.modulus for v in range(-k, k + 1)))


def naive_min(costs):
    """(best cost, first point attaining it) over ``(point, cost)`` pairs in order; a ``None`` cost rejects."""
    best_cost = best = None
    for point, c in costs:
        if c is not None and (best_cost is None or c < best_cost):
            best_cost, best = c, point
    return best_cost, best


def tree_nodes(n, v):
    """Nodes of the unpruned tree: ``v`` values per coordinate over ``n`` coordinates."""
    return sum(v ** d for d in range(1, n + 1))


def dense(row, num_cols):
    """A sparse row as its ``num_cols`` entries, zeros included."""
    entries = [0] * num_cols
    for c, a in row:
        entries[c] = a
    return tuple(entries)


def expand(records, multiplicity):
    """Each record repeated its multiplicity times, in order."""
    return [r for r, k in zip(records, multiplicity) for _ in range(k)]


def gadget_rows_by_scan(ssat):
    """The SIS consistency rows by a plain scan: for each test pair i < j, each
    shared variable x and each field value a, the columns of test i where
    x = a and those of test j where x != a, with coefficient 1."""
    tests = ssat.tests
    start = [sum(len(t.assignments) for t in tests[:k]) for k in range(len(tests))]
    rows = []
    for i in range(len(tests)):
        for j in range(i + 1, len(tests)):
            for x in ssat.variables:
                if x in tests[i].variables and x in tests[j].variables:
                    pos_i, pos_j = tests[i].variables.index(x), tests[j].variables.index(x)
                    for a in ssat.field_values:
                        cols = [start[i] + r for r, asg in enumerate(tests[i].assignments) if asg[pos_i] == a]
                        cols += [start[j] + r for r, asg in enumerate(tests[j].assignments) if asg[pos_j] != a]
                        rows.append(tuple((c, 1) for c in cols))
    return tuple(rows)


def superassignment(ssat, flat):
    """The flat weight vector cut into one row per test."""
    rows, off = [], 0
    for t in ssat.tests:
        rows.append(flat[off:off + len(t.assignments)])
        off += len(t.assignments)
    return SuperAssignment(tuple(rows))


def ssat_box(ssat, k):
    """Each point of the SSAT box of radius ``k`` as ``(flat, s, consistent, {norm: cost})``: one ``is_consistent``.

    l1 is the average test norm over the nontrivial consistent points, linf
    the largest test norm over the consistent points that are not all zero;
    a ``None`` cost rejects the point.
    """
    for flat in box(k, sum(len(t.assignments) for t in ssat.tests)):
        s = superassignment(ssat, flat)
        ok = bool(is_consistent(ssat, s))
        yield flat, s, ok, {"l1": norm_l1(s) if ok and is_nontrivial(ssat, s) else None,
                            "linf": norm_linf(s) if ok and is_not_all_zero(s) else None}


def norm_costs(points, mode):
    """The ``(flat, cost)`` pairs of one norm over the points of ``ssat_box``."""
    return [(flat, reference[mode]) for flat, _, _, reference in points]


def value_at(ineq, a):
    """The left-hand side of ``ineq`` at ``a`` as a ``Fraction`` (standard, epsilon-coefficient) pair."""
    std = sum((c * a.x_values[i] for i, c in ineq.coeff_x), Fraction(0))
    std += ineq.coeff_y * a.y_value
    if a.delta_value is EPSILON:
        return std, Fraction(ineq.coeff_delta)
    return std + ineq.coeff_delta * a.delta_value, Fraction(0)


def satisfied(ineq, a):
    """Whether ``value_at`` compares strictly to (0, 0) in the inequality's sense, pairs compared lexicographically."""
    return value_at(ineq, a) > (0, 0) if ineq.sense == GT else value_at(ineq, a) < (0, 0)


def lhp_violations(inequalities, y=1, delta=EPSILON):
    """``xs -> `` the copies of ``inequalities`` that ``(xs, y, delta)`` violates, as ``count_lhp_violations`` counts.

    An inequality reads no x column but its own, so the inequalities are
    grouped by their columns, and ``satisfied`` evaluates each group once
    per value of its columns; the group's violations are remembered.
    """
    groups = {}
    for ineq in inequalities:
        groups.setdefault(tuple(i for i, _ in ineq.coeff_x), []).append(ineq)
    memo = [(cols, members, {}) for cols, members in groups.items()]

    def violations(xs):
        count, a = 0, None
        for cols, members, seen in memo:
            key = tuple([xs[i] for i in cols])
            if key not in seen:
                a = a or LhpAssignment.of(xs, y=y, delta=delta)
                seen[key] = sum(ineq.multiplicity for ineq in members if not satisfied(ineq, a))
            count += seen[key]
        return count

    return violations


def lhp_extraction(lhp, a):
    """``sis_solution_from_lhp_assignment`` over ``Fraction``s: the G1, G3 and G2 members by ``satisfied``, then
    each G2 equation exact at x / y, then every x / y an integer; the first failure raises its ``Infeasible``."""
    for group in ("G1", "G3", "G2"):
        for idx, ineq in enumerate(lhp.inequalities):
            if ineq.group == group and not satisfied(ineq, a):
                raise Infeasible(group, idx)
    quotients = [x / a.y_value for x in a.x_values]
    for idx, ineq in enumerate(lhp.inequalities):
        if ineq.group == "G2" and sum(c * quotients[i] for i, c in ineq.coeff_x) + ineq.coeff_y != 0:
            raise Infeasible("g2_exactness", idx)
    for i, value in enumerate(quotients):
        if value.denominator != 1:
            raise Infeasible("integrality", i, f"x_{i}/y = {value}")
    return tuple(int(v) for v in quotients)


class Walk(Exception):
    """Stops a solver at its call to ``oracles._walk_blocks``."""


def walk_call(solve):
    """``(best first?, (n, constant, max_states, blocks))`` of the walks ``solve()`` sets up; no node is entered.

    ``blocks`` lists every block's walk, as ``oracles._walk_blocks`` takes
    it: ``(columns, root, children, advance, floor)``.
    """
    calls = []

    def record(n, blocks, max_states, hints=(), constant=0):
        calls.append((n, constant, max_states, list(blocks)))
        raise Walk

    with mock.patch.object(oracles, "_walk_blocks", side_effect=record), pytest.raises(Walk):
        solve()
    (n, constant, max_states, blocks), = calls
    return any(advance is not None for _, _, _, advance, _ in blocks), (n, constant, max_states, blocks)


def hint_cost(solve):
    """The engine's cost of a hint on the walks ``solve()`` sets up, as ``point -> cost or None``; no node is entered.

    A point costs the constant plus what each block's walk charges its
    coordinates on the block's columns, or ``None`` if any block has no
    such leaf.  A depth-first walk's children read the block's coordinates
    themselves; a best-first walk's read the states its ``advance`` carries
    down them.
    """
    _, (n, constant, max_states, blocks) = walk_call(solve)

    def cost(point):
        if len(point) != n or constant is None:
            return None
        total = constant
        for cols, root, children, advance, _ in blocks:
            c = oracles._hint_cost(len(cols), children, root, [point[i] for i in cols], max_states, advance)
            if c is None:
                return None
            total += c
        return total

    return cost


def path_costs(solve):
    """The costs the depth-first walks ``solve()`` sets up charge down a point, as ``point -> list``; no node is entered.

    The list starts at the root's cost, the constant plus every block's
    root, and takes each block's coordinates' children in turn, block by
    block, a block's cost standing for its share of the sum, as
    ``hint_cost`` does; it stops before a coordinate with no such child or a
    ``None`` cost.
    """
    _, (_, constant, _, blocks) = walk_call(solve)

    def costs(point):
        roots = [root for _, root, *_ in blocks]
        if constant is None or None in roots:
            return [None]
        charged = [constant + sum(roots)]
        for cols, root, children, *_ in blocks:
            prefix, cost, others = [point[i] for i in cols], root, charged[-1] - root
            for depth, v in enumerate(prefix):
                cost = next((c for u, c in children(depth, prefix, cost) if u == v), None)
                if cost is None:
                    return charged
                charged.append(others + cost)
        return charged

    return costs


def cap_states(fn):
    with pytest.raises(SearchSpaceTooLarge) as exc:
        fn()
    assert exc.value.cap == 0
    return exc.value.states


def check_walk_cap(solve, budget, res, n, v):
    """The nodes a walk enters are its exact cap, and at most those of the unpruned tree.

    ``solve(budget)`` reruns the search.
    """
    assert res.states_visited <= tree_nodes(n, v)
    assert solve(replace(budget, max_states=res.states_visited)) == res
    if res.states_visited == 0:  # a row with no entry misses its target: no node is entered
        assert res.witness is None
        return
    with pytest.raises(SearchSpaceTooLarge) as exc:
        solve(replace(budget, max_states=res.states_visited - 1))
    assert (exc.value.states, exc.value.cap) == (res.states_visited, res.states_visited - 1)


def hint_cases(costs, unit, raw=None, outside=()):
    """Hint lists from the naive ``costs``: each alone, then all at once.

    The first optimum and the first point costing ``unit`` more, where they
    exist; the infeasible points whose ``raw`` cost, taken without the
    feasibility check, is below the optimum, so that trusting any one would
    lose the optimum, or else (or with no ``raw``) the first infeasible point;
    the points ``outside`` the box; and points one coordinate too long and
    one too short.
    """
    n = len(costs[0][0])
    best = min((c for _, c in costs if c is not None), default=None)
    infeasible = [p for p, c in costs if c is None]
    cheaper = [p for p in infeasible if raw and best is not None and raw(p) < best]
    cases = [[p for p, c in costs if c == want][:1] for want in ([] if best is None else [best, best + unit])]
    cases += [cheaper or infeasible[:1], list(outside), [(0,) * (n + 1)], [(0,) * (n - 1)] if n else []]
    cases = [case for case in cases if case]
    return cases + [[p for case in cases for p in case]]


def check_optimum(solve, budget, costs, n, v, witness=lambda point: point):
    """``solve(budget)`` finds the first optimum of the naive ``costs`` and enters exactly its cap.

    ``witness`` maps a point to the result's witness.  Returns the result.
    """
    best, point = naive_min(costs)
    res = solve(budget)
    assert (res.minimum, res.witness) == (best, None if point is None else witness(point))
    check_walk_cap(solve, budget, res, n, v)
    return res


def check_search(solve, budget, costs, n, v, witness=lambda point: point, unit=1, raw=None, outside=()):
    """``check_optimum``, and each hint list of ``hint_cases(costs, unit, raw, outside)`` gives the same result.

    ``solve(budget, hints)`` reruns the search; a hinted run enters no more
    nodes than the unhinted one, at its own exact cap, and a best-first
    run enters the same nodes.  Returns the unhinted result.
    """
    res = check_optimum(lambda b: solve(b, ()), budget, costs, n, v, witness)
    best_first = walk_call(lambda: solve(budget, ()))[0]
    for hints in hint_cases(costs, unit, raw, outside):
        hinted = solve(budget, hints)
        assert replace(hinted, states_visited=res.states_visited) == res
        assert hinted.states_visited <= res.states_visited
        assert hinted.states_visited == res.states_visited or not best_first
        check_walk_cap(lambda b: solve(b, hints), budget, hinted, n, v)
    return res
