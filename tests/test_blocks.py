"""Walks over instances that fall apart into blocks, against the naive references and against each block alone.

Each instance is block-diagonal: two or three random blocks with their
columns interleaved, so that a block's columns need not be contiguous, a
column in no row, and a row with no column.  SIS and SSAT l1 also get an
infeasible block, placed first or last; the SSAT blocks are the tests of
disjoint label covers, interleaved test by test.  Each solver finds the
naive first optimum over the whole box (``naive.check_optimum``), and it
enters as many nodes as its blocks do when each is solved alone as an
instance of its own, in order of its first column, up to the first block
with no solution.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, assume, given, settings, strategies as st
from naive import box, check_optimum, lhp_violations, ssat_box, superassignment

from gapforge.errors import EmptyRange, InfeasibleSpec, MalformedInstance
from gapforge.genlab import GenSpec, gen_label_cover
from gapforge.instances import GT, LT, LhpAssignment, LhpInequality, LhpSystem, NcpInstance, SisInstance, SsatInstance, \
    SsatTest
from gapforge.oracles import SearchBudget, solve_lhp_min, solve_ncp_min, solve_sis_min, solve_ssat_min_norm
from gapforge.reductions import lc_to_ssat

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def components(n, links):
    """The indices of ``range(n)`` that ``links`` join, each block ascending, in order of its first index."""
    block = {i: {i} for i in range(n)}
    for link in links:
        merged = set().union(*(block[i] for i in link))
        for i in merged:
            block[i] = merged
    return sorted({tuple(sorted(b)) for b in block.values()})


def check_blocks(solve, budget, whole, blocks, alone):
    """``whole`` entered the nodes of its ``blocks`` solved alone, ``alone(block)`` giving each one's instance.

    They are summed in order of first column, up to the first block with no
    minimum.  ``naive.check_optimum`` has checked that a cap one below
    raises at the sum.
    """
    total = 0
    for block in blocks:
        part = solve(alone(block), budget)
        total += part.states_visited
        if part.minimum is None:
            break
    assert whole.states_visited == total


@st.composite
def layouts(draw, entries, infeasible=False):
    """``(n, rows, blocks, at)``: sparse rows over ``n`` columns, in random order, and the blocks they make.

    Two or three blocks of one or two columns each have a first row that
    joins all their columns, with entries from ``entries(True)``, and maybe
    one more row from ``entries(False)``.  One more column is in no row and
    one row has no column.  With ``infeasible``, the row ``2 z_at`` is a
    one-column block of its own at column ``at``, the first or the last.
    """
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    n = sum(sizes) + 1 + infeasible
    assume(n <= 5)
    spread = list(draw(st.permutations(range(n))))
    at = None
    rows, start = [()], 0
    if infeasible:
        at = draw(st.sampled_from((0, n - 1)))
        spread.remove(at)
        rows.append(((at, 2),))
    for m in sizes:
        cols = sorted(spread[start:start + m])
        start += m
        rows.append(tuple(zip(cols, draw(st.lists(entries(True), min_size=m, max_size=m)))))
        for extra in draw(st.lists(st.lists(entries(False), min_size=m, max_size=m), max_size=1)):
            rows.append(tuple((c, a) for c, a in zip(cols, extra) if a))
    rows = draw(st.permutations(rows))
    return n, rows, components(n, [[c for c, _ in row] for row in rows]), at


def local(block, row):
    """``row``'s pairs with each column numbered by its position in ``block``."""
    return tuple((block.index(c), a) for c, a in row)


def nonzero(joins):
    return st.integers(-2, 2).filter(bool) if joins else st.integers(-2, 2)


def check_sis(rows, targets, n, k, blocks):
    sis = SisInstance(num_cols=n, matrix=tuple(rows), target=tuple(targets), bound=1)

    def solve(instance, budget):
        return solve_sis_min(instance or sis, budget)

    costs = [(z, sum(map(abs, z)) if sis.multiply(z) == sis.target else None) for z in box(k, n)]
    res = check_optimum(lambda b: solve(None, b), SearchBudget(k), costs, n, 2 * k + 1)
    check_blocks(solve, SearchBudget(k), res, blocks, lambda block: SisInstance(
        num_cols=len(block), bound=1,
        matrix=tuple(local(block, row) for row in rows if row and row[0][0] in block),
        target=tuple(t for row, t in zip(rows, targets) if row and row[0][0] in block)))
    return res


@SETTINGS
@given(st.data(), st.integers(1, 2))
def test_sis_block_walks(data, k):
    # 2 z = 1 has no integer solution; the row with no column has target 0
    n, rows, blocks, at = data.draw(layouts(nonzero, infeasible=True))
    targets = [1 if row == ((at, 2),) else data.draw(st.integers(-2, 2)) if row else 0 for row in rows]
    assert check_sis(rows, targets, n, k, blocks).minimum is None


@SETTINGS
@given(st.data(), st.integers(1, 2))
def test_feasible_sis_block_walks(data, k):
    # every row sums to its target at the point of ones
    n, rows, blocks, _ = data.draw(layouts(nonzero))
    assert check_sis(rows, [sum(a for _, a in row) for row in rows], n, k, blocks).minimum is not None


@SETTINGS
@given(st.data(), st.sampled_from((2, 3, 5)), st.integers(1, 2), st.booleans())
def test_ncp_block_walks(data, q, k, full):
    # entries that join a block's columns are nonzero mod q; the others may vanish
    n, rows, _, _ = data.draw(layouts(lambda joins: st.integers(1, q - 1) if joins else st.integers(-q, q)))
    targets = [data.draw(st.integers(0, q - 1)) for _ in rows]
    weights = [data.draw(st.integers(1, 2)) for _ in rows]
    ncp = NcpInstance(modulus=q, num_cols=n, matrix=tuple(rows), target=tuple(targets), bound=1, replication=1,
                      multiplicity=tuple(weights))
    blocks = components(n, [[c for c, a in row if a % q] for row in rows])

    def solve(instance, budget):
        return solve_ncp_min(instance or ncp, budget, full_field=full)

    def alone(block):
        kept = [(tuple((block.index(c), a) for c, a in row if a % q), t, w)
                for row, t, w in zip(rows, targets, weights) if any(c in block for c, a in row if a % q)]
        return NcpInstance(modulus=q, num_cols=len(block), matrix=tuple(r for r, _, _ in kept),
                           target=tuple(t for _, t, _ in kept), bound=1, replication=1,
                           multiplicity=tuple(w for _, _, w in kept))

    values = range(q) if full else list(dict.fromkeys(v % q for v in range(-k, k + 1)))
    costs = [(z, ncp.distance(z)) for z in itertools.product(values, repeat=n)]
    res = check_optimum(lambda b: solve(None, b), SearchBudget(k), costs, n, len(values))
    check_blocks(solve, SearchBudget(k), res, blocks, alone)


@SETTINGS
@given(st.data())
def test_lhp_block_walks(data):
    n, rows, blocks, _ = data.draw(layouts(nonzero))
    inequalities = tuple(
        LhpInequality(coeff_x=row, coeff_y=data.draw(st.integers(-2, 2)), coeff_delta=data.draw(st.integers(-1, 1)),
                      sense=data.draw(st.sampled_from((GT, LT))), group="G2",
                      multiplicity=data.draw(st.integers(1, 2)))
        for row in rows
    )
    lhp = LhpSystem(num_x=n, u_param=1, inequalities=inequalities)

    def solve(instance, budget):
        return solve_lhp_min(instance or lhp, budget)

    def alone(block):
        return LhpSystem(num_x=len(block), u_param=1, inequalities=tuple(
            LhpInequality(coeff_x=local(block, i.coeff_x), coeff_y=i.coeff_y, coeff_delta=i.coeff_delta,
                          sense=i.sense, group=i.group, multiplicity=i.multiplicity)
            for i in inequalities if i.coeff_x and i.coeff_x[0][0] in block))

    violations = lhp_violations(inequalities)
    res = check_optimum(lambda b: solve(None, b), SearchBudget(), [(xs, violations(xs)) for xs in box(1, n)], n, 3,
                        LhpAssignment.of)
    check_blocks(solve, SearchBudget(), res, blocks, alone)


# two tests over one variable that no consistent point leaves nontrivial: x = 0 in one, x = 1 in the other
INFEASIBLE = (SsatTest(("x",), ((0,),)), SsatTest(("x",), ((1,),)))


@st.composite
def covers(draw):
    """The tests of one small planted cover."""
    spec = GenSpec(draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2)), 2, 2, 1, planted=True,
                   seed=draw(st.integers(0, 10 ** 6)))
    try:
        ssat = lc_to_ssat(gen_label_cover(spec))
    except (InfeasibleSpec, EmptyRange, MalformedInstance):  # MalformedInstance: an A-vertex with no edge
        assume(False)
    return ssat.tests


@SETTINGS
@given(st.data(), st.lists(covers(), min_size=2, max_size=3), st.sampled_from((None, "first", "last")))
def test_ssat_l1_block_walks(data, parts, infeasible):
    # the covers' tests, interleaved in a random order; the infeasible block's tests come first or last
    order = data.draw(st.permutations([b for b, tests in enumerate(parts) for _ in tests]))
    queues = [[SsatTest(tuple(f"{b}.{x}" for x in t.variables), t.assignments) for t in tests]
              for b, tests in enumerate(parts)]
    tests = [queues[b].pop(0) for b in order]
    if infeasible:
        tests = [*INFEASIBLE, *tests] if infeasible == "first" else [*tests, *INFEASIBLE]
    n = sum(len(t.assignments) for t in tests)
    assume(n <= 6)
    variables = tuple(dict.fromkeys(x for t in tests for x in t.variables))
    ssat = SsatInstance(variables=variables, field_values=(0, 1), tests=tuple(tests))
    budget = SearchBudget(1, mode="l1")

    def solve(instance, b):
        return solve_ssat_min_norm(instance or ssat, b)

    def alone(block):
        part = [tests[i] for i in block]
        return SsatInstance(variables=tuple(dict.fromkeys(x for t in part for x in t.variables)), field_values=(0, 1),
                            tests=tuple(part))

    points = [(flat, reference["l1"]) for flat, _, _, reference in ssat_box(ssat, 1)]
    res = check_optimum(lambda b: solve(None, b), budget, points, n, 3, lambda f: superassignment(ssat, f))
    assert (res.minimum is None) == bool(infeasible)
    blocks = components(len(tests), [[i for i, t in enumerate(tests) if x in t.variables] for x in variables])
    check_blocks(solve, budget, res, blocks, alone)
