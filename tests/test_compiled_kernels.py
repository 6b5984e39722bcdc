"""The row tables of the walked oracles against the instance-level reference semantics.

Each walked solver compiles its instance once into integer rows.  On every
point of small boxes of the same seeded chains the search differential uses:

* a point passes the per-coordinate bounds of the equality rows exactly when
  it solves them (``is_consistent`` for SSAT, ``SisInstance.multiply`` for SIS);
* the SSAT coverage sets agree with ``is_nontrivial``;
* the NCP and LHP rows, charged at the root and then coordinate by
  coordinate, add up to ``NcpInstance.distance`` and ``count_lhp_violations``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st
from test_search_differential import chains
from test_sparse_rows import dense

from gapforge.instances import GT, LT, LhpAssignment, LhpInequality, LhpSystem, NcpInstance, SisInstance
from gapforge.oracles import (
    _compile_lhp,
    _compile_ncp,
    _compile_sis,
    _compile_ssat,
    count_lhp_violations,
    enumerate_consistent_superassignments,
)
from gapforge.reductions import sis_to_lhp, sis_to_ncp, superassignment_from_sis_solution
from gapforge.superassign import is_consistent, is_nontrivial

SETTINGS = settings(max_examples=12, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def within_bounds(rows, point):
    """The rows with no entry hold, and every coordinate lies in the values its bounds allow after its prefix."""
    prefix = list(point)
    return rows.feasible and all(v in rows.values(d, prefix) for d, v in enumerate(point))


def charged(rows, point):
    """The cost the walk reaches at the leaf ``point``."""
    cost = rows.root
    for d in range(len(point)):
        cost = rows.step(d, list(point), cost)
    return cost


@SETTINGS
@given(chains())
def test_compiled_ssat_matches_reference(chain):
    _, ssat, _, k = chain
    rows = _compile_ssat(ssat)
    equalities = rows.equalities(k)
    consistent = []
    for flat in itertools.product(range(-k, k + 1), repeat=rows.num_cols):
        s = superassignment_from_sis_solution(ssat, flat)
        assert within_bounds(equalities, flat) == bool(is_consistent(ssat, s))
        assert rows.nontrivial(flat) == is_nontrivial(ssat, s)
        if is_consistent(ssat, s):
            consistent.append(s)
    assert enumerate_consistent_superassignments(ssat, k) == consistent


@SETTINGS
@given(chains())
def test_compiled_ncp_matches_reference(chain):
    _, _, sis, k = chain
    ncp = sis_to_ncp(sis, g=1)
    q = ncp.modulus
    # the same rows written with unreduced entries: negative, q for zero, and shifted targets
    raw = NcpInstance(
        modulus=q,
        num_cols=ncp.num_cols,
        matrix=tuple(
            tuple((c, a - q if a else q) for c, a in enumerate(dense(row, ncp.num_cols))) for row in ncp.matrix
        ),
        target=tuple(t - 3 * q for t in ncp.target),
        bound=ncp.bound,
        replication=ncp.replication,
        multiplicity=ncp.multiplicity,
    )
    residues = sorted({v % q for v in range(-k, k + 1)})
    for inst in (ncp, raw):
        rows = _compile_ncp(inst)
        for z in itertools.product(residues, repeat=inst.num_cols):
            assert charged(rows, z) == inst.distance(z)


@SETTINGS
@given(chains(max_columns=4))  # the reference evaluates every inequality at 3^columns points
def test_compiled_lhp_matches_reference(chain):
    _, _, sis, _ = chain
    lhp = sis_to_lhp(sis, g=1)
    rows = _compile_lhp(lhp)
    for xs in itertools.product((-1, 0, 1), repeat=lhp.num_x):
        assert charged(rows, xs) == count_lhp_violations(lhp, LhpAssignment.of(xs))


@SETTINGS
@given(chains())
def test_compiled_sis_matches_reference(chain):
    _, _, sis, k = chain
    rows = _compile_sis(sis, k)
    for z in itertools.product(range(-k, k + 1), repeat=sis.num_cols):
        assert within_bounds(rows, z) == (sis.multiply(z) == sis.target)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2),
       st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(-5, 5)),
                min_size=1, max_size=3))
def test_equality_bounds_on_any_integer_rows(m, k, rows):
    """Entries beyond +-1, negative entries, all-zero rows and unreachable targets."""
    matrix = tuple(tuple((c, a) for c, a in enumerate(r[:m]) if a) for r, _ in rows)
    sis = SisInstance(num_cols=m, matrix=matrix, target=tuple(t for _, t in rows), bound=1)
    compiled = _compile_sis(sis, k)
    for z in itertools.product(range(-k, k + 1), repeat=m):
        assert within_bounds(compiled, z) == (sis.multiply(z) == sis.target)


def test_rows_with_no_column_and_zero_standard_parts():
    """Rows charged at the root, and LHP rows decided by their delta coefficient."""
    # dense: (0, 0), (1, 2), (5, 0)
    ncp = NcpInstance(modulus=5, num_cols=2, matrix=((), ((0, 1), (1, 2)), ((0, 5),)), target=(3, 1, 0), bound=1,
                      replication=1, multiplicity=(2, 1, 4))
    rows = _compile_ncp(ncp)
    assert rows.root == 2
    for z in itertools.product(range(5), repeat=2):
        assert charged(rows, z) == ncp.distance(z)

    def ineq(coeff_x, cy, cd, sense, k=1):
        return LhpInequality(coeff_x=tuple((i, Fraction(c)) for i, c in coeff_x), coeff_y=Fraction(cy),
                             coeff_delta=Fraction(cd), sense=sense, group="G2", copies_of="", multiplicity=k)

    lhp = LhpSystem(num_x=2, u_param=1, inequalities=(
        ineq((), -1, 0, GT, k=3),                 # -y > 0: violated at y = 1
        ineq((), 1, 0, GT),                       # y > 0: holds
        ineq(((0, 1),), -1, 0, GT),               # x0 - y > 0: zero standard part at x0 = 1, violated
        ineq(((0, 1), (1, 1)), 0, -1, LT),        # x0 + x1 - delta < 0: holds at x0 + x1 = 0
        ineq(((1, Fraction(1, 2)),), 0, 2, LT),   # x1 / 2 + 2 delta < 0: violated at x1 = 0
    ))
    rows = _compile_lhp(lhp)
    assert rows.root == 3
    for xs in itertools.product((-1, 0, 1), repeat=2):
        assert charged(rows, xs) == count_lhp_violations(lhp, LhpAssignment.of(xs))
