"""The compiled oracle rows against the instance-level reference semantics.

Each solver compiles its instance once into integer rows; the per-point
costs they compute must agree with ``is_consistent`` / ``is_nontrivial`` /
the norms, ``NcpInstance.distance`` and ``count_lhp_violations`` on every
point of small boxes of the same seeded chains the search differential uses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st
from test_search_differential import chains

from gapforge.instances import EPSILON, LhpAssignment, NcpInstance
from gapforge.oracles import (
    _compile_lhp,
    _compile_ncp,
    _compile_ssat,
    _lhp_point,
    count_lhp_violations,
    enumerate_consistent_superassignments,
    enumerate_superassignments,
    solve_lhp_min,
)
from gapforge.reductions import sis_to_lhp, sis_to_ncp
from gapforge.superassign import is_consistent, is_nontrivial, is_not_all_zero, norm_l1, norm_linf

SETTINGS = settings(max_examples=12, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

# fractional x, y other than 1, and numeric deltas, including the G1 boundary y/U
X_VALUES = (Fraction(-3, 2), Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
Y_VALUES = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2))
DELTAS = (EPSILON, Fraction(0), Fraction(1, 7), Fraction(-1, 5), Fraction(1))


@SETTINGS
@given(chains())
def test_compiled_ssat_matches_reference(chain):
    _, ssat, _, k = chain
    rows = _compile_ssat(ssat)
    for flat in itertools.product(range(-k, k + 1), repeat=sum(len(t.assignments) for t in ssat.tests)):
        s = rows.superassignment(flat)
        assert rows.consistent(flat) == bool(is_consistent(ssat, s))
        assert rows.nontrivial(flat) == is_nontrivial(ssat, s)
        assert any(flat) == is_not_all_zero(s)
        assert Fraction(rows.norm_l1(flat), len(ssat.tests)) == norm_l1(s)
        assert rows.norm_linf(flat) == norm_linf(s)
    consistent = [s for s in enumerate_superassignments(ssat, k) if is_consistent(ssat, s)]
    assert list(enumerate_consistent_superassignments(ssat, k)) == consistent


@SETTINGS
@given(chains())
def test_compiled_ncp_matches_reference(chain):
    _, _, sis, k = chain
    ncp = sis_to_ncp(sis, g=1)
    q = ncp.modulus
    # the same rows written with unreduced entries: negative, q for zero, and shifted targets
    raw = NcpInstance(
        modulus=q,
        matrix=tuple(tuple(c - q if c else q for c in row) for row in ncp.matrix),
        target=tuple(t - 3 * q for t in ncp.target),
        bound=ncp.bound,
        replication=ncp.replication,
        multiplicity=ncp.multiplicity,
    )
    residues = sorted({v % q for v in range(-k, k + 1)})
    for inst in (ncp, raw):
        rows = _compile_ncp(inst)
        for z in itertools.product(residues, repeat=inst.num_cols):
            assert rows.distance(z) == inst.distance(z)


@SETTINGS
@given(chains(), st.data())
def test_compiled_lhp_matches_reference(chain, data):
    _, _, sis, _ = chain
    lhp = sis_to_lhp(sis, g=1)
    rows = _compile_lhp(lhp)
    for xs in itertools.product((-1, 0, 1), repeat=lhp.num_x):
        assert rows.violations((xs, 1, None)) == count_lhp_violations(lhp, LhpAssignment.of(xs))

    # every (y, delta) pair, each with drawn x-values; y = 0 under the
    # infinitesimal leaves ties that only the delta coefficient breaks
    boundary = Fraction(1, lhp.u_param)
    pairs = list(itertools.product(Y_VALUES, DELTAS + (boundary, -boundary)))
    n = lhp.num_x
    flat = data.draw(st.lists(st.sampled_from(X_VALUES), min_size=n * len(pairs), max_size=n * len(pairs)))
    grid = [LhpAssignment.of(flat[i * n:(i + 1) * n], y, delta) for i, (y, delta) in enumerate(pairs)]
    counts = [count_lhp_violations(lhp, a) for a in grid]
    assert [rows.violations(_lhp_point(a)) for a in grid] == counts
    res = solve_lhp_min(lhp, grid)
    best = min(counts)
    assert (res.min_violations, res.witness, res.states_visited) == (best, grid[counts.index(best)], len(grid))
