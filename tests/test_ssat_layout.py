"""The flat column layout of ``SsatInstance`` against naive references.

``offsets``, ``projection_indices`` and ``shared_pairs`` are built once per
instance and read by the SIS reduction, the compiled SSAT rows and the
super-assignment algebra.  On the seeded chains of ``naive.chains``
each table is compared with a plain scan of the tests, and the rows that
``ssat_to_sis`` writes down with rows built by a plain scan and with the
columns that ``gadget_pair`` marks.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st
from naive import chains, gadget_rows_by_scan

from gapforge.reductions import gadget_pair, sis_solution_from_superassignment, superassignment_from_sis_solution
from gapforge.superassign import is_consistent, project


def naive_first_violation(ssat, s):
    """The first (i, j, x, a) with unequal projections, scanning pairs, then variables, then values."""
    n = len(ssat.tests)
    for i in range(n):
        for j in range(i + 1, n):
            for x in ssat.variables:
                if x in ssat.tests[i].variables and x in ssat.tests[j].variables:
                    for a in ssat.field_values:
                        if project(ssat, s, i, x).get(a, 0) != project(ssat, s, j, x).get(a, 0):
                            return (i, j, x, a)
    return None


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains(), st.data())
def test_layout_tables_match_naive_scans(chain, data):
    _, ssat, sis, _ = chain
    tests = ssat.tests

    assert ssat.shared_pairs == tuple(
        (i, j, x)
        for i in range(len(tests))
        for j in range(i + 1, len(tests))
        for x in ssat.variables
        if x in tests[i].variables and x in tests[j].variables
    )
    assert sis.matrix[len(tests):] == gadget_rows_by_scan(ssat)
    assert sis.matrix[:len(tests)] == tuple(
        tuple((c, 1) for c in range(ssat.offsets[t], ssat.offsets[t + 1])) for t in range(len(tests))
    )

    assert set(ssat.projection_indices) == {(t, x) for t, test in enumerate(tests) for x in test.variables}
    for (t, x), by_value in ssat.projection_indices.items():
        pos = tests[t].variables.index(x)
        assert by_value == tuple(
            tuple(r for r, assignment in enumerate(tests[t].assignments) if assignment[pos] == a)
            for a in ssat.field_values
        )

    assert ssat.offsets == tuple(sum(len(t.assignments) for t in tests[:k]) for k in range(len(tests) + 1))
    assert ssat.offsets[-1] == sis.num_cols

    z = tuple(data.draw(st.lists(st.integers(-1, 1), min_size=sis.num_cols, max_size=sis.num_cols)))
    s = superassignment_from_sis_solution(ssat, z)
    assert sis_solution_from_superassignment(ssat, s) == z
    assert superassignment_from_sis_solution(ssat, sis_solution_from_superassignment(ssat, s)) == s
    assert is_consistent(ssat, s).witness == naive_first_violation(ssat, s)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(chains())
def test_sis_gadget_rows_are_the_columns_gadget_pair_marks(chain):
    # row (i, j, x, f): test i's columns where g1[f] is 1, then test j's columns where g2[f] is 1
    _, ssat, sis, _ = chain
    off = ssat.offsets
    rows = []
    for i, j, x in ssat.shared_pairs:
        pair = gadget_pair(ssat, i, j, x)
        assert len(pair.g1) == len(pair.g2) == len(ssat.field_values)
        for g1, g2 in zip(pair.g1, pair.g2):
            cols = [off[i] + r for r, bit in enumerate(g1) if bit] + [off[j] + r for r, bit in enumerate(g2) if bit]
            rows.append(tuple((c, 1) for c in cols))
    assert sis.matrix[len(ssat.tests):] == tuple(rows)
