"""The compiled oracle rows against the instance-level reference semantics.

Each solver compiles its instance once into integer rows; the per-point
costs they compute must agree with ``is_consistent`` / ``is_nontrivial`` /
the norms, ``NcpInstance.distance`` and ``count_lhp_violations`` on every
point of small boxes of the same seeded chains the search differential uses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from test_search_differential import chains

from gapforge.instances import LhpAssignment, NcpInstance
from gapforge.oracles import (
    _compile_lhp,
    _compile_ncp,
    _compile_ssat,
    count_lhp_violations,
    enumerate_consistent_superassignments,
    enumerate_superassignments,
)
from gapforge.reductions import sis_to_lhp, sis_to_ncp
from gapforge.superassign import is_consistent, is_nontrivial, is_not_all_zero, norm_l1, norm_linf

SETTINGS = settings(max_examples=12, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


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
@given(chains())
def test_compiled_lhp_matches_reference(chain):
    _, _, sis, _ = chain
    lhp = sis_to_lhp(sis, g=1)
    rows = _compile_lhp(lhp)
    for xs in itertools.product((-1, 0, 1), repeat=lhp.num_x):
        assert rows.violations(xs) == count_lhp_violations(lhp, LhpAssignment.of(xs))
