"""Rows and inequalities stored once with a multiplicity, against their copies.

The reference expands every NCP row and LHP inequality into the copies that
format version 1 stored one by one (each SIS row ``d_rep`` times, each LHP
member ``U`` times, G4 once), writes the NCP copies dense, and evaluates the
copies one at a time, each LHP copy through ``naive.lhp_violations``.  The
property compares distances, violation counts, group counts, the plain-text
NCP layout and the file round trip on small seeded label covers, planted and
frustrated.  On the LHP grid, ``count_lhp_violations`` is also the cost of
each point followed as a hint down the walk of ``solve_lhp_min``.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st
from naive import box, chains, dense, expand, hint_cost, lhp_violations, replace

from gapforge.instances import EPSILON, LHP_GROUPS, LhpAssignment
from gapforge.oracles import count_lhp_violations, solve_lhp_min
from gapforge.reductions import sis_to_lhp, sis_to_ncp
from gapforge.serialize import canonical_bytes, from_document, ncp_to_text, to_document


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
# the expanded LHP reference evaluates every copy at 2 * 3^columns points
@given(chains(max_columns=4), st.integers(1, 2), st.sampled_from((None, 1, 2)))
def test_multiplicity_matches_expanded_reference(chain, g, u):
    _, _, sis, k = chain
    m = sis.num_cols

    # NCP: the copies are the version-1 layout, SIS rows then the identity
    ncp = sis_to_ncp(sis, g=g)
    q, d = ncp.modulus, ncp.replication
    identity = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rows = [tuple(c % q for c in dense(row, m)) for row in sis.matrix for _ in range(d)] + identity
    target = [t % q for t in sis.target for _ in range(d)] + [0] * m
    assert [dense(row, m) for row in expand(ncp.matrix, ncp.multiplicity)] == rows
    assert expand(ncp.target, ncp.multiplicity) == target
    assert ncp.num_rows == len(rows)
    text = [f"{len(rows)} {m} {q} {ncp.bound}", *(" ".join(map(str, r)) for r in rows), " ".join(map(str, target))]
    assert ncp_to_text(ncp) == "\n".join(text) + "\n"
    for z in box(k, m):
        naive = sum(1 for row, t in zip(rows, target) if sum(c * v for c, v in zip(row, z)) % q != t)
        assert ncp.distance(z) == naive

    # LHP: one record per member, U copies of every group but G4
    lhp = sis_to_lhp(sis, u_param=u, g=g)
    big_u = lhp.u_param
    copies = [replace(c, multiplicity=1)
              for c in expand(lhp.inequalities, [ineq.multiplicity for ineq in lhp.inequalities])]
    per_copy = {grp: sum(1 for c in copies if c.group == grp) for grp in LHP_GROUPS}
    v1_counts = {"G1": 2 * big_u, "G2": 2 * big_u * sis.num_rows, "G3": 2 * big_u * m, "G4": 2 * m, "G5": big_u}
    assert lhp.group_counts() == per_copy == v1_counts
    assert lhp.num_inequalities == len(copies)
    walk = hint_cost(lambda: solve_lhp_min(lhp))
    y_delta = ((1, EPSILON), (0, Fraction(1, 10)))
    references = [lhp_violations(copies, y=y, delta=delta) for y, delta in y_delta]
    for xs in box(1, m):
        counts = [count_lhp_violations(lhp, LhpAssignment.of(xs, y=y, delta=delta)) for y, delta in y_delta]
        assert counts == [violations(xs) for violations in references]
        assert walk(xs) == counts[0]  # the walk's grid: y = 1 and delta infinitesimal

    for inst in (ncp, lhp):
        doc = to_document(inst)
        assert from_document(doc) == inst
        assert canonical_bytes(from_document(doc)) == canonical_bytes(inst)
