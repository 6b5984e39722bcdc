"""The constructive reductions and the solution embedding/extraction maps.

Four instance transformations: label cover to SSAT, SSAT to SIS, and SIS to
both NCP and LHP.  Each one comes with maps carrying solutions forward
(completeness direction) and pulling low-cost solutions back (soundness
direction, as exact inverses on their images).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import (
    BadParameters,
    EmptyRange,
    Infeasible,
    LengthMismatch,
    VariableNotShared,
)
from .instances import (
    EPSILON,
    GT,
    LT,
    Label,
    LabelCoverInstance,
    LcProvenance,
    LhpAssignment,
    LhpInequality,
    LhpSystem,
    NcpInstance,
    Record,
    SisInstance,
    SsatInstance,
    SsatTest,
    Vertex,
    _is_prime,
    preimage,
)
from .superassign import SuperAssignment


# ---------------------------------------------------------------------------
# Label cover -> SSAT
# ---------------------------------------------------------------------------

def lc_to_ssat(lc: LabelCoverInstance) -> SsatInstance:
    """One variable per A-vertex, one test per B-vertex.

    A test's satisfying assignments are, for each B-label in alphabet order,
    the cross product of the per-neighbor preimages of that label; labels with
    an empty preimage at some neighbor contribute nothing.  A test with no
    assignment at all is unsatisfiable and surfaced as an error rather than
    silently dropped.
    """
    tests: list[SsatTest] = []
    for b in lc.b_vertices:
        edges = lc.edges_of_b[b]
        variables = tuple(e[0] for e in edges)
        assignments: list[tuple[Label, ...]] = []
        for y in lc.sigma_b:
            axes = [preimage(lc, e, y) for e in edges]
            if any(not axis for axis in axes):
                continue
            assignments.extend(itertools.product(*axes))
        if not assignments:
            raise EmptyRange(b)
        tests.append(SsatTest(variables=variables, assignments=tuple(assignments)))
    return SsatInstance(
        variables=tuple(lc.a_vertices),
        field_values=tuple(lc.sigma_a),
        tests=tuple(tests),
        provenance=LcProvenance(lc=lc, var_to_a=tuple(lc.a_vertices), test_to_b=tuple(lc.b_vertices)),
    )


# ---------------------------------------------------------------------------
# SSAT -> SIS
# ---------------------------------------------------------------------------

class GadgetPair(Record):
    """Characteristic / complemented-characteristic column matrices.

    ``g1`` has one column per assignment of the first test with a single 1 at
    the row of the assignment's value for the shared variable; ``g2`` has the
    complementary pattern for the second test.  Matching-value column pairs
    sum to the all-ones vector.
    """

    g1: tuple[tuple[int, ...], ...]
    g2: tuple[tuple[int, ...], ...]


def gadget_pair(ssat: SsatInstance, psi_i: int, psi_j: int, x: Vertex) -> GadgetPair:
    try:
        by_value_i, by_value_j = ssat.projection_indices[psi_i, x], ssat.projection_indices[psi_j, x]
    except KeyError:
        raise VariableNotShared(f"{x!r} is not shared by tests {psi_i} and {psi_j}") from None
    g1 = tuple(_indicator(len(ssat.tests[psi_i].assignments), rs, 1) for rs in by_value_i)
    g2 = tuple(_indicator(len(ssat.tests[psi_j].assignments), rs, 0) for rs in by_value_j)
    return GadgetPair(g1=g1, g2=g2)


def _indicator(n: int, indices: Iterable[int], hit: int) -> tuple[int, ...]:
    """``hit`` at ``indices`` and ``1 - hit`` elsewhere, over ``n`` entries."""
    row = [1 - hit] * n
    for r in indices:
        row[r] = hit
    return tuple(row)


def ssat_to_sis(ssat: SsatInstance) -> SisInstance:
    """Non-triviality rows plus consistency gadget rows, all-ones target.

    Columns are (test, assignment) pairs in instance order.  Each test
    contributes one row forcing its coefficient sum to 1; each unordered test
    pair i < j sharing a variable x contributes one gadget row per field
    value a, over test i's columns where x = a and test j's columns where
    x != a (the nonzero entries of ``gadget_pair``).  The norm budget is the
    number of tests.
    """
    off = ssat.offsets
    rows = [tuple((c, 1) for c in range(lo, hi)) for lo, hi in zip(off, off[1:])]
    for i, j, x in ssat.shared_pairs:
        for hit_i, hit_j in zip(ssat.projection_indices[i, x], ssat.projection_indices[j, x]):
            cols = [off[i] + r for r in hit_i] + [off[j] + r for r in range(off[j + 1] - off[j]) if r not in hit_j]
            rows.append(tuple((c, 1) for c in cols))
    return SisInstance(num_cols=off[-1], matrix=tuple(rows), target=(1,) * len(rows), bound=len(ssat.tests))


def sis_solution_from_superassignment(ssat: SsatInstance, s: SuperAssignment) -> tuple[int, ...]:
    """Concatenate the weight vectors in column order."""
    s.validate_for(ssat)
    return tuple(w for row in s.weights for w in row)


def superassignment_from_sis_solution(ssat: SsatInstance, z) -> SuperAssignment:
    """Break a coefficient vector into per-test pieces; inverse of the embedding."""
    zs = tuple(z)
    off = ssat.offsets
    if len(zs) != off[-1]:
        raise LengthMismatch(f"expected a vector of length {off[-1]}, got {len(zs)}")
    return SuperAssignment(tuple(zs[lo:hi] for lo, hi in zip(off, off[1:])))


# ---------------------------------------------------------------------------
# SIS -> NCP
# ---------------------------------------------------------------------------

def _smallest_prime_above(n: int) -> int:
    candidate = max(2, n + 1)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def sis_to_ncp(
    sis: SisInstance,
    g: int,
    d_rep: Optional[int] = None,
    q: Optional[int] = None,
) -> NcpInstance:
    """Weight every SIS row, reduced mod q, and append an identity block.

    Each equation row carries multiplicity ``d_rep`` (strictly more than g
    times the SIS budget, so a single broken equation already costs more than
    any in-budget solution) and the identity block, multiplicity 1, charges
    the Hamming weight of the coefficient vector itself.  The prime modulus
    must exceed g times the larger matrix dimension so that in-range
    arithmetic never wraps.
    """
    if g < 1:
        raise BadParameters("g must be at least 1")
    n_rows, m_cols = sis.num_rows, sis.num_cols
    if d_rep is None:
        d_rep = g * sis.bound + 1
    elif d_rep <= g * sis.bound:
        raise BadParameters(f"d_rep must exceed g*bound = {g * sis.bound}")
    if q is None:
        q = _smallest_prime_above(g * max(n_rows, m_cols))
    elif not _is_prime(q) or q <= g * max(n_rows, m_cols):
        raise BadParameters(f"q must be a prime above g*max(rows, cols) = {g * max(n_rows, m_cols)}")

    residues = tuple(tuple((c, a % q) for c, a in row if a % q) for row in sis.matrix)
    return NcpInstance(
        modulus=q,
        num_cols=m_cols,
        matrix=residues + tuple(((c, 1),) for c in range(m_cols)),
        target=tuple(t % q for t in sis.target) + (0,) * m_cols,
        bound=sis.bound,
        replication=d_rep,
        multiplicity=(d_rep,) * n_rows + (1,) * m_cols,
    )


# ---------------------------------------------------------------------------
# SIS -> LHP
# ---------------------------------------------------------------------------

def sis_to_lhp(sis: SisInstance, u_param: Optional[int] = None, g: int = 1) -> LhpSystem:
    """Homogenize the SIS equations into strict inequalities over (x, y, delta).

    Group layout (each member once, with multiplicity U unless noted):

    * G1 squeezes delta into (-y/U, y/U).
    * G2 turns every equation ``sum a_i x_i = c`` into the pair
      ``sum a_i x_i - c y + delta > 0`` and ``sum a_i x_i - c y - delta < 0``.
    * G3 boxes every variable into (-2y, 2y).
    * G4 charges one violation per nonzero variable (multiplicity 1).
    * G5 keeps y positive.
    """
    if g < 1:
        raise BadParameters("g must be at least 1")
    if u_param is not None and u_param < 1:
        raise BadParameters("u_param must be at least 1")
    u = u_param if u_param is not None else g * sis.bound + 1
    m = sis.num_cols
    ineqs: list[LhpInequality] = []
    fractions: dict[Union[int, Fraction], Fraction] = {}  # one shared Fraction per distinct coefficient

    def frac(c):
        f = fractions.get(c)
        if f is None:
            f = fractions[c] = Fraction(c)
        return f

    def emit(copies, coeff_x, coeff_y, coeff_delta, sense, group, tag):
        ineqs.append(LhpInequality(
            coeff_x=tuple([(i, frac(c)) for i, c in coeff_x]),
            coeff_y=frac(coeff_y),
            coeff_delta=frac(coeff_delta),
            sense=sense,
            group=group,
            copies_of=tag,
            multiplicity=copies,
        ))

    emit(u, (), Fraction(1, u), 1, GT, "G1", "g1_lower")
    emit(u, (), Fraction(-1, u), 1, LT, "G1", "g1_upper")
    for row_idx, (row, c) in enumerate(zip(sis.matrix, sis.target)):
        emit(u, row, -c, 1, GT, "G2", f"g2_row{row_idx}_plus")
        emit(u, row, -c, -1, LT, "G2", f"g2_row{row_idx}_minus")
    for i in range(m):
        emit(u, ((i, 1),), -2, 0, LT, "G3", f"g3_x{i}_upper")
        emit(u, ((i, 1),), 2, 0, GT, "G3", f"g3_x{i}_lower")
    for i in range(m):
        emit(1, ((i, 1),), 0, 1, GT, "G4", f"g4_x{i}_plus")
        emit(1, ((i, 1),), 0, -1, LT, "G4", f"g4_x{i}_minus")
    emit(u, (), 1, 0, GT, "G5", "g5_y_positive")

    return LhpSystem(num_x=m, u_param=u, inequalities=tuple(ineqs))


def lhp_assignment_from_sis_solution(z) -> LhpAssignment:
    """x = z, y = 1, delta = the symbolic infinitesimal."""
    return LhpAssignment.of(list(z), y=1, delta=EPSILON)


def sis_solution_from_lhp_assignment(lhp: LhpSystem, a: LhpAssignment) -> tuple[int, ...]:
    """Divide the x-values by y after checking the G1-G3 prerequisites.

    G1 forces y > 0, G3 keeps every quotient inside (-2, 2) and G2 squeezes
    each equation to exactness (automatic under the symbolic delta; enforced
    explicitly for explicit-delta assignments, which can otherwise sit a
    nonzero slack away from the equation).  Quotients must come out integral.
    """
    if len(a.x_values) != lhp.num_x:
        raise LengthMismatch(f"assignment has {len(a.x_values)} x-values, system has {lhp.num_x}")
    # structural prerequisites (delta window, variable box) are reported
    # before equation rows
    for group in ("G1", "G3", "G2"):
        for idx, ineq in enumerate(lhp.inequalities):
            if ineq.group == group and not ineq.satisfied_by(a):
                raise Infeasible(group, idx, ineq.copies_of)
    y = a.y_value
    quotients = [x / y for x in a.x_values]
    for idx, ineq in enumerate(lhp.inequalities):
        if ineq.group != "G2":
            continue
        residue = sum((c * quotients[i] for i, c in ineq.coeff_x), Fraction(0)) + ineq.coeff_y
        if residue != 0:
            raise Infeasible("g2_exactness", idx, ineq.copies_of)
    for i, value in enumerate(quotients):
        if value.denominator != 1:
            raise Infeasible("integrality", i, f"x_{i}/y = {value}")
    return tuple(int(v) for v in quotients)
