"""Super-assignment algebra: projections, consistency, norms and the array view.

A super-assignment attaches an integer weight vector to every test, indexed by
that test's satisfying assignments.  Projections collapse a test's weights onto
one variable; two tests are consistent when their projections agree on every
shared variable.  The array decomposition splits a label-cover derived test
into non-interfering blocks, one per B-side label, which is what the
good/bad-coordinate analysis operates on.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import (
    ClassificationImpossible,
    EdgeUnsatisfied,
    InconsistentInput,
    MalformedInstance,
    NotLcDerived,
    VariableNotInTest,
)
from .instances import Label, Labeling, Record, SsatInstance, Vertex, preimage


class SuperAssignment(Record):
    """One integer weight per (test, satisfying assignment) pair."""

    weights: tuple[tuple[int, ...], ...]

    @classmethod
    def zeros(cls, ssat: SsatInstance) -> "SuperAssignment":
        return cls(tuple(tuple(0 for _ in t.assignments) for t in ssat.tests))

    @classmethod
    def from_rows(cls, rows) -> "SuperAssignment":
        return cls(tuple(tuple(int(w) for w in row) for row in rows))

    def validate_for(self, ssat: SsatInstance) -> None:
        if len(self.weights) != len(ssat.tests):
            raise MalformedInstance("super-assignment covers the wrong number of tests")
        for idx, (row, test) in enumerate(zip(self.weights, ssat.tests)):
            if len(row) != len(test.assignments):
                raise MalformedInstance(f"weight vector of test {idx} has the wrong length")

    def add(self, other: "SuperAssignment") -> "SuperAssignment":
        if len(self.weights) != len(other.weights):
            raise MalformedInstance("cannot add super-assignments over different instances")
        return SuperAssignment(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.weights, other.weights)
            )
        )


def project(ssat: SsatInstance, s: SuperAssignment, psi: int, x: Vertex) -> dict[Label, int]:
    """Project a test's weight vector onto one of its variables: its nonzero totals by value, in field order."""
    s.validate_for(ssat)
    by_value = ssat.projection_indices.get((psi, x))
    if by_value is None:
        raise VariableNotInTest(f"{x!r} not in test {psi}")
    weights = s.weights[psi]
    totals = ((a, sum(weights[r] for r in rs)) for a, rs in zip(ssat.field_values, by_value))
    return {a: w for a, w in totals if w}


class ConsistencyResult(Record):
    consistent: bool
    witness: Optional[tuple[int, int, Vertex, Label]] = None

    def __bool__(self) -> bool:
        return self.consistent


def is_consistent(ssat: SsatInstance, s: SuperAssignment) -> ConsistencyResult:
    """Check equal projections on every shared variable of every test pair.

    On failure the witness is the first violation in (pair, variable, value)
    order: test pairs by ascending indices, variables by instance order,
    values by field order.
    """
    s.validate_for(ssat)
    for i, j, x in ssat.shared_pairs:
        w_i, w_j = s.weights[i], s.weights[j]
        by_value = zip(ssat.field_values, ssat.projection_indices[i, x], ssat.projection_indices[j, x])
        for a, rs_i, rs_j in by_value:
            if sum(w_i[r] for r in rs_i) != sum(w_j[r] for r in rs_j):
                return ConsistencyResult(False, (i, j, x, a))
    return ConsistencyResult(True)


def is_nontrivial(ssat: SsatInstance, s: SuperAssignment) -> bool:
    """True when every variable has an incident test with a nonzero projection."""
    s.validate_for(ssat)
    for x in ssat.variables:
        if not any(project(ssat, s, t, x) for t in ssat.tests_of_variable[x]):
            return False
    return True


def is_not_all_zero(s: SuperAssignment) -> bool:
    return any(any(w != 0 for w in row) for row in s.weights)


def test_norm(s: SuperAssignment, psi: int) -> int:
    return sum(abs(w) for w in s.weights[psi])


test_norm.__test__ = False  # looks like a pytest item otherwise


def norm_l1(s: SuperAssignment) -> Fraction:
    """Average of the per-test norms."""
    n = len(s.weights)
    if n == 0:
        return Fraction(0)
    return Fraction(sum(test_norm(s, i) for i in range(n)), n)


def norm_linf(s: SuperAssignment) -> int:
    """Maximum per-test norm."""
    return max((test_norm(s, i) for i in range(len(s.weights))), default=0)


def assigned_value_sets(ssat: SsatInstance, s: SuperAssignment) -> dict[Vertex, frozenset[Label]]:
    """Per-variable set of values with a nonzero projection in some incident test."""
    s.validate_for(ssat)
    out: dict[Vertex, frozenset[Label]] = {}
    for x in ssat.variables:
        values: set[Label] = set()
        for t in ssat.tests_of_variable[x]:
            values.update(project(ssat, s, t, x))
        out[x] = frozenset(values)
    return out


def natural_from_labeling(ssat: SsatInstance, lab: Labeling) -> SuperAssignment:
    """Unit super-assignment induced by an edge-satisfying labeling.

    For every test the tuple of A-labels of its variables must be one of the
    satisfying assignments; the first edge whose projection disagrees is
    reported otherwise.
    """
    if ssat.provenance is None:
        raise NotLcDerived("natural_from_labeling needs label-cover provenance")
    lc = ssat.provenance.lc
    lab.require_total(lc)
    rows: list[tuple[int, ...]] = []
    for t_idx, test in enumerate(ssat.tests):
        b = ssat.provenance.test_to_b[t_idx]
        edges = lc.edges_of_b[b]
        values = tuple(lab.phi_a[e[0]] for e in edges)
        projected = [lc.projections[e][lab.phi_a[e[0]]] for e in edges]
        expected = lab.phi_b[b] if lab.phi_b is not None else projected[0]
        for e, y in zip(edges, projected):
            if y != expected:
                raise EdgeUnsatisfied(e)
        try:
            r_idx = test.assignments.index(values)
        except ValueError:
            # unreachable for well-formed provenance: agreeing projections
            # place the tuple in R_y of the common label
            raise EdgeUnsatisfied(edges[0]) from None
        rows.append(tuple(1 if k == r_idx else 0 for k in range(len(test.assignments))))
    return SuperAssignment(tuple(rows))


# ---------------------------------------------------------------------------
# Array decomposition
# ---------------------------------------------------------------------------

class ArrayView(Record):
    """The block of a test's assignments sharing one B-side label.

    Axes are per-variable preimage lists; the cells cover the full axis cross
    product, which by construction is exactly the block of satisfying
    assignments.  ``assignment_indices`` ties each cell back to its index in
    the test's assignment list.
    """

    test: int
    b_label: Label
    variables: tuple[Vertex, ...]
    axes: tuple[tuple[Label, ...], ...]
    cells: tuple[tuple[tuple[Label, ...], int], ...]
    assignment_indices: tuple[int, ...]
    norm: int


def decompose_arrays(ssat: SsatInstance, s: SuperAssignment, psi: int) -> list[ArrayView]:
    """Split a label-cover derived test into one array per B-label.

    The blocks are disjoint in assignment indices because projection tables
    are functions: a value of one variable determines the B-label of any
    assignment containing it.
    """
    if ssat.provenance is None:
        raise NotLcDerived("array decomposition needs label-cover provenance")
    s.validate_for(ssat)
    lc = ssat.provenance.lc
    b = ssat.provenance.test_to_b[psi]
    edges = lc.edges_of_b[b]
    test = ssat.tests[psi]
    if tuple(e[0] for e in edges) != tuple(ssat.provenance.var_to_a[ssat.variable_index[v]] for v in test.variables):
        raise NotLcDerived(f"test {psi} variables do not match the B-vertex neighborhood")

    by_label: dict[Label, list[int]] = {}
    for r_idx, r in enumerate(test.assignments):
        images = {lc.projections[e][v] for e, v in zip(edges, r)}
        if len(images) != 1:
            raise NotLcDerived(f"assignment {r_idx} of test {psi} has no single B-label")
        y = images.pop()
        by_label.setdefault(y, []).append(r_idx)

    views: list[ArrayView] = []
    for y in lc.sigma_b:
        indices = by_label.get(y)
        if not indices:
            continue
        axes = tuple(preimage(lc, e, y) for e in edges)
        cells = tuple((test.assignments[i], s.weights[psi][i]) for i in indices)
        views.append(
            ArrayView(
                test=psi,
                b_label=y,
                variables=test.variables,
                axes=axes,
                cells=cells,
                assignment_indices=tuple(indices),
                norm=sum(abs(w) for _, w in cells),
            )
        )
    return views


def good_coordinates(view: ArrayView, assigned: Mapping[Vertex, frozenset[Label]]) -> dict[Vertex, bool]:
    """Flag each axis variable good when some axis value is assigned to it."""
    flags: dict[Vertex, bool] = {}
    for var, axis in zip(view.variables, view.axes):
        values = assigned.get(var, frozenset())
        flags[var] = any(v in values for v in axis)
    return flags


def zero_all_bad_arrays(ssat: SsatInstance, s: SuperAssignment) -> SuperAssignment:
    """Zero out every array whose coordinates are all bad.

    Requires a consistent input.  Because the arrays of one test are
    non-interfering, an all-bad array only contributes to projections that are
    already zero, so consistency survives and the norm can only drop.
    """
    if not is_consistent(ssat, s):
        raise InconsistentInput("zero_all_bad_arrays needs a consistent super-assignment")
    assigned = assigned_value_sets(ssat, s)
    rows = [list(row) for row in s.weights]
    for psi in range(len(ssat.tests)):
        for view in decompose_arrays(ssat, s, psi):
            flags = good_coordinates(view, assigned)
            if not any(flags.values()):
                for r_idx in view.assignment_indices:
                    rows[psi][r_idx] = 0
    return SuperAssignment(tuple(tuple(row) for row in rows))


def check_bad_array_sums(ssat: SsatInstance, s: SuperAssignment) -> list[tuple[int, Label]]:
    """Arrays containing a bad coordinate must have zero total weight.

    Returns the (test, B-label) pairs violating that; consistent
    super-assignments on label-cover derived instances always return an empty
    list.
    """
    if not is_consistent(ssat, s):
        raise InconsistentInput("check_bad_array_sums needs a consistent super-assignment")
    assigned = assigned_value_sets(ssat, s)
    violations: list[tuple[int, Label]] = []
    for psi in range(len(ssat.tests)):
        for view in decompose_arrays(ssat, s, psi):
            flags = good_coordinates(view, assigned)
            if all(flags.values()):
                continue
            if sum(w for _, w in view.cells) != 0:
                violations.append((psi, view.b_label))
    return violations


class TestKind(Enum):
    __test__ = False  # not a pytest item

    ZERO = "zero"
    MULTI_GOOD = "multi_good"
    ALL_SINGLE_GOOD = "all_single_good"


def classify_tests(ssat: SsatInstance, s: SuperAssignment, tests: Iterable[int]) -> list[TestKind]:
    """Classify each of ``tests``, in order, by the assigned-value counts of its nonzero assignments.

    A consistent super-assignment admits no other shape: if no assignment has
    two assigned values, then every nonzero assignment has exactly one.  The
    first nonzero test breaking that disjunction aborts loudly.
    """
    if not is_consistent(ssat, s):
        raise InconsistentInput("classify_tests needs a consistent super-assignment")
    assigned = assigned_value_sets(ssat, s)
    kinds = []
    for psi in tests:
        test = ssat.tests[psi]
        counts = [
            sum(1 for var, v in zip(test.variables, r) if v in assigned[var])
            for r, w in zip(test.assignments, s.weights[psi])
            if w != 0
        ]
        if not counts:
            kinds.append(TestKind.ZERO)
        elif any(c >= 2 for c in counts):
            kinds.append(TestKind.MULTI_GOOD)
        elif all(c == 1 for c in counts):
            kinds.append(TestKind.ALL_SINGLE_GOOD)
        else:
            raise ClassificationImpossible(
                f"test {psi} has a nonzero assignment with no assigned value and no multi-good witness"
            )
    return kinds
