"""Exact brute-force solvers: ground truth for every problem in the pipeline.

Every exhaustive search in the package runs on two functions: ``search_box``
charges the size of a finite box against the state cap and hands back its
points in lexicographic order, and ``lex_min`` walks them keeping the first
strict improvement, so results and witnesses are deterministic.  The state
cap is a hard error, never a silent approximation; ``DEFAULT_MAX_STATES`` is
its one default.

The SSAT, NCP and LHP solvers compile their instance once into sparse integer
rows, so the cost of a point is plain ``int`` arithmetic over tuples.  The
instance-level predicates (``is_consistent``, ``is_nontrivial``,
``NcpInstance.distance``, ``LhpInequality.value_at``) are the reference
semantics the compiled rows are tested against; result objects such as
``SuperAssignment`` and ``LhpAssignment`` are built only for the witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Literal, Optional, Sequence, TypeVar

from .errors import SearchSpaceTooLarge
from .instances import (
    GT,
    Label,
    LabelCoverInstance,
    Labeling,
    LhpAssignment,
    LhpSystem,
    NcpInstance,
    NonTrivialityRow,
    SisInstance,
    SsatInstance,
    Vertex,
)
from .superassign import SuperAssignment

Mode = Literal["l1", "linf"]
T = TypeVar("T")
C = TypeVar("C")

DEFAULT_MAX_STATES = 10 ** 8


def search_box(max_states: int, axes: Sequence[Sequence[T]]) -> Iterator[tuple[T, ...]]:
    """The points of ``axes[0] x axes[1] x ...`` in lexicographic order.

    The box size, the product of the axis lengths, is charged up front:
    above ``max_states`` this raises ``SearchSpaceTooLarge`` before any point
    is visited.
    """
    states = math.prod(len(axis) for axis in axes)
    if states > max_states:
        raise SearchSpaceTooLarge(states, max_states)
    return itertools.product(*axes)


def lex_min(points: Iterable[T], cost: Callable[[T], Optional[C]]) -> tuple[Optional[C], Optional[T], int]:
    """Least cost, the first point attaining it, and the number of points visited.

    Only a strict improvement replaces the best point, so over a
    lexicographic walk the witness is the lexicographically first optimum.
    A cost of ``None`` rejects the point; maximize by negating the cost.
    """
    best_cost: Optional[C] = None
    best: Optional[T] = None
    states = 0
    for point in points:
        states += 1
        c = cost(point)
        if c is not None and (best_cost is None or c < best_cost):
            best_cost, best = c, point
    return best_cost, best, states


@dataclass(frozen=True)
class SearchBudget:
    """Box radius and state cap for the exact searches."""

    coeff_box: int = 2
    max_states: int = DEFAULT_MAX_STATES
    mode: Mode = "l1"

    def __post_init__(self):
        if self.coeff_box < 1:
            raise ValueError("coeff_box must be at least 1")
        if self.mode not in ("l1", "linf"):
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Label cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LcMaxResult:
    best_fraction: Fraction
    witness: Labeling
    states_visited: int


def _plurality_labeling(lc: LabelCoverInstance, combo: tuple) -> tuple[int, Labeling]:
    """Edges satisfied by the A-labeling ``combo`` with its plurality B-side, and that labeling."""
    phi_a = dict(zip(lc.a_vertices, combo))
    phi_b: dict = {}
    satisfied = 0
    for b in lc.b_vertices:
        counts = {y: 0 for y in lc.sigma_b}
        for e in lc.edges_of_b[b]:
            counts[lc.projections[e][phi_a[e[0]]]] += 1
        top = max(counts.values(), default=0)
        phi_b[b] = next(y for y in lc.sigma_b if counts[y] == top)
        satisfied += top
    return satisfied, Labeling(phi_a=phi_a, phi_b=phi_b)


def solve_lc_max(lc: LabelCoverInstance, budget: SearchBudget = SearchBudget()) -> LcMaxResult:
    """Exact maximum fraction of satisfiable edges.

    Enumerates A-labelings; the B-side is chosen per vertex as the plurality
    of projected labels (lowest alphabet index on ties), which is optimal.
    """
    labelings = search_box(budget.max_states, [lc.sigma_a] * len(lc.a_vertices))
    _, combo, states = lex_min(labelings, lambda combo: -_plurality_labeling(lc, combo)[0])
    satisfied, witness = _plurality_labeling(lc, combo)
    total = len(lc.edges)
    fraction = Fraction(satisfied, total) if total else Fraction(1)
    return LcMaxResult(best_fraction=fraction, witness=witness, states_visited=states)


# ---------------------------------------------------------------------------
# SSAT
# ---------------------------------------------------------------------------

Columns = tuple[int, ...]


@dataclass(frozen=True)
class _SsatRows:
    """An SSAT instance as column sets over the flat weight vector.

    A point is a super-assignment flattened test by test.  Each consistency
    row says that the columns of test i whose assignment gives a shared
    variable x the value a sum to the same total as those columns of test j.
    ``coverage`` lists, per variable, the nonempty projection column sets of
    its incident tests, one per (test, value).
    """

    bounds: tuple[tuple[int, int], ...]
    consistency: tuple[tuple[Columns, Columns], ...]
    coverage: tuple[tuple[Columns, ...], ...]

    def box(self, k: int, max_states: int) -> Iterator[tuple[int, ...]]:
        """Flat weight vectors over [-k, k], in lexicographic order."""
        return search_box(max_states, [range(-k, k + 1)] * self.bounds[-1][1])

    def consistent(self, flat: tuple[int, ...]) -> bool:
        get = flat.__getitem__
        return all(sum(map(get, plus)) == sum(map(get, minus)) for plus, minus in self.consistency)

    def nontrivial(self, flat: tuple[int, ...]) -> bool:
        get = flat.__getitem__
        return all(any(sum(map(get, cols)) for cols in sets) for sets in self.coverage)

    def norm_l1(self, flat: tuple[int, ...]) -> int:
        """The sum of the per-test norms: ``superassign.norm_l1`` times the test count."""
        return sum(map(abs, flat))

    def norm_linf(self, flat: tuple[int, ...]) -> int:
        return max(sum(map(abs, flat[lo:hi])) for lo, hi in self.bounds)

    def superassignment(self, flat: tuple[int, ...]) -> SuperAssignment:
        return SuperAssignment(tuple(flat[lo:hi] for lo, hi in self.bounds))


def _compile_ssat(ssat: SsatInstance) -> _SsatRows:
    sizes = [len(t.assignments) for t in ssat.tests]
    offsets = list(itertools.accumulate(sizes, initial=0))
    projection: dict[tuple[int, Vertex], dict[Label, Columns]] = {}
    for t_idx, test in enumerate(ssat.tests):
        for pos, x in enumerate(test.variables):
            cols: dict[Label, list[int]] = {a: [] for a in ssat.field_values}
            for r_idx, r in enumerate(test.assignments):
                cols[r[pos]].append(offsets[t_idx] + r_idx)
            projection[t_idx, x] = {a: tuple(c) for a, c in cols.items()}
    consistency = []
    for x in ssat.variables:
        incident = ssat.tests_of_variable[x]
        for pos_i, i in enumerate(incident):
            for j in incident[pos_i + 1:]:
                for a in ssat.field_values:
                    plus, minus = projection[i, x][a], projection[j, x][a]
                    if plus or minus:
                        consistency.append((plus, minus))
    coverage = tuple(
        tuple(cols for t in ssat.tests_of_variable[x] for cols in projection[t, x].values() if cols)
        for x in ssat.variables
    )
    bounds = tuple(zip(offsets, offsets[1:]))
    return _SsatRows(bounds=bounds, consistency=tuple(consistency), coverage=coverage)


def enumerate_superassignments(
    ssat: SsatInstance, k: int, max_states: int = DEFAULT_MAX_STATES
) -> Iterator[SuperAssignment]:
    """All super-assignments with weights in [-k, k], in lexicographic order."""
    rows = _compile_ssat(ssat)
    return map(rows.superassignment, rows.box(k, max_states))


def enumerate_consistent_superassignments(
    ssat: SsatInstance, k: int, max_states: int = DEFAULT_MAX_STATES
) -> Iterator[SuperAssignment]:
    rows = _compile_ssat(ssat)
    return map(rows.superassignment, filter(rows.consistent, rows.box(k, max_states)))


@dataclass(frozen=True)
class SsatMinResult:
    mode: Mode
    min_norm: Optional[Fraction]
    witness: Optional[SuperAssignment]
    states_visited: int


SideCondition = Literal["nontrivial", "not_all_zero"]


def solve_ssat_min_norm(
    ssat: SsatInstance,
    budget: SearchBudget,
    side_condition: Optional[SideCondition] = None,
) -> SsatMinResult:
    """Exact minimum norm over consistent super-assignments in the box.

    The l1 mode minimizes the average test norm subject to non-triviality;
    the linf mode minimizes the maximum test norm subject to not-all-zero.
    ``side_condition`` overrides the mode's default filter so the two minima
    can be compared under either condition.  Returns ``None`` when no
    admissible super-assignment exists in the box.
    """
    rows = _compile_ssat(ssat)
    box = rows.box(budget.coeff_box, budget.max_states)
    if side_condition is None:
        side_condition = "nontrivial" if budget.mode == "l1" else "not_all_zero"
    admissible = rows.nontrivial if side_condition == "nontrivial" else any
    norm = rows.norm_l1 if budget.mode == "l1" else rows.norm_linf

    def cost(flat: tuple[int, ...]) -> Optional[int]:
        return norm(flat) if rows.consistent(flat) and admissible(flat) else None

    best_norm, best, states = lex_min(box, cost)
    if best is None:
        return SsatMinResult(mode=budget.mode, min_norm=None, witness=None, states_visited=states)
    min_norm = Fraction(best_norm, len(ssat.tests)) if budget.mode == "l1" else best_norm
    return SsatMinResult(
        mode=budget.mode, min_norm=min_norm, witness=rows.superassignment(best), states_visited=states
    )


# ---------------------------------------------------------------------------
# SIS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SisMinResult:
    min_l1: Optional[int]
    witness: Optional[tuple[int, ...]]
    states_visited: int


def _non_triviality_groups(sis: SisInstance) -> Optional[list[tuple[int, int]]]:
    """Column ranges per test when the instance carries a trusted pipeline layout.

    Requires column provenance that runs through tests 0, 1, 2, ... in
    contiguous blocks, and exactly one non-triviality row per test that is the
    indicator of the test's columns with target 1; otherwise returns None and
    the solver falls back to plain enumeration.
    """
    if not sis.column_provenance or sis.row_provenance is None:
        return None
    tests = [t for t, _ in sis.column_provenance]
    starts = [c for c, t in enumerate(tests) if c == 0 or t != tests[c - 1]]
    if [tests[c] for c in starts] != list(range(len(starts))):
        return None
    groups = list(zip(starts, starts[1:] + [len(tests)]))
    nt_rows = sorted((tag.test, i) for i, tag in enumerate(sis.row_provenance) if isinstance(tag, NonTrivialityRow))
    if [t for t, _ in nt_rows] != list(range(len(groups))):
        return None
    for (_, i), (lo, hi) in zip(nt_rows, groups):
        if sis.target[i] != 1 or sis.matrix[i] != tuple(int(lo <= c < hi) for c in range(len(tests))):
            return None
    return groups


def _vectors_with_sum(length: int, k: int, target: int) -> Iterator[tuple[int, ...]]:
    """Vectors over [-k, k] with a fixed coordinate sum, lexicographic order."""

    def rec(prefix: list[int], remaining: int, need: int):
        if remaining == 0:
            if need == 0:
                yield tuple(prefix)
            return
        # prune branches whose suffix cannot reach the needed sum
        for v in range(-k, k + 1):
            rest = need - v
            if abs(rest) > k * (remaining - 1):
                continue
            prefix.append(v)
            yield from rec(prefix, remaining - 1, rest)
            prefix.pop()

    yield from rec([], length, target)


def solve_sis_min(sis: SisInstance, budget: SearchBudget) -> SisMinResult:
    """Exact minimum l1 norm of a box solution of ``matrix @ z == target``.

    Pipeline instances are pruned through their non-triviality rows (each
    column block must sum to 1), which cuts the box without changing the
    solution set.  Returns ``None`` when the target is unreachable in the box.
    """
    k = budget.coeff_box
    box = search_box(budget.max_states, [range(-k, k + 1)] * sis.num_cols)
    groups = _non_triviality_groups(sis)
    if groups is not None:
        # the unit-sum blocks enumerate a subset of the box charged above
        blocks = [list(_vectors_with_sum(hi - lo, k, 1)) for lo, hi in groups]
        box = (sum(combo, ()) for combo in search_box(budget.max_states, blocks))
    best_norm, best, states = lex_min(
        box, lambda z: sum(abs(v) for v in z) if sis.multiply(z) == sis.target else None
    )
    return SisMinResult(min_l1=best_norm, witness=best, states_visited=states)


# ---------------------------------------------------------------------------
# NCP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _NcpRows:
    """An NCP instance as residues mod q.

    Each row keeps its nonzero ``(column, residue)`` pairs as parallel
    tuples, its target residue and its multiplicity.
    """

    modulus: int
    rows: tuple[tuple[Columns, tuple[int, ...], int, int], ...]

    def distance(self, z: tuple[int, ...]) -> int:
        q = self.modulus
        get = z.__getitem__
        return sum(k for cols, coeffs, t, k in self.rows if sum(map(mul, coeffs, map(get, cols))) % q != t)


def _compile_ncp(ncp: NcpInstance) -> _NcpRows:
    q = ncp.modulus
    rows = []
    for row, t, k in zip(ncp.matrix, ncp.target, ncp.multiplicity):
        pairs = [(c, a % q) for c, a in enumerate(row) if a % q]
        rows.append((tuple(c for c, _ in pairs), tuple(a for _, a in pairs), t % q, k))
    return _NcpRows(modulus=q, rows=tuple(rows))


@dataclass(frozen=True)
class NcpMinResult:
    min_dist: int
    witness: tuple[int, ...]
    mode: Literal["full", "box"]
    states_visited: int


def solve_ncp_min(
    ncp: NcpInstance, budget: SearchBudget, full_field: bool = False
) -> NcpMinResult:
    """Exact (full-field) or box-restricted minimum Hamming distance.

    Box mode restricts coordinates to the images of [-k, k] modulo q and is
    flagged as such in the result; witnesses are canonical field elements.
    """
    q = ncp.modulus
    k = budget.coeff_box
    values: Sequence[int] = range(q) if full_field else list(dict.fromkeys(v % q for v in range(-k, k + 1)))
    box = search_box(budget.max_states, [values] * ncp.num_cols)
    best_dist, best, states = lex_min(box, _compile_ncp(ncp).distance)
    return NcpMinResult(
        min_dist=best_dist, witness=best, mode="full" if full_field else "box", states_visited=states
    )


# ---------------------------------------------------------------------------
# LHP
# ---------------------------------------------------------------------------

def count_lhp_violations(lhp: LhpSystem, a: LhpAssignment) -> int:
    """Exact number of violated strict inequalities under dual-number evaluation.

    Each inequality is evaluated once and counts with its multiplicity.
    """
    return sum(ineq.multiplicity for ineq in lhp.inequalities if not ineq.satisfied_by(a))


@dataclass(frozen=True)
class _LhpRows:
    """An LHP system as integer rows that are satisfied exactly when positive.

    Each inequality is scaled by the lcm of its denominators and by -1 when
    its sense is "<".  A row is ``(x columns, x coefficients, y coefficient,
    delta coefficient, multiplicity)``; under the infinitesimal delta the
    delta coefficient breaks a zero standard part.
    """

    rows: tuple[tuple[Columns, tuple[int, ...], int, int, int], ...]

    def violations(self, x: tuple[int, ...]) -> int:
        """Violated rows, with multiplicity, at ``x``, ``y = 1`` and infinitesimal delta."""
        get = x.__getitem__
        count = 0
        for cols, coeffs, cy, cd, k in self.rows:
            std = sum(map(mul, coeffs, map(get, cols))) + cy
            if std < 0 or (std == 0 and cd <= 0):
                count += k
        return count


def _compile_lhp(lhp: LhpSystem) -> _LhpRows:
    rows = []
    for ineq in lhp.inequalities:
        coeffs = [c for _, c in ineq.coeff_x] + [ineq.coeff_y, ineq.coeff_delta]
        scale = math.lcm(*(c.denominator for c in coeffs)) * (1 if ineq.sense == GT else -1)
        *xs, cy, cd = (int(c * scale) for c in coeffs)
        rows.append((tuple(i for i, _ in ineq.coeff_x), tuple(xs), cy, cd, ineq.multiplicity))
    return _LhpRows(rows=tuple(rows))


@dataclass(frozen=True)
class LhpMinResult:
    min_violations: int
    witness: LhpAssignment
    states_visited: int


def solve_lhp_min(lhp: LhpSystem, budget: SearchBudget = SearchBudget()) -> LhpMinResult:
    """Minimum violation count over the soundness normal-form grid.

    The grid is x in {-1,0,1}^n, y = 1, delta infinitesimal.  This is an
    upper-bound oracle for the true noise: low-violation assignments reduce
    to the grid's normal form, but the exact optimum over all of rational
    space is not computed here.
    """
    box = search_box(budget.max_states, [(-1, 0, 1)] * lhp.num_x)
    best_count, best, states = lex_min(box, _compile_lhp(lhp).violations)
    return LhpMinResult(min_violations=best_count, witness=LhpAssignment.of(best), states_visited=states)
