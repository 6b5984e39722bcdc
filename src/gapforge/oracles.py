"""Exact brute-force solvers: ground truth for every problem in the pipeline.

Every exhaustive search in the package runs on two functions: ``search_box``
charges the size of a finite box against the state cap and hands back its
points in lexicographic order, and ``lex_min`` walks them keeping the first
strict improvement, so results and witnesses are deterministic.  The state
cap is a hard error, never a silent approximation; ``DEFAULT_MAX_STATES`` is
its one default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Literal, Optional, Sequence, TypeVar

from .errors import EmptyGrid, SearchSpaceTooLarge
from .instances import (
    LabelCoverInstance,
    Labeling,
    LhpAssignment,
    LhpSystem,
    NcpInstance,
    NonTrivialityRow,
    SisInstance,
    SsatInstance,
)
from .superassign import (
    SuperAssignment,
    is_consistent,
    is_nontrivial,
    is_not_all_zero,
    norm_l1,
    norm_linf,
)

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

def enumerate_superassignments(
    ssat: SsatInstance, k: int, max_states: int = DEFAULT_MAX_STATES
) -> Iterator[SuperAssignment]:
    """All super-assignments with weights in [-k, k], in lexicographic order."""
    sizes = [len(t.assignments) for t in ssat.tests]
    offsets = list(itertools.accumulate(sizes, initial=0))
    flats = search_box(max_states, [range(-k, k + 1)] * offsets[-1])
    return (
        SuperAssignment(tuple(flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])))
        for flat in flats
    )


def enumerate_consistent_superassignments(
    ssat: SsatInstance, k: int, max_states: int = DEFAULT_MAX_STATES
) -> Iterator[SuperAssignment]:
    return (s for s in enumerate_superassignments(ssat, k, max_states) if is_consistent(ssat, s))


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
    box = enumerate_superassignments(ssat, budget.coeff_box, budget.max_states)
    if side_condition is None:
        side_condition = "nontrivial" if budget.mode == "l1" else "not_all_zero"
    norm = norm_l1 if budget.mode == "l1" else norm_linf

    def cost(s: SuperAssignment) -> Optional[Fraction]:
        admissible = is_nontrivial(ssat, s) if side_condition == "nontrivial" else is_not_all_zero(s)
        return norm(s) if admissible and is_consistent(ssat, s) else None

    best_norm, best, states = lex_min(box, cost)
    return SsatMinResult(mode=budget.mode, min_norm=best_norm, witness=best, states_visited=states)


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

    Requires contiguous (test, assignment) column provenance and one
    non-triviality row per test that is exactly the indicator of the test's
    columns with target 1; otherwise returns None and the solver falls back
    to plain enumeration.
    """
    if sis.column_provenance is None or sis.row_provenance is None:
        return None
    groups: list[tuple[int, int]] = []
    current, start = None, 0
    for col, (t_idx, _) in enumerate(sis.column_provenance):
        if t_idx != current:
            if current is not None:
                if t_idx != current + 1:
                    return None
                groups.append((start, col))
            elif t_idx != 0:
                return None
            current, start = t_idx, col
    if current is None:
        return None
    groups.append((start, len(sis.column_provenance)))
    nt_rows = [i for i, tag in enumerate(sis.row_provenance) if isinstance(tag, NonTrivialityRow)]
    if len(nt_rows) != len(groups):
        return None
    for row_idx in nt_rows:
        t_idx = sis.row_provenance[row_idx].test
        if not (0 <= t_idx < len(groups)):
            return None
        lo, hi = groups[t_idx]
        row = sis.matrix[row_idx]
        if sis.target[row_idx] != 1:
            return None
        if any((row[c] == 1) != (lo <= c < hi) for c in range(len(row))):
            return None
        if any(row[c] not in (0, 1) for c in range(len(row))):
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
    best_dist, best, states = lex_min(search_box(budget.max_states, [values] * ncp.num_cols), ncp.distance)
    return NcpMinResult(
        min_dist=best_dist, witness=best, mode="full" if full_field else "box", states_visited=states
    )


# ---------------------------------------------------------------------------
# LHP
# ---------------------------------------------------------------------------

def count_lhp_violations(lhp: LhpSystem, a: LhpAssignment) -> int:
    """Exact number of violated strict inequalities under dual-number evaluation.

    Identical copies of an inequality are evaluated once and weighted by
    multiplicity; the count is the same as evaluating each record.
    """
    multiplicity: dict[object, int] = {}
    for ineq in lhp.inequalities:
        multiplicity[ineq] = multiplicity.get(ineq, 0) + 1
    return sum(
        count for ineq, count in multiplicity.items() if not ineq.satisfied_by(a)
    )


@dataclass(frozen=True)
class LhpMinResult:
    min_violations: int
    witness: LhpAssignment
    states_visited: int


def default_lhp_grid(lhp: LhpSystem, max_states: int = DEFAULT_MAX_STATES) -> Iterator[LhpAssignment]:
    """The soundness normal form: x in {-1,0,1}^n, y = 1, delta infinitesimal."""
    return map(LhpAssignment.of, search_box(max_states, [(-1, 0, 1)] * lhp.num_x))


def solve_lhp_min(
    lhp: LhpSystem,
    grid: Optional[Iterable[LhpAssignment]] = None,
    budget: SearchBudget = SearchBudget(),
) -> LhpMinResult:
    """Minimum violation count over a finite grid of candidate assignments.

    With the default grid this is an upper-bound oracle for the true noise:
    low-violation assignments reduce to the grid's normal form, but the exact
    optimum over all of rational space is not computed here.  A supplied grid
    is not charged against the state cap.
    """
    if grid is None:
        grid = default_lhp_grid(lhp, budget.max_states)
    best_count, best_witness, states = lex_min(grid, lambda a: count_lhp_violations(lhp, a))
    if best_count is None:
        raise EmptyGrid("no candidate assignments supplied")
    return LhpMinResult(min_violations=best_count, witness=best_witness, states_visited=states)
