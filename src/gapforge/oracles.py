"""Exact brute-force solvers: ground truth for every problem in the pipeline.

Every exact search runs on ``branch_and_bound``, a depth-first walk that fixes
the coordinates in index order, prunes a prefix whose cost already reaches the
best leaf found so far, and returns the lexicographically first optimum, so
results and witnesses are deterministic.  There is one state cap rule: the
walk charges every node it enters and raises ``SearchSpaceTooLarge`` at the
first node over the cap, a hard error, never a silent approximation;
``DEFAULT_MAX_STATES`` is its one default.  The maximizations (label cover,
agreement) minimize a loss per B-vertex, charged as its A-neighbours are
labeled; the consistent enumeration records every leaf and prunes nothing.

The SSAT, SIS, NCP and LHP solvers take ``hints``: points, such as a planted
solution or another oracle's witness, that may cap the walk.  Each solver
checks every hint itself, with the reference semantics below, against its
own box and length; the least cost it certifies is the walk's ``ceiling``.
A hint that fails the check is ignored, so a wrong hint can cost nodes but
never changes a minimum or a witness.

Each walked solver compiles its instance once into sparse integer rows, each
filed under the coordinate that completes it (its largest column), so the
cost of a node is plain ``int`` arithmetic over the rows that coordinate
completes.  Equality rows (SIS rows, SSAT consistency rows) instead narrow
each coordinate to the values that leave every row reachable by the later
columns.  The instance-level predicates (``is_consistent``,
``is_nontrivial``, ``SisInstance.multiply``, ``NcpInstance.distance``,
``LhpInequality.value_at``) are the reference semantics the compiled rows are
tested against; result objects such as ``SuperAssignment`` and
``LhpAssignment`` are built only for the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Literal, Optional, Sequence

from .errors import SearchSpaceTooLarge
from .instances import (
    GT,
    Edge,
    LabelCoverInstance,
    Labeling,
    LhpAssignment,
    LhpSystem,
    NcpInstance,
    SisInstance,
    SsatInstance,
    Vertex,
)
from .reductions import superassignment_from_sis_solution
from .superassign import SuperAssignment, is_consistent, is_nontrivial, is_not_all_zero, norm_linf

Mode = Literal["l1", "linf"]

DEFAULT_MAX_STATES = 10 ** 8


Prefix = list[int]


def branch_and_bound(
    n: int,
    values: Callable[[int, Prefix], Iterable[int]],
    step: Callable[[int, Prefix, int], Optional[int]],
    root: Optional[int],
    max_states: int,
    ceiling: Optional[int] = None,
) -> tuple[Optional[int], Optional[tuple[int, ...]], int]:
    """Least leaf cost, the first leaf attaining it, and the number of nodes entered.

    The walk fixes coordinates 0, 1, ..., n - 1 in order and tries
    ``values(depth, prefix)`` in the order given.  ``root`` is the cost before
    any coordinate is fixed, ``None`` when no point is feasible.
    ``step(depth, prefix, cost)`` extends the parent's integer ``cost`` by the
    value just put at ``prefix[depth]``: it never decreases along a path, is
    the true cost at a leaf, and is ``None`` on an infeasible prefix.  A node
    whose cost is ``None`` or not below the best leaf so far is pruned, and
    only a strict improvement replaces the best leaf; as a pruned subtree
    holds no strict improvement, the witness is the lexicographically first
    optimum.  Every (depth, value) node entered is charged, and the charge
    passing ``max_states`` raises ``SearchSpaceTooLarge``.  With ``n == 0``
    the one point is the empty vector, at cost ``root``.

    ``ceiling`` starts the walk as if a leaf of cost ``ceiling + 1`` had been
    found, so only prefixes costing more than the ceiling are pruned beyond
    the plain walk's.  When some leaf costs at most the ceiling, such as a
    point whose cost the caller has certified, the minimum and its witness
    are those of the plain walk and no more nodes are entered; when none
    does, the result is ``(None, None, states)``, as for an infeasible walk.
    """
    prefix = [0] * n
    best_cost: Optional[int] = None if ceiling is None else ceiling + 1
    best: Optional[tuple[int, ...]] = None
    states = 0

    def visit(depth: int, cost: int) -> None:
        nonlocal best_cost, best, states
        leaf = depth == n - 1
        for v in values(depth, prefix):
            states += 1
            if states > max_states:
                raise SearchSpaceTooLarge(states, max_states)
            prefix[depth] = v
            c = step(depth, prefix, cost)
            if c is None or (best_cost is not None and c >= best_cost):
                continue
            if leaf:
                best_cost, best = c, tuple(prefix)
            else:
                visit(depth + 1, c)

    if root is not None and (best_cost is None or root < best_cost):
        if n:
            visit(0, root)
        else:
            best_cost, best = root, ()
    return (None, None, states) if best is None else (best_cost, best, states)


Hints = Iterable[Sequence[int]]


def _ceiling(
    hints: Hints, n: int, box: Iterable[int], cost: Callable[[Sequence[int]], Optional[int]]
) -> Optional[int]:
    """The least ``cost`` over the hints of length ``n`` with every coordinate in ``box``.

    ``cost`` is the reference semantics of the search, ``None`` at an infeasible point.
    """
    points = dict.fromkeys(map(tuple, hints))  # each distinct point is costed once
    in_box = (p for p in points if len(p) == n and all(v in box for v in p))
    return min((c for c in map(cost, in_box) if c is not None), default=None)


@dataclass(frozen=True)
class SearchBudget:
    """Box radius and state cap for the exact searches.

    ``max_states`` caps the nodes the branch-and-bound walk enters.
    """

    coeff_box: int = 2
    max_states: int = DEFAULT_MAX_STATES
    mode: Mode = "l1"

    def __post_init__(self):
        if self.coeff_box < 1:
            raise ValueError("coeff_box must be at least 1")
        if self.mode not in ("l1", "linf"):
            raise ValueError(f"unknown mode {self.mode!r}")


Columns = tuple[int, ...]
SplitRow = tuple[Columns, tuple[int, ...]]


def _split(row: Iterable[tuple[int, int]]) -> SplitRow:
    """A sparse row's ``(column, coefficient)`` pairs as parallel tuples."""
    pairs = tuple(row)
    return tuple(c for c, _ in pairs), tuple(a for _, a in pairs)


@dataclass(frozen=True)
class _FiledRows:
    """Sparse integer rows that cost their multiplicity when missed, filed under their last column.

    A row ``(columns, coefficients, target, multiplicity)`` with sum ``s``
    over the point is missed when ``s % modulus != target``, or, with no
    modulus, when ``s < target``.  ``root`` is the multiplicity of the missed
    rows with no column.
    """

    modulus: Optional[int]
    root: int
    by_column: tuple[tuple[tuple[Columns, tuple[int, ...], int, int], ...], ...]

    def step(self, depth: int, point: Prefix, cost: int) -> int:
        """``cost`` plus the multiplicity of the rows completed at ``depth`` that are missed."""
        q = self.modulus
        get = point.__getitem__
        for cols, coeffs, t, k in self.by_column[depth]:
            s = sum(map(mul, coeffs, map(get, cols)))
            if s % q != t if q else s < t:
                cost += k
        return cost


def _file_rows(n: int, rows: Iterable[tuple], modulus: Optional[int] = None) -> _FiledRows:
    """File ``rows`` (targets already reduced mod ``modulus``) for a walk over ``n`` columns."""
    root = 0
    by_column: list[list] = [[] for _ in range(n)]
    for row in rows:
        cols, _, t, k = row
        if cols:
            by_column[cols[-1]].append(row)
        elif t != 0 if modulus else t > 0:  # the row's sum is 0
            root += k
    return _FiledRows(modulus=modulus, root=root, by_column=tuple(map(tuple, by_column)))


@dataclass(frozen=True)
class _EqualityRows:
    """Equality rows ``sum(a_c * z_c) == t`` as per-coordinate bounds over [-k, k].

    ``by_column[d]`` lists, for every row with a nonzero entry at column d,
    its earlier columns and coefficients, the entry at d, the reach
    ``k * sum |a_c|`` of its later columns, and its target.  ``feasible`` is
    False when a row with no nonzero entry has a nonzero target.
    """

    k: int
    feasible: bool
    by_column: tuple[tuple[tuple[Columns, tuple[int, ...], int, int, int], ...], ...]

    def values(self, depth: int, prefix: Prefix) -> range:
        """The values of coordinate ``depth`` after ``prefix`` that leave every row reachable."""
        lo, hi = -self.k, self.k
        get = prefix.__getitem__
        for cols, coeffs, a, reach, t in self.by_column[depth]:
            rest = t - sum(map(mul, coeffs, map(get, cols)))
            # a * v must lie in [rest - reach, rest + reach]
            if a > 0:
                lo, hi = max(lo, -((reach - rest) // a)), min(hi, (rest + reach) // a)
            else:
                lo, hi = max(lo, -((rest + reach) // -a)), min(hi, (reach - rest) // -a)
        return range(lo, hi + 1)


def _compile_equalities(n: int, k: int, rows: Iterable[tuple[SplitRow, int]]) -> _EqualityRows:
    by_column: list[list] = [[] for _ in range(n)]
    feasible = True
    for (cols, coeffs), t in rows:
        if not cols:
            feasible = feasible and t == 0
        reach = k * sum(map(abs, coeffs))
        for j, (c, a) in enumerate(zip(cols, coeffs)):
            reach -= k * abs(a)
            by_column[c].append((cols[:j], coeffs[:j], a, reach, t))
    return _EqualityRows(k=k, feasible=feasible, by_column=tuple(map(tuple, by_column)))


def _l1_step(depth: int, prefix: Prefix, cost: int) -> int:
    return cost + abs(prefix[depth])


# ---------------------------------------------------------------------------
# Label cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LcMaxResult:
    best_fraction: Fraction
    witness: Labeling
    states_visited: int


def walk_a_labelings(
    lc: LabelCoverInstance, choices: Sequence, image: Callable[[Edge, object], object],
    loss: Callable[[list], int], max_states: int,
) -> tuple[int, Optional[tuple[int, ...]], int]:
    """``branch_and_bound`` over A-labelings: each A-vertex, in order, takes an index into ``choices``.

    ``loss`` judges one B-vertex from the list of its edges' images
    ``image(edge, choice)``, with ``None`` for an edge whose A-end is not
    fixed yet.  It is nonnegative, never decreases as edges are fixed, and
    is the B-vertex's true loss once all are.  A B-vertex is charged its
    loss with no edge fixed at the root, then at each A-neighbour by what
    that neighbour adds, so the cost never decreases on a path and is the
    total loss at a leaf.
    """
    position = {a: i for i, a in enumerate(lc.a_vertices)}
    root = 0
    by_column: list[list] = [[] for _ in lc.a_vertices]
    for b in lc.b_vertices:
        edges = tuple((position[e[0]], tuple(image(e, c) for c in choices)) for e in lc.edges_of_b[b])
        root += loss([None] * len(edges))
        for a in sorted({a for a, _ in edges}):
            by_column[a].append(edges)

    def step(depth: int, prefix: Prefix, cost: int) -> int:
        for edges in by_column[depth]:
            before = [images[prefix[a]] if a < depth else None for a, images in edges]
            after = [images[prefix[a]] if a <= depth else None for a, images in edges]
            cost += loss(after) - loss(before)
        return cost

    values = range(len(choices))
    return branch_and_bound(len(lc.a_vertices), lambda depth, prefix: values, step, root, max_states)


def _plurality_labeling(lc: LabelCoverInstance, combo: tuple) -> Labeling:
    """The A-labeling ``combo`` with its plurality B-side (lowest alphabet index on ties)."""
    phi_a = dict(zip(lc.a_vertices, combo))
    images = {b: [lc.projections[e][phi_a[e[0]]] for e in lc.edges_of_b[b]] for b in lc.b_vertices}
    return Labeling(phi_a=phi_a, phi_b={b: max(lc.sigma_b, key=images[b].count) for b in lc.b_vertices})


def solve_lc_max(lc: LabelCoverInstance, budget: SearchBudget = SearchBudget()) -> LcMaxResult:
    """Exact maximum fraction of satisfiable edges.

    The B-side is chosen per vertex as the plurality of projected labels,
    which is optimal, so the walk over A-labelings minimizes the edges lost:
    a B-vertex loses its degree minus its plurality count.  Among its fixed
    edges that difference only grows as more are fixed, so the walk charges
    it at every A-neighbour, not only at the last.
    """

    def edges_lost(images: list) -> int:
        fixed = [y for y in images if y is not None]
        return len(fixed) - max(map(fixed.count, fixed), default=0)

    lost, best, states = walk_a_labelings(
        lc, lc.sigma_a, lambda e, x: lc.projections[e][x], edges_lost, budget.max_states
    )
    total = len(lc.edges)
    fraction = Fraction(total - lost, total) if total else Fraction(1)
    witness = _plurality_labeling(lc, tuple(lc.sigma_a[i] for i in best))
    return LcMaxResult(best_fraction=fraction, witness=witness, states_visited=states)


# ---------------------------------------------------------------------------
# SSAT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SsatRows:
    """An SSAT instance as column sets over the flat weight vector.

    A point is a super-assignment flattened test by test, as in
    ``SsatInstance.offsets``.  Each consistency row says that the columns of
    test i whose assignment gives a shared variable x the value a sum to the
    same total as those columns of test j; it is kept as ascending columns
    with coefficients +1, then -1, and target 0.  ``coverage`` lists, per
    variable, the nonempty projection column sets of its incident tests, one
    per (test, value).
    """

    num_cols: int
    consistency: tuple[SplitRow, ...]
    coverage: tuple[tuple[Columns, ...], ...]

    def nontrivial(self, flat: Sequence[int]) -> bool:
        get = flat.__getitem__
        return all(any(sum(map(get, cols)) for cols in sets) for sets in self.coverage)

    def equalities(self, k: int) -> _EqualityRows:
        return _compile_equalities(self.num_cols, k, ((row, 0) for row in self.consistency))


def _compile_ssat(ssat: SsatInstance) -> _SsatRows:
    off = ssat.offsets

    def columns(t: int, x: Vertex) -> tuple[Columns, ...]:
        return tuple(tuple(off[t] + r for r in rs) for rs in ssat.projection_indices[t, x])

    consistency = tuple(
        (plus + minus, (1,) * len(plus) + (-1,) * len(minus))
        for i, j, x in ssat.shared_pairs
        for plus, minus in zip(columns(i, x), columns(j, x))
        if plus or minus
    )
    coverage = tuple(
        tuple(cols for t in ssat.tests_of_variable[x] for cols in columns(t, x) if cols)
        for x in ssat.variables
    )
    return _SsatRows(num_cols=off[-1], consistency=consistency, coverage=coverage)


def enumerate_consistent_superassignments(
    ssat: SsatInstance, k: int, max_states: int = DEFAULT_MAX_STATES
) -> list[SuperAssignment]:
    """Every consistent super-assignment with weights in [-k, k], in lexicographic order.

    The walk tries only weights that keep every consistency row reachable,
    so every leaf it reaches is consistent; the step records each leaf and
    rejects it, so no subtree is ever pruned by cost.
    """
    rows = _compile_ssat(ssat)
    n = rows.num_cols
    found: list[SuperAssignment] = []

    def record(depth: int, prefix: Prefix, cost: int) -> Optional[int]:
        if depth < n - 1:
            return cost
        found.append(superassignment_from_sis_solution(ssat, prefix))
        return None

    _, empty, _ = branch_and_bound(n, rows.equalities(k).values, record, 0, max_states)
    # with no columns the walk enters no node and returns the empty vector
    return found if empty is None else [superassignment_from_sis_solution(ssat, empty)]


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
    hints: Hints = (),
) -> SsatMinResult:
    """Exact minimum norm over consistent super-assignments in the box.

    The l1 mode minimizes the average test norm subject to non-triviality;
    the linf mode minimizes the maximum test norm subject to not-all-zero.
    ``side_condition`` overrides the mode's default filter so the two minima
    can be compared under either condition.  Returns ``None`` when no
    admissible super-assignment exists in the box.

    The walk tries only weights that keep every consistency row reachable;
    the l1 cost adds each |weight|, the linf cost is the largest test norm
    so far, and the side condition is checked at the leaf.  A hint is a flat
    weight vector in the box; one that ``is_consistent`` and the side
    condition accept caps the walk at its norm.
    """
    rows = _compile_ssat(ssat)
    n = rows.num_cols
    k = budget.coeff_box
    if side_condition is None:
        side_condition = "nontrivial" if budget.mode == "l1" else "not_all_zero"
    admissible = rows.nontrivial if side_condition == "nontrivial" else any

    def norm(point: Sequence[int]) -> Optional[int]:
        s = superassignment_from_sis_solution(ssat, point)
        side = is_nontrivial(ssat, s) if side_condition == "nontrivial" else is_not_all_zero(s)
        if not (side and is_consistent(ssat, s)):
            return None
        return sum(map(abs, point)) if budget.mode == "l1" else norm_linf(s)

    if budget.mode == "l1":
        cost_step = _l1_step
    else:
        off = ssat.offsets
        test_start = [lo for lo, hi in zip(off, off[1:]) for _ in range(lo, hi)]

        def cost_step(depth: int, prefix: Prefix, cost: int) -> int:
            return max(cost, sum(map(abs, prefix[test_start[depth]:depth + 1])))

    def step(depth: int, prefix: Prefix, cost: int) -> Optional[int]:
        if depth == n - 1 and not admissible(prefix):
            return None
        return cost_step(depth, prefix, cost)

    equalities = rows.equalities(k)
    # with no columns the walk enters no node: the empty vector is judged here
    root = 0 if equalities.feasible and (n or admissible(())) else None
    best_norm, best, states = branch_and_bound(
        n, equalities.values, step, root, budget.max_states, _ceiling(hints, n, range(-k, k + 1), norm)
    )
    if best is None:
        return SsatMinResult(mode=budget.mode, min_norm=None, witness=None, states_visited=states)
    min_norm = Fraction(best_norm, len(ssat.tests)) if budget.mode == "l1" else best_norm
    witness = superassignment_from_sis_solution(ssat, best)
    return SsatMinResult(mode=budget.mode, min_norm=min_norm, witness=witness, states_visited=states)


# ---------------------------------------------------------------------------
# SIS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SisMinResult:
    min_l1: Optional[int]
    witness: Optional[tuple[int, ...]]
    states_visited: int


def _compile_sis(sis: SisInstance, k: int) -> _EqualityRows:
    rows = ((_split(row), t) for row, t in zip(sis.matrix, sis.target))
    return _compile_equalities(sis.num_cols, k, rows)


def solve_sis_min(sis: SisInstance, budget: SearchBudget, hints: Hints = ()) -> SisMinResult:
    """Exact minimum l1 norm of a box solution of ``matrix @ z == target``.

    The walk tries only values that leave every row's target reachable by
    the later columns.  Returns ``None`` when the target is unreachable in
    the box.  A hint in the box that ``SisInstance.multiply`` maps to the
    target caps the walk at its l1 norm.
    """
    k = budget.coeff_box
    ceiling = _ceiling(
        hints, sis.num_cols, range(-k, k + 1), lambda z: sum(map(abs, z)) if sis.multiply(z) == sis.target else None
    )
    rows = _compile_sis(sis, k)
    best_norm, best, states = branch_and_bound(
        sis.num_cols, rows.values, _l1_step, 0 if rows.feasible else None, budget.max_states, ceiling
    )
    return SisMinResult(min_l1=best_norm, witness=best, states_visited=states)


# ---------------------------------------------------------------------------
# NCP
# ---------------------------------------------------------------------------

def _compile_ncp(ncp: NcpInstance) -> _FiledRows:
    """Each row as its nonzero residues mod q, missed when its sum is not its target residue."""
    q = ncp.modulus
    rows = (
        (*_split((c, a % q) for c, a in row if a % q), t % q, k)
        for row, t, k in zip(ncp.matrix, ncp.target, ncp.multiplicity)
    )
    return _file_rows(ncp.num_cols, rows, q)


@dataclass(frozen=True)
class NcpMinResult:
    min_dist: int
    witness: tuple[int, ...]
    mode: Literal["full", "box"]
    states_visited: int


def solve_ncp_min(
    ncp: NcpInstance, budget: SearchBudget, full_field: bool = False, hints: Hints = ()
) -> NcpMinResult:
    """Exact (full-field) or box-restricted minimum Hamming distance.

    Box mode restricts coordinates to the images of [-k, k] modulo q, tried
    in that order, and is flagged as such in the result; witnesses are
    canonical field elements.  A hint whose residues lie in the box caps the
    walk at its ``NcpInstance.distance``.
    """
    q = ncp.modulus
    k = budget.coeff_box
    values = range(q) if full_field else tuple(dict.fromkeys(v % q for v in range(-k, k + 1)))
    ceiling = _ceiling(([v % q for v in z] for z in hints), ncp.num_cols, values, ncp.distance)
    rows = _compile_ncp(ncp)
    best_dist, best, states = branch_and_bound(
        ncp.num_cols, lambda depth, prefix: values, rows.step, rows.root, budget.max_states, ceiling
    )
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


def _compile_lhp(lhp: LhpSystem) -> _FiledRows:
    """Each inequality as an integer row over x, missed at ``y = 1`` and infinitesimal delta.

    An inequality is scaled by the lcm of its denominators and by -1 when
    its sense is "<", so it holds when its standard part ``s + c_y`` is
    positive, or zero with a positive delta coefficient ``c_d``.  It is
    missed when ``s`` is below ``-c_y``, or ``-c_y + 1`` when ``c_d <= 0``.
    """
    rows = []
    for ineq in lhp.inequalities:
        coeffs = [c for _, c in ineq.coeff_x] + [ineq.coeff_y, ineq.coeff_delta]
        scale = math.lcm(*(c.denominator for c in coeffs)) * (1 if ineq.sense == GT else -1)
        *xs, cy, cd = (int(c * scale) for c in coeffs)
        rows.append((tuple(i for i, _ in ineq.coeff_x), tuple(xs), -cy + (cd <= 0), ineq.multiplicity))
    return _file_rows(lhp.num_x, rows)


@dataclass(frozen=True)
class LhpMinResult:
    min_violations: int
    witness: LhpAssignment
    states_visited: int


def solve_lhp_min(lhp: LhpSystem, budget: SearchBudget = SearchBudget(), hints: Hints = ()) -> LhpMinResult:
    """Minimum violation count over the soundness normal-form grid.

    The grid is x in {-1,0,1}^n, y = 1, delta infinitesimal.  This is an
    upper-bound oracle for the true noise: low-violation assignments reduce
    to the grid's normal form, but the exact optimum over all of rational
    space is not computed here.  A hint is an x on the grid; it caps the
    walk at its ``count_lhp_violations``.
    """
    ceiling = _ceiling(hints, lhp.num_x, (-1, 0, 1), lambda xs: count_lhp_violations(lhp, LhpAssignment.of(xs)))
    rows = _compile_lhp(lhp)
    best_count, best, states = branch_and_bound(
        lhp.num_x, lambda depth, prefix: (-1, 0, 1), rows.step, rows.root, budget.max_states, ceiling
    )
    return LhpMinResult(min_violations=best_count, witness=LhpAssignment.of(best), states_visited=states)
