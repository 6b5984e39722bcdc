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

The SSAT, SIS, NCP and LHP solvers pass their ``hints`` straight to the walk:
points, such as a planted solution or another oracle's witness, that may cap
it.  The walk follows each hint down its own ``children``, so a hint that
reaches a leaf costs what the walk would charge there, a certified ceiling
with no second semantics; a hint that leaves the walk is ignored, so a wrong
hint can cost nodes but never changes a minimum or a witness.

The walk asks its client for all the children of a node at once,
``children(depth, prefix, cost)``, so work the children share is done once
per node.  Each walked solver compiles its instance once into sparse integer
rows, each filed under the coordinate that completes it (its largest
column).  At a node, each row that coordinate completes takes its partial
sum over its earlier columns once.  An NCP row, filed monic mod the prime q,
is met by exactly one residue of its last column, so a child costs its
parent's cost plus the rows completed here, less those crediting its value;
an LHP row is compared at -1, 0 and 1 from the one partial sum.  Equality
rows (SIS rows, SSAT consistency rows) instead narrow each coordinate to the
values that leave every row reachable by the later columns.  The SSAT l1
walk also charges each test with a column its floor of 1 from the root: an
all-zero test zeroes its variables' projection sums, the consistency rows
carry those zeros to every other test of the variable, and so the variable
is trivial.  The instance-level predicates (``is_consistent``,
``is_nontrivial``, ``SisInstance.multiply``, ``NcpInstance.distance``,
``LhpInequality.value_at``) are the reference semantics the compiled rows
are tested against; result objects such as ``SuperAssignment`` and
``LhpAssignment`` are built only for the witness.

The four walked minimizers return one ``MinResult``: an SSAT minimum is a
``Fraction``, an SIS, NCP or LHP minimum an ``int``.  Label cover, the one
maximization, returns ``LcMaxResult``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Any, Callable, Iterable, Literal, Optional, Sequence, Union

from .errors import SearchSpaceTooLarge
from .instances import (
    GT,
    Edge,
    LabelCoverInstance,
    Labeling,
    LhpAssignment,
    LhpSystem,
    NcpInstance,
    Record,
    SisInstance,
    SsatInstance,
    Vertex,
)
from .reductions import superassignment_from_sis_solution
from .superassign import SuperAssignment

Mode = Literal["l1", "linf"]

DEFAULT_MAX_STATES = 10 ** 8


Prefix = list[int]
Children = Callable[[int, Prefix, int], Iterable[tuple[int, Optional[int]]]]
Hints = Iterable[Sequence[int]]


def _hint_cost(
    n: int, children: Children, root: Optional[int], hint: Sequence[int], max_states: int
) -> Optional[int]:
    """The cost of the leaf ``hint`` down the walk's own children, ``None`` when the walk has no such leaf.

    Each node's children are scanned lazily, never tabled, and at most
    ``max_states`` of them: a node with more children before the hint's value
    is one the walk could not finish under its cap, so the hint is dropped.
    """
    if len(hint) != n:
        return None
    prefix, cost = list(hint), root
    for depth, v in enumerate(prefix):
        if cost is None:
            return None
        scanned = islice(children(depth, prefix, cost), max(max_states, 0))
        cost = next((c for u, c in scanned if u == v), None)
    return cost


def branch_and_bound(
    n: int,
    children: Children,
    root: Optional[int],
    max_states: int,
    hints: Hints = (),
) -> tuple[Optional[int], Optional[tuple[int, ...]], int]:
    """Least leaf cost, the first leaf attaining it, and the number of nodes entered.

    The walk fixes coordinates 0, 1, ..., n - 1 in order.  ``root`` is the
    cost before any coordinate is fixed, ``None`` when no point is feasible.
    At a node of integer ``cost`` whose coordinates ``prefix[:depth]`` are
    fixed, ``children(depth, prefix, cost)`` yields ``(value, child cost)``
    for every value coordinate ``depth`` may take, in the order to try them,
    so a client costs all the children of a node in one pass and shares what
    they have in common.  A child's cost never falls below its parent's, is
    the true cost at a leaf, and is ``None`` on an infeasible prefix.
    ``children`` may read only ``prefix[:depth]``; the walk changes
    ``prefix[depth:]`` between the items it takes from a lazy client.  Every
    child yielded is charged as one node entered, and the charge passing
    ``max_states`` raises ``SearchSpaceTooLarge``; then a child whose cost
    is ``None`` or not below the best leaf so far is pruned.  Only a strict
    improvement replaces the best leaf; as a pruned subtree holds no strict
    improvement, the witness is the lexicographically first optimum.  With
    ``n == 0`` the one point is the empty vector, at cost ``root``.

    Each distinct hint is followed down ``children``, taking at each depth
    the child whose value is the hint's coordinate, with no node charged and
    no more than ``max_states`` children scanned at a node.  A hint of
    another length, or one that meets a missing child, a ``None`` cost or a
    node with more children before its value, is dropped; each other hint
    is a leaf of the walk, so its cost is certified.  The walk then starts as if a leaf costing one more
    than the least of them had been found: the minimum and its witness are
    those of the plain walk, reached in no more nodes.
    """
    hinted = (_hint_cost(n, children, root, h, max_states) for h in dict.fromkeys(map(tuple, hints)))
    ceiling = min((c for c in hinted if c is not None), default=None)
    prefix = [0] * n
    best_cost: Optional[int] = None if ceiling is None else ceiling + 1
    best: Optional[tuple[int, ...]] = None
    states = 0

    def visit(depth: int, cost: int) -> None:
        nonlocal best_cost, best, states
        leaf = depth == n - 1
        for v, c in children(depth, prefix, cost):
            states += 1
            if states > max_states:
                raise SearchSpaceTooLarge(states, max_states)
            if c is None or (best_cost is not None and c >= best_cost):
                continue
            prefix[depth] = v
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


class MinResult(Record):
    """The least cost a walked minimizer found, its first witness, and the nodes the walk entered.

    ``minimum`` and ``witness`` are ``None`` when no admissible point lies
    in the box.  ``mode`` is the SSAT norm ("l1", "linf") or the NCP field
    ("box", "full"), and ``None`` for SIS and LHP.
    """

    minimum: Optional[Union[Fraction, int]]
    witness: Any
    states_visited: int
    mode: Optional[str] = None


class SearchBudget(Record):
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


class _FiledRows(Record):
    """Sparse integer rows that cost their multiplicity when missed, filed under their last column.

    ``by_column[d]`` holds each row whose last column is d as (earlier
    columns, earlier coefficients, last coefficient, target, multiplicity).
    ``root`` is the multiplicity of the missed rows with no column.  A row with sum ``s``
    over the point is missed when ``s % modulus != target``, or, with no
    modulus, when ``s < target``.  Each child of a node is costed from one
    partial sum per completed row, over its earlier columns, taken once per
    node.
    """

    modulus: Optional[int]
    root: int
    by_column: tuple[tuple[tuple[Columns, tuple[int, ...], int, int, int], ...], ...]

    def residue_children(self, values: Sequence[int]) -> Children:
        """The children of a node over ``values``, rows mod a prime modulus, each filed monic.

        A monic row (last coefficient 1) is met by exactly one value of its
        last column, ``target - partial`` mod q.  So a child costs its
        parent's cost plus the rows completed here, less those its value
        meets; only the met residues are kept, never a table of the field.
        """
        q, by_column = self.modulus, self.by_column

        def children(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, int]]:
            get = prefix.__getitem__
            met: dict[int, int] = {}
            missed = cost
            for cols, coeffs, _, t, k in by_column[depth]:
                v = (t - sum(map(mul, coeffs, map(get, cols)))) % q
                met[v] = met.get(v, 0) + k
                missed += k
            return ((v, missed - met.get(v, 0)) for v in values)

        return children

    def grid_children(self, depth: int, prefix: Prefix, cost: int) -> tuple[tuple[int, int], ...]:
        """The children of a node over (-1, 0, 1), rows with no modulus.

        A row with partial sum ``p`` and last coefficient ``a`` is missed at
        ``v`` when ``a * v < target - p``.
        """
        lo = mid = hi = cost
        get = prefix.__getitem__
        for cols, coeffs, a, t, k in self.by_column[depth]:
            r = t - sum(map(mul, coeffs, map(get, cols)))
            if r > -a:
                lo += k
            if r > 0:
                mid += k
            if r > a:
                hi += k
        return (-1, lo), (0, mid), (1, hi)


def _file_rows(n: int, rows: Iterable[tuple], modulus: Optional[int] = None) -> _FiledRows:
    """File ``rows`` (targets already reduced mod ``modulus``) for a walk over ``n`` columns."""
    root = 0
    by_column: list[list] = [[] for _ in range(n)]
    for cols, coeffs, t, k in rows:
        if cols:
            by_column[cols[-1]].append((cols[:-1], coeffs[:-1], coeffs[-1], t, k))
        elif t != 0 if modulus else t > 0:  # the row's sum is 0
            root += k
    return _FiledRows(modulus=modulus, root=root, by_column=tuple(map(tuple, by_column)))


class _EqualityRows(Record):
    """Equality rows ``sum(a_c * z_c) == t`` as per-coordinate bounds over [-k, k].

    ``by_column[d]`` lists, for every row with a nonzero entry at column d,
    its earlier columns and coefficients, the entry at d, the reach
    ``k * sum |a_c|`` of its later columns, and its target.  ``feasible`` is
    False when a row with no nonzero entry has a nonzero target.
    """

    k: int
    feasible: bool
    by_column: tuple[tuple[tuple[Columns, tuple[int, ...], int, int, int], ...], ...]

    def allowed(self, depth: int, prefix: Prefix) -> range:
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

    def l1_children(self, depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, int]]:
        """The allowed children, each costing its parent's cost plus its absolute value."""
        for v in self.allowed(depth, prefix):
            yield v, cost + abs(v)


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


# ---------------------------------------------------------------------------
# Label cover
# ---------------------------------------------------------------------------

class LcMaxResult(Record):
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

    values = range(len(choices))

    def children(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, int]]:
        # each B-vertex's images with its edges to earlier A-vertices fixed, and their loss, once per node
        before = [
            ([images[prefix[a]] if a < depth else None for a, images in edges], edges) for edges in by_column[depth]
        ]
        base = cost - sum(loss(fixed) for fixed, _ in before)
        for v in values:
            yield v, base + sum(
                loss([images[v] if a == depth else y for y, (a, images) in zip(fixed, edges)])
                for fixed, edges in before
            )

    return branch_and_bound(len(lc.a_vertices), children, root, max_states)


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

class _SsatRows(Record):
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
    so every leaf it reaches is consistent; each leaf is recorded as it is
    yielded and rejected, so no subtree is ever pruned by cost.
    """
    rows = _compile_ssat(ssat)
    n = rows.num_cols
    allowed = rows.equalities(k).allowed
    found: list[SuperAssignment] = []

    def record(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, Optional[int]]]:
        leaf = depth == n - 1
        for v in allowed(depth, prefix):
            if leaf:
                found.append(superassignment_from_sis_solution(ssat, prefix[:depth] + [v]))
            yield v, None if leaf else cost

    _, empty, _ = branch_and_bound(n, record, 0, max_states)
    # with no columns the walk enters no node and returns the empty vector
    return found if empty is None else [superassignment_from_sis_solution(ssat, empty)]


def solve_ssat_min_norm(ssat: SsatInstance, budget: SearchBudget, hints: Hints = ()) -> MinResult:
    """Exact minimum norm over consistent super-assignments in the box.

    The mode fixes both the norm and the side condition: l1 minimizes the
    average test norm over non-trivial points, linf the maximum test norm
    over points that are not all zero (Dinur-Kindler-Raz-Safra).  The
    minimum is a ``Fraction`` in both modes, ``None`` when no admissible
    super-assignment exists in the box.

    The walk tries only weights that keep every consistency row reachable;
    the l1 cost adds each |weight|, the linf cost is the largest test norm
    so far, and the side condition is checked at the leaf.  A hint is a flat
    weight vector; one the walk reaches as a leaf caps it at its norm.

    The l1 cost carries a completion floor: every test with a column has l1
    at least 1 at a nontrivial consistent point, because an all-zero test
    zeroes its variables' projection sums there, ``shared_pairs`` ties
    those sums to every other test of the variable, and so the variable is
    trivial.  The root costs the number of tests with a column, a test's
    first nonzero weight v adds |v| - 1, and a zero at a test's last column
    while the test is all zero is infeasible; the cost never falls and is
    the true l1 at a leaf.  The leaf still checks ``nontrivial``, as nonzero
    tests can cancel a variable to trivial.
    """
    rows = _compile_ssat(ssat)
    n = rows.num_cols
    l1 = budget.mode == "l1"
    admissible = rows.nontrivial if l1 else any

    equalities = rows.equalities(budget.coeff_box)
    allowed, off = equalities.allowed, ssat.offsets
    test_start = [lo for lo, hi in zip(off, off[1:]) for _ in range(lo, hi)]
    if l1:
        test_last = {hi - 1 for lo, hi in zip(off, off[1:]) if hi > lo}

        def costed(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, Optional[int]]]:
            if any(prefix[test_start[depth]:depth]):  # the test's floor is paid
                return equalities.l1_children(depth, prefix, cost)
            zero = None if depth in test_last else cost
            return ((v, cost + abs(v) - 1 if v else zero) for v in allowed(depth, prefix))

    else:

        def costed(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, int]]:
            so_far = sum(map(abs, prefix[test_start[depth]:depth]))  # the test's norm before this weight
            return ((v, max(cost, so_far + abs(v))) for v in allowed(depth, prefix))

    def children(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, Optional[int]]]:
        if depth < n - 1:
            return costed(depth, prefix, cost)
        head = prefix[:depth]
        return ((v, c if c is not None and admissible(head + [v]) else None) for v, c in costed(depth, prefix, cost))

    # with no columns the walk enters no node: the empty vector is judged here
    lowest = sum(hi > lo for lo, hi in zip(off, off[1:])) if l1 else 0
    root = lowest if equalities.feasible and (n or admissible(())) else None
    best_norm, best, states = branch_and_bound(n, children, root, budget.max_states, hints)
    if best is None:
        return MinResult(None, None, states, budget.mode)
    minimum = Fraction(best_norm, len(ssat.tests) if l1 else 1)
    return MinResult(minimum, superassignment_from_sis_solution(ssat, best), states, budget.mode)


# ---------------------------------------------------------------------------
# SIS
# ---------------------------------------------------------------------------

def _compile_sis(sis: SisInstance, k: int) -> _EqualityRows:
    rows = ((_split(row), t) for row, t in zip(sis.matrix, sis.target))
    return _compile_equalities(sis.num_cols, k, rows)


def solve_sis_min(sis: SisInstance, budget: SearchBudget, hints: Hints = ()) -> MinResult:
    """Exact minimum l1 norm of a box solution of ``matrix @ z == target``.

    The walk tries only values that leave every row's target reachable by
    the later columns.  Returns ``None`` when the target is unreachable in
    the box.  A hint the walk reaches as a leaf, a box solution, caps it at
    its l1 norm.
    """
    rows = _compile_sis(sis, budget.coeff_box)
    return MinResult(*branch_and_bound(
        sis.num_cols, rows.l1_children, 0 if rows.feasible else None, budget.max_states, hints
    ))


# ---------------------------------------------------------------------------
# NCP
# ---------------------------------------------------------------------------

def _compile_ncp(ncp: NcpInstance) -> _FiledRows:
    """Each row as its nonzero residues mod q, scaled monic, missed when its sum is not its target residue.

    q is prime, so scaling a row and its target by the inverse of its last
    residue keeps the points that meet it.
    """
    q = ncp.modulus
    rows = []
    for row, t, k in zip(ncp.matrix, ncp.target, ncp.multiplicity):
        cols, coeffs = _split((c, a % q) for c, a in row if a % q)
        if cols:
            inverse = pow(coeffs[-1], -1, q)
            coeffs, t = tuple(a * inverse % q for a in coeffs), t * inverse
        rows.append((cols, coeffs, t % q, k))
    return _file_rows(ncp.num_cols, rows, q)


def _box_residues(k: int, q: int, limit: int) -> tuple[int, ...]:
    """The first ``limit`` residues of -k, ..., k mod q, in order of first appearance.

    They are the ``min(2k + 1, q)`` residues from ``-k % q`` on, wrapping
    from q - 1 to 0: two ascending runs, so none past ``limit`` is computed.
    """
    start = -k % q
    end = start + min(2 * k + 1, q, limit)
    return (*range(start, min(end, q)), *range(max(end - q, 0)))


def solve_ncp_min(ncp: NcpInstance, budget: SearchBudget, full_field: bool = False, hints: Hints = ()) -> MinResult:
    """Exact (full-field) or box-restricted minimum Hamming distance.

    Box mode restricts coordinates to the images of [-k, k] modulo q, tried
    in that order, and is flagged as such in the result; witnesses are
    canonical field elements.  The walk takes at most ``max_states + 1``
    children of any node, so only that many residues of the box are built,
    and the cap bounds the set-up of any box.  A hint is taken mod q; one
    whose residues lie in the box caps the walk at the distance the walk
    charges it.
    """
    q = ncp.modulus
    cap = budget.max_states
    values = range(q) if full_field else _box_residues(budget.coeff_box, q, max(cap, 0) + 1)
    rows = _compile_ncp(ncp)
    walked = branch_and_bound(
        ncp.num_cols, rows.residue_children(values), rows.root, cap, ([v % q for v in z] for z in hints)
    )
    return MinResult(*walked, "full" if full_field else "box")


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
        *xs, cy, cd = (c.numerator * (scale // c.denominator) for c in coeffs)
        rows.append((tuple(i for i, _ in ineq.coeff_x), tuple(xs), -cy + (cd <= 0), ineq.multiplicity))
    return _file_rows(lhp.num_x, rows)


def solve_lhp_min(lhp: LhpSystem, budget: SearchBudget = SearchBudget(), hints: Hints = ()) -> MinResult:
    """Minimum violation count over the soundness normal-form grid.

    The grid is x in {-1,0,1}^n, y = 1, delta infinitesimal.  This is an
    upper-bound oracle for the true noise: low-violation assignments reduce
    to the grid's normal form, but the exact optimum over all of rational
    space is not computed here.  A hint is an x on the grid; it caps the
    walk at the violations the walk charges it.
    """
    rows = _compile_lhp(lhp)
    best_count, best, states = branch_and_bound(
        lhp.num_x, rows.grid_children, rows.root, budget.max_states, hints
    )
    return MinResult(best_count, LhpAssignment.of(best), states)
