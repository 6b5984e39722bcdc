"""Exact brute-force solvers: ground truth for every problem in the pipeline.

Every exact search fixes the coordinates in index order and returns the
least cost with the lexicographically first optimum in its try order, so
results and witnesses are deterministic.  There are two walks and one state
cap rule: a walk charges every node it enters and raises
``SearchSpaceTooLarge`` at the first node over the cap, a hard error, never
a silent approximation; ``DEFAULT_MAX_STATES`` is its one default.

* ``branch_and_bound`` walks depth first and prunes a prefix whose cost
  already reaches the best leaf found so far.  SSAT, SIS, label cover,
  agreement and the consistent enumeration run on it.  The label-cover
  and agreement costs read the whole prefix; SIS needs few nodes, as its
  equality rows narrow each coordinate to the values that keep every row
  reachable; SSAT's state would add its coverage sets to its open rows,
  and its depth-first incumbent prunes early.  The maximizations (label
  cover, agreement) minimize a loss per B-vertex, charged as its
  A-neighbours are labeled; the consistent enumeration records every leaf
  and prunes nothing.
* ``best_first_walk`` runs NCP and LHP.  Their rows are compiled so that
  what a prefix's completions cost depends only on its length and its
  state, the partial sums of the rows open at the cut, so each state is
  expanded once, cheapest first by its cost plus a floor on what the later
  columns must add: dynamic programming over the fixed column order.
  Taking the states layer by layer instead prunes only below a hint: on
  the full-field NCP walk of ``GenSpec(3, 3, 3, 2, 2, 1)`` seed 0 with one
  flipped edge, which the depth-first walk finishes in 64,193 nodes, a
  layered walk with no hint entered 6.7 million and this one enters 667.

The SSAT, SIS, NCP and LHP solvers walk each independent block of their
instance alone (``_walk_blocks``).  An SSAT block is a set of tests that
shared variables join (``shared_pairs``); an SIS, NCP or LHP block is a set
of columns that rows join, a column in no row being a block of its own and
a row with no column a constant of the whole stage.  Every cost is a sum
over the blocks and every row, coverage set and floor lies inside one, so
the minimum is the sum of the block minima, and as the optimal points are
the product of the blocks' optimal sets, the lexicographically first
optimum is, block by block, each block's first optimum.  Blocks are walked
in order of their first column against one state budget, so a search is
stopped exactly when its blocks together pass the cap; a block with no
admissible point (SIS, SSAT) ends the search with minimum ``None``.  The
instance is compiled once, and its compiled rows are split: NCP and LHP
rows are filed and split in one pass, and the SSAT blocks' tables come from
one pass over the whole instance's tables.  SSAT linf stays one walk: its
cost is the largest test norm, not a sum, and its side condition, some
nonzero weight, spans the blocks, so its first optimum need not be the
blocks' first optima.

The SSAT, SIS and NCP solvers take ``hints``: points, such as a planted
solution or another oracle's witness, that may cap a walk.  Each hint is
cut into its blocks' coordinates and followed down each block's own
children, so a hint that reaches a leaf costs what the walk would charge
there, a certified ceiling with no second semantics; a hint that leaves a
block's walk is dropped for that block only, so a wrong hint never changes
a minimum or a witness.  A ceiling prunes the depth-first walk.  The
best-first walk's floor is consistent, so the states it expands are fixed
whatever the incumbent (Hart, Nilsson and Raphael, *IEEE Trans. SSC* 4(2),
1968): a ceiling only keeps worse states out of its queue, which saves NCP
time but no node, and LHP takes no hints.

A walk asks its client for all the children of a node at once, so work the
children share is done once per node.  Each walked solver compiles its
instance once into sparse integer rows.  An NCP row, filed monic mod the
prime q, is met by exactly one residue of its last column, so a child costs
its parent's cost plus the rows completed here, less those crediting its
value; an LHP row is compared at -1, 0 and 1 from its partial sum, which it
shares with the rows that differ from it only in sign (the two halves of a
G2 pair); a row with one column is costed once per column.  Equality rows
(SIS rows, SSAT consistency rows) instead narrow each coordinate to the
values that leave every row reachable by the later columns.  The SSAT l1
walk also charges each test with a column a floor from the root: at a
nontrivial consistent point a test's l1 is at least 1, as an all-zero test
would make its variables trivial, and at least the projection l1 on each of
its variables of the first test reading it, to which the consistency rows
tie its own projection.  A test's floor counts the first tests complete so
far, so the cost is an admissible bound in the sense of Land and Doig: it
never falls down a path and is exact at a leaf.  The instance-level
predicates (``is_consistent``, ``is_nontrivial``, ``SisInstance.multiply``,
``NcpInstance.distance``, ``count_lhp_violations``) are the reference
semantics the compiled rows are tested against; result objects such as
``SuperAssignment`` and ``LhpAssignment`` are built only for the witness.

The four walked minimizers return one ``MinResult``: an SSAT minimum is a
``Fraction``, an SIS, NCP or LHP minimum an ``int``.  Label cover, the one
maximization, returns ``LcMaxResult``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, islice
from operator import itemgetter, mul
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
State = tuple[int, ...]
Columns = tuple[int, ...]
Children = Callable[[int, Any, int], Iterable[tuple[int, Optional[int]]]]
Advance = Callable[[int, State, int], State]
Floor = Callable[[int, State], int]
Hints = Iterable[Sequence[int]]


def _hint_cost(
    n: int, children: Children, root: Optional[int], hint: Sequence[int], max_states: int,
    advance: Optional[Advance] = None, bound: float = math.inf,
) -> Optional[int]:
    """The cost of the leaf ``hint`` down the walk's own children, ``None`` when the walk has no such leaf.

    A depth-first walk's children read the hint itself as their prefix; a
    best-first walk's read the state that ``advance`` carries down the hint
    from the empty one.  Each node's children are scanned lazily, never
    tabled, and at most ``max_states`` of them: a node with more children
    before the hint's value is one the walk could not finish under its cap,
    so the hint is dropped.  So is a hint once its cost reaches ``bound``:
    a cost never falls down a path, so its leaf would cost that much too.
    """
    if len(hint) != n or root is None:
        return None
    state, cost, limit = list(hint) if advance is None else (), root, max(max_states, 0)
    for depth, v in enumerate(hint):
        for u, cost in islice(children(depth, state, cost), limit):
            if u == v:
                break
        else:
            return None
        if cost is None or cost >= bound:
            return None
        if advance is not None:
            state = advance(depth, state, v)
    return cost


def _ceiling(
    n: int, children: Children, root: Optional[int], hints: Hints, max_states: int, advance: Optional[Advance] = None
) -> float:
    """One more than the least cost of a distinct hint that is a leaf of the walk, infinite when none is.

    Each hint is followed only while it costs less than the least leaf of
    the hints before it, the one it would have to beat; none is followed
    once a leaf costs the root's cost, as no cost falls below it.
    """
    least = math.inf
    for h in dict.fromkeys(map(tuple, hints)):
        cost = _hint_cost(n, children, root, h, max_states, advance, least)
        if cost is not None:
            least = cost
            if cost == root:
                break
    return least + 1


def branch_and_bound(
    n: int,
    children: Children,
    root: Optional[int],
    max_states: int,
    ceiling: float = math.inf,
    spent: int = 0,
) -> tuple[Optional[int], Optional[tuple[int, ...]], int]:
    """Least leaf cost, the first leaf attaining it, and the number of nodes entered.

    The walk fixes coordinates 0, 1, ..., n - 1 in order, depth first.
    ``root`` is the cost before any coordinate is fixed, ``None`` when no
    point is feasible.  At a node of integer ``cost`` whose coordinates
    ``prefix[:depth]`` are fixed, ``children(depth, prefix, cost)`` yields
    ``(value, child cost)`` for every value coordinate ``depth`` may take,
    in the order to try them, so a client costs all the children of a node
    in one pass and shares what they have in common.  A child's cost never
    falls below its parent's, is the true cost at a leaf, and is ``None`` on
    an infeasible prefix.  ``children`` may read only ``prefix[:depth]``;
    the walk changes ``prefix[depth:]`` between the items it takes from a
    lazy client.  Every child yielded is charged as one node entered, and
    the charge passing ``max_states`` raises ``SearchSpaceTooLarge``; then a
    child whose cost is ``None`` or not below the best leaf so far is
    pruned.  Only a strict improvement replaces the best leaf; as a pruned
    subtree holds no strict improvement, the witness is the
    lexicographically first optimum.  With ``n == 0`` the one point is the
    empty vector, at cost ``root``.

    The walk starts as if a leaf costing ``ceiling`` had been found.  When
    ``_ceiling`` gives it, one more than the least cost of a hint that is a
    leaf of this walk, the minimum and its witness are those of the plain
    walk, reached in no more nodes.  The count starts at ``spent``, the
    nodes that earlier walks of the same search charged against the cap.

    SSAT, SIS, label cover, agreement and the consistent enumeration walk
    here, where an early incumbent prunes.  NCP and LHP walk on
    ``best_first_walk`` instead: their rows reduce a prefix to a state, so
    prefixes that reach one state are expanded once.
    """
    prefix = [0] * n
    best_cost = ceiling
    best: Optional[tuple[int, ...]] = None
    states = spent

    def visit(depth: int, cost: int) -> None:
        nonlocal best_cost, best, states
        leaf = depth == n - 1
        for v, c in children(depth, prefix, cost):
            states += 1
            if states > max_states:
                raise SearchSpaceTooLarge(states, max_states)
            if c is None or c >= best_cost:
                continue
            prefix[depth] = v
            if leaf:
                best_cost, best = c, tuple(prefix)
            else:
                visit(depth + 1, c)

    if root is not None and root < best_cost:
        if n:
            visit(0, root)
        else:
            best_cost, best = root, ()
    return (None, None, states) if best is None else (best_cost, best, states)


def _unwind(prefix: Any) -> list[tuple[int, int]]:
    """A prefix kept as nested (try index, value, parent prefix) triples, as its (try index, value) pairs from the root."""
    pairs = []
    while prefix is not None:
        i, v, prefix = prefix
        pairs.append((i, v))
    return pairs[::-1]


def best_first_walk(
    n: int,
    children: Children,
    advance: Advance,
    floor: Floor,
    root: int,
    max_states: int,
    ceiling: float = math.inf,
    spent: int = 0,
) -> tuple[Optional[int], Optional[tuple[int, ...]], int]:
    """``branch_and_bound``'s minimum and first witness, from one expansion per reachable state.

    The cost a prefix's completions add depends only on its length and its
    ``state``, which ``advance(depth, state, value)`` carries from the empty
    root state to a child, so of all prefixes reaching one state only the
    cheapest needs expanding: dynamic programming over the fixed coordinate
    order.  ``children(depth, state, cost)`` yields ``(value, child cost)``
    in the order to try them, as for ``branch_and_bound``, with integer
    costs that add what the value and the parent's state decide.
    ``floor(depth, state)`` is a lower bound on what the coordinates from
    ``depth`` on add, 0 at ``depth == n``, that never exceeds a child's
    step plus the child's floor.

    A state of cost c is due at c plus its floor.  The walk expands states
    in order of due cost, the shorter prefix first, so when a state is
    expanded every prefix that reaches it at its least cost has arrived;
    it keeps the first of them in try order, so the witness is the
    lexicographically first optimum, and the first leaf expanded ends the
    walk.  A child whose cost or due cost is not below ``ceiling``, or the
    best leaf so far plus one, is never queued.  Every child yielded at an
    expanded state is charged as one node, and the charge passing
    ``max_states`` raises ``SearchSpaceTooLarge``; the walk holds no more
    states than the children charged, so the cap bounds memory too.  The
    states expanded are those due below the minimum and, short of the
    leaves, those due at it, with or without a ceiling above the minimum,
    so a hinted walk enters the same nodes; a ceiling only keeps worse
    states out of the queue, which saves time and memory but no node.  The
    count starts at ``spent``, as for ``branch_and_bound``.
    """
    best_cost = ceiling
    due = root + floor(0, ())
    # per depth: state -> (least cost, floor, first prefix at that cost as (try index, value, parent prefix))
    kept: list[dict[State, tuple[int, int, Any]]] = [{} for _ in range(n + 1)]
    kept[0][()] = (root, due - root, None)
    queue = [(due, 0, 0, ())]
    states = spent
    while queue:
        due, depth, _, state = heappop(queue)
        cost, below, prefix = kept[depth][state]
        if cost + below != due:  # a cheaper prefix reached the state after this entry was queued
            continue
        if depth == n:
            return cost, tuple(v for _, v in _unwind(prefix)), states
        following = kept[depth + 1]
        leaf = depth + 1 == n
        for i, (v, c) in enumerate(children(depth, state, cost)):
            states += 1
            if states > max_states:
                raise SearchSpaceTooLarge(states, max_states)
            if c >= best_cost:
                continue
            child = () if leaf else advance(depth, state, v)
            old = following.get(child)
            if old is None:
                below = 0 if leaf else floor(depth + 1, child)
                if c + below >= best_cost:
                    continue
            elif c > old[0] or c == old[0] and _unwind(old[2]) < _unwind((i, v, prefix)):
                continue
            else:
                below = old[1]
            following[child] = (c, below, (i, v, prefix))
            if old is None or c < old[0]:
                heappush(queue, (c + below, depth + 1, states, child))
                if leaf:
                    best_cost = c + 1
    return None, None, states


# (columns, root, children, advance, floor): a block's columns ascending, and its walk over them numbered from 0,
# depth first when ``advance`` is None
Block = tuple[Columns, Optional[int], Children, Optional[Advance], Optional[Floor]]


def _walk_blocks(
    n: int, blocks: Iterable[Block], max_states: int, hints: Hints = (), constant: Optional[int] = 0
) -> tuple[Optional[int], Optional[tuple[int, ...]], int]:
    """The least cost over ``n`` columns that fall apart into ``blocks``, its first witness, and the nodes entered.

    A point costs ``constant`` plus what each block's walk charges its
    coordinates on the block's columns, and no point is feasible when
    ``constant`` is ``None`` or a block has no leaf.  So the minimum is the
    sum of the block minima, and as the optimal points are the product of
    the blocks' optimal sets, the first optimum in try order is each block's
    first optimum on its columns.  Blocks are walked alone, in the order
    given, against one cap: each walk's count starts at the nodes the
    blocks before it charged, so a charge passing ``max_states`` raises
    ``SearchSpaceTooLarge`` with the nodes of all of them.  A block with no
    leaf ends the walk, with the nodes charged so far.

    Each hint of length ``n`` is cut into each block's coordinates, and
    ``_ceiling`` follows it down that block's walk, scanning at most
    ``max_states`` children of a node whatever the earlier blocks charged,
    so a rerun at the exact cap follows the same hints.  A hint that is no
    leaf of one block is dropped there only.
    """
    if constant is None:
        return None, None, 0
    hints = [h for h in dict.fromkeys(map(tuple, hints)) if len(h) == n]
    total, point, states = constant, [0] * n, 0
    for cols, root, children, advance, floor in blocks:
        m = len(cols)
        ceiling = _ceiling(m, children, root, [[h[c] for c in cols] for h in hints], max_states, advance)
        if advance is None:
            cost, best, states = branch_and_bound(m, children, root, max_states, ceiling, states)
        else:
            cost, best, states = best_first_walk(m, children, advance, floor, root, max_states, ceiling, states)
        if best is None:
            return None, None, states
        total += cost
        for c, v in zip(cols, best):
            point[c] = v
    return total, tuple(point), states


def _blocks(n: int, links: Iterable[Sequence[int]]) -> tuple[list[Columns], list[int], list[int]]:
    """The blocks of ``range(n)`` that ``links`` join, each link joining its members.

    Returns the blocks in order of their first index, each ascending, then
    per index its block and its position there.
    """
    group = [[i] for i in range(n)]  # per index: the list of its block's indices, shared by all of them
    for link in links:
        g = group[link[0]]
        for i in link:
            h = group[i]
            if h is not g:
                if len(h) > len(g):
                    g, h = h, g
                g += h
                for j in h:
                    group[j] = g
    blocks: list[Columns] = []
    of, position = [0] * n, [0] * n
    for g in group:
        if g:  # the block's first index
            block = tuple(sorted(g))
            for p, i in enumerate(block):
                of[i], position[i] = len(blocks), p
            blocks.append(block)
            g.clear()
    return blocks, of, position


class MinResult(Record):
    """The least cost a walked minimizer found, its first witness, and the nodes its walks entered.

    ``minimum`` and ``witness`` are ``None`` when no admissible point lies
    in the box.  ``states_visited`` adds up the nodes of every block walked,
    up to the first with no admissible point.  ``mode`` is the SSAT norm
    ("l1", "linf") or the NCP field ("box", "full"), and ``None`` for SIS
    and LHP.
    """

    minimum: Optional[Union[Fraction, int]]
    witness: Any
    states_visited: int
    mode: Optional[str] = None


class SearchBudget(Record):
    """Box radius and state cap for the exact searches.

    ``max_states`` caps the nodes a search enters, depth first or best
    first: one budget that the walks of all its blocks charge together.
    """

    coeff_box: int = 2
    max_states: int = DEFAULT_MAX_STATES
    mode: Mode = "l1"

    def __post_init__(self):
        if self.coeff_box < 1:
            raise ValueError("coeff_box must be at least 1")
        if self.mode not in ("l1", "linf"):
            raise ValueError(f"unknown mode {self.mode!r}")


SplitRow = tuple[Columns, tuple[int, ...]]


def _split(row: Sequence[tuple[int, int]], position: Sequence[int]) -> SplitRow:
    """A sparse row's ``(column, coefficient)`` pairs as parallel tuples, each column c as ``position[c]``."""
    return tuple([position[c] for c, _ in row]), tuple([a for _, a in row])


class _FiledRows(Record):
    """Sparse integer rows that cost their multiplicity when missed, compiled into per-column transitions.

    A row with sum ``s`` over the point is missed when ``s % modulus !=
    target``, or, with no modulus, when ``s < target``.  The rows are a
    block's, each with a column, and ``single[d]`` lists the rows whose one
    column is d as (coefficient, target, multiplicity).

    A longer row is open after a prefix of length d when it has a column
    below d and one at or above.  Its partial sum there is ``scale`` times
    the sum of its *form*, its coefficients so far scaled so that the first
    is 1 mod the modulus, or, with no modulus, is positive.  The walk's
    state holds the partial sum of each distinct form open there, so rows
    that agree so far up to scale, such as the two halves of an LHP G2
    pair, share one entry, reduced mod the modulus if any.  ``steps[d]`` is
    ``(pick, moves, fresh)``: the state after column d is entry ``pick[i]``
    of the state before it plus ``moves[i]`` times the value, for each i,
    then each coefficient of ``fresh`` times the value, for the forms whose
    first column is d.

    ``ahead[d]`` lists, for each column d' >= d, the open rows after a
    prefix of length d whose only column at or above d is their last, d':
    their partial sums are known, so they bound what column d' can cost.
    It holds (d', their multiplicity, groups), a group being the index of
    a form in the state and its rows as (scale, last coefficient, target,
    multiplicity).  The entry for d' = d, when there is one, holds every
    longer row that column d completes.  A state's floor adds up, over the
    columns d' >= d, the least cost of each over its one-column rows and
    the rows known for it.
    """

    modulus: Optional[int]
    single: tuple[tuple[tuple[int, int, int], ...], ...]
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    ahead: tuple[tuple[tuple[int, int, tuple], ...], ...]

    def _walk(self, cost_column: Callable[[int, int, tuple, State], tuple]) -> tuple[Callable, Advance, Floor]:
        """The costs of a state's next column, ``advance`` and ``floor``, from ``cost_column(d, weight, groups, state)``.

        It gives, for column d and the groups of ``ahead`` known for it,
        whose rows have multiplicity ``weight`` in all, the costs of the
        column's values followed by the least of them.  A column's costs
        depend only on the partial sums of its groups' forms, so each entry
        of ``ahead`` keeps them by those sums.
        """
        bare = [cost_column(d, 0, (), ()) for d in range(len(self.single))]
        alone = [costs[-1] for costs in bare]
        fixed = [sum(alone[d:]) for d in range(len(alone) + 1)]
        entries = [
            tuple([(d, weight, groups, itemgetter(*[p for p, _ in groups]), {}) for d, weight, groups in known])
            for known in self.ahead
        ]

        def costs(entry: tuple, state: State) -> tuple:
            d, weight, groups, take, memo = entry
            key = take(state)
            got = memo.get(key)
            if got is None:
                got = memo[key] = cost_column(d, weight, groups, state)
            return got

        def column(depth: int, state: State) -> tuple:
            known = entries[depth]
            return costs(known[0], state) if known and known[0][0] == depth else bare[depth]

        def floor(depth: int, state: State) -> int:
            bound = fixed[depth]
            for entry in entries[depth]:
                bound += costs(entry, state)[-1] - alone[entry[0]]
            return bound

        steps = [_advance(self.modulus, *step) for step in self.steps]

        def advance(depth: int, state: State, v: int) -> State:
            return steps[depth](state, v)

        return column, advance, floor

    def residue_walk(self, values: Sequence[int]) -> tuple[Children, Advance, Floor]:
        """``children``, ``advance`` and ``floor`` for ``best_first_walk`` over ``values``, rows mod a prime, filed monic.

        A monic row (last coefficient 1) is met by exactly one value of its
        last column, ``target - partial`` mod q.  So a child costs its
        parent's cost plus the rows completed here, less those its value
        meets; only the met residues are kept, never a table of the field.
        ``values`` are the residues from ``values[0]`` on, wrapping at q,
        and a column costs at least the rows it completes less the most of
        them that one of those residues meets.
        """
        q = self.modulus
        start, width = values[0], len(values)
        singles = []
        for rows in self.single:
            met: dict[int, int] = {}
            for _, t, k in rows:
                met[t] = met.get(t, 0) + k
            singles.append((met, sum(met.values())))

        def cost_column(d: int, weight: int, groups: tuple, state: State) -> tuple[dict[int, int], int, int]:
            met, total = singles[d]
            met = dict(met)
            for p, rows in groups:
                x = state[p]
                for scale, _, t, k in rows:
                    v = (t - scale * x) % q
                    met[v] = met.get(v, 0) + k
            total += weight
            most = met.values() if width >= q else [k for v, k in met.items() if (v - start) % q < width]
            return met, total, total - max(most, default=0)

        column, advance, floor = self._walk(cost_column)

        def children(depth: int, state: State, cost: int) -> Iterable[tuple[int, int]]:
            met, missed, _ = column(depth, state)
            missed += cost
            return ((v, missed - met.get(v, 0)) for v in values)

        return children, advance, floor

    def grid_walk(self) -> tuple[Children, Advance, Floor]:
        """``children``, ``advance`` and ``floor`` for ``best_first_walk`` over (-1, 0, 1), rows with no modulus.

        A row with partial sum ``p`` and last coefficient ``a`` is missed at
        ``v`` when ``a * v < target - p``.  A column costs at least the least
        of its three costs.
        """
        singles = [tuple(sum(k for a, t, k in rows if a * v < t) for v in (-1, 0, 1)) for rows in self.single]

        def cost_column(d: int, weight: int, groups: tuple, state: State) -> tuple[int, int, int, int]:
            lo, mid, hi = singles[d]
            for p, rows in groups:
                x = state[p]
                for scale, a, t, k in rows:
                    r = t - scale * x
                    if r > -a:
                        lo += k
                    if r > 0:
                        mid += k
                    if r > a:
                        hi += k
            return lo, mid, hi, min(lo, mid, hi)

        column, advance, floor = self._walk(cost_column)

        def children(depth: int, state: State, cost: int) -> tuple[tuple[int, int], ...]:
            lo, mid, hi, _ = column(depth, state)
            return (-1, cost + lo), (0, cost + mid), (1, cost + hi)

        return children, advance, floor


def _advance(q: Optional[int], pick: tuple[int, ...], moves: tuple[int, ...], fresh: tuple[int, ...]) -> Callable:
    """The state after one column from the state before it and the value."""
    carried = tuple(zip(pick, moves))
    if q:
        def advance(state: State, v: int) -> State:
            return (*[(state[p] + b * v) % q for p, b in carried], *[b * v % q for b in fresh])
    else:
        def advance(state: State, v: int) -> State:
            return (*[state[p] + b * v for p, b in carried], *[b * v for b in fresh])
    return advance


def _file_rows(
    n: int, rows: Iterable[tuple], modulus: Optional[int] = None
) -> tuple[int, list[tuple[Columns, _FiledRows]]]:
    """File ``rows`` for walks over the blocks of ``range(n)`` that they join.

    Each row is (sparse pairs, factor, target, multiplicity): its
    coefficients are the pairs' times the factor, mod ``modulus`` if any,
    and its target is already so.  The longer rows with the same form
    before their last column, and the same last column, move through the
    states together, as one path.  Returns the multiplicity of the missed
    rows with no column, then each block, in order of its first column, as
    its columns ascending and its rows filed over them, numbered from 0.
    """
    root = 0
    single: list[list] = [[] for _ in range(n)]
    paths: dict[tuple, list] = {}  # (form before the last column, last column) -> rows
    for pairs, f, t, k in rows:
        if len(pairs) > 1:
            a = pairs[0][1]
            if modulus:
                inverse = pow(a, -1, modulus)
                form = tuple([(c, b * inverse % modulus) for c, b in pairs[:-1]])
                scale, last = f * a % modulus, f * pairs[-1][1] % modulus
            else:
                form = pairs[:-1] if a > 0 else tuple([(c, -b) for c, b in pairs[:-1]])
                scale, last = f if a > 0 else -f, f * pairs[-1][1]
            paths.setdefault((form, pairs[-1][0]), []).append((scale, last, t, k))
        elif pairs:
            a = f * pairs[0][1]
            single[pairs[0][0]].append((a % modulus if modulus else a, t, k))
        elif t != 0 if modulus else t > 0:  # the row's sum is 0
            root += k
    blocks, of, position = _blocks(n, ([last, *[c for c, _ in form]] for form, last in paths))
    starting: list[list[list]] = [[[] for _ in cols] for cols in blocks]
    for (form, last), members in paths.items():
        # [form by column, penultimate column, last column, rows, index of the form in the state], each column
        # numbered in its block
        starting[of[last]][position[form[0][0]]].append(
            [{position[c]: b for c, b in form}, position[form[-1][0]], position[last], tuple(members), None])
    filed = []
    for cols, opening in zip(blocks, starting):
        m = len(cols)
        steps, ahead = [], []
        open_rows: list[list] = []
        for d in range(m + 1):
            known: dict[int, dict[int, tuple]] = {}  # last column -> form index -> rows
            for _, before, last, members, p in open_rows:
                if before < d:
                    groups = known.setdefault(last, {})
                    groups[p] = groups.get(p, ()) + members
            ahead.append(tuple([
                (last, sum([k for members in groups.values() for *_, k in members]), tuple(groups.items()))
                for last, groups in sorted(known.items())
            ]))
            if d == m:
                break
            # the state after column d: the forms carried on from before it, then those it opens
            forms: dict[tuple, int] = {}
            still = [row for row in open_rows if row[2] > d] + opening[d]
            for row in still:
                row[4] = forms.setdefault((row[4], row[0].get(d, 0)), len(forms))
            carried = [(p, b) for p, b in forms if p is not None]
            steps.append((tuple([p for p, _ in carried]), tuple([b for _, b in carried]),
                          tuple([b for p, b in forms if p is None])))
            open_rows = still
        filed.append((cols, _FiledRows(modulus=modulus, single=tuple([tuple(single[c]) for c in cols]),
                                       steps=tuple(steps), ahead=tuple(ahead))))
    return root, filed


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
    lc: LabelCoverInstance, choices: Iterable, image: Callable[[Edge, object], object],
    loss: Callable[[list], int], max_states: int,
) -> tuple[int, Optional[tuple[int, ...]], int]:
    """``branch_and_bound`` over A-labelings: each A-vertex, in order, takes an index into ``choices``.

    ``loss`` judges one B-vertex from the list of its edges' images
    ``image(edge, choice)``, with ``None`` for an edge whose A-end is not
    fixed yet.  It is nonnegative, never decreases as edges are fixed, and
    is the B-vertex's true loss once all are.  A B-vertex is charged its
    loss with no edge fixed at the root, then at each A-neighbour by what
    that neighbour adds, so the cost never decreases on a path and is the
    total loss at a leaf.  The walk takes at most ``max_states + 1``
    children of any node, so only that many choices are drawn from
    ``choices`` and imaged, and the cap bounds the set-up too.
    """
    choices = tuple(islice(choices, max(max_states, 0) + 1))
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
    """A block of an SSAT instance's tests, maybe all of them, as column sets over its flat weight vector.

    A point is the block's part of a super-assignment, flattened test by
    test as in ``SsatInstance.offsets``, its columns numbered from 0.  The
    projection column sets of test t on its
    variable x are, one per field value in field order, the columns of t
    whose assignment gives x that value; they partition t's columns.  Each
    consistency row says that a projection column set of test i sums to the
    same total as the same value's set of test j, for each variable x the
    two share; it is kept as ascending columns with coefficients +1, then
    -1, and target 0.  ``coverage`` lists, per variable, the nonempty
    projection column sets of its incident tests.

    ``floors`` holds, per test of the block, what the l1 walk reads to floor
    it and the later tests, a variable standing for its index in the
    instance's ``variables``.  Only
    a variable whose first test has a column and that a later test with a
    column reads is *floored*; its projection l1 is that of its first test.
    Each entry is ``(fresh, own, new, later)``:

    * ``fresh``: (variable, nonempty projection column sets of its first
      test) for the floored variables whose first test is the block's last
      one with a column before this test;
    * ``own``: the floored variables of the test whose first test is an
      earlier one;
    * ``new``: for each floored variable the test is the first to read, its
      nonempty projection column sets without the test's last column, then
      the set holding that column, less it;
    * ``later``: for each later test with a column that reads a variable of
      ``new``, the floored variables it reads whose first test is earlier
      than this one, and the positions in ``new`` of those it reads.
    """

    num_cols: int
    consistency: tuple[SplitRow, ...]
    coverage: tuple[tuple[Columns, ...], ...]
    floors: tuple[tuple[tuple, tuple[int, ...], tuple, tuple], ...]

    def nontrivial(self, flat: Sequence[int]) -> bool:
        get = flat.__getitem__
        return all(any(sum(map(get, cols)) for cols in sets) for sets in self.coverage)

    def equalities(self, k: int) -> _EqualityRows:
        return _compile_equalities(self.num_cols, k, ((row, 0) for row in self.consistency))


def _compile_ssat(ssat: SsatInstance, blocks: Optional[Sequence[Sequence[int]]] = None) -> list[_SsatRows]:
    """The rows of each block of tests, over the block's columns numbered from 0 in the flat order.

    ``blocks`` lists tests ascending, and a test sharing a variable with
    one of them must be in its block; by default one block holds every
    test.  The tables of all blocks come from one pass over the instance's
    ``offsets``, ``projection_indices`` and ``shared_pairs``, and ``floors``
    is indexed by a test's position in its block.
    """
    every, off, index, of_variable = ssat.tests, ssat.offsets, ssat.variable_index, ssat.tests_of_variable
    blocks = blocks or [range(len(every))]
    block_of, start, sizes = [0] * len(every), [0] * len(every), []  # per test: its block, its first column there
    for b, tests in enumerate(blocks):
        n = 0
        for t in tests:
            block_of[t], start[t], n = b, n, n + off[t + 1] - off[t]
        sizes.append(n)
    projections = {
        (t, x): tuple([tuple([start[t] + r for r in rs]) for rs in by_value])
        for (t, x), by_value in ssat.projection_indices.items()
    }
    consistency: list[list] = [[] for _ in blocks]
    for i, j, x in ssat.shared_pairs:
        consistency[block_of[i]] += [
            (plus + minus, (1,) * len(plus) + (-1,) * len(minus))
            for plus, minus in zip(projections[i, x], projections[j, x])
            if plus or minus
        ]
    coverage: list[list] = [[] for _ in blocks]
    for x, ts in of_variable.items():
        coverage[block_of[ts[0]]].append(tuple([cols for t in ts for cols in projections[t, x] if cols]))

    walked = [[t for t in tests if off[t + 1] > off[t]] for tests in blocks]
    after = {t: u for ts in walked for t, u in zip(ts, ts[1:])}  # the next test of the block with a column
    first: dict[Vertex, int] = {}  # floored variable -> its first test
    fresh: list[list] = [[] for _ in every]
    for x, ts in of_variable.items():
        if ts[0] in after and any(off[u + 1] > off[u] for u in ts[1:]):
            first[x] = ts[0]
            fresh[after[ts[0]]].append((index[x], tuple([cols for cols in projections[ts[0], x] if cols])))
    floors: list[list] = [[] for _ in blocks]
    for t, test in enumerate(every):
        b = block_of[t]
        own = tuple([index[x] for x in test.variables if first.get(x, t) < t])
        new = [x for x in test.variables if first.get(x) == t]
        last = start[t] + off[t + 1] - off[t] - 1
        new_sets = tuple([
            (tuple([cols for cols in projections[t, x] if cols and last not in cols]),
             next(tuple([c for c in cols if c != last]) for cols in projections[t, x] if last in cols))
            for x in new
        ])
        later = tuple([
            (tuple([index[y] for y in every[u].variables if first.get(y, t) < t]),
             tuple([i for i, x in enumerate(new) if x in every[u].variables]))
            for u in walked[b] if u > t and any(x in new for x in every[u].variables)
        ]) if new else ()
        floors[b].append((tuple(fresh[t]), own, new_sets, later))
    return [
        _SsatRows(num_cols=n, consistency=tuple(rows), coverage=tuple(sets), floors=tuple(by_test))
        for n, rows, sets, by_test in zip(sizes, consistency, coverage, floors)
    ]


def enumerate_consistent_superassignments(
    ssat: SsatInstance, k: int, max_states: int = DEFAULT_MAX_STATES
) -> list[SuperAssignment]:
    """Every consistent super-assignment with weights in [-k, k], in lexicographic order.

    The walk tries only weights that keep every consistency row reachable,
    so every leaf it reaches is consistent; each leaf is recorded as it is
    yielded and rejected, so no subtree is ever pruned by cost.
    """
    rows, = _compile_ssat(ssat)
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
    weight vector; one the walk reaches as a leaf caps it at its norm.  The
    uniform point, every weight 1, joins the caller's hints in both modes:
    on a regular cover each value of a shared variable is taken by equally
    many assignments of every test that reads it, so the point is consistent
    and nontrivial, a first incumbent; elsewhere the walk drops it like any
    other hint.  It comes after the caller's hints, so its walk stops as
    soon as it costs as much as their least leaf.

    The l1 cost carries a floor on every test with a column.  At a
    nontrivial consistent point, each test u has l1 at least 1, because an
    all-zero test zeroes its variables' projection sums, ``shared_pairs``
    ties those sums to every other test of the variable, and so the
    variable is trivial.  It also has l1 at least that of its projection on
    each of its variables x, as x's projection column sets partition u's
    columns, and that projection equals the one of x's first test.  So
    while the walk is in test t, every earlier test being complete, a test
    u is floored at F(u), the larger of 1 and the projection l1 of each of
    its variables whose first test is complete.  A prefix costs its l1,
    plus what t still lacks of F(t), plus F(u) for each later test u: the
    root costs the number of tests with a column, and a weight v in t adds
    what |v| exceeds that lack by.  At t's last column a child that leaves
    t's l1 below F(t) is infeasible, and the projections t fixes raise the
    floors of the later tests that read its variables.  The cost never
    falls, is the true l1 at a leaf, and never exceeds that of a leaf below,
    so the walk's minimum and first witness are those of the plain l1.  The
    last column still checks non-triviality, as nonzero tests can cancel a
    variable to trivial: once per node, it bars the values that would leave
    a variable trivial.

    In l1 mode each block of tests that shared variables join is walked
    alone, as its variables' coverage sets and consistency rows lie inside
    it; linf is one walk, as its cost is the largest test norm and a nonzero
    weight anywhere meets its side condition.
    """
    l1 = budget.mode == "l1"
    k, off = budget.coeff_box, ssat.offsets
    lifted = [1] * len(ssat.variables)  # per floored variable: the larger of 1 and its projection l1

    def walk(tests: Sequence[int], rows: _SsatRows) -> Block:
        n = rows.num_cols
        equalities = rows.equalities(k)
        allowed = equalities.allowed
        bounds = [0]  # where each test's columns start here, then n
        for t in tests:
            bounds.append(bounds[-1] + off[t + 1] - off[t])
        spans = list(zip(bounds, bounds[1:]))
        if l1:
            # per column: its test's position, the test's first column, and whether it is the test's last
            place = [(i, lo, d == hi - 1) for i, (lo, hi) in enumerate(spans) for d in range(lo, hi)]
            floors = rows.floors
            # Set at a test's first column from the prefix there, and read at its later columns: the walk and
            # _hint_cost reach a node only after its ancestors, so the values hold for every node below it.
            floor_of = [1] * len(tests)  # per test: its floor F
            before = [()] * len(tests)  # per test: each test of its `later` with its floor before this test

            def settle(t: int, prefix: Prefix) -> None:
                fresh, own, _, later = floors[t]
                get = prefix.__getitem__
                for x, sets in fresh:
                    pi = sum([abs(sum(map(get, cols))) for cols in sets])
                    lifted[x] = pi if pi > 1 else 1
                floor_of[t] = max(map(lifted.__getitem__, own), default=1)
                before[t] = [(at, max(map(lifted.__getitem__, reads), default=1)) for reads, at in later]

            def closing(values: range, cost: int, lack: int, parts: list, gauge: list) -> Iterable:
                # a test's last column: each later test's floor rises to the projection l1 of the variables read
                # first here, which is `b` over a variable's sets without this column, plus |p + v| over the other
                for v in values:
                    a = abs(v)
                    if a < lack:
                        yield v, None
                        continue
                    c = cost - lack + a
                    pis = [b + abs(p + v) for b, p in parts]
                    for at, f in gauge:
                        top = max(map(pis.__getitem__, at))
                        if top > f:
                            c += top - f
                    yield v, c

            def costed(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, Optional[int]]]:
                t, start, last = place[depth]
                if depth == start:
                    settle(t, prefix)
                    lack = floor_of[t]
                else:  # what the test still lacks of its floor
                    lack = floor_of[t] - sum(map(abs, prefix[start:depth]))
                    if lack < 0:
                        lack = 0
                if not last:
                    if not lack:
                        return equalities.l1_children(depth, prefix, cost)
                    return ((v, cost + abs(v) - lack if abs(v) > lack else cost) for v in allowed(depth, prefix))
                if not before[t]:
                    return ((v, cost - lack + abs(v) if abs(v) >= lack else None) for v in allowed(depth, prefix))
                get = prefix.__getitem__
                parts = [(sum([abs(sum(map(get, cols))) for cols in others]), sum(map(get, rest)))
                         for others, rest in floors[t][2]]
                return closing(allowed(depth, prefix), cost, lack, parts, before[t])

        else:
            test_start = [lo for lo, hi in spans for _ in range(lo, hi)]

            def costed(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, int]]:
                so_far = sum(map(abs, prefix[test_start[depth]:depth]))  # the test's norm before this weight
                return ((v, max(cost, so_far + abs(v))) for v in allowed(depth, prefix))

        # per variable: its coverage sets without the last column, and the one holding it less it, or None
        final = []
        for sets in rows.coverage if l1 else ():
            holding = [cols[:-1] for cols in sets if cols[-1] == n - 1]  # a set's columns ascend
            final.append((tuple([cols for cols in sets if cols[-1] != n - 1]), holding[0] if holding else None))

        def children(depth: int, prefix: Prefix, cost: int) -> Iterable[tuple[int, Optional[int]]]:
            kids = costed(depth, prefix, cost)
            if depth < n - 1:
                return kids
            # the last column: the side condition fails at the values in `barred`
            get = prefix.__getitem__
            barred = {0} if not l1 and not any(prefix[:depth]) else set()
            for others, part in final:
                if not any(sum(map(get, cols)) for cols in others):
                    if part is None:  # a variable left trivial at every value
                        return ((v, None) for v, _ in kids)
                    barred.add(-sum(map(get, part)))
            return ((v, None if v in barred else c) for v, c in kids)

        # with no columns the walk enters no node: the empty vector is judged here
        lowest = sum(hi > lo for lo, hi in spans) if l1 else 0
        root = lowest if equalities.feasible and (n or l1 and rows.nontrivial(())) else None
        return tuple([c for t in tests for c in range(off[t], off[t + 1])]), root, children, None, None

    # the tests that shared variables join, in order of their first test
    blocks = _blocks(len(ssat.tests), ssat.tests_of_variable.values())[0] if l1 else [range(len(ssat.tests))]
    hinted = chain(hints, [(1,) * off[-1]])
    walks = map(walk, blocks, _compile_ssat(ssat, blocks))
    best_norm, best, states = _walk_blocks(off[-1], walks, budget.max_states, hinted)
    if best is None:
        return MinResult(None, None, states, budget.mode)
    minimum = Fraction(best_norm, len(ssat.tests) if l1 else 1)
    return MinResult(minimum, superassignment_from_sis_solution(ssat, best), states, budget.mode)


# ---------------------------------------------------------------------------
# SIS
# ---------------------------------------------------------------------------

def solve_sis_min(sis: SisInstance, budget: SearchBudget, hints: Hints = ()) -> MinResult:
    """Exact minimum l1 norm of a box solution of ``matrix @ z == target``.

    Each block of columns that the rows join is walked alone.  The walk
    tries only values that leave every row's target reachable by the later
    columns.  Returns ``None`` when the target is unreachable in the box: a
    row with no column has a nonzero target, or a block has no solution.  A
    hint the walk reaches as a leaf, a box solution, caps it at its l1 norm.
    """
    blocks, of, position = _blocks(sis.num_cols, ([c for c, _ in row] for row in sis.matrix if row))
    rows: list[list] = [[] for _ in blocks]
    feasible = True
    for row, t in zip(sis.matrix, sis.target):
        if row:
            rows[of[row[0][0]]].append((_split(row, position), t))
        else:  # the row sums to 0
            feasible = feasible and not t
    walks = ((cols, 0, _compile_equalities(len(cols), budget.coeff_box, at).l1_children, None, None)
             for cols, at in zip(blocks, rows))
    return MinResult(*_walk_blocks(sis.num_cols, walks, budget.max_states, hints, 0 if feasible else None))


# ---------------------------------------------------------------------------
# NCP
# ---------------------------------------------------------------------------

def _compile_ncp(ncp: NcpInstance) -> tuple[int, list[tuple[Columns, _FiledRows]]]:
    """Each row as its nonzero residues mod q, scaled monic, missed when its sum is not its target residue, filed.

    q is prime, so scaling a row and its target by the inverse of its last
    residue keeps the points that meet it.
    """
    q = ncp.modulus
    rows = []
    for row, t, k in zip(ncp.matrix, ncp.target, ncp.multiplicity):
        pairs = tuple([(c, a % q) for c, a in row if a % q])
        f = pow(pairs[-1][1], -1, q) if pairs else 1
        rows.append((pairs, f, t * f % q, k))
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
    root, blocks = _compile_ncp(ncp)
    walks = ((cols, 0, *filed.residue_walk(values)) for cols, filed in blocks)
    walked = _walk_blocks(ncp.num_cols, walks, cap, ([v % q for v in z] for z in hints), root)
    return MinResult(*walked, "full" if full_field else "box")


# ---------------------------------------------------------------------------
# LHP
# ---------------------------------------------------------------------------

def count_lhp_violations(lhp: LhpSystem, a: LhpAssignment) -> int:
    """Exact number of violated strict inequalities at ``a``, scaled once to integers.

    Each inequality is evaluated once and counts with its multiplicity.  An
    assignment with another number of x-values than ``num_x`` raises
    ``LengthMismatch``.
    """
    xs, y, delta = lhp.scaled_point(a)
    return sum(ineq.multiplicity for ineq in lhp.inequalities if not ineq.holds_at(xs, y, delta))


def _compile_lhp(lhp: LhpSystem) -> tuple[int, list[tuple[Columns, _FiledRows]]]:
    """Each inequality as an integer row over x, missed at ``y = 1`` and infinitesimal delta, filed.

    An inequality is negated when its sense is "<", so it holds when its
    standard part ``s + c_y`` is positive, or zero with a positive delta
    coefficient ``c_d``.  It is missed when ``s`` is below ``-c_y``, or
    ``-c_y + 1`` when ``c_d <= 0``.
    """
    rows = []
    for ineq in lhp.inequalities:
        sign = 1 if ineq.sense == GT else -1
        rows.append((ineq.coeff_x, sign, -sign * ineq.coeff_y + (sign * ineq.coeff_delta <= 0), ineq.multiplicity))
    return _file_rows(lhp.num_x, rows)


def solve_lhp_min(lhp: LhpSystem, budget: SearchBudget = SearchBudget()) -> MinResult:
    """Minimum violation count over the soundness normal-form grid.

    The grid is x in {-1,0,1}^n, y = 1, delta infinitesimal.  This is an
    upper-bound oracle for the true noise: low-violation assignments reduce
    to the grid's normal form, but the exact optimum over all of rational
    space is not computed here.  Each block of x columns that the
    inequalities join is walked alone.  It takes no hints: its best-first
    walk expands the same states with or without a ceiling.
    """
    root, blocks = _compile_lhp(lhp)
    walks = ((cols, 0, *filed.grid_walk()) for cols, filed in blocks)
    best_count, best, states = _walk_blocks(lhp.num_x, walks, budget.max_states, (), root)
    return MinResult(best_count, LhpAssignment.of(best), states)
