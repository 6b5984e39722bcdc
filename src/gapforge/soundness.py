"""Agreement-soundness machinery and the randomized list constructions.

Exact agreement and list-agreement soundness are computed by one
branch-and-bound walk over A-labelings.
The list constructions turn a low-norm consistent super-assignment into label
lists that create agreement on many B-vertices; sampling uses exact rational
thresholds against 64-bit uniform draws, split into one independent stream
per test so the output is reproducible and order-independent.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    MalformedInstance,
    NormBoundViolated,
    NotLcDerived,
    PreconditionFailed,
)
from .instances import Label, LabelCoverInstance, Record, SsatInstance, Vertex
from .oracles import DEFAULT_MAX_STATES, walk_a_labelings
from .superassign import (
    SuperAssignment,
    TestKind,
    assigned_value_sets,
    classify_tests,
    is_consistent,
    is_nontrivial,
    is_not_all_zero,
    norm_l1,
    norm_linf,
    test_norm,
)


# ---------------------------------------------------------------------------
# Disagreement predicates and exact soundness
# ---------------------------------------------------------------------------

def totally_disagree(lc: LabelCoverInstance, phi_a: Mapping[Vertex, Label], b: Vertex) -> bool:
    """No two neighbors of ``b`` project their labels to a common value."""
    edges = lc.edges_of_b[b]
    images = [lc.projections[e][phi_a[e[0]]] for e in edges]
    return len(images) == len(set(images))


class ListLabeling(Record):
    """A label list per A-vertex; list entries follow the alphabet order."""

    lists: dict[Vertex, tuple[Label, ...]]
    max_list_size: int

    @classmethod
    def from_sets(cls, lc: LabelCoverInstance, sets: Mapping[Vertex, Iterable[Label]]) -> "ListLabeling":
        lists: dict[Vertex, tuple[Label, ...]] = {}
        for a in lc.a_vertices:
            members = set(sets.get(a, ()))
            if not members.issubset(lc.sigma_a):
                raise MalformedInstance(f"list of {a!r} contains labels outside sigma_a")
            lists[a] = tuple(x for x in lc.sigma_a if x in members)
        return cls(lists=lists, max_list_size=max((len(v) for v in lists.values()), default=0))


def list_totally_disagree(lc: LabelCoverInstance, lists: ListLabeling, b: Vertex) -> bool:
    """No two neighbors of ``b`` hold list members projecting to a common value."""
    edges = lc.edges_of_b[b]
    image_sets = [
        {lc.projections[e][x] for x in lists.lists[e[0]]}
        for e in edges
    ]
    for i in range(len(image_sets)):
        for j in range(i + 1, len(image_sets)):
            if image_sets[i] & image_sets[j]:
                return False
    return True


def _max_agreement(lc: LabelCoverInstance, l: int, max_states: int) -> Fraction:
    """Largest agreeing fraction over every way of giving each A-vertex ``min(l, |sigma_a|)`` labels.

    The walk minimizes the B-vertices in total disagreement, whose edges'
    image sets are pairwise disjoint; one with no edge disagrees vacuously.
    Fixing one more edge can end a disagreement, so a B-vertex is charged
    only once all its edges are fixed.
    """
    if not lc.b_vertices:
        return Fraction(0)
    subsets = list(itertools.combinations(lc.sigma_a, min(l, len(lc.sigma_a))))

    def disagrees(image_sets: list) -> bool:
        return None not in image_sets and sum(map(len, image_sets)) == len(set().union(*image_sets))

    disagreeing, _, _ = walk_a_labelings(
        lc, subsets, lambda e, labels: frozenset(lc.projections[e][x] for x in labels), disagrees, max_states,
    )
    return Fraction(len(lc.b_vertices) - disagreeing, len(lc.b_vertices))


def agreement_soundness_exact(lc: LabelCoverInstance, max_states: int = DEFAULT_MAX_STATES) -> Fraction:
    """Exact agreement-soundness error over every A-labeling.

    The result is the maximum, over labelings, of the fraction of B-vertices
    that are not in total disagreement: list agreement with lists of size 1.
    """
    return _max_agreement(lc, 1, max_states)


def list_agreement_soundness_exact(
    lc: LabelCoverInstance, l: int, max_states: int = DEFAULT_MAX_STATES
) -> Fraction:
    """Exact list-agreement soundness for lists of size at most ``l``.

    Agreement is monotone in list contents, so the maximum over lists of size
    at most ``l`` is attained with every list of size exactly
    ``min(l, |sigma_a|)``; only those are searched.
    """
    if l < 1:
        raise MalformedInstance("list size must be at least 1")
    return _max_agreement(lc, l, max_states)


class BoundCheck(Record):
    """List soundness ``lhs`` against ``rhs``, l^2 times plain ``agreement`` soundness capped at 1."""

    lhs: Fraction
    agreement: Fraction
    rhs: Fraction
    holds: bool


def check_list_soundness_bound(
    lc: LabelCoverInstance, l: int, max_states: int = DEFAULT_MAX_STATES
) -> BoundCheck:
    """List soundness is at most l^2 times plain agreement soundness (capped at 1)."""
    lhs = list_agreement_soundness_exact(lc, l, max_states)
    agreement = agreement_soundness_exact(lc, max_states)
    rhs = min(Fraction(1), l * l * agreement)
    return BoundCheck(lhs=lhs, agreement=agreement, rhs=rhs, holds=lhs <= rhs)


# ---------------------------------------------------------------------------
# List construction
# ---------------------------------------------------------------------------

def _check_s_list(s_list: Fraction) -> Fraction:
    if not (0 < s_list < Fraction(1, 2)):
        raise MalformedInstance("s_list must lie strictly between 0 and 1/2")
    return s_list


def _check_seed(seed: int) -> None:
    # random.Random seeds from abs(seed), so a negative seed would repeat its positive twin
    if seed < 0:
        raise MalformedInstance(f"the seed must be non-negative, got {seed}")


class ListConstructionParams(Record):
    """Norm bound, target fraction, the derived threshold and inclusion probability."""

    g: Fraction
    s_list: Fraction
    g1: Fraction
    p_include: Fraction
    seed: int

    def __post_init__(self):
        _check_s_list(self.s_list)
        if not (0 < self.p_include <= 1):
            raise MalformedInstance("p_include must lie in (0, 1]")
        _check_seed(self.seed)

    @classmethod
    def derive(
        cls,
        g,
        s_list,
        d_a: int,
        seed: int = 0,
        force_p_one: bool = False,
    ) -> "ListConstructionParams":
        g = Fraction(g)
        s_list = _check_s_list(Fraction(s_list))
        g1 = g * (1 - s_list) / (1 - 2 * s_list)
        p = Fraction(1) if force_p_one else min(Fraction(1), g1 / d_a)
        return cls(g=g, s_list=s_list, g1=g1, p_include=p, seed=seed)


def _stream(seed: int, test_idx: int) -> random.Random:
    # one independent, reproducible stream per test
    return random.Random((seed << 32) + test_idx)


def _draw(rng: random.Random, p: Fraction) -> bool:
    u = rng.getrandbits(64)
    return u * p.denominator < p.numerator * (1 << 64)


def select_low_norm_tests(
    ssat: SsatInstance, s: SuperAssignment, params: ListConstructionParams
) -> tuple[int, ...]:
    """Tests whose norm is at most the Markov threshold g1.

    When the average norm is at most g, at least an s_list fraction of tests
    fall below g1 = g(1 - s_list)/(1 - 2 s_list); a threshold below that
    can break the floor, which raises ``PreconditionFailed``.
    """
    avg = norm_l1(s)
    if avg > params.g:
        raise NormBoundViolated(f"average norm {avg} exceeds the bound {params.g}")
    selected = tuple(i for i in range(len(ssat.tests)) if test_norm(s, i) <= params.g1)
    if Fraction(len(selected), len(ssat.tests)) < params.s_list:
        raise PreconditionFailed(f"{len(selected)} of {len(ssat.tests)} tests have norm at most "
                                 f"g1 = {params.g1}, below the s_list = {params.s_list} floor")
    return selected


def _require_lc(ssat: SsatInstance) -> LabelCoverInstance:
    if ssat.provenance is None:
        raise NotLcDerived("list construction needs label-cover provenance")
    return ssat.provenance.lc


def _include_from_assignment(
    ssat: SsatInstance,
    lists: dict[Vertex, set[Label]],
    test_idx: int,
    r_idx: int,
    skip_var: Optional[Vertex],
    assigned: Mapping[Vertex, frozenset[Label]],
    p: Fraction,
    rng: random.Random,
) -> None:
    """Offer each non-assigned value of one assignment to its variable's list."""
    test = ssat.tests[test_idx]
    r = test.assignments[r_idx]
    for var, value in zip(test.variables, r):
        if var == skip_var or value in assigned[var]:
            continue
        if _draw(rng, p):
            lists[var].add(value)


def _list_steps_1_2(
    ssat: SsatInstance, s: SuperAssignment, tests: Sequence[int], p: Fraction, seed: int
) -> tuple[dict[Vertex, frozenset[Label]], dict[Vertex, set[Label]], list[int]]:
    """Steps 1 and 2 of both list constructions: the assigned sets, the lists, and the donors.

    Step 1 lists every assigned value.  In step 2 each of ``tests`` whose
    every nonzero assignment has exactly one assigned value is a donor: its
    lowest-index nonzero assignment offers its non-assigned values.
    """
    assigned = assigned_value_sets(ssat, s)
    lists: dict[Vertex, set[Label]] = {x: set(assigned[x]) for x in ssat.variables}
    donors = [t for t, kind in zip(tests, classify_tests(ssat, s, tests)) if kind is TestKind.ALL_SINGLE_GOOD]
    for t_idx in donors:
        r_idx = next(i for i, w in enumerate(s.weights[t_idx]) if w != 0)
        _include_from_assignment(ssat, lists, t_idx, r_idx, None, assigned, p, _stream(seed, t_idx))
    return assigned, lists, donors


def list_construction(
    ssat: SsatInstance, s: SuperAssignment, params: ListConstructionParams
) -> ListLabeling:
    """Build label lists from a consistent non-trivial super-assignment.

    Step 1 puts every assigned value into its variable's list.  Step 2 walks
    the low-norm tests; wherever every nonzero assignment has exactly one
    assigned value, the lowest-index nonzero assignment donates its
    non-assigned values, each kept with probability ``p_include``.  Ties are
    always broken by index, and p_include = 1 makes the construction fully
    deterministic.
    """
    lc = _require_lc(ssat)
    if not is_consistent(ssat, s) or not is_nontrivial(ssat, s):
        raise PreconditionFailed("list construction needs a consistent, non-trivial super-assignment")
    _, lists, _ = _list_steps_1_2(ssat, s, select_low_norm_tests(ssat, s, params), params.p_include, params.seed)
    return ListLabeling.from_sets(lc, lists)


class LinfListResult(Record):
    """Lists plus the bookkeeping of the max-norm construction.

    ``marked_step3`` is the set of tests claimed while covering variables with
    no assigned value; ``g_times_d_a`` and ``marked_value_counts`` report the
    quantities the construction's applicability conditions talk about.
    """

    labeling: ListLabeling
    marked_step2: tuple[int, ...]
    marked_step3: tuple[int, ...]
    g_times_d_a: int
    marked_value_counts: dict[Vertex, int]


def list_construction_linf(
    ssat: SsatInstance,
    s: SuperAssignment,
    g: int,
    seed: int,
) -> LinfListResult:
    """Max-norm variant: every nonzero test participates, plus a marking walk.

    Steps 1 and 2 match :func:`list_construction` with threshold g and
    p = min(1, g/D_A).  Step 3 then covers each variable with an empty
    assigned set: walking its not-yet-marked tests in index order, it prefers
    an assignment whose value for the variable is already listed, includes
    that value, offers the assignment's other values with probability p, and
    stops once taking a fresh value would exceed g distinct marked values.
    """
    lc = _require_lc(ssat)
    _check_seed(seed)
    if not is_consistent(ssat, s):
        raise PreconditionFailed("max-norm list construction needs a consistent super-assignment")
    if not is_not_all_zero(s):
        raise PreconditionFailed("super-assignment is all zero")
    if norm_linf(s) > g:
        raise PreconditionFailed(f"max test norm {norm_linf(s)} exceeds the bound {g}")
    d_a = max(len(lc.edges_of_a[a]) for a in lc.a_vertices)
    p = min(Fraction(1), Fraction(g, d_a))
    nonzero = [t_idx for t_idx in range(len(ssat.tests)) if test_norm(s, t_idx) != 0]
    assigned, lists, step2 = _list_steps_1_2(ssat, s, nonzero, p, seed)
    marked = set(step2)

    step3: list[int] = []
    marked_value_counts: dict[Vertex, int] = {}
    for x in ssat.variables:
        if assigned[x]:
            continue
        taken: set[Label] = set()
        for t_idx in ssat.tests_of_variable[x]:
            if t_idx in marked:
                continue
            test = ssat.tests[t_idx]
            pos = test.variables.index(x)
            r_idx = next(
                (i for i, r in enumerate(test.assignments) if r[pos] in lists[x]),
                0,
            )
            value = test.assignments[r_idx][pos]
            if value not in taken and len(taken) >= g:
                break
            lists[x].add(value)
            taken.add(value)
            rng = _stream(seed, t_idx)
            _include_from_assignment(ssat, lists, t_idx, r_idx, x, assigned, p, rng)
            marked.add(t_idx)
            step3.append(t_idx)
        marked_value_counts[x] = len(taken)

    return LinfListResult(
        labeling=ListLabeling.from_sets(lc, lists),
        marked_step2=tuple(step2),
        marked_step3=tuple(step3),
        g_times_d_a=g * d_a,
        marked_value_counts=marked_value_counts,
    )


class DefeatReport(Record):
    non_disagree_fraction: Fraction
    defeats: bool


def verify_defeats_list_soundness(
    lc: LabelCoverInstance, lists: ListLabeling, s_list
) -> DefeatReport:
    """Fraction of B-vertices with agreement through the lists, against a target."""
    n_b = len(lc.b_vertices)
    if n_b == 0:
        return DefeatReport(Fraction(0), False)
    fraction = Fraction(sum(not list_totally_disagree(lc, lists, b) for b in lc.b_vertices), n_b)
    return DefeatReport(non_disagree_fraction=fraction, defeats=fraction >= Fraction(s_list))
