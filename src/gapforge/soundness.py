"""Agreement-soundness machinery and the randomized list construction.

Exact agreement and list-agreement soundness are computed by one
branch-and-bound walk over A-labelings.
The list construction turns a low-norm consistent super-assignment into label
lists that create agreement on many B-vertices; sampling uses exact rational
thresholds against 64-bit uniform draws, split into one independent stream
per test so the output is reproducible and order-independent.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Mapping

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
    _classify,
    assigned_value_sets,
    is_consistent,
    is_nontrivial,
    norm_l1,
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
    subsets = itertools.combinations(lc.sigma_a, min(l, len(lc.sigma_a)))

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


class ListConstructionParams(Record):
    """Norm bound, target fraction, the derived threshold and inclusion probability."""

    g: Fraction
    s_list: Fraction
    g1: Fraction
    p_include: Fraction
    seed: int

    def __post_init__(self):
        _check_s_list(self.s_list)
        if self.g <= 0:
            raise MalformedInstance(f"the norm bound g must be positive, got {self.g}")
        if not (0 < self.p_include <= 1):
            raise MalformedInstance("p_include must lie in (0, 1]")
        # random.Random seeds from abs(seed), so a negative seed would repeat its positive twin
        if self.seed < 0:
            raise MalformedInstance(f"the seed must be non-negative, got {self.seed}")

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
        if d_a < 1:
            raise MalformedInstance(f"the A-degree d_a must be at least 1, got {d_a}")
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
    return _list_construction(ssat, s, params)[1]


def _list_construction(
    ssat: SsatInstance, s: SuperAssignment, params: ListConstructionParams
) -> tuple[tuple[int, ...], ListLabeling]:
    """``list_construction``'s low-norm tests and lists: consistency and the assigned sets are checked once."""
    if ssat.provenance is None:
        raise NotLcDerived("list construction needs label-cover provenance")
    if not is_consistent(ssat, s) or not is_nontrivial(ssat, s):
        raise PreconditionFailed("list construction needs a consistent, non-trivial super-assignment")
    tests = select_low_norm_tests(ssat, s, params)
    assigned = assigned_value_sets(ssat, s)
    lists: dict[Vertex, set[Label]] = {x: set(assigned[x]) for x in ssat.variables}
    for t, kind in zip(tests, _classify(ssat, s, tests, assigned)):
        if kind is not TestKind.ALL_SINGLE_GOOD:
            continue
        test = ssat.tests[t]
        r = next(r for r, w in zip(test.assignments, s.weights[t]) if w != 0)
        rng = _stream(params.seed, t)
        for var, value in zip(test.variables, r):
            if value not in assigned[var] and _draw(rng, params.p_include):
                lists[var].add(value)
    return tests, ListLabeling.from_sets(ssat.provenance, lists)


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
