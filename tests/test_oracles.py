"""Exact oracles: values on the fixtures, determinism, cross-identities."""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from naive import hint_cost, naive_min, norm_costs, replace, ssat_box, superassignment, value_at

from gapforge import fixtures as shipped
from gapforge import oracles
from gapforge.errors import LengthMismatch, SearchSpaceTooLarge
from gapforge.genlab import GenSpec, gen_label_cover
from gapforge.instances import (
    LabelCoverInstance,
    LhpAssignment,
    NcpInstance,
    SisInstance,
    count_satisfied_edges,
)
from gapforge.oracles import (
    SearchBudget,
    _box_residues,
    count_lhp_violations,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
    walk_a_labelings,
)
from gapforge.reductions import (
    lc_to_ssat,
    lhp_assignment_from_sis_solution,
    sis_solution_from_lhp_assignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
)
from gapforge.superassign import is_consistent


# ---------------------------------------------------------------------------
# solve_lc_max
# ---------------------------------------------------------------------------

def test_lc_max_id2(lc_id2):
    assert solve_lc_max(lc_id2).best_fraction == 1


def test_lc_max_cyc_with_independent_full_enumeration(lc_cyc):
    # independent oracle: enumerate phi_a AND phi_b fully (16 labelings)
    from gapforge.instances import Labeling

    best = Fraction(0)
    for pa in itertools.product((0, 1), repeat=2):
        for pb in itertools.product((0, 1), repeat=2):
            lab = Labeling(dict(zip(("a0", "a1"), pa)), dict(zip(("b0", "b1"), pb)))
            best = max(best, Fraction(count_satisfied_edges(lc_cyc, lab), 4))
    result = solve_lc_max(lc_cyc)
    assert result.best_fraction == best == Fraction(3, 4)
    # the reported witness attains the optimum
    attained = count_satisfied_edges(lc_cyc, result.witness)
    assert Fraction(attained, 4) == best


def test_lc_max_cyc_without_flip_edge(lc_cyc):
    tables = {e: dict(lc_cyc.projections[e]) for e in lc_cyc.edges if e != ("a1", "b1")}
    lc = LabelCoverInstance(
        ("a0", "a1"), ("b0", "b1"), (0, 1), (0, 1),
        tuple(e for e in lc_cyc.edges if e != ("a1", "b1")), tables,
    )
    assert solve_lc_max(lc).best_fraction == 1


def test_lc_max_cap(lc_cyc):
    with pytest.raises(SearchSpaceTooLarge):
        solve_lc_max(lc_cyc, SearchBudget(max_states=3))


def test_lc_max_deterministic(lc_cyc):
    assert solve_lc_max(lc_cyc) == solve_lc_max(lc_cyc)


def test_lc_max_thirty_binary_vertices_within_default_cap():
    """The 2^30 labelings exceed the default cap; the walk enters only the nodes it cannot prune."""
    lc = gen_label_cover(GenSpec(30, 20, 3, 2, 2, 1, planted=True, seed=0))
    result = solve_lc_max(lc)
    assert result.best_fraction == 1
    assert count_satisfied_edges(lc, result.witness) == len(lc.edges)
    assert result.states_visited < SearchBudget().max_states < 2 ** 30


def test_lc_max_charges_each_b_vertex_at_every_neighbour():
    """The optimum and witness of the walk that charges a B-vertex only at its last A-neighbour, in fewer nodes."""
    lc = gen_label_cover(GenSpec(12, 9, 3, 3, 3, 1, planted=True, seed=0))

    def lost_once_complete(images):
        return 0 if None in images else len(images) - max(map(images.count, images), default=0)

    lost, best, plain_states = walk_a_labelings(
        lc, lc.sigma_a, lambda e, x: lc.projections[e][x], lost_once_complete, SearchBudget().max_states
    )
    result = solve_lc_max(lc)
    assert result.best_fraction == Fraction(len(lc.edges) - lost, len(lc.edges)) == 1
    assert tuple(result.witness.phi_a[a] for a in lc.a_vertices) == tuple(lc.sigma_a[i] for i in best)
    assert plain_states == 10_155  # the nodes solve_lc_max entered when it charged at the last neighbour
    assert result.states_visited < plain_states


# ---------------------------------------------------------------------------
# solve_ssat_min_norm
# ---------------------------------------------------------------------------

def test_ssat_min_id2(ssat_id2):
    result = solve_ssat_min_norm(ssat_id2, SearchBudget(coeff_box=1, mode="l1"))
    assert result.minimum == 1


def test_ssat_min_cyc_l1(ssat_cyc):
    result = solve_ssat_min_norm(ssat_cyc, SearchBudget(coeff_box=2, mode="l1"))
    assert result.minimum == 2
    # no consistent non-trivial super-assignment of norm 1 exists
    assert result.witness is not None


def test_ssat_min_cyc_linf(ssat_cyc):
    result = solve_ssat_min_norm(ssat_cyc, SearchBudget(coeff_box=2, mode="linf"))
    assert result.minimum == 2


def test_ssat_min_share(ssat_share):
    result = solve_ssat_min_norm(ssat_share, SearchBudget(coeff_box=1, mode="l1"))
    assert result.minimum == 1
    # lexicographically smallest witness over the flattened weight tuple
    assert result.witness.weights == ((-1, 0), (-1, 0))


def test_ssat_min_infeasible_none():
    from gapforge.instances import SsatInstance, SsatTest

    ssat = SsatInstance(
        variables=("x",),
        field_values=(0, 1),
        tests=(SsatTest(("x",), ((0,), (1,))),),
    )
    result = solve_ssat_min_norm(ssat, SearchBudget(coeff_box=1, mode="l1"))
    assert result.minimum == 1  # sanity: (1, 0) etc. exist


def test_ssat_uniform_point_is_a_first_incumbent_on_a_regular_cover(ssat_cyc):
    # each value of each shared variable is taken by equally many assignments of every test reading it
    n = ssat_cyc.offsets[-1]
    assert is_consistent(ssat_cyc, superassignment(ssat_cyc, (1,) * n))
    for mode, cost in (("l1", n), ("linf", max(len(t.assignments) for t in ssat_cyc.tests))):
        walk = hint_cost(lambda: solve_ssat_min_norm(ssat_cyc, SearchBudget(coeff_box=2, mode=mode)))
        assert walk((1,) * n) == cost


def test_ssat_uniform_point_off_a_regular_cover_is_dropped():
    ssat = lc_to_ssat(gen_label_cover(GenSpec(3, 2, 2, 3, 2, 2, planted=True, seed=0)))
    n = ssat.offsets[-1]
    assert not is_consistent(ssat, superassignment(ssat, (1,) * n))
    points = list(ssat_box(ssat, 1))
    for mode in ("l1", "linf"):
        budget = SearchBudget(coeff_box=1, mode=mode)
        assert hint_cost(lambda: solve_ssat_min_norm(ssat, budget))((1,) * n) is None
        best, point = naive_min(norm_costs(points, mode))
        result = solve_ssat_min_norm(ssat, budget)
        assert (result.minimum, result.witness) == (best, superassignment(ssat, point))


def test_ssat_min_cap(ssat_cyc):
    # the walk enters 32 nodes on this instance; the cap stops it at the 21st
    with pytest.raises(SearchSpaceTooLarge) as exc:
        solve_ssat_min_norm(ssat_cyc, SearchBudget(coeff_box=2, max_states=20))
    assert (exc.value.states, exc.value.cap) == (21, 20)


# ---------------------------------------------------------------------------
# solve_sis_min
# ---------------------------------------------------------------------------

def test_sis_min_share(ssat_share):
    sis = ssat_to_sis(ssat_share)
    result = solve_sis_min(sis, SearchBudget(coeff_box=2))
    assert result.minimum == 2
    assert result.witness in ((1, 0, 1, 0), (0, 1, 0, 1))


def _plain_sis_min(sis, k):
    """(min l1, first witness) by a plain loop over the box, independent of the walk."""
    solutions = (z for z in itertools.product(range(-k, k + 1), repeat=sis.num_cols) if sis.multiply(z) == sis.target)
    best = min(solutions, key=lambda z: sum(map(abs, z)), default=None)
    return (None, None) if best is None else (sum(map(abs, best)), best)


def test_sis_min_share_against_plain_enumeration(ssat_share):
    sis = ssat_to_sis(ssat_share)
    pruned = solve_sis_min(sis, SearchBudget(coeff_box=2))
    assert (pruned.minimum, pruned.witness) == _plain_sis_min(sis, 2) == (2, (0, 1, 0, 1))


def test_sis_min_cyc_is_infeasible(ssat_cyc):
    """The gadget rows force equal weights with unit block sums: no integer z.

    Exhaustively cross-checked without pruning; the consistency rows of this
    instance admit only all-equal coefficient blocks, and a block of two equal
    integers cannot sum to 1.
    """
    sis = ssat_to_sis(ssat_cyc)
    for k in (2, 3):
        assert solve_sis_min(sis, SearchBudget(coeff_box=k)).minimum is None
        assert _plain_sis_min(sis, k) == (None, None)


def test_sis_min_unreachable_target():
    from gapforge.instances import SisInstance

    sis = SisInstance(num_cols=2, matrix=(((0, 2), (1, 2)),), target=(1,), bound=1)
    assert solve_sis_min(sis, SearchBudget(coeff_box=2)).minimum is None


def test_sis_min_monotone_in_box(ssat_share):
    sis = ssat_to_sis(ssat_share)
    small = solve_sis_min(sis, SearchBudget(coeff_box=1)).minimum
    large = solve_sis_min(sis, SearchBudget(coeff_box=3)).minimum
    assert large <= small


def _two_test_sis():
    """Rows (1,1,0,0) and (0,0,1,1), target (1,1): one non-triviality row per test."""
    return ssat_to_sis(lc_to_ssat(gen_label_cover(GenSpec(2, 2, 1, 2, 2, 1, planted=False, seed=0))))


# systems off the gadget layout of _two_test_sis: the walk reads only the matrix and the target
ROW_0, ROW_1 = ((0, 1), (1, 1)), ((2, 1), (3, 1))
SIS_OFF_LAYOUT = {
    "duplicated_tag": dict(matrix=(ROW_0, ROW_0)),
    "missing_row": dict(matrix=(ROW_0,), target=(1,)),
    "target_2": dict(target=(1, 2)),
    "entry_2": dict(matrix=(((0, 1), (1, 2)), ROW_1)),
}


def _solves_like_the_box_loop(sis):
    res = solve_sis_min(sis, SearchBudget(coeff_box=1))
    return (res.minimum, res.witness) == _plain_sis_min(sis, 1)


def test_sis_layout_accepts_pipeline_instance():
    sis = _two_test_sis()
    assert (sis.num_cols, sis.matrix, sis.target) == (4, (ROW_0, ROW_1), (1, 1))
    assert _solves_like_the_box_loop(sis)


@pytest.mark.parametrize("case", sorted(SIS_OFF_LAYOUT))
def test_sis_layout_refusals(case):
    assert _solves_like_the_box_loop(replace(_two_test_sis(), **SIS_OFF_LAYOUT[case]))


def test_sis_min_duplicated_tag_is_not_pruned():
    # both rows cover test 0: reading them as one row per test would force the second block to sum to 1
    bad = replace(_two_test_sis(), **SIS_OFF_LAYOUT["duplicated_tag"])
    res = solve_sis_min(bad, SearchBudget(coeff_box=1))
    assert (res.minimum, res.witness) == (1, (0, 1, 0, 0))


# ---------------------------------------------------------------------------
# solve_ncp_min
# ---------------------------------------------------------------------------

def test_ncp_min_share_full_field(ssat_share):
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    result = solve_ncp_min(ncp, SearchBudget(), full_field=True)
    assert result.minimum == 2
    assert result.mode == "full"
    # pruning leaves the walk below the 5^4 leaves of the full field
    assert result.states_visited < 5 ** 4


def test_ncp_min_share_box(ssat_share):
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    result = solve_ncp_min(ncp, SearchBudget(coeff_box=1))
    assert result.minimum == 2
    assert result.mode == "box"


def test_ncp_zero_vector_distance(ssat_share):
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    assert ncp.distance((0, 0, 0, 0)) == 12


def test_ncp_min_equals_sis_min_when_below_replication(ssat_share, ssat_id2):
    for ssat in (ssat_share, ssat_id2):
        sis = ssat_to_sis(ssat)
        ncp = sis_to_ncp(sis, g=1)
        sis_min = solve_sis_min(sis, SearchBudget(coeff_box=2)).minimum
        ncp_min = solve_ncp_min(ncp, SearchBudget(), full_field=True).minimum
        assert sis_min is not None and sis_min < ncp.replication
        assert ncp_min == sis_min


def test_ncp_cap(ssat_share):
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    with pytest.raises(SearchSpaceTooLarge):
        solve_ncp_min(ncp, SearchBudget(max_states=10), full_field=True)


# primes far above the cap, the last past 2^63, where a range over the whole field has no len()
HUGE_PRIMES = (1_000_003, 2 ** 61 - 1, 2 ** 63 + 29)


@pytest.mark.parametrize("q", HUGE_PRIMES)
def test_ncp_full_field_cap_builds_no_table_of_the_field(ssat_share, q):
    """The walk, and following a hint down it, meet the cap after a few nodes, whatever the size of the field."""
    ncp = replace(sis_to_ncp(ssat_to_sis(ssat_share), g=1), modulus=q)
    for hints in ([], [(q - 1,) * ncp.num_cols]):
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceTooLarge):
                solve_ncp_min(ncp, SearchBudget(max_states=10), full_field=True, hints=hints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, hints


@pytest.mark.parametrize("q", HUGE_PRIMES[1:])
@pytest.mark.parametrize("hint", [(0,), (1,), (-1,)], ids=["zero", "one", "minus_one"])
def test_ncp_full_field_hint_over_a_huge_modulus_meets_the_cap(ssat_share, hint, q):
    """A hint scans at most the cap's worth of children at a node, so a field past 2^61 still ends at once."""
    ncp = replace(sis_to_ncp(ssat_to_sis(ssat_share), g=1), modulus=q)
    with pytest.raises(SearchSpaceTooLarge, match="charged 11 states"):
        solve_ncp_min(ncp, SearchBudget(max_states=10), full_field=True, hints=[hint * ncp.num_cols])


@pytest.mark.parametrize("q", (2, 3, 5, 7, 11))
def test_box_residues_are_the_residues_of_the_box_in_first_appearance_order(q):
    for k in range(1, 3 * q + 2):
        box = list(dict.fromkeys(v % q for v in range(-k, k + 1)))
        for limit in range(1, q + 2):
            assert list(_box_residues(k, q, limit)) == box[:limit]


@pytest.mark.parametrize("name", ("lc_id2", "lc_share", "lc_cyc"))
def test_ncp_huge_box_walks_as_the_small_box_with_its_residue_order(name):
    """A box of radius K >= q tries all q residues from -K mod q on, so it walks as box q + K % q.

    Its minimum is that of box q, which tries them from 0; the witness and
    the nodes can differ, as the order does.
    """
    ncp = sis_to_ncp(ssat_to_sis(lc_to_ssat(shipped.load(name))), g=1)
    q = ncp.modulus
    for big in (10 ** 18, 10 ** 18 + 1, 10 ** 18 + 2):
        result = solve_ncp_min(ncp, SearchBudget(coeff_box=big))
        assert result == solve_ncp_min(ncp, SearchBudget(coeff_box=q + big % q))
        assert result.minimum == solve_ncp_min(ncp, SearchBudget(coeff_box=q)).minimum


def test_ncp_box_cut_at_the_cap_walks_as_the_whole_box(lc_cyc):
    """Below the cap + 1 residues the box is cut; the walk and its hints never reach past them."""
    ncp = sis_to_ncp(ssat_to_sis(lc_to_ssat(lc_cyc)), g=1)
    q = ncp.modulus

    def outcome(solve):
        try:
            result = solve()
        except SearchSpaceTooLarge as exc:
            return exc.states
        return result.minimum, result.witness, result.states_visited

    for k in (2, q + 3):
        whole = tuple(dict.fromkeys(v % q for v in range(-k, k + 1)))
        for cap in range(0, 12):
            for hints in ([], [(q - 1,) * ncp.num_cols], [(0,) * ncp.num_cols]):
                def solve():
                    return solve_ncp_min(ncp, SearchBudget(coeff_box=k, max_states=cap), hints=hints)

                cut = outcome(solve)
                with mock.patch.object(oracles, "_box_residues", lambda *_: whole):
                    plain = outcome(solve)
                assert cut == plain, (k, cap, hints)


def test_ncp_huge_box_under_a_small_cap_builds_no_box(ssat_share):
    """Only the first cap + 1 residues of the box are built, so the cap bounds the set-up too."""
    ncp = sis_to_ncp(ssat_to_sis(ssat_share), g=1)
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge):
            solve_ncp_min(ncp, SearchBudget(coeff_box=10 ** 18, max_states=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tied_optima_give_the_first_in_try_order():
    """Two optima tie at every depth; each walk returns the one its values reach first, NCP hinted or not.

    NCP at box 1 tries -1, 0, 1 and at box 6 every residue from 1 on, so
    the two boxes pick different optima; the grid tries -1, 0, 1.
    """
    sis = ssat_to_sis(lc_to_ssat(gen_label_cover(GenSpec(2, 2, 2, 2, 2, 1, planted=True, seed=1))))
    lhp, ncp = sis_to_lhp(sis, g=1), sis_to_ncp(sis, g=1)
    optima = [(0, 1, 1, 0), (1, 0, 0, 1)]
    grid = {xs: count_lhp_violations(lhp, LhpAssignment.of(xs)) for xs in itertools.product((-1, 0, 1), repeat=4)}
    assert min(grid.values()) == 2 and [xs for xs, c in grid.items() if c == 2] == optima
    result = solve_lhp_min(lhp)
    assert (result.minimum, result.witness) == (2, LhpAssignment.of(optima[0]))
    q = ncp.modulus
    for k, first in ((1, optima[0]), (6, optima[1])):
        values = list(dict.fromkeys(v % q for v in range(-k, k + 1)))
        distances = {z: ncp.distance(z) for z in itertools.product(values, repeat=4)}
        assert min(distances.values()) == 2 and [z for z, d in distances.items() if d == 2] == [first, *(
            z for z in optima if z != first)]
        for hints in ([], [z for z in optima if z != first]):
            result = solve_ncp_min(ncp, SearchBudget(coeff_box=k), hints=hints)
            assert (result.minimum, result.witness) == (2, first)


# ---------------------------------------------------------------------------
# LHP oracles
# ---------------------------------------------------------------------------

def test_lhp_violations_embedded(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    assert count_lhp_violations(lhp, lhp_assignment_from_sis_solution((1, 0, 1, 0))) == 2


@pytest.mark.parametrize("xs", [(1, 0, 0, 0, 0), (1,)])
def test_lhp_assignment_of_another_length_is_refused(ssat_id2, xs):
    """Five values on two columns are not counted on the first two; one value is no bare ``IndexError``."""
    lhp = sis_to_lhp(ssat_to_sis(ssat_id2))
    assert lhp.num_x == 2
    a = LhpAssignment.of(xs)
    for evaluate in (count_lhp_violations, sis_solution_from_lhp_assignment):
        with pytest.raises(LengthMismatch, match=f"assignment has {len(xs)} x-values, system has 2"):
            evaluate(lhp, a)
    if len(xs) < lhp.num_x:  # an inequality alone knows only the columns it reads
        reads_x1 = next(ineq for ineq in lhp.inequalities if ineq.coeff_x and ineq.coeff_x[-1][0] == 1)
        with pytest.raises(LengthMismatch, match="the inequality reads x_1"):
            reads_x1.satisfied_by(a)


def test_lhp_violations_all_zero_assignment(ssat_share):
    sis = ssat_to_sis(ssat_share)
    lhp = sis_to_lhp(sis, u_param=10)
    a = LhpAssignment.of([0, 0, 0, 0], y=0, delta=0)
    # y=0, delta=0: every G1 member has value (0, 0), strictness fails; the
    # G2 ">" rows sit at -0 with no epsilon; G4 likewise; G5 at 0; each
    # inequality counts once per copy
    expected = 0
    for q in lhp.inequalities:
        std, eps = value_at(q, a)
        ok = (std, eps) > (0, 0) if q.sense == "gt" else (std, eps) < (0, 0)
        if not ok:
            expected += q.multiplicity
    assert count_lhp_violations(lhp, a) == expected
    assert expected >= lhp.u_param  # at least the G1 block fails


def test_lhp_min_share(ssat_share):
    lhp = sis_to_lhp(ssat_to_sis(ssat_share), u_param=10)
    result = solve_lhp_min(lhp)
    assert result.minimum == 2
    assert [int(x) for x in result.witness.x_values] in [[0, 1, 0, 1], [1, 0, 1, 0]]


def test_lhp_min_no_solution_in_grid_costs_u(ssat_cyc):
    # this system's equations have no solution in the grid, so some equation
    # row pair fails on every grid point, costing all u copies
    lhp = sis_to_lhp(ssat_to_sis(ssat_cyc), u_param=7)
    result = solve_lhp_min(lhp)
    assert result.minimum >= 7


def test_lhp_grid_matches_sis_min_when_attained(ssat_share, ssat_id2):
    for ssat in (ssat_share, ssat_id2):
        sis = ssat_to_sis(ssat)
        lhp = sis_to_lhp(sis)
        sis_result = solve_sis_min(sis, SearchBudget(coeff_box=1))
        assert all(abs(v) <= 1 for v in sis_result.witness)
        assert solve_lhp_min(lhp).minimum == sis_result.minimum


# ---------------------------------------------------------------------------
# cross-identities
# ---------------------------------------------------------------------------

def test_sis_min_equals_scaled_restricted_ssat_min(ssat_share, ssat_cyc):
    """SIS minimum = |tests| * min norm over consistent unit-sum super-assignments.

    Independent derivation of the right-hand side by direct enumeration.
    """
    from gapforge.oracles import enumerate_consistent_superassignments
    from gapforge.superassign import norm_l1

    for ssat in (ssat_share, ssat_cyc):
        sis = ssat_to_sis(ssat)
        best = None
        for s in enumerate_consistent_superassignments(ssat, 2):
            if any(sum(row) != 1 for row in s.weights):
                continue
            norm = norm_l1(s)
            if best is None or norm < best:
                best = norm
        sis_min = solve_sis_min(sis, SearchBudget(coeff_box=2)).minimum
        if best is None:
            assert sis_min is None
        else:
            assert sis_min == best * len(ssat.tests)


def test_planted_generator_chain_consistency():
    spec = GenSpec(num_a=4, num_b=3, d_b=2, sigma_a_size=2, sigma_b_size=2,
                   arity_p=1, planted=True, seed=3)
    lc = gen_label_cover(spec)
    assert solve_lc_max(lc).best_fraction == 1


# ---------------------------------------------------------------------------
# hints
# ---------------------------------------------------------------------------

def test_cheaper_hint_outside_the_box_is_ignored():
    """A solution outside the box that costs less than the box optimum would hide it as a ceiling."""
    budget = SearchBudget(coeff_box=1)
    sis = SisInstance(num_cols=4, matrix=(((0, 3), (1, 1), (2, 1), (3, 1)),), target=(6,), bound=4)
    assert solve_sis_min(sis, budget).minimum == 4
    assert solve_sis_min(sis, budget, hints=[(2, 0, 0, 0)]) == solve_sis_min(sis, budget)
    ncp = NcpInstance(modulus=7, num_cols=1, matrix=(((0, 1),),), target=(3,), bound=1, replication=1,
                      multiplicity=(1,))
    assert solve_ncp_min(ncp, budget).minimum == 1
    assert solve_ncp_min(ncp, budget, hints=[(3,)]) == solve_ncp_min(ncp, budget)
    assert solve_ncp_min(ncp, budget, full_field=True, hints=[(3,)]).minimum == 0
