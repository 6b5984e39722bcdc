"""Core instance types: validation, preimages, edge satisfaction."""

from __future__ import annotations

import pytest
from naive import replace

from gapforge.errors import (
    MalformedInstance,
    PartialLabeling,
    UnknownEdge,
    UnknownLabel,
)
from gapforge.instances import (
    PRIME_TEST_LIMIT,
    LabelCoverInstance,
    Labeling,
    LhpSystem,
    NcpInstance,
    SsatInstance,
    _is_prime,
    count_satisfied_edges,
    preimage,
    validate_label_cover,
)


def test_validate_lc_id2(lc_id2):
    report = validate_label_cover(lc_id2)
    assert report.bi_regular is True
    assert (report.d_a, report.d_b, report.p, report.size_n) == (1, 2, 1, 5)


def test_validate_lc_cyc(lc_cyc):
    report = validate_label_cover(lc_cyc)
    assert report.bi_regular is True
    assert (report.d_a, report.d_b, report.p, report.size_n) == (2, 2, 1, 8)


def test_validate_is_pure(lc_cyc):
    assert validate_label_cover(lc_cyc) == validate_label_cover(lc_cyc)


def test_partial_projection_table_rejected():
    edges = (("a0", "b0"), ("a1", "b0"))
    tables = {("a0", "b0"): {0: 0}, ("a1", "b0"): {0: 0, 1: 1}}
    with pytest.raises(MalformedInstance):
        LabelCoverInstance(("a0", "a1"), ("b0",), (0, 1), (0, 1), edges, tables)


def test_dangling_edge_rejected():
    edges = (("a0", "b9"),)
    tables = {("a0", "b9"): {0: 0, 1: 1}}
    with pytest.raises(MalformedInstance):
        LabelCoverInstance(("a0",), ("b0",), (0, 1), (0, 1), edges, tables)


def test_duplicate_edge_rejected():
    edges = (("a0", "b0"), ("a0", "b0"))
    tables = {("a0", "b0"): {0: 0, 1: 1}}
    with pytest.raises(MalformedInstance):
        LabelCoverInstance(("a0",), ("b0",), (0, 1), (0, 1), edges, tables)


def test_preimage_identity(lc_id2):
    assert preimage(lc_id2, ("a0", "b0"), 0) == (0,)


def test_preimage_flip(lc_cyc):
    assert preimage(lc_cyc, ("a1", "b1"), 0) == (1,)


def test_preimage_empty(lc_2to1):
    assert preimage(lc_2to1, ("a0", "b0"), 1) == ()


def test_preimage_errors(lc_id2):
    with pytest.raises(UnknownEdge):
        preimage(lc_id2, ("a0", "b9"), 0)
    with pytest.raises(UnknownLabel):
        preimage(lc_id2, ("a0", "b0"), 7)


def test_preimages_partition_sigma_a(lc_cyc, lc_2to1):
    for lc in (lc_cyc, lc_2to1):
        for e in lc.edges:
            pieces = [preimage(lc, e, y) for y in lc.sigma_b]
            flat = [x for piece in pieces for x in piece]
            assert sorted(flat, key=lc.sigma_a.index) == list(lc.sigma_a)
            assert len(set(flat)) == len(flat)


def test_count_satisfied_id2(lc_id2):
    lab = Labeling({"a0": 0, "a1": 0}, {"b0": 0})
    assert count_satisfied_edges(lc_id2, lab) == 2


def test_count_satisfied_cyc_all_zero(lc_cyc):
    lab = Labeling({"a0": 0, "a1": 0}, {"b0": 0, "b1": 0})
    assert count_satisfied_edges(lc_cyc, lab) == 3


def test_count_satisfied_cyc_mixed(lc_cyc):
    lab = Labeling({"a0": 0, "a1": 1}, {"b0": 0, "b1": 0})
    assert count_satisfied_edges(lc_cyc, lab) == 3


def test_count_requires_phi_b(lc_id2):
    with pytest.raises(PartialLabeling):
        count_satisfied_edges(lc_id2, Labeling({"a0": 0, "a1": 0}))


def test_count_bounded_by_edges_with_equality_iff_all_hold(lc_cyc):
    # exhaustive over all 16 labelings
    for pa0 in (0, 1):
        for pa1 in (0, 1):
            for pb0 in (0, 1):
                for pb1 in (0, 1):
                    lab = Labeling({"a0": pa0, "a1": pa1}, {"b0": pb0, "b1": pb1})
                    count = count_satisfied_edges(lc_cyc, lab)
                    assert count <= len(lc_cyc.edges)
                    every = all(
                        lc_cyc.projections[e][lab.phi_a[e[0]]] == lab.phi_b[e[1]]
                        for e in lc_cyc.edges
                    )
                    assert (count == len(lc_cyc.edges)) == every


@pytest.mark.parametrize("field, entry", [("test_to_b", "x"), ("test_to_b", 0), ("var_to_a", "b0")])
def test_provenance_entry_outside_its_side_is_malformed(ssat_share, field, entry):
    # ssat_share maps variable "x" to A-vertex "x" and its tests to "b0", "b1"
    prov = ssat_share.provenance
    bad = replace(prov, **{field: (entry,) + getattr(prov, field)[1:]})
    with pytest.raises(MalformedInstance, match="outside"):
        replace(ssat_share, provenance=bad)


def test_empty_ssat_and_negative_num_x_are_malformed():
    with pytest.raises(MalformedInstance, match="at least one variable and one test"):
        SsatInstance(variables=(), field_values=(0,), tests=())
    with pytest.raises(MalformedInstance, match="num_x"):
        LhpSystem(num_x=-1, u_param=1, inequalities=())


# ---------------------------------------------------------------------------
# Prime moduli
# ---------------------------------------------------------------------------

def _ncp(modulus):
    return NcpInstance(modulus=modulus, num_cols=1, matrix=(((0, 1),),), target=(0,), bound=1, replication=1, multiplicity=(1,))


def test_prime_test_matches_trial_division_below_ten_thousand():
    primes = [n for n in range(10_000) if n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(10_000) if _is_prime(n)] == primes


@pytest.mark.parametrize("composite", [561, 3215031751, 3825123056546413051])
def test_pseudoprimes_are_not_prime_moduli(composite):
    # a Carmichael number, the strong pseudoprime to bases 2, 3, 5, 7, and
    # the strong pseudoprime to the first nine prime bases
    with pytest.raises(MalformedInstance, match="is not prime"):
        _ncp(composite)


@pytest.mark.parametrize("prime", [100000000000031, 2 ** 61 - 1])
def test_large_prime_modulus_is_accepted(prime):
    assert _ncp(prime).modulus == prime


def test_modulus_beyond_the_exact_prime_test_is_refused():
    with pytest.raises(MalformedInstance, match=str(PRIME_TEST_LIMIT)):
        _ncp(PRIME_TEST_LIMIT)
    with pytest.raises(MalformedInstance, match=str(PRIME_TEST_LIMIT)):
        _ncp(2 ** 89 - 1)  # a Mersenne prime, above the limit

