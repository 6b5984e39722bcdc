"""Generators: feasibility, determinism, planted satisfiability, frustration."""

from __future__ import annotations

import pytest

from gapforge.errors import InfeasibleSpec
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.instances import validate_label_cover
from gapforge.oracles import SearchBudget, solve_lc_max
from gapforge.serialize import content_hash


def test_planted_2x1_is_id2_shaped(lc_id2):
    spec = GenSpec(num_a=2, num_b=1, d_b=2, sigma_a_size=2, sigma_b_size=2,
                   arity_p=1, planted=True, seed=7)
    lc = gen_label_cover(spec)
    report = validate_label_cover(lc)
    assert (report.d_a, report.d_b, report.p, report.size_n) == (1, 2, 1, 5)
    assert solve_lc_max(lc).best_fraction == 1
    # seed 16 reproduces the shipped fixture exactly
    exact = gen_label_cover(GenSpec(2, 1, 2, 2, 2, 1, True, 16))
    assert exact == lc_id2


def test_unplanted_oracle_bounded():
    spec = GenSpec(num_a=2, num_b=1, d_b=2, sigma_a_size=2, sigma_b_size=2,
                   arity_p=1, planted=False, seed=13)
    lc = gen_label_cover(spec)
    assert solve_lc_max(lc).best_fraction <= 1


def test_infeasible_degree():
    with pytest.raises(InfeasibleSpec):
        GenSpec(num_a=2, num_b=1, d_b=3, sigma_a_size=2, sigma_b_size=2,
                arity_p=1, planted=True, seed=0)


def test_infeasible_arity():
    with pytest.raises(InfeasibleSpec):
        GenSpec(num_a=2, num_b=1, d_b=2, sigma_a_size=2, sigma_b_size=3,
                arity_p=3, planted=True, seed=0)


def test_infeasible_table_space():
    # 5 source labels cannot be 1-to-1 into 2 target labels
    with pytest.raises(InfeasibleSpec):
        GenSpec(num_a=2, num_b=1, d_b=2, sigma_a_size=5, sigma_b_size=2,
                arity_p=1, planted=True, seed=0)


def test_generation_is_pure():
    spec = GenSpec(num_a=4, num_b=3, d_b=2, sigma_a_size=3, sigma_b_size=2,
                   arity_p=2, planted=True, seed=42)
    assert content_hash(gen_label_cover(spec)) == content_hash(gen_label_cover(spec))


def test_different_seeds_differ_somewhere():
    hashes = {
        content_hash(
            gen_label_cover(
                GenSpec(num_a=4, num_b=3, d_b=2, sigma_a_size=3, sigma_b_size=2,
                        arity_p=2, planted=True, seed=seed)
            )
        )
        for seed in range(8)
    }
    assert len(hashes) > 1


def test_planted_instances_always_satisfiable():
    combos = [
        (2, 2, 2, 2, 2, 1),
        (4, 3, 2, 2, 2, 2),
        (6, 4, 3, 3, 3, 2),
        (5, 4, 3, 3, 2, 2),
        (4, 2, 2, 3, 2, 3),
    ]
    for seed, combo in enumerate(combos):
        num_a, num_b, d_b, sa, sb, p = combo
        lc = gen_label_cover(GenSpec(num_a, num_b, d_b, sa, sb, p, True, seed))
        report = validate_label_cover(lc)
        assert report.p <= p
        assert report.d_b == d_b
        assert solve_lc_max(lc, SearchBudget()).best_fraction == 1


def test_arity_bound_respected_unplanted():
    for seed in range(6):
        lc = gen_label_cover(GenSpec(4, 3, 2, 3, 2, 2, False, seed))
        assert validate_label_cover(lc).p <= 2


def test_frustrate_zero_flips_is_identity(lc_cyc):
    assert frustrate(lc_cyc, 0, 99) == lc_cyc


def test_frustrate_reproduces_lc_cyc(lc_cyc):
    from fractions import Fraction

    base = gen_label_cover(GenSpec(2, 2, 2, 2, 2, 1, True, 16))
    assert all(base.projections[e] == {0: 0, 1: 1} for e in base.edges)
    assert frustrate(base, 1, 0) == lc_cyc
    assert solve_lc_max(frustrate(base, 1, 0)).best_fraction == Fraction(3, 4)


def test_frustrate_all_edges_still_evaluable():
    base = gen_label_cover(GenSpec(2, 2, 2, 2, 2, 1, True, 16))
    twisted = frustrate(base, len(base.edges), seed=5)
    # possibly still satisfiable; the oracle value is what matters
    assert solve_lc_max(twisted).best_fraction <= 1


def test_frustrate_too_many_flips(lc_cyc):
    with pytest.raises(InfeasibleSpec):
        frustrate(lc_cyc, 5, 0)


def test_frustrating_a_one_label_sigma_b_is_infeasible():
    lc = gen_label_cover(GenSpec(2, 2, 2, 2, 1, 2, planted=True, seed=0))
    with pytest.raises(InfeasibleSpec, match="one-label sigma_b"):
        frustrate(lc, 1, 5)
    assert frustrate(lc, 0, 5) is lc
