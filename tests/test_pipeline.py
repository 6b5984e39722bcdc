"""Chain runner, manifest hashing, gap report."""

from __future__ import annotations

import inspect
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gapforge import pipeline
from gapforge.errors import InfeasibleSpec
from gapforge.genlab import GenSpec, frustrate, gen_label_cover
from gapforge.oracles import (
    SearchBudget,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from gapforge.pipeline import GAP_ROW_KEYS, gap_row, run_chain, verify_manifest
from gapforge.reductions import (
    lc_to_ssat,
    sis_solution_from_superassignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
)
from gapforge.serialize import canonical_bytes, encode_fraction
from gapforge.superassign import natural_from_labeling


def test_chain_id2_all_pass(lc_id2):
    doc = run_chain(lc_id2, g=1, box=2)
    assert doc["all_checks_passed"] is True
    assert doc["completeness"]["natural_exists"] is True
    assert doc["manifest_consistent"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "ssat_natural_norm_is_1" in names
    assert "lhp_round_trip_identity" in names


def test_chain_share_ncp_row(lc_share):
    doc = run_chain(lc_share, g=1, box=2)
    stages = {row["stage"]: row for row in doc["gap_report"]["rows"]}
    assert stages["ncp"]["completeness_value"] == "2/1"
    assert stages["ncp"]["oracle_minimum"] == "2/1"
    assert stages["ncp"]["ratio"] == "1/1"


def test_ten_column_planted_chain_runs_every_oracle():
    """A 5^10 = 9.8e6-point box: the walk finishes every oracle stage at the default cap."""
    doc = run_chain(gen_label_cover(GenSpec(6, 5, 2, 2, 2, 1, planted=True, seed=0)))
    tests = doc["sizes"]["tests"]
    assert (doc["sizes"]["sis_cols"], tests) == (10, 5)
    assert doc["all_checks_passed"] is True
    minima = {key: stage.get("minimum") for key, stage in doc["oracles"].items()}
    assert minima == {"ssat_l1": "1/1", "sis": tests, "ncp_box": tests, "lhp_grid": tests}
    # the walks enter a small share of the nodes of the unpruned trees
    assert all(stage["states"] < 5 ** 10 // 10 for stage in doc["oracles"].values())


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 10 ** 6))
def test_chain_minima_are_the_unhinted_minima(num_a, num_b, seed, flips, twist_seed):
    """The hints ``run_chain`` passes change no minimum; a planted chain stays within its planted costs."""
    try:
        lc = frustrate(gen_label_cover(GenSpec(num_a, num_b, 2, 2, 2, 1, planted=True, seed=seed)), flips, twist_seed)
    except InfeasibleSpec:
        assume(False)
    doc = run_chain(lc)
    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    budget = SearchBudget()
    ssat_min = solve_ssat_min_norm(ssat, budget).minimum
    unhinted = {
        "ssat_l1": None if ssat_min is None else encode_fraction(ssat_min),
        "sis": solve_sis_min(sis, budget).minimum,
        "ncp_box": solve_ncp_min(sis_to_ncp(sis, g=1), budget).minimum,
        "lhp_grid": solve_lhp_min(sis_to_lhp(sis, g=1), budget).minimum,
    }
    assert {key: stage["minimum"] for key, stage in doc["oracles"].items()} == unhinted
    assert doc["completeness"]["natural_exists"] or flips
    if doc["completeness"]["natural_exists"]:
        assert doc["all_checks_passed"] and all(check["passed"] for check in doc["checks"])
        tests = doc["sizes"]["tests"]
        planted = {"ssat_l1": 1, "sis": tests, "ncp_box": tests, "lhp_grid": tests}
        assert all(Fraction(unhinted[key]) <= cost for key, cost in planted.items())


def test_each_oracle_gets_only_the_hints_that_can_cap_its_walk(monkeypatch):
    """SSAT and SIS get the embedded point, LHP nothing, NCP the embedded point and LHP's grid witness.

    A frustrated chain has no embedded point, so NCP alone gets a hint.
    """
    got = {}
    for name in ("solve_ssat_min_norm", "solve_sis_min", "solve_lhp_min", "solve_ncp_min"):
        def recording(*args, _name=name, _solve=getattr(pipeline, name), **kwargs):
            got[_name] = [tuple(h) for h in inspect.signature(_solve).bind(*args, **kwargs).arguments.get("hints", ())]
            return _solve(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, recording)
    planted = gen_label_cover(GenSpec(4, 3, 2, 2, 2, 1, planted=True, seed=0))
    for flips in (0, 1):
        lc = frustrate(planted, flips, 1)
        assert run_chain(lc)["completeness"]["natural_exists"] == (not flips)
        ssat = lc_to_ssat(lc)
        sis = ssat_to_sis(ssat)
        embedded = [] if flips else [
            tuple(sis_solution_from_superassignment(ssat, natural_from_labeling(ssat, solve_lc_max(lc).witness)))
        ]
        grid = tuple(map(int, solve_lhp_min(sis_to_lhp(sis, g=1)).witness.x_values))
        assert got == {"solve_ssat_min_norm": embedded, "solve_sis_min": embedded, "solve_lhp_min": [],
                       "solve_ncp_min": [*embedded, grid]}, flips


def test_chain_manifest_hashes_link(lc_id2):
    doc = run_chain(lc_id2)
    stages = doc["manifest"]["stages"]
    assert stages[0]["output_hash"] == stages[1]["input_hash"]
    assert stages[1]["output_hash"] == stages[2]["input_hash"]
    # the pipeline branches at SIS: the LHP stage consumes the SIS hash too
    assert stages[3]["input_hash"] == stages[1]["output_hash"]


def test_chain_deterministic_bytes(lc_cyc):
    assert canonical_bytes(run_chain(lc_cyc, g=1, box=2)) == canonical_bytes(
        run_chain(lc_cyc, g=1, box=2)
    )


def _stage(kind, input_hash, output_hash):
    return {"kind": kind, "input_hash": input_hash, "output_hash": output_hash, "parameters": {}}


def test_verify_manifest_accepts_dag():
    stages = [_stage("a2b", "h0", "h1"), _stage("b2c", "h1", "h2"), _stage("b2d", "h1", "h3")]
    assert verify_manifest(stages)


def test_verify_manifest_rejects_unknown_input():
    stages = [_stage("a2b", "h0", "h1"), _stage("x2y", "h9", "h2")]
    assert not verify_manifest(stages)


def test_report_gap_rows():
    assert gap_row("ssat", Fraction(1), Fraction(2)) == {
        "stage": "ssat",
        "completeness_value": "1/1",
        "oracle_minimum": "2/1",
        "ratio": "2/1",
    }
    # an unreachable target (no minimum) and a zero completeness value both
    # leave the ratio null: an infinite gap witness
    unreachable = gap_row("sis", 2, None)
    assert unreachable["oracle_minimum"] is None and unreachable["ratio"] is None
    zero = gap_row("ncp", 0, 3)
    assert (zero["completeness_value"], zero["oracle_minimum"], zero["ratio"]) == ("0/1", "3/1", None)
    assert tuple(zero) == GAP_ROW_KEYS
