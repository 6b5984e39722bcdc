"""End-to-end chain runner, hash-linked manifest, and the gap report.

``run_chain`` drives a label cover through every reduction, embeds the
natural solution when one exists, checks the exact completeness identities at
each stage, and runs the box oracles where they fit the state budget.  The
oracle stages are one table: each row gives either a skip reason or a minimum
with its gap row.  The resulting document is canonical JSON, so identical
inputs give identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from .errors import SearchSpaceTooLarge
from .instances import LabelCoverInstance, validate_label_cover
from .oracles import (
    DEFAULT_MAX_STATES,
    SearchBudget,
    count_lhp_violations,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from .reductions import (
    lc_to_ssat,
    lhp_assignment_from_sis_solution,
    sis_solution_from_lhp_assignment,
    sis_solution_from_superassignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
)
from .serialize import content_hash, encode_fraction
from .superassign import natural_from_labeling, norm_l1
from . import serialize

GAP_ROW_KEYS = ("stage", "completeness_value", "oracle_minimum", "ratio")


def verify_manifest(stages: Sequence[Mapping[str, Any]]) -> bool:
    """Each stage must consume the initial input or some prior stage's output."""
    known = {stages[0]["input_hash"]} if stages else set()
    for stage in stages:
        if stage["input_hash"] not in known:
            return False
        known.add(stage["output_hash"])
    return True


def _enc_opt(v: Optional[Fraction]) -> Optional[str]:
    return None if v is None else encode_fraction(Fraction(v))


def gap_row(stage: str, completeness_value: Fraction, oracle_minimum: Optional[Fraction]) -> dict[str, Any]:
    """Promise-gap evidence at one stage: the planted value against the oracle minimum.

    A ``None`` minimum means the search proved the target unreachable in the
    box; it, like a zero completeness value, leaves the ratio ``None``, which
    marks an infinite gap witness.
    """
    ratio = None
    if oracle_minimum is not None and completeness_value != 0:
        ratio = Fraction(oracle_minimum) / Fraction(completeness_value)
    return dict(zip(GAP_ROW_KEYS, (stage, *map(_enc_opt, (completeness_value, oracle_minimum, ratio)))))


def run_chain(
    lc: LabelCoverInstance,
    g: int = 1,
    box: int = 2,
    max_states: int = DEFAULT_MAX_STATES,
    u_param: Optional[int] = None,
    d_rep: Optional[int] = None,
    q: Optional[int] = None,
) -> dict[str, Any]:
    """Run every reduction, check the completeness identities, report gaps."""
    budget_l1 = SearchBudget(coeff_box=box, max_states=max_states, mode="l1")
    report = validate_label_cover(lc)

    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    ncp = sis_to_ncp(sis, g=g, d_rep=d_rep, q=q)
    lhp = sis_to_lhp(sis, u_param=u_param, g=g)

    lc_hash, ssat_hash, sis_hash, ncp_hash, lhp_hash = map(content_hash, (lc, ssat, sis, ncp, lhp))
    stages = [
        {"kind": kind, "input_hash": src, "output_hash": dst, "parameters": parameters}
        for kind, src, dst, parameters in (
            ("lc2ssat", lc_hash, ssat_hash, {}),
            ("ssat2sis", ssat_hash, sis_hash, {}),
            ("sis2ncp", sis_hash, ncp_hash, {"g": g, "d_rep": ncp.replication, "q": ncp.modulus}),
            ("sis2lhp", sis_hash, lhp_hash, {"g": g, "u": lhp.u_param}),
        )
    ]

    n_tests = len(ssat.tests)
    lc_result = solve_lc_max(lc, budget_l1)
    satisfiable = lc_result.best_fraction == 1
    completeness: dict[str, Any] = {
        "lc_optimum": encode_fraction(lc_result.best_fraction),
        "natural_exists": satisfiable,
    }
    checks: list[tuple[str, bool]] = []
    if satisfiable:
        natural = natural_from_labeling(ssat, lc_result.witness)
        z = sis_solution_from_superassignment(ssat, natural)
        a = lhp_assignment_from_sis_solution(z)
        completeness["embedded_l1"] = sum(abs(v) for v in z)
        checks = [
            ("ssat_natural_norm_is_1", norm_l1(natural) == 1),
            ("sis_embedding_solves", sis.multiply(z) == sis.target),
            ("sis_embedding_l1_is_num_tests", completeness["embedded_l1"] == n_tests),
            ("ncp_embedding_distance_is_num_tests", ncp.distance(z) == n_tests),
            ("lhp_embedding_violations_is_num_tests", count_lhp_violations(lhp, a) == n_tests),
            ("lhp_round_trip_identity", sis_solution_from_lhp_assignment(lhp, a) == tuple(z)),
        ]

    # (report key, gap stage, planted cost, solver, result field, minimum written as "p/q")
    # The thunks look the solvers up when called, so rebinding a module name reaches them.
    oracle_stages = (
        ("ssat_l1", "ssat", 1, lambda: solve_ssat_min_norm(ssat, budget_l1), "min_norm", True),
        ("sis", "sis", n_tests, lambda: solve_sis_min(sis, budget_l1), "min_l1", False),
        ("ncp_box", "ncp", n_tests, lambda: solve_ncp_min(ncp, budget_l1), "min_dist", False),
        ("lhp_grid", "lhp", n_tests, lambda: solve_lhp_min(lhp, budget=budget_l1), "min_violations", False),
    )
    oracles: dict[str, Any] = {}
    gap_rows = []
    for key, stage, planted, solve, field, as_fraction in oracle_stages:
        try:
            result = solve()
        except SearchSpaceTooLarge as exc:
            oracles[key] = {"skipped": str(exc)}
            continue
        minimum = getattr(result, field)
        oracles[key] = {"minimum": _enc_opt(minimum) if as_fraction else minimum, "states": result.states_visited}
        gap_rows.append(gap_row(stage, planted, minimum))

    return {
        "kind": "chain_report",
        "version": serialize.SCHEMA_VERSION,
        "validation": {k: getattr(report, k) for k in ("bi_regular", "d_a", "d_b", "p", "size_n")},
        "sizes": {
            "tests": n_tests,
            "variables": len(ssat.variables),
            "sis_rows": sis.num_rows,
            "sis_cols": sis.num_cols,
            "ncp_rows": ncp.num_rows,
            "lhp_inequalities": lhp.num_inequalities,
        },
        "manifest": {
            "stages": stages,
            "gap_params": {"g": g, "box": box, "u": lhp.u_param, "d_rep": ncp.replication, "q": ncp.modulus},
        },
        "manifest_consistent": verify_manifest(stages),
        "completeness": completeness,
        "checks": [{"name": name, "passed": passed, "detail": ""} for name, passed in checks],
        "oracles": oracles,
        "gap_report": {"rows": gap_rows},
        "all_checks_passed": all(passed for _, passed in checks),
    }
