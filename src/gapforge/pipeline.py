"""End-to-end chain runner, hash-linked manifest, and the gap report.

``run_chain`` drives a label cover through every reduction, embeds the
natural solution when one exists, checks the exact completeness identities at
each stage, and runs the box oracles where they fit the state budget.  The
resulting document is canonical JSON, so identical inputs give identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Optional

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


@dataclass(frozen=True)
class StageRecord:
    kind: str
    input_hash: str
    output_hash: str
    parameters: dict[str, Any]


@dataclass(frozen=True)
class PipelineManifest:
    stages: tuple[StageRecord, ...]
    gap_params: dict[str, Any]

    def to_document(self) -> dict[str, Any]:
        return {
            "stages": [
                {
                    "kind": s.kind,
                    "input_hash": s.input_hash,
                    "output_hash": s.output_hash,
                    "parameters": s.parameters,
                }
                for s in self.stages
            ],
            "gap_params": self.gap_params,
        }


def verify_manifest(manifest: PipelineManifest) -> bool:
    """Each stage must consume the initial input or some prior stage's output."""
    known: set[str] = set()
    for idx, stage in enumerate(manifest.stages):
        if idx == 0:
            known.add(stage.input_hash)
        elif stage.input_hash not in known:
            return False
        known.add(stage.output_hash)
    return True


@dataclass(frozen=True)
class GapRow:
    stage: str
    completeness_value: Optional[Fraction]
    oracle_minimum: Optional[Fraction]
    ratio: Optional[Fraction]


@dataclass(frozen=True)
class GapReport:
    rows: tuple[GapRow, ...]

    def to_document(self) -> dict[str, Any]:
        def enc(v: Optional[Fraction]) -> Optional[str]:
            return None if v is None else encode_fraction(v)

        return {
            "rows": [
                {
                    "stage": r.stage,
                    "completeness_value": enc(r.completeness_value),
                    "oracle_minimum": enc(r.oracle_minimum),
                    "ratio": enc(r.ratio),
                }
                for r in self.rows
            ]
        }


def report_gap(oracle_results: Mapping[str, Mapping[str, Optional[Fraction]]]) -> GapReport:
    """Promise-gap evidence: YES-case value against the oracle minimum per stage.

    ``oracle_results`` maps a stage name to its ``completeness_value`` (the
    value a planted solution achieves) and ``oracle_minimum`` (exact search
    result, None when the search proved the target unreachable).  A missing
    ratio marks an infinite gap witness.
    """
    if not oracle_results:
        raise ValueError("need oracle results for at least one stage")
    rows = []
    for stage in oracle_results:
        rec = oracle_results[stage]
        comp = rec.get("completeness_value")
        oracle = rec.get("oracle_minimum")
        ratio = None
        if comp is not None and oracle is not None and comp != 0:
            ratio = Fraction(oracle) / Fraction(comp)
        rows.append(
            GapRow(
                stage=stage,
                completeness_value=None if comp is None else Fraction(comp),
                oracle_minimum=None if oracle is None else Fraction(oracle),
                ratio=ratio,
            )
        )
    return GapReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Chain runner
# ---------------------------------------------------------------------------

def _enc_opt(v: Optional[Fraction]) -> Optional[str]:
    return None if v is None else encode_fraction(Fraction(v))


def run_chain(
    lc: LabelCoverInstance,
    g: int = 1,
    box: int = 2,
    seed: int = 0,
    max_states: int = DEFAULT_MAX_STATES,
    u_param: Optional[int] = None,
    d_rep: Optional[int] = None,
    q: Optional[int] = None,
    s_list: Fraction = Fraction(1, 4),
) -> dict[str, Any]:
    """Run every reduction, check the completeness identities, report gaps."""
    budget_l1 = SearchBudget(coeff_box=box, max_states=max_states, mode="l1")
    report = validate_label_cover(lc)

    ssat = lc_to_ssat(lc)
    sis = ssat_to_sis(ssat)
    ncp = sis_to_ncp(sis, g=g, d_rep=d_rep, q=q)
    lhp = sis_to_lhp(sis, u_param=u_param, g=g)

    lc_hash = content_hash(lc)
    ssat_hash = content_hash(ssat)
    sis_hash = content_hash(sis)
    manifest = PipelineManifest(
        stages=(
            StageRecord("lc2ssat", lc_hash, ssat_hash, {}),
            StageRecord("ssat2sis", ssat_hash, sis_hash, {}),
            StageRecord("sis2ncp", sis_hash, content_hash(ncp), {"g": g, "d_rep": ncp.replication, "q": ncp.modulus}),
            StageRecord("sis2lhp", sis_hash, content_hash(lhp), {"g": g, "u": lhp.u_param}),
        ),
        gap_params={
            "g": g,
            "s_list": encode_fraction(s_list),
            "box": box,
            "seed": seed,
            "u": lhp.u_param,
            "d_rep": ncp.replication,
            "q": ncp.modulus,
        },
    )

    checks: list[dict[str, Any]] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    n_tests = len(ssat.tests)
    lc_result = solve_lc_max(lc, budget_l1)
    satisfiable = lc_result.best_fraction == 1

    completeness: dict[str, Any] = {
        "lc_optimum": encode_fraction(lc_result.best_fraction),
        "natural_exists": satisfiable,
    }
    if satisfiable:
        natural = natural_from_labeling(ssat, lc_result.witness)
        z = sis_solution_from_superassignment(ssat, natural)
        check("ssat_natural_norm_is_1", norm_l1(natural) == 1)
        check("sis_embedding_solves", sis.multiply(z) == sis.target)
        check("sis_embedding_l1_is_num_tests", sum(abs(v) for v in z) == n_tests)
        check("ncp_embedding_distance_is_num_tests", ncp.distance(z) == n_tests)
        a = lhp_assignment_from_sis_solution(z)
        check("lhp_embedding_violations_is_num_tests", count_lhp_violations(lhp, a) == n_tests)
        check("lhp_round_trip_identity", sis_solution_from_lhp_assignment(lhp, a) == tuple(z))
        completeness["embedded_l1"] = sum(abs(v) for v in z)

    oracle_section: dict[str, Any] = {}
    gap_inputs: dict[str, dict[str, Optional[Fraction]]] = {}

    def try_solve(name, fn):
        try:
            return fn()
        except SearchSpaceTooLarge as exc:
            oracle_section[name] = {"skipped": str(exc)}
            return None

    ssat_min = try_solve("ssat_l1", lambda: solve_ssat_min_norm(ssat, budget_l1))
    if ssat_min is not None:
        oracle_section["ssat_l1"] = {"minimum": _enc_opt(ssat_min.min_norm), "states": ssat_min.states_visited}
        gap_inputs["ssat"] = {"completeness_value": Fraction(1), "oracle_minimum": ssat_min.min_norm}
    sis_min = try_solve("sis", lambda: solve_sis_min(sis, budget_l1))
    if sis_min is not None:
        oracle_section["sis"] = {
            "minimum": None if sis_min.min_l1 is None else sis_min.min_l1,
            "states": sis_min.states_visited,
        }
        gap_inputs["sis"] = {
            "completeness_value": Fraction(n_tests),
            "oracle_minimum": None if sis_min.min_l1 is None else Fraction(sis_min.min_l1),
        }
    ncp_min = try_solve("ncp_box", lambda: solve_ncp_min(ncp, budget_l1))
    if ncp_min is not None:
        oracle_section["ncp_box"] = {"minimum": ncp_min.min_dist, "states": ncp_min.states_visited}
        gap_inputs["ncp"] = {
            "completeness_value": Fraction(n_tests),
            "oracle_minimum": Fraction(ncp_min.min_dist),
        }
    lhp_min = try_solve("lhp_grid", lambda: solve_lhp_min(lhp, budget=budget_l1))
    if lhp_min is not None:
        oracle_section["lhp_grid"] = {"minimum": lhp_min.min_violations, "states": lhp_min.states_visited}
        gap_inputs["lhp"] = {
            "completeness_value": Fraction(n_tests),
            "oracle_minimum": Fraction(lhp_min.min_violations),
        }

    gap_report = report_gap(gap_inputs) if gap_inputs else GapReport(rows=())

    return {
        "kind": "chain_report",
        "version": serialize.SCHEMA_VERSION,
        "validation": {
            "bi_regular": report.bi_regular,
            "d_a": report.d_a,
            "d_b": report.d_b,
            "p": report.p,
            "size_n": report.size_n,
        },
        "sizes": {
            "tests": n_tests,
            "variables": len(ssat.variables),
            "sis_rows": sis.num_rows,
            "sis_cols": sis.num_cols,
            "ncp_rows": ncp.num_rows,
            "lhp_inequalities": len(lhp.inequalities),
        },
        "manifest": manifest.to_document(),
        "manifest_consistent": verify_manifest(manifest),
        "completeness": completeness,
        "checks": checks,
        "oracles": oracle_section,
        "gap_report": gap_report.to_document(),
        "all_checks_passed": all(c["passed"] for c in checks),
    }
