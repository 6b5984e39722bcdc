"""The chain's steps as one table, the end-to-end runner, and the gap report.

``REDUCTIONS`` and ``ORACLES`` list the steps for ``run_chain`` and for the
``reduce`` and ``solve`` verbs; their lambdas look each name up when called,
so a rebinding of a module-level name (a tracer, a test) is seen.
``run_chain`` runs the reductions and the hash-linked manifest in one loop,
embeds the natural solution when one exists, checks the exact completeness
identities, and runs the box oracles that fit the state budget, each giving
a skip reason or a minimum with its gap row.  The report is canonical JSON,
so identical inputs give identical bytes.

Hints go only where they can cap a walk.  On a satisfiable chain the SSAT,
SIS and NCP walks get the embedded SIS solution ``z`` (also a flat SSAT
vector and an NCP box point).  NCP also gets LHP's grid witness, so LHP runs
before NCP.  An unsatisfiable chain has no such point: its best labeling
leaves some B-vertex's edges unsatisfied, so a point built from it has a
zero test row, which neither the SSAT nor the SIS walk reaches.  LHP gets no
hint, as its best-first walk, like NCP's, expands the same states with or
without one.  Each walk follows its hints down its own children, so a hint
is costed as the walk's leaf or dropped, and the hints change at most the
``states`` of a stage and whether it fits the budget; the report lists the
stages in the order SSAT, SIS, NCP, LHP.
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
from .serialize import content_hash, encode_fraction, encode_optimum
from .superassign import natural_from_labeling, norm_l1
from . import serialize

GAP_ROW_KEYS = ("stage", "completeness_value", "oracle_minimum", "ratio")

# step: (kind read, kind written, parameters, reduction, name of its ``plaintext`` writer or None).  The
# parameters are the ``reduce`` flags and the keys of the step's manifest ``parameters``.
REDUCTIONS = {
    "lc2ssat": ("label_cover", "ssat", (), lambda lc: lc_to_ssat(lc), None),
    "ssat2sis": ("ssat", "sis", (), lambda ssat: ssat_to_sis(ssat), "sis_to_text"),
    "sis2ncp": ("sis", "ncp", ("g", "d_rep", "q"), lambda sis, g, d_rep, q: sis_to_ncp(sis, g=g, d_rep=d_rep, q=q),
                "ncp_to_text"),
    "sis2lhp": ("sis", "lhp", ("g", "u"), lambda sis, g, u: sis_to_lhp(sis, u_param=u, g=g), None),
}
# the attribute of a step's output holding the value a parameter settled on; ``g`` is recorded as given
_SETTLED = {"d_rep": "replication", "q": "modulus", "u": "u_param"}

# kind: (kind read, ``solve`` flags, solver); a tuple of flags is exclusive.  A solver takes the instance, the
# budget, the hint points and, by name, each flag that is not a budget field.
ORACLES = {
    "lc": ("label_cover", (), lambda lc, budget, hints: solve_lc_max(lc, budget)),
    "ssat": ("ssat", ("box", "mode"), lambda ssat, budget, hints: solve_ssat_min_norm(ssat, budget, hints=hints)),
    "sis": ("sis", ("box",), lambda sis, budget, hints: solve_sis_min(sis, budget, hints=hints)),
    "ncp": ("ncp", (("box", "full_field"),),
            lambda ncp, budget, hints, full_field=False: solve_ncp_min(ncp, budget, full_field, hints)),
    "lhp": ("lhp", (), lambda lhp, budget, hints: solve_lhp_min(lhp, budget)),
}


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

    given = {"g": g, "d_rep": d_rep, "q": q, "u": u_param}
    instances: dict[str, Any] = {"label_cover": lc}
    hashes = {"label_cover": content_hash(lc)}
    stages = []
    for step, (src, dst, names, reduce, _) in REDUCTIONS.items():
        out = instances[dst] = reduce(instances[src], **{name: given[name] for name in names})
        hashes[dst] = content_hash(out)
        parameters = {name: getattr(out, _SETTLED[name]) if name in _SETTLED else given[name] for name in names}
        stages.append({"kind": step, "input_hash": hashes[src], "output_hash": hashes[dst], "parameters": parameters})
    ssat, sis, ncp, lhp = (instances[kind] for kind in ("ssat", "sis", "ncp", "lhp"))

    n_tests = len(ssat.tests)
    lc_result = solve_lc_max(lc, budget_l1)
    satisfiable = lc_result.best_fraction == 1
    completeness: dict[str, Any] = {
        "lc_optimum": encode_fraction(lc_result.best_fraction),
        "natural_exists": satisfiable,
    }
    checks: list[tuple[str, bool]] = []
    hints: list[tuple[int, ...]] = []  # points that may cap the oracle walks
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
        hints.append(tuple(z))

    # (report key, oracle, planted cost).  LHP runs before NCP, whose box holds LHP's grid witness.
    oracle_stages = (
        ("ssat_l1", "ssat", 1), ("sis", "sis", n_tests), ("lhp_grid", "lhp", n_tests), ("ncp_box", "ncp", n_tests)
    )
    results: dict[str, Any] = {}
    rows: dict[str, dict[str, Any]] = {}
    for key, stage, planted_cost in oracle_stages:
        src, _, solve = ORACLES[stage]
        try:
            result = solve(instances[src], budget_l1, hints)
        except SearchSpaceTooLarge as exc:
            results[key] = {"skipped": str(exc)}
            continue
        results[key] = {"minimum": encode_optimum(result.minimum), "states": result.states_visited}
        rows[key] = gap_row(stage, planted_cost, result.minimum)
        if stage == "lhp":
            hints.append(tuple(map(int, result.witness.x_values)))
    report_order = ("ssat_l1", "sis", "ncp_box", "lhp_grid")

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
            "gap_params": {"box": box, **{k: v for stage in stages for k, v in stage["parameters"].items()}},
        },
        "manifest_consistent": verify_manifest(stages),
        "completeness": completeness,
        "checks": [{"name": name, "passed": passed, "detail": ""} for name, passed in checks],
        "oracles": {key: results[key] for key in report_order},
        "gap_report": {"rows": [rows[key] for key in report_order if key in rows]},
        "all_checks_passed": all(passed for _, passed in checks),
    }
