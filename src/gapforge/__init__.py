"""gapforge: constructive hardness reductions with exact verification oracles.

The pipeline runs label cover -> SSAT -> SIS -> {NCP, LHP} with exact
integer/rational arithmetic throughout, ships solution embedding and
extraction maps for every step, and provides brute-force oracles so each
structural identity can be checked exactly on small instances.

The public names below are re-exported lazily: ``gapforge.X`` imports X's
module on first use, so a process loads only the layers it touches.
"""

from importlib import import_module

# module: the public names it exports through the package
_EXPORTS = {
    "errors": (
        "BadParameters", "ClassificationImpossible", "EdgeUnsatisfied", "EmptyRange", "GapforgeError",
        "InconsistentInput", "Infeasible", "InfeasibleSpec", "LengthMismatch", "MalformedInstance",
        "NormBoundViolated", "NotLcDerived", "PartialLabeling", "PreconditionFailed", "SchemaViolation",
        "SearchSpaceTooLarge", "UnknownEdge", "UnknownLabel", "VariableNotInTest", "VariableNotShared",
    ),
    "instances": (
        "EPSILON", "LabelCoverInstance", "Labeling", "LhpAssignment", "LhpInequality", "LhpSystem",
        "NcpInstance", "SisInstance", "SsatInstance", "SsatTest", "ValidationReport", "count_satisfied_edges",
        "preimage", "validate_label_cover",
    ),
    "superassign": (
        "ArrayView", "SuperAssignment", "TestKind", "assigned_value_sets",
        "check_bad_array_sums", "classify_tests", "decompose_arrays", "good_coordinates", "is_consistent",
        "is_nontrivial", "is_not_all_zero", "natural_from_labeling", "norm_l1", "norm_linf", "project",
        "test_norm", "zero_all_bad_arrays",
    ),
    "reductions": (
        "GadgetPair", "gadget_pair", "lc_to_ssat", "lhp_assignment_from_sis_solution",
        "sis_solution_from_lhp_assignment", "sis_solution_from_superassignment", "sis_to_lhp", "sis_to_ncp",
        "ssat_to_sis", "superassignment_from_sis_solution",
    ),
    "soundness": (
        "BoundCheck", "DefeatReport", "ListConstructionParams", "ListLabeling", "agreement_soundness_exact",
        "check_list_soundness_bound", "list_agreement_soundness_exact", "list_construction",
        "list_totally_disagree", "select_low_norm_tests", "totally_disagree", "verify_defeats_list_soundness",
    ),
    "oracles": (
        "SearchBudget", "count_lhp_violations", "enumerate_consistent_superassignments", "solve_lc_max",
        "solve_lhp_min", "solve_ncp_min", "solve_sis_min", "solve_ssat_min_norm",
    ),
    "genlab": ("GenSpec", "frustrate", "gen_label_cover"),
    "pipeline": ("GAP_ROW_KEYS", "gap_row", "run_chain", "verify_manifest"),
    "serialize": ("content_hash", "read_instance", "write_instance"),
    "plaintext": ("ncp_to_text", "sis_from_text", "sis_to_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # A submodule name raises too, so that ``from gapforge import genlab`` falls back to importing it.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
