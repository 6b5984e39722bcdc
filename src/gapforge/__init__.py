"""gapforge: constructive hardness reductions with exact verification oracles.

The pipeline runs label cover -> SSAT -> SIS -> {NCP, LHP} with exact
integer/rational arithmetic throughout, ships solution embedding and
extraction maps for every step, and provides brute-force oracles so each
structural identity can be checked exactly on small instances.
"""

from .errors import (
    BadParameters,
    ClassificationImpossible,
    EdgeUnsatisfied,
    EmptyRange,
    GapforgeError,
    InconsistentInput,
    Infeasible,
    InfeasibleSpec,
    LengthMismatch,
    MalformedInstance,
    NormBoundViolated,
    NotLcDerived,
    PartialLabeling,
    PreconditionFailed,
    SchemaViolation,
    SearchSpaceTooLarge,
    UnknownEdge,
    UnknownLabel,
    VariableNotInTest,
    VariableNotShared,
)
from .instances import (
    EPSILON,
    LabelCoverInstance,
    Labeling,
    LcProvenance,
    LhpAssignment,
    LhpInequality,
    LhpSystem,
    NcpInstance,
    SisInstance,
    SsatInstance,
    SsatTest,
    ValidationReport,
    count_satisfied_edges,
    preimage,
    validate_label_cover,
)
from .superassign import (
    ArrayView,
    ProjectionVector,
    SuperAssignment,
    TestKind,
    assigned_value_sets,
    check_bad_array_sums,
    classify_tests,
    decompose_arrays,
    good_coordinates,
    is_consistent,
    is_nontrivial,
    is_not_all_zero,
    natural_from_labeling,
    norm_l1,
    norm_linf,
    project,
    test_norm,
    zero_all_bad_arrays,
)
from .reductions import (
    GadgetPair,
    gadget_pair,
    lc_to_ssat,
    lhp_assignment_from_sis_solution,
    sis_solution_from_lhp_assignment,
    sis_solution_from_superassignment,
    sis_to_lhp,
    sis_to_ncp,
    ssat_to_sis,
    superassignment_from_sis_solution,
)
from .soundness import (
    BoundCheck,
    DefeatReport,
    LinfListResult,
    ListConstructionParams,
    ListLabeling,
    agreement_soundness_exact,
    check_list_soundness_bound,
    list_agreement_soundness_exact,
    list_construction,
    list_construction_linf,
    list_totally_disagree,
    select_low_norm_tests,
    totally_disagree,
    verify_defeats_list_soundness,
)
from .oracles import (
    SearchBudget,
    count_lhp_violations,
    enumerate_consistent_superassignments,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from .genlab import GenSpec, frustrate, gen_label_cover
from .pipeline import GAP_ROW_KEYS, gap_row, run_chain, verify_manifest
from .serialize import content_hash, read_instance, sis_from_text, sis_to_text, ncp_to_text, write_instance

__version__ = "0.1.0"
