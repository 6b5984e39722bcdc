"""Command-line interface: generate, reduce, solve, check, report.

All results are printed as canonical JSON on standard out (``--text`` swaps
in the plain-text emitters where one exists).  Exit codes: 0 on success, 1 on
validation or domain errors (as a JSON error envelope), 2 on usage errors.

The exact searches share one state cap, ``gapforge.oracles.DEFAULT_MAX_STATES``,
which the environment variable ``GAPFORGE_MAX_STATES`` overrides.  The verbs
that charge it are ``solve``, ``check claims|agreement|lists|chain`` and
``gen lc --with-oracle``.  Every one of their searches charges each node its
branch-and-bound walk enters.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .errors import GapforgeError, InfeasibleSpec, SchemaViolation
from .genlab import GenSpec, frustrate, gen_label_cover
from .oracles import (
    DEFAULT_MAX_STATES,
    SearchBudget,
    enumerate_consistent_superassignments,
    solve_lc_max,
    solve_lhp_min,
    solve_ncp_min,
    solve_sis_min,
    solve_ssat_min_norm,
)
from .pipeline import GAP_ROW_KEYS, run_chain
from .reductions import lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis
from .serialize import (
    _bool,
    _fields,
    _int,
    canonical_bytes,
    encode_fraction,
    ncp_to_text,
    read_document,
    read_instance,
    sis_to_text,
    to_document,
    write_instance,
)
from .soundness import (
    ListConstructionParams,
    check_list_soundness_bound,
    list_construction,
    select_low_norm_tests,
    verify_defeats_list_soundness,
)
from .superassign import (
    check_bad_array_sums,
    classify_tests,
    is_consistent,
    norm_l1,
    zero_all_bad_arrays,
)
from .instances import validate_label_cover


class UsageError(Exception):
    """A flag or environment value the CLI cannot use; exits 2 like argparse."""


def _max_states() -> int:
    raw = os.environ.get("GAPFORGE_MAX_STATES")
    if not raw:
        return DEFAULT_MAX_STATES
    if not raw.isdecimal():
        raise UsageError(f"GAPFORGE_MAX_STATES must be a non-negative integer, got {raw!r}")
    return int(raw)


def _box_radius(raw: str) -> int:
    """argparse type of ``--box``: the search box is [-k, k] with k >= 1."""
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return int(raw)


def _fraction(raw: str) -> Fraction:
    """argparse type of ``--s-list``: a rational such as ``1/4`` or ``0.25``."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a fraction such as 1/4, got {raw!r}") from None


def _emit(doc: dict[str, Any]) -> None:
    sys.stdout.write(canonical_bytes(doc).decode("utf-8"))


def _budget(args, mode: str = "l1") -> SearchBudget:
    return SearchBudget(coeff_box=args.box, max_states=_max_states(), mode=mode)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

_SPEC_FIELDS = frozenset(("num_a", "num_b", "d_b", "sigma_a", "sigma_b", "p", "planted", "seed"))


def _gen_spec_from_args(args) -> GenSpec:
    """Merge an optional spec file with flags; flags win where both are set.

    The spec file is an object with some of the keys ``_SPEC_FIELDS``:
    ``planted`` a boolean, the others integers.
    """
    fields: dict[str, Any] = {}
    if args.spec:
        spec = _fields(read_document(args.spec), "", _SPEC_FIELDS, subset=True)
        fields.update((key, (_bool if key == "planted" else _int)(value, f"/{key}")) for key, value in spec.items())
    for key, value in (
        ("num_a", args.num_a),
        ("num_b", args.num_b),
        ("d_b", args.d_b),
        ("sigma_a", args.sigma_a),
        ("sigma_b", args.sigma_b),
        ("p", args.p),
        ("planted", args.planted),
        ("seed", args.seed),
    ):
        if value is not None:
            fields[key] = value
    missing = [k for k in ("num_a", "num_b", "d_b", "sigma_a", "sigma_b", "p") if k not in fields]
    if missing:
        raise InfeasibleSpec(f"generation spec is missing {missing}")
    return GenSpec(
        num_a=fields["num_a"],
        num_b=fields["num_b"],
        d_b=fields["d_b"],
        sigma_a_size=fields["sigma_a"],
        sigma_b_size=fields["sigma_b"],
        arity_p=fields["p"],
        planted=fields.get("planted", True),
        seed=fields.get("seed", 0),
    )


def _cmd_gen_lc(args) -> int:
    spec = _gen_spec_from_args(args)
    lc = gen_label_cover(spec)
    if args.flips:
        lc = frustrate(lc, args.flips, args.flip_seed)
    write_instance(args.out, lc)
    meta: dict[str, Any] = {
        "kind": "gen_metadata",
        "version": 1,
        "planted": spec.planted,
        "seed": spec.seed,
        "flips": args.flips,
        "flip_seed": args.flip_seed if args.flips else None,
        "spec": {
            "num_a": spec.num_a,
            "num_b": spec.num_b,
            "d_b": spec.d_b,
            "sigma_a": spec.sigma_a_size,
            "sigma_b": spec.sigma_b_size,
            "p": spec.arity_p,
        },
        "oracle_value": None,
    }
    if args.with_oracle:
        result = solve_lc_max(lc, SearchBudget(max_states=_max_states()))
        meta["oracle_value"] = encode_fraction(result.best_fraction)
    Path(str(args.out) + ".meta.json").write_bytes(canonical_bytes(meta))
    _emit({"written": str(args.out), "metadata": meta})
    return 0


def _cmd_reduce(args) -> int:
    out = Path(args.out)
    if args.step == "lc2ssat":
        lc = read_instance(args.infile, "label_cover")
        write_instance(out, lc_to_ssat(lc))
    elif args.step == "ssat2sis":
        ssat = read_instance(args.infile, "ssat")
        sis = ssat_to_sis(ssat)
        if args.text:
            out.write_text(sis_to_text(sis), encoding="utf-8")
        else:
            write_instance(out, sis)
    elif args.step == "sis2ncp":
        sis = read_instance(args.infile, "sis")
        ncp = sis_to_ncp(sis, g=args.g, d_rep=args.d_rep, q=args.q)
        if args.text:
            out.write_text(ncp_to_text(ncp), encoding="utf-8")
        else:
            write_instance(out, ncp)
    else:  # sis2lhp
        sis = read_instance(args.infile, "sis")
        write_instance(out, sis_to_lhp(sis, u_param=args.u, g=args.g))
    _emit({"written": str(out), "step": args.step})
    return 0


def _cmd_solve(args) -> int:
    if args.kind == "lc":
        lc = read_instance(args.infile, "label_cover")
        res = solve_lc_max(lc, _budget(args))
        _emit(
            {
                "kind": "solve_result",
                "problem": "lc",
                "optimum": encode_fraction(res.best_fraction),
                "witness": to_document(res.witness),
                "states_visited": res.states_visited,
            }
        )
    elif args.kind == "ssat":
        ssat = read_instance(args.infile, "ssat")
        res = solve_ssat_min_norm(ssat, _budget(args, args.mode))
        _emit(
            {
                "kind": "solve_result",
                "problem": "ssat",
                "mode": res.mode,
                "optimum": None if res.min_norm is None else encode_fraction(Fraction(res.min_norm)),
                "witness": None if res.witness is None else to_document(res.witness),
                "states_visited": res.states_visited,
            }
        )
    elif args.kind == "sis":
        sis = read_instance(args.infile, "sis")
        res = solve_sis_min(sis, _budget(args))
        _emit(
            {
                "kind": "solve_result",
                "problem": "sis",
                "optimum": res.min_l1,
                "witness": None if res.witness is None else list(res.witness),
                "states_visited": res.states_visited,
            }
        )
    elif args.kind == "ncp":
        ncp = read_instance(args.infile, "ncp")
        res = solve_ncp_min(ncp, _budget(args), full_field=args.full_field)
        _emit(
            {
                "kind": "solve_result",
                "problem": "ncp",
                "mode": res.mode,
                "optimum": res.min_dist,
                "witness": list(res.witness),
                "states_visited": res.states_visited,
            }
        )
    else:  # lhp
        lhp = read_instance(args.infile, "lhp")
        res = solve_lhp_min(lhp, budget=_budget(args))
        _emit(
            {
                "kind": "solve_result",
                "problem": "lhp",
                "optimum": res.min_violations,
                "witness": to_document(res.witness),
                "states_visited": res.states_visited,
            }
        )
    return 0


def _cmd_check_consistency(args) -> int:
    ssat = read_instance(args.infile, "ssat")
    s = read_instance(args.super_path, "superassignment")
    result = is_consistent(ssat, s)
    doc: dict[str, Any] = {"kind": "consistency_report", "consistent": result.consistent}
    if result.witness is not None:
        i, j, x, a = result.witness
        doc["witness"] = {"test_i": i, "test_j": j, "variable": x, "value": a}
    _emit(doc)
    return 0 if result.consistent else 1


def _cmd_check_claims(args) -> int:
    ssat = read_instance(args.infile, "ssat")
    if args.super_path:
        candidates = [read_instance(args.super_path, "superassignment")]
    else:
        candidates = enumerate_consistent_superassignments(ssat, args.box, _max_states())
    checked = 0
    violations: list[dict[str, Any]] = []
    for s in candidates:
        checked += 1
        for psi, y in check_bad_array_sums(ssat, s):
            violations.append({"test": psi, "b_label": y, "weights": [list(r) for r in s.weights]})
        reduced = zero_all_bad_arrays(ssat, s)
        if not is_consistent(ssat, reduced) or norm_l1(reduced) > norm_l1(s):
            violations.append({"zeroing_broke": [list(r) for r in s.weights]})
        classify_tests(ssat, s, range(len(ssat.tests)))
    _emit(
        {
            "kind": "claims_report",
            "checked": checked,
            "violations": violations,
            "all_hold": not violations,
        }
    )
    return 0 if not violations else 1


def _cmd_check_agreement(args) -> int:
    lc = read_instance(args.infile, "label_cover")
    bound = check_list_soundness_bound(lc, args.l, _max_states())
    _emit(
        {
            "kind": "agreement_report",
            "s_agr": encode_fraction(bound.agreement),
            "l": args.l,
            "s_list_exact": encode_fraction(bound.lhs),
            "bound_rhs": encode_fraction(bound.rhs),
            "bound_holds": bound.holds,
        }
    )
    return 0 if bound.holds else 1


def _cmd_check_lists(args) -> int:
    lc = read_instance(args.infile, "label_cover")
    ssat = lc_to_ssat(lc)
    if args.super_path:
        s = read_instance(args.super_path, "superassignment")
    else:
        res = solve_ssat_min_norm(ssat, _budget(args))
        if res.witness is None:
            _emit({"kind": "lists_report", "error": "no consistent non-trivial super-assignment in the box"})
            return 1
        s = res.witness
    d_a = validate_label_cover(lc).d_a
    params = ListConstructionParams.derive(
        g=Fraction(args.g),
        s_list=args.s_list,
        d_a=d_a,
        seed=args.seed,
        force_p_one=args.derandomize,
    )
    labeling = list_construction(ssat, s, params)
    defeat = verify_defeats_list_soundness(lc, labeling, args.s_list)
    _emit(
        {
            "kind": "lists_report",
            "g": encode_fraction(params.g),
            "g1": encode_fraction(params.g1),
            "p_include": encode_fraction(params.p_include),
            "s_list": encode_fraction(params.s_list),
            "seed": args.seed,
            "low_norm_tests": list(select_low_norm_tests(ssat, s, params)),
            "lists": {str(a): list(v) for a, v in labeling.lists.items()},
            "max_list_size": labeling.max_list_size,
            "fraction": encode_fraction(defeat.non_disagree_fraction),
            "defeats": defeat.defeats,
        }
    )
    return 0


def _cmd_check_chain(args) -> int:
    lc = read_instance(args.infile, "label_cover")
    doc = run_chain(
        lc,
        g=args.g,
        box=args.box,
        max_states=_max_states(),
        u_param=args.u,
        d_rep=args.d_rep,
        q=args.q,
    )
    if args.out:
        Path(args.out).write_bytes(canonical_bytes(doc))
    _emit(doc)
    return 0 if doc["all_checks_passed"] else 1


def _cmd_report(args) -> int:
    doc = read_document(args.infile)
    if not isinstance(doc, dict) or doc.get("kind") != "chain_report":
        raise SchemaViolation("/kind", "expected a chain_report document")
    gap = doc.get("gap_report")
    rows = gap.get("rows") if isinstance(gap, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) and r.keys() >= set(GAP_ROW_KEYS) for r in rows):
        raise SchemaViolation("/gap_report", f"expected rows with the fields {sorted(GAP_ROW_KEYS)}")
    if "all_checks_passed" not in doc:
        raise SchemaViolation("/all_checks_passed", "missing from the chain_report")
    if args.text:
        widths = ("stage", "completeness", "oracle_min", "ratio")
        print("{:<8} {:>14} {:>11} {:>7}".format(*widths))
        for r in rows:
            print(
                "{:<8} {:>14} {:>11} {:>7}".format(
                    r["stage"],
                    r["completeness_value"] or "-",
                    r["oracle_minimum"] or "inf",
                    r["ratio"] or "inf",
                )
            )
        return 0
    try:
        data = canonical_bytes({"kind": "gap_report", "rows": rows, "all_checks_passed": doc["all_checks_passed"]})
    except TypeError as exc:  # a float, which the canonical writer refuses and no chain_report holds
        raise SchemaViolation("", f"not a chain_report: {exc}") from None
    sys.stdout.write(data.decode("utf-8"))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gapforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    gen_lc = gen_sub.add_parser("lc", help="generate a label cover")
    gen_lc.add_argument("--spec", default=None, help="JSON file with the generation fields")
    gen_lc.add_argument("--num-a", type=int, default=None)
    gen_lc.add_argument("--num-b", type=int, default=None)
    gen_lc.add_argument("--d-b", type=int, default=None)
    gen_lc.add_argument("--sigma-a", type=int, default=None)
    gen_lc.add_argument("--sigma-b", type=int, default=None)
    gen_lc.add_argument("--p", type=int, default=None)
    gen_lc.add_argument("--planted", action=argparse.BooleanOptionalAction, default=None)
    gen_lc.add_argument("--seed", type=int, default=None)
    gen_lc.add_argument("--flips", type=int, default=0)
    gen_lc.add_argument("--flip-seed", type=int, default=0)
    gen_lc.add_argument("--with-oracle", action="store_true")
    gen_lc.add_argument("--out", required=True)
    gen_lc.set_defaults(func=_cmd_gen_lc)

    red = sub.add_parser("reduce", help="run one reduction step")
    red.add_argument("step", choices=["lc2ssat", "ssat2sis", "sis2ncp", "sis2lhp"])
    red.add_argument("--in", "--input", dest="infile", required=True)
    red.add_argument("--out", required=True)
    red.add_argument("--g", type=int, default=1)
    red.add_argument("--d-rep", type=int, default=None)
    red.add_argument("--q", type=int, default=None)
    red.add_argument("--u", type=int, default=None)
    red.add_argument("--text", action="store_true", help="plain-text matrix output (sis/ncp)")
    red.set_defaults(func=_cmd_reduce)

    solve = sub.add_parser("solve", help="run an exact oracle")
    solve.add_argument("kind", choices=["lc", "ssat", "sis", "ncp", "lhp"])
    solve.add_argument("--in", "--input", dest="infile", required=True)
    solve.add_argument("--box", type=_box_radius, default=2)
    solve.add_argument("--mode", choices=["l1", "linf"], default="l1")
    solve.add_argument("--full-field", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="verification verbs")
    check_sub = check.add_subparsers(dest="what", required=True)

    c_cons = check_sub.add_parser("consistency")
    c_cons.add_argument("--in", "--input", dest="infile", required=True)
    c_cons.add_argument("--super", dest="super_path", required=True)
    c_cons.set_defaults(func=_cmd_check_consistency)

    c_claims = check_sub.add_parser("claims")
    c_claims.add_argument("--in", "--input", dest="infile", required=True)
    c_claims.add_argument("--super", dest="super_path", default=None)
    c_claims.add_argument("--box", type=_box_radius, default=2)
    c_claims.set_defaults(func=_cmd_check_claims)

    c_agr = check_sub.add_parser("agreement")
    c_agr.add_argument("--in", "--input", dest="infile", required=True)
    c_agr.add_argument("--l", type=int, default=2)
    c_agr.set_defaults(func=_cmd_check_agreement)

    c_lists = check_sub.add_parser("lists")
    c_lists.add_argument("--in", "--input", dest="infile", required=True)
    c_lists.add_argument("--super", dest="super_path", default=None)
    c_lists.add_argument("--g", type=int, default=1)
    c_lists.add_argument("--s-list", type=_fraction, default="1/4")
    c_lists.add_argument("--seed", type=int, default=0)
    c_lists.add_argument("--box", type=_box_radius, default=2)
    c_lists.add_argument("--derandomize", action="store_true")
    c_lists.set_defaults(func=_cmd_check_lists)

    c_chain = check_sub.add_parser("chain")
    c_chain.add_argument("--in", "--input", dest="infile", required=True)
    c_chain.add_argument("--g", type=int, default=1)
    c_chain.add_argument("--box", type=_box_radius, default=2)
    c_chain.add_argument("--u", type=int, default=None)
    c_chain.add_argument("--d-rep", type=int, default=None)
    c_chain.add_argument("--q", type=int, default=None)
    c_chain.add_argument("--out", default=None)
    c_chain.set_defaults(func=_cmd_check_chain)

    rep = sub.add_parser("report", help="render the gap table of a chain report")
    rep.add_argument("--in", "--input", dest="infile", required=True)
    rep.add_argument("--text", action="store_true")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except OSError as exc:  # a path that is missing, a directory, or cannot be read or written
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        _emit({"error": {"type": kind, "path": exc.filename or str(exc)}})
        return 1
    except GapforgeError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
