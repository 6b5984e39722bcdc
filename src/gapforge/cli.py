"""Command-line interface: generate, reduce, solve, check, report.

All results are printed as canonical JSON on standard out (``--text`` swaps
in the plain-text emitters where one exists).  Exit codes: 0 on success, 1 on
validation or domain errors (as a JSON error envelope), 2 on usage errors.

Each verb takes only the flags its handler reads: every ``reduce`` step and
every ``solve`` kind is a subcommand of its own, so a flag that the verb
would ignore (``solve lc --box``, ``reduce lc2ssat --text``) is a usage
error.  So are ``--box`` beside ``--super`` on ``check claims`` and ``check
lists``, ``--box`` beside ``--full-field`` on ``solve ncp``, and ``gen lc
--flip-seed`` without ``--flips`` of at least 1.

The exact searches share one state cap, ``gapforge.oracles.DEFAULT_MAX_STATES``,
which the environment variable ``GAPFORGE_MAX_STATES`` overrides.  The verbs
that charge it are ``solve``, ``check claims|agreement|lists|chain`` and
``gen lc --with-oracle``.  Every one of their searches charges each node its
walk enters, depth first or best first.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .errors import GapforgeError, InconsistentInput, InfeasibleSpec, SchemaViolation
from .oracles import (
    DEFAULT_MAX_STATES,
    SearchBudget,
    enumerate_consistent_superassignments,
    solve_lc_max,
    solve_ssat_min_norm,
)
from .pipeline import GAP_ROW_KEYS, ORACLES, REDUCTIONS, run_chain
from .reductions import lc_to_ssat
from .serialize import (
    _bool,
    _fields,
    _int,
    canonical_bytes,
    encode_fraction,
    encode_optimum,
    read_document,
    read_instance,
    write_instance,
)
from .superassign import _bad_arrays, _classify, assigned_value_sets, is_consistent, norm_l1
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


def _budget(**kwargs) -> SearchBudget:
    return SearchBudget(max_states=_max_states(), **kwargs)


# ---------------------------------------------------------------------------
# Tables.  The ``reduce`` steps and ``solve`` kinds are the rows of
# ``pipeline.REDUCTIONS`` and ``pipeline.ORACLES``.
# ---------------------------------------------------------------------------

# (flag and spec-file key, GenSpec attribute) of each size field of ``gen lc``
_SIZE_FIELDS = (
    ("num_a", "num_a"), ("num_b", "num_b"), ("d_b", "d_b"),
    ("sigma_a", "sigma_a_size"), ("sigma_b", "sigma_b_size"), ("p", "arity_p"),
)
_SPEC_FIELDS = frozenset((*(key for key, _ in _SIZE_FIELDS), "planted", "seed"))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _gen_spec_from_args(args):
    """The ``GenSpec`` of ``gen lc``: an optional spec file merged with flags; flags win where both are set.

    The spec file is an object with some of the keys ``_SPEC_FIELDS``:
    ``planted`` a boolean, the others integers.
    """
    from .genlab import GenSpec

    fields: dict[str, Any] = {}
    if args.spec:
        spec = _fields(read_document(args.spec), "", _SPEC_FIELDS, subset=True)
        fields.update((key, (_bool if key == "planted" else _int)(value, f"/{key}")) for key, value in spec.items())
    fields.update((key, getattr(args, key)) for key in _SPEC_FIELDS if getattr(args, key) is not None)
    missing = [key for key, _ in _SIZE_FIELDS if key not in fields]
    if missing:
        raise InfeasibleSpec(f"generation spec is missing {missing}")
    return GenSpec(
        **{attr: fields[key] for key, attr in _SIZE_FIELDS},
        planted=fields.get("planted", True),
        seed=fields.get("seed", 0),
    )


def _cmd_gen_lc(args) -> int:
    from .genlab import frustrate, gen_label_cover

    if args.flip_seed is not None and args.flips < 1:
        raise UsageError("--flip-seed needs --flips of at least 1")
    spec = _gen_spec_from_args(args)
    lc = gen_label_cover(spec)
    flip_seed = None
    if args.flips:
        flip_seed = args.flip_seed or 0
        lc = frustrate(lc, args.flips, flip_seed)
    meta: dict[str, Any] = {
        "kind": "gen_metadata",
        "version": 1,
        "planted": spec.planted,
        "seed": spec.seed,
        "flips": args.flips,
        "flip_seed": flip_seed,
        "spec": {key: getattr(spec, attr) for key, attr in _SIZE_FIELDS},
        "oracle_value": None,
    }
    if args.with_oracle:
        result = solve_lc_max(lc, _budget())
        meta["oracle_value"] = encode_fraction(result.best_fraction)
    # both files are written only once the oracle has finished, so a refusal leaves neither
    write_instance(args.out, lc)
    Path(str(args.out) + ".meta.json").write_bytes(canonical_bytes(meta))
    _emit({"written": str(args.out), "metadata": meta})
    return 0


def _cmd_reduce(args) -> int:
    kind, _, names, reduce, to_text = REDUCTIONS[args.step]
    result = reduce(read_instance(args.infile, kind), **{name: getattr(args, name) for name in names})
    out = Path(args.out)
    if to_text is not None and args.text:  # a step takes --text exactly when it has a writer
        from . import plaintext  # loaded only by the one verb that writes plain text

        out.write_text(getattr(plaintext, to_text)(result), encoding="utf-8")
    else:
        write_instance(out, result)
    _emit({"written": str(out), "step": args.step})
    return 0


def _cmd_solve(args) -> int:
    kind, flags, solve = ORACLES[args.kind]
    options = {key: getattr(args, key) for flag in flags for key in (flag if isinstance(flag, tuple) else (flag,))}
    budget = {field: options.pop(flag) for flag, field in (("box", "coeff_box"), ("mode", "mode")) if flag in options}
    res = solve(read_instance(args.infile, kind), _budget(**budget), (), **options)
    # label cover is the one maximization; the others return a ``MinResult``
    optimum, mode = (res.best_fraction, None) if args.kind == "lc" else (res.minimum, res.mode)
    doc: dict[str, Any] = {
        "kind": "solve_result",
        "problem": args.kind,
        "optimum": encode_optimum(optimum),
        "witness": res.witness,  # a vector, an instance record or None
        "states_visited": res.states_visited,
    }
    if mode is not None:  # the SSAT norm and the NCP field
        doc["mode"] = mode
    _emit(doc)
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
        # check_bad_array_sums, zero_all_bad_arrays and classify_tests, checking consistency and working out the
        # assigned value sets and the arrays once
        if not is_consistent(ssat, s):
            raise InconsistentInput("check claims needs a consistent super-assignment")
        assigned = assigned_value_sets(ssat, s)
        bad_sums, reduced = _bad_arrays(ssat, s, assigned)
        for psi, y in bad_sums:
            violations.append({"test": psi, "b_label": y, "weights": [list(r) for r in s.weights]})
        if not is_consistent(ssat, reduced) or norm_l1(reduced) > norm_l1(s):
            violations.append({"zeroing_broke": [list(r) for r in s.weights]})
        _classify(ssat, s, range(len(ssat.tests)), assigned)
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
    from .soundness import check_list_soundness_bound

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
    from .soundness import ListConstructionParams, _list_construction, verify_defeats_list_soundness

    lc = read_instance(args.infile, "label_cover")
    ssat = lc_to_ssat(lc)
    # the flags are refused before the SSAT walk, whose cap could otherwise hide a bad one
    params = ListConstructionParams.derive(
        g=Fraction(args.g),
        s_list=args.s_list,
        d_a=validate_label_cover(lc).d_a,
        seed=args.seed,
        force_p_one=args.derandomize,
    )
    if args.super_path:
        s = read_instance(args.super_path, "superassignment")
    else:
        res = solve_ssat_min_norm(ssat, _budget(coeff_box=args.box))
        if res.witness is None:
            _emit({"kind": "lists_report", "error": "no consistent non-trivial super-assignment in the box"})
            return 1
        s = res.witness
    low_norm_tests, labeling = _list_construction(ssat, s, params)
    defeat = verify_defeats_list_soundness(lc, labeling, args.s_list)
    _emit(
        {
            "kind": "lists_report",
            "g": encode_fraction(params.g),
            "g1": encode_fraction(params.g1),
            "p_include": encode_fraction(params.p_include),
            "s_list": encode_fraction(params.s_list),
            "seed": args.seed,
            "low_norm_tests": list(low_norm_tests),
            "lists": [[a, list(v)] for a, v in labeling.lists.items()],
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
    if not isinstance(rows, list):
        raise SchemaViolation("/gap_report", "expected an object with a list of rows")
    if "all_checks_passed" not in doc:
        raise SchemaViolation("/all_checks_passed", "missing from the chain_report")
    for i, row in enumerate(rows):  # as ``run_chain`` writes them: the stage a string, the others a string or null
        _fields(row, f"/gap_report/rows/{i}", frozenset(GAP_ROW_KEYS))
        for key in GAP_ROW_KEYS:
            if type(row[key]) is not str and (key == "stage" or row[key] is not None):
                expected = "a string" if key == "stage" else "a string or null"
                raise SchemaViolation(f"/gap_report/rows/{i}/{key}", f"expected {expected}, got {row[key]!r:.60}")
    passed = _bool(doc["all_checks_passed"], "/all_checks_passed")
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
    data = canonical_bytes({"kind": "gap_report", "rows": rows, "all_checks_passed": passed})
    sys.stdout.write(data.decode("utf-8"))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _flag(*names: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return names, options


# every flag, by the name verbs list it under
_FLAGS = {
    "in": _flag("--in", "--input", dest="infile", required=True),
    "out": _flag("--out", required=True),
    "report_out": _flag("--out", default=None),
    "super": _flag("--super", dest="super_path", required=True),
    "super_candidate": _flag("--super", dest="super_path", default=None),
    "text": _flag("--text", action="store_true", help="plain-text output"),
    "box": _flag("--box", type=_box_radius, default=2),
    "mode": _flag("--mode", choices=["l1", "linf"], default="l1"),
    "full_field": _flag("--full-field", action="store_true"),
    "g": _flag("--g", type=int, default=1),
    "d_rep": _flag("--d-rep", type=int, default=None),
    "q": _flag("--q", type=int, default=None),
    "u": _flag("--u", type=int, default=None),
    "l": _flag("--l", type=int, default=2),
    "s_list": _flag("--s-list", type=_fraction, default="1/4"),
    "seed": _flag("--seed", type=int, default=0),
    "derandomize": _flag("--derandomize", action="store_true"),
    "spec": _flag("--spec", default=None, help="JSON file with the generation fields"),
    "flips": _flag("--flips", type=int, default=0),
    "flip_seed": _flag("--flip-seed", type=int, default=None),
    "with_oracle": _flag("--with-oracle", action="store_true"),
    # the generation fields of ``gen lc``, unset unless given so that a spec file can supply them
    **{key: _flag(f"--{key.replace('_', '-')}", type=int, default=None) for key, _ in _SIZE_FIELDS},
    "gen_seed": _flag("--seed", type=int, default=None),
    "planted": _flag("--planted", action=argparse.BooleanOptionalAction, default=None),
}

# group: (help, dest of its verb name)
_GROUPS = {
    "gen": ("generate instances", "what"),
    "reduce": ("run one reduction step", "step"),
    "solve": ("run an exact oracle", "kind"),
    "check": ("verification verbs", "what"),
}

# verb path: (handler, the names of its ``_FLAGS``, add_parser keywords), in the order help lists them
_VERBS = {
    ("gen", "lc"): (_cmd_gen_lc, ("spec", "flips", "flip_seed", "with_oracle", "out",
                                  *(key for key, _ in _SIZE_FIELDS), "gen_seed", "planted"),
                    {"help": "generate a label cover"}),
    **{("reduce", step): (_cmd_reduce, ("in", "out", *names, *(() if to_text is None else ("text",))), {})
       for step, (_, _, names, _, to_text) in REDUCTIONS.items()},
    **{("solve", kind): (_cmd_solve, ("in", *flags), {}) for kind, (_, flags, _) in ORACLES.items()},
    ("check", "consistency"): (_cmd_check_consistency, ("in", "super"), {}),
    ("check", "claims"): (_cmd_check_claims, ("in", ("super_candidate", "box")), {}),
    ("check", "agreement"): (_cmd_check_agreement, ("in", "l"), {}),
    ("check", "lists"): (_cmd_check_lists, ("in", ("super_candidate", "box"), "g", "s_list", "seed", "derandomize"),
                         {}),
    ("check", "chain"): (_cmd_check_chain, ("in", "g", "box", "u", "d_rep", "q", "report_out"), {}),
    ("report",): (_cmd_report, ("in", "text"), {"help": "render the gap table of a chain report"}),
}


def _verb(sub, name: str, func, flags, **kwargs) -> argparse.ArgumentParser:
    """Subcommand ``name`` running ``func`` with the named ``_FLAGS``; a tuple of names is mutually exclusive."""
    parser = sub.add_parser(name, **kwargs)
    for flag in flags:
        group = parser.add_mutually_exclusive_group() if isinstance(flag, tuple) else parser
        for key in flag if isinstance(flag, tuple) else (flag,):
            names, options = _FLAGS[key]
            group.add_argument(*names, **options)
    parser.set_defaults(func=func, verb_parser=parser)
    return parser


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser of the whole command tree, or of the one verb that ``argv`` starts with.

    A verb's parser is the same in both trees (prog, usage, help, flags), so
    a command line that names its verb first parses the same way.  Any other
    command line, such as ``--help`` above a verb, an unknown verb or a flag
    before the verb, gets the whole tree and its help and error messages.
    """
    head = tuple(argv or ())[:2]
    only = head if head in _VERBS else head[:1] if head[:1] in _VERBS else None
    parser = argparse.ArgumentParser(prog="gapforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for path, (func, flags, kwargs) in _VERBS.items():
        if only is not None and path != only:
            continue
        *group, name = path
        if group and group[0] not in groups:
            help_text, dest = _GROUPS[group[0]]
            groups[group[0]] = sub.add_parser(group[0], help=help_text).add_subparsers(dest=dest, required=True)
        _verb(groups[group[0]] if group else sub, name, func, flags, **kwargs)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse hands a verb's unknown flags up to the root parser; report them with the verb's usage
    args, unknown = build_parser(argv).parse_known_args(argv)
    if unknown:
        args.verb_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except UsageError as exc:
        args.verb_parser.error(str(exc))
    except OSError as exc:  # a path that is missing, a directory, or cannot be read or written
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        _emit({"error": {"type": kind, "path": exc.filename or str(exc)}})
        return 1
    except GapforgeError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
