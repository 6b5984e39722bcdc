"""Canonical JSON (and plain-text) serialization for every instance kind.

Serialization is canonical: equal instances produce byte-identical files
(sorted keys, fixed indentation, trailing newline).  Rationals are written as
``"p/q"`` strings; integers ride as JSON numbers while they fit in the 53-bit
safe range and as strings beyond it.

Reading is one typed decoding pass: ``from_document`` checks each node while
it builds the instance.  A node of the wrong shape or scalar type (an object
with a missing or extra key, a pair of the wrong length, a float or a bool
where an integer belongs, an integer in any encoding but the canonical one, a
fraction that is not a ``"p/q"`` string) raises ``SchemaViolation`` with the
node's JSON pointer.  Value invariants live only in the constructors, which
raise ``MalformedInstance``.  So a file that loads is a file that satisfies
the type invariants.

Files are format version 3, and a file of any other version is refused at
``/version``.  Every matrix row is sparse: SIS and NCP ``matrix`` rows, like
LHP ``coeff_x``, are ``[column, coefficient]`` pairs with ascending columns
and nonzero coefficients, next to the column count (``num_cols``, or
``num_x`` for LHP).  The plain-text formats write the same rows dense.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Union

from .errors import MalformedInstance, SchemaViolation
from .instances import (
    EPSILON,
    Label,
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
    _Epsilon,
)
from .superassign import SuperAssignment

SCHEMA_VERSION = 3
_SAFE_INT = 2 ** 53 - 1

Instance = Union[
    LabelCoverInstance,
    Labeling,
    SsatInstance,
    SuperAssignment,
    SisInstance,
    NcpInstance,
    LhpSystem,
    LhpAssignment,
]


# ---------------------------------------------------------------------------
# Scalars and typed readers
# ---------------------------------------------------------------------------
# A reader takes a parsed JSON node and its JSON pointer, and returns the
# value or raises ``SchemaViolation`` at that pointer.

_BIG_INT = re.compile(r"-?[0-9]+")
_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")


def encode_int(v: int) -> Union[int, str]:
    return v if -_SAFE_INT <= v <= _SAFE_INT else str(v)


def _digits(s: str, ptr: str) -> int:
    try:
        return int(s)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise SchemaViolation(ptr, f"a {len(s)}-character integer is too long to convert") from None


def decode_int(v: Any, ptr: str = "") -> int:
    """The inverse of ``encode_int``; any other encoding of an integer is refused."""
    if type(v) is int and -_SAFE_INT <= v <= _SAFE_INT:
        return v
    if type(v) is str and _BIG_INT.fullmatch(v):
        n = _digits(v, ptr)
        if not -_SAFE_INT <= n <= _SAFE_INT:
            return n
    raise SchemaViolation(ptr, f"expected an integer: a JSON number within 2^53 - 1 of zero, or a "
                               f"digit string beyond, got {v!r:.60}")


def encode_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def decode_fraction(v: Any, ptr: str = "") -> Fraction:
    if type(v) is not str or not _FRACTION.fullmatch(v):
        raise SchemaViolation(ptr, f"expected a 'p/q' string, got {v!r:.60}")
    num, _, den = v.partition("/")
    try:
        return Fraction(_digits(num, ptr), _digits(den, ptr) if den else 1)
    except ZeroDivisionError:
        raise MalformedInstance(f"fraction {v!r} at {ptr!r} has a zero denominator") from None


def _int(v: Any, ptr: str) -> int:
    if type(v) is not int:
        raise SchemaViolation(ptr, f"expected an integer, got {v!r:.60}")
    return v


def _bool(v: Any, ptr: str) -> bool:
    if type(v) is not bool:
        raise SchemaViolation(ptr, f"expected true or false, got {v!r:.60}")
    return v


def _str(v: Any, ptr: str) -> str:
    if type(v) is not str:
        raise SchemaViolation(ptr, f"expected a string, got {v!r:.60}")
    return v


def _label(v: Any, ptr: str) -> Label:
    if type(v) is not int and type(v) is not str:
        raise SchemaViolation(ptr, f"expected an integer or string label, got {v!r:.60}")
    return v


def _list(v: Any, ptr: str, read: Callable[[Any, str], Any]) -> tuple:
    """An array, each item read by ``read``."""
    if type(v) is not list:
        raise SchemaViolation(ptr, f"expected an array, got {v!r:.60}")
    return tuple(read(item, f"{ptr}/{i}") for i, item in enumerate(v))


def _pair(v: Any, ptr: str, first: Callable[[Any, str], Any], second: Callable[[Any, str], Any]) -> tuple:
    if type(v) is not list or len(v) != 2:
        raise SchemaViolation(ptr, f"expected a pair, got {v!r:.60}")
    return first(v[0], f"{ptr}/0"), second(v[1], f"{ptr}/1")


def _fields(v: Any, ptr: str, names: tuple[str, ...], subset: bool = False) -> dict[str, Any]:
    """An object whose keys are exactly ``names``, or with ``subset`` some of them."""
    if type(v) is not dict:
        raise SchemaViolation(ptr, f"expected an object, got {v!r:.60}")
    if not (v.keys() <= set(names) if subset else v.keys() == set(names)):
        expected = "some of" if subset else "exactly"
        raise SchemaViolation(ptr, f"expected {expected} the keys {sorted(names)}, found {sorted(v)}")
    return v


_labels = partial(_list, read=_label)
_int_rows = partial(_list, read=partial(_list, read=decode_int))
_label_pairs = partial(_list, read=partial(_pair, first=_label, second=_label))
_sparse_ints = partial(_list, read=partial(_pair, first=_int, second=decode_int))
_sparse_fractions = partial(_list, read=partial(_pair, first=_int, second=decode_fraction))


def _label_map(v: Any, ptr: str) -> dict[Label, Label]:
    """``[vertex, label]`` pairs, each vertex listed once."""
    out: dict[Label, Label] = {}
    for i, (vertex, label) in enumerate(_label_pairs(v, ptr)):
        if vertex in out:
            raise SchemaViolation(f"{ptr}/{i}/0", f"vertex {vertex!r:.60} is listed twice")
        out[vertex] = label
    return out


def _label_key_map(labels, ptr: str = "/sigma_a") -> dict[str, Label]:
    """String forms of labels, for use as JSON object keys; must be injective."""
    out: dict[str, Label] = {}
    for lab in labels:
        key = str(lab)
        if key in out:
            raise SchemaViolation(ptr, f"labels {out[key]!r} and {lab!r} collide as JSON keys")
        out[key] = lab
    return out


# ---------------------------------------------------------------------------
# Instance -> document
# ---------------------------------------------------------------------------

def _lc_payload(lc: LabelCoverInstance) -> dict[str, Any]:
    _label_key_map(lc.sigma_a)
    return {
        "kind": "label_cover",
        "version": SCHEMA_VERSION,
        "a": list(lc.a_vertices),
        "b": list(lc.b_vertices),
        "sigma_a": list(lc.sigma_a),
        "sigma_b": list(lc.sigma_b),
        "edges": [
            {"a": a, "b": b, "pi": {str(x): y for x, y in lc.projections[(a, b)].items()}}
            for a, b in lc.edges
        ],
    }


def _sparse_doc(row, encode: Callable[[Any], Any]) -> list:
    return [[c, encode(a)] for c, a in row]


def to_document(obj: Instance) -> dict[str, Any]:
    """Plain-JSON document for any instance kind."""
    if isinstance(obj, LabelCoverInstance):
        return _lc_payload(obj)
    if isinstance(obj, Labeling):
        # pair lists instead of JSON objects keep integer vertex ids intact
        return {
            "kind": "labeling",
            "version": SCHEMA_VERSION,
            "phi_a": [[v, lab] for v, lab in obj.phi_a.items()],
            "phi_b": None if obj.phi_b is None else [[v, lab] for v, lab in obj.phi_b.items()],
        }
    if isinstance(obj, SsatInstance):
        doc: dict[str, Any] = {
            "kind": "ssat",
            "version": SCHEMA_VERSION,
            "variables": list(obj.variables),
            "field_values": list(obj.field_values),
            "tests": [
                {"variables": list(t.variables), "assignments": [list(r) for r in t.assignments]}
                for t in obj.tests
            ],
            "provenance": None,
        }
        if obj.provenance is not None:
            doc["provenance"] = {
                "lc": _lc_payload(obj.provenance.lc),
                "var_to_a": list(obj.provenance.var_to_a),
                "test_to_b": list(obj.provenance.test_to_b),
            }
        return doc
    if isinstance(obj, SuperAssignment):
        return {
            "kind": "superassignment",
            "version": SCHEMA_VERSION,
            "weights": [[encode_int(w) for w in row] for row in obj.weights],
        }
    if isinstance(obj, SisInstance):
        return {
            "kind": "sis",
            "version": SCHEMA_VERSION,
            "num_cols": obj.num_cols,
            "matrix": [_sparse_doc(row, encode_int) for row in obj.matrix],
            "target": [encode_int(v) for v in obj.target],
            "bound": encode_int(obj.bound),
        }
    if isinstance(obj, NcpInstance):
        return {
            "kind": "ncp",
            "version": SCHEMA_VERSION,
            "modulus": encode_int(obj.modulus),
            "num_cols": obj.num_cols,
            "matrix": [_sparse_doc(row, encode_int) for row in obj.matrix],
            "target": [encode_int(v) for v in obj.target],
            "bound": encode_int(obj.bound),
            "replication": encode_int(obj.replication),
            "multiplicity": [encode_int(k) for k in obj.multiplicity],
        }
    if isinstance(obj, LhpSystem):
        return {
            "kind": "lhp",
            "version": SCHEMA_VERSION,
            "num_x": obj.num_x,
            "u_param": obj.u_param,
            "inequalities": [
                {
                    "coeff_x": _sparse_doc(ineq.coeff_x, encode_fraction),
                    "coeff_y": encode_fraction(ineq.coeff_y),
                    "coeff_delta": encode_fraction(ineq.coeff_delta),
                    "sense": ineq.sense,
                    "group": ineq.group,
                    "copies_of": ineq.copies_of,
                    "multiplicity": ineq.multiplicity,
                }
                for ineq in obj.inequalities
            ],
        }
    if isinstance(obj, LhpAssignment):
        return {
            "kind": "lhp_assignment",
            "version": SCHEMA_VERSION,
            "x_values": [encode_fraction(x) for x in obj.x_values],
            "y_value": encode_fraction(obj.y_value),
            "delta_value": "epsilon"
            if isinstance(obj.delta_value, _Epsilon)
            else encode_fraction(obj.delta_value),
        }
    raise MalformedInstance(f"cannot serialize objects of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Document -> instance
# ---------------------------------------------------------------------------

# The keys of each document besides "kind" and "version"; all are required.
_FIELDS = {
    "label_cover": ("a", "b", "sigma_a", "sigma_b", "edges"),
    "labeling": ("phi_a", "phi_b"),
    "ssat": ("variables", "field_values", "tests", "provenance"),
    "superassignment": ("weights",),
    "sis": ("num_cols", "matrix", "target", "bound"),
    "ncp": ("modulus", "num_cols", "matrix", "target", "bound", "replication", "multiplicity"),
    "lhp": ("num_x", "u_param", "inequalities"),
    "lhp_assignment": ("x_values", "y_value", "delta_value"),
}
KINDS = tuple(_FIELDS)


def _check_version(v: Any, ptr: str) -> None:
    if type(v) is not int or v != SCHEMA_VERSION:
        raise SchemaViolation(f"{ptr}/version", f"version {v!r:.60} is not supported; re-run the step "
                                                f"that wrote the file to get version {SCHEMA_VERSION}")


def _lc_from_payload(node: Any, ptr: str) -> LabelCoverInstance:
    doc = _fields(node, ptr, ("kind", "version") + _FIELDS["label_cover"])
    if doc["kind"] != "label_cover":
        raise SchemaViolation(f"{ptr}/kind", f"expected kind 'label_cover', got {doc['kind']!r:.60}")
    _check_version(doc["version"], ptr)
    sigma_a = _labels(doc["sigma_a"], f"{ptr}/sigma_a")
    key_map = _label_key_map(sigma_a, f"{ptr}/sigma_a")

    def edge(rec: Any, at: str) -> tuple:
        pi = _fields(rec, at, ("a", "b", "pi"))["pi"]
        if type(pi) is not dict:
            raise SchemaViolation(f"{at}/pi", f"expected an object, got {pi!r:.60}")
        table = {}
        for x, y in pi.items():
            if x not in key_map:
                raise SchemaViolation(f"{at}/pi", f"projection key {x!r} is not a sigma_a label")
            table[key_map[x]] = _label(y, f"{at}/pi/{x}")
        return (_label(rec["a"], f"{at}/a"), _label(rec["b"], f"{at}/b")), table

    records = _list(doc["edges"], f"{ptr}/edges", edge)
    return LabelCoverInstance(
        a_vertices=_labels(doc["a"], f"{ptr}/a"),
        b_vertices=_labels(doc["b"], f"{ptr}/b"),
        sigma_a=sigma_a,
        sigma_b=_labels(doc["sigma_b"], f"{ptr}/sigma_b"),
        edges=tuple(e for e, _ in records),
        projections=dict(records),
    )


def _ssat_test(node: Any, ptr: str) -> SsatTest:
    rec = _fields(node, ptr, ("variables", "assignments"))
    return SsatTest(
        variables=_labels(rec["variables"], f"{ptr}/variables"),
        assignments=_list(rec["assignments"], f"{ptr}/assignments", _labels),
    )


def _lhp_inequality(node: Any, ptr: str) -> LhpInequality:
    rec = _fields(node, ptr, ("coeff_x", "coeff_y", "coeff_delta", "sense", "group", "copies_of", "multiplicity"))
    return LhpInequality(
        coeff_x=_sparse_fractions(rec["coeff_x"], f"{ptr}/coeff_x"),
        coeff_y=decode_fraction(rec["coeff_y"], f"{ptr}/coeff_y"),
        coeff_delta=decode_fraction(rec["coeff_delta"], f"{ptr}/coeff_delta"),
        sense=_str(rec["sense"], f"{ptr}/sense"),
        group=_str(rec["group"], f"{ptr}/group"),
        copies_of=_str(rec["copies_of"], f"{ptr}/copies_of"),
        multiplicity=_int(rec["multiplicity"], f"{ptr}/multiplicity"),
    )


def from_document(doc: Any) -> Instance:
    """Rebuild an instance from its document, checking each node as it is read.

    A node of the wrong shape or scalar type raises ``SchemaViolation`` at its
    JSON pointer (a missing or extra key, at the object's pointer); the
    constructors then raise ``MalformedInstance`` on any broken invariant.
    """
    if type(doc) is not dict or "kind" not in doc:
        raise SchemaViolation("", "document has no 'kind' field")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SchemaViolation("/kind", f"unknown kind {kind!r:.60}")
    _check_version(doc.get("version"), "")
    if kind == "label_cover":
        return _lc_from_payload(doc, "")
    _fields(doc, "", ("kind", "version") + _FIELDS[kind])
    if kind == "labeling":
        return Labeling(
            phi_a=_label_map(doc["phi_a"], "/phi_a"),
            phi_b=None if doc["phi_b"] is None else _label_map(doc["phi_b"], "/phi_b"),
        )
    if kind == "ssat":
        prov = None
        if doc["provenance"] is not None:
            rec = _fields(doc["provenance"], "/provenance", ("lc", "var_to_a", "test_to_b"))
            prov = LcProvenance(
                lc=_lc_from_payload(rec["lc"], "/provenance/lc"),
                var_to_a=_labels(rec["var_to_a"], "/provenance/var_to_a"),
                test_to_b=_labels(rec["test_to_b"], "/provenance/test_to_b"),
            )
        return SsatInstance(
            variables=_labels(doc["variables"], "/variables"),
            field_values=_labels(doc["field_values"], "/field_values"),
            tests=_list(doc["tests"], "/tests", _ssat_test),
            provenance=prov,
        )
    if kind == "superassignment":
        return SuperAssignment(weights=_int_rows(doc["weights"], "/weights"))
    if kind == "sis":
        return SisInstance(
            num_cols=_int(doc["num_cols"], "/num_cols"),
            matrix=_list(doc["matrix"], "/matrix", _sparse_ints),
            target=_list(doc["target"], "/target", decode_int),
            bound=decode_int(doc["bound"], "/bound"),
        )
    if kind == "ncp":
        return NcpInstance(
            modulus=decode_int(doc["modulus"], "/modulus"),
            num_cols=_int(doc["num_cols"], "/num_cols"),
            matrix=_list(doc["matrix"], "/matrix", _sparse_ints),
            target=_list(doc["target"], "/target", decode_int),
            bound=decode_int(doc["bound"], "/bound"),
            replication=decode_int(doc["replication"], "/replication"),
            multiplicity=_list(doc["multiplicity"], "/multiplicity", decode_int),
        )
    if kind == "lhp":
        return LhpSystem(
            num_x=_int(doc["num_x"], "/num_x"),
            u_param=_int(doc["u_param"], "/u_param"),
            inequalities=_list(doc["inequalities"], "/inequalities", _lhp_inequality),
        )
    # lhp_assignment
    delta = doc["delta_value"]
    return LhpAssignment(
        x_values=_list(doc["x_values"], "/x_values", decode_fraction),
        y_value=decode_fraction(doc["y_value"], "/y_value"),
        delta_value=EPSILON if delta == "epsilon" else decode_fraction(delta, "/delta_value"),
    )


# ---------------------------------------------------------------------------
# Files, bytes and hashes
# ---------------------------------------------------------------------------

def canonical_bytes(obj: Union[Instance, dict[str, Any]]) -> bytes:
    doc = obj if isinstance(obj, dict) else to_document(obj)
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def content_hash(obj: Union[Instance, dict[str, Any]]) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def write_instance(path: Union[str, Path], obj: Instance) -> None:
    Path(path).write_bytes(canonical_bytes(obj))


def read_document(path: Union[str, Path]) -> Any:
    """Parse a JSON file; text that is not JSON raises ``SchemaViolation``."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaViolation("", f"not valid JSON: {exc}") from None


def read_instance(path: Union[str, Path], kind: str | None = None) -> Instance:
    doc = read_document(path)
    if kind is not None:
        if not isinstance(doc, dict) or doc.get("kind") != kind:
            raise SchemaViolation("/kind", f"expected kind {kind!r}")
    return from_document(doc)


# ---------------------------------------------------------------------------
# Plain-text matrix formats
# ---------------------------------------------------------------------------

def _dense_line(row, num_cols: int) -> str:
    """A sparse row as its ``num_cols`` entries, zeros included, separated by spaces."""
    entries = [0] * num_cols
    for c, a in row:
        entries[c] = a
    return " ".join(map(str, entries))


def sis_to_text(sis: SisInstance) -> str:
    """Header ``n' m' d``, one dense matrix row per line, then the target row.

    ``sis_from_text`` reads it back to an equal instance.
    """
    lines = [f"{sis.num_rows} {sis.num_cols} {sis.bound}"]
    lines.extend(_dense_line(row, sis.num_cols) for row in sis.matrix)
    lines.append(" ".join(str(v) for v in sis.target))
    return "\n".join(lines) + "\n"


def sis_from_text(text: str) -> SisInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaViolation("", "empty SIS text document")
    try:
        n, m, d = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise SchemaViolation("/0", "header must be 'rows cols bound'") from None
    if len(lines) != n + 2:
        raise SchemaViolation("", f"expected {n} matrix rows plus a target line")
    rows = [_int_tokens(lines, i) for i in range(1, n + 1)]
    target = _int_tokens(lines, n + 1)
    if any(len(row) != m for row in rows):
        raise SchemaViolation("", "matrix row width differs from header")
    if len(target) != n:
        raise SchemaViolation("", "target length differs from header")
    matrix = tuple(tuple((c, a) for c, a in enumerate(row) if a) for row in rows)
    return SisInstance(num_cols=m, matrix=matrix, target=target, bound=d)


def _int_tokens(lines: list[str], i: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in lines[i].split())
    except ValueError:
        raise SchemaViolation(f"/{i}", f"non-blank line {i + 1} is not all integers: {lines[i]!r}") from None


def ncp_to_text(ncp: NcpInstance) -> str:
    """Header ``rows cols q d``, one dense line per row copy, then the target row.

    A row with multiplicity k is written k times, so ``rows`` counts copies.
    """
    lines = [f"{ncp.num_rows} {ncp.num_cols} {ncp.modulus} {ncp.bound}"]
    for row, k in zip(ncp.matrix, ncp.multiplicity):
        lines.extend([_dense_line(row, ncp.num_cols)] * k)
    lines.append(" ".join(str(t) for t, k in zip(ncp.target, ncp.multiplicity) for _ in range(k)))
    return "\n".join(lines) + "\n"
