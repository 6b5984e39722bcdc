"""Canonical JSON (and plain-text) serialization for every instance kind.

Serialization is canonical: equal instances produce byte-identical files
(sorted keys, fixed indentation, trailing newline).  Rationals are written as
``"p/q"`` strings; integers ride as JSON numbers while they fit in the 53-bit
safe range and as strings beyond it.  Reading validates against the JSON
schemas shipped under ``schemas/`` and then re-runs the constructors, so a
file that loads is a file that satisfies the type invariants.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Union

import jsonschema

from .errors import MalformedInstance, SchemaViolation
from .instances import (
    EPSILON,
    ConsistencyRow,
    Label,
    LabelCoverInstance,
    Labeling,
    LcProvenance,
    LhpAssignment,
    LhpInequality,
    LhpSystem,
    NcpInstance,
    NonTrivialityRow,
    SisInstance,
    SsatInstance,
    SsatTest,
    _Epsilon,
)
from .superassign import SuperAssignment

SCHEMA_VERSION = 2
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

KINDS = (
    "label_cover",
    "labeling",
    "ssat",
    "superassignment",
    "sis",
    "ncp",
    "lhp",
    "lhp_assignment",
)


# ---------------------------------------------------------------------------
# Scalar encoding
# ---------------------------------------------------------------------------

def encode_int(v: int) -> Union[int, str]:
    return v if -_SAFE_INT <= v <= _SAFE_INT else str(v)


def decode_int(v: Union[int, str]) -> int:
    return v if isinstance(v, int) else int(v)


def encode_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def decode_fraction(s: Union[str, int]) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ZeroDivisionError:
        raise MalformedInstance(f"fraction {s!r} has a zero denominator") from None


def _label_key_map(labels) -> dict[str, Label]:
    """String forms of labels, for use as JSON object keys; must be injective."""
    out: dict[str, Label] = {}
    for lab in labels:
        key = str(lab)
        if key in out:
            raise SchemaViolation("/sigma_a", f"labels {out[key]!r} and {lab!r} collide as JSON keys")
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


def _row_tag_doc(tag) -> dict[str, Any]:
    if isinstance(tag, NonTrivialityRow):
        return {"row": "non_triviality", "test": tag.test}
    return {
        "row": "consistency",
        "test_i": tag.test_i,
        "test_j": tag.test_j,
        "variable": tag.variable,
        "value": tag.value,
    }


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
            "matrix": [[encode_int(v) for v in row] for row in obj.matrix],
            "target": [encode_int(v) for v in obj.target],
            "bound": encode_int(obj.bound),
            "column_provenance": None
            if obj.column_provenance is None
            else [list(pair) for pair in obj.column_provenance],
            "row_provenance": None
            if obj.row_provenance is None
            else [_row_tag_doc(tag) for tag in obj.row_provenance],
        }
    if isinstance(obj, NcpInstance):
        return {
            "kind": "ncp",
            "version": SCHEMA_VERSION,
            "modulus": encode_int(obj.modulus),
            "matrix": [[encode_int(v) for v in row] for row in obj.matrix],
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
                    "coeff_x": [[i, encode_fraction(c)] for i, c in ineq.coeff_x],
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

def _lc_from_payload(doc: dict[str, Any]) -> LabelCoverInstance:
    key_map = _label_key_map(doc["sigma_a"])
    projections = {}
    edges = []
    for rec in doc["edges"]:
        e = (rec["a"], rec["b"])
        edges.append(e)
        try:
            projections[e] = {key_map[x]: y for x, y in rec["pi"].items()}
        except KeyError as exc:
            raise SchemaViolation("/edges", f"projection key {exc.args[0]!r} is not a sigma_a label") from None
    return LabelCoverInstance(
        a_vertices=tuple(doc["a"]),
        b_vertices=tuple(doc["b"]),
        sigma_a=tuple(doc["sigma_a"]),
        sigma_b=tuple(doc["sigma_b"]),
        edges=tuple(edges),
        projections=projections,
    )


def from_document(doc: dict[str, Any]) -> Instance:
    """Rebuild an instance from its document; validates schema and invariants."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaViolation("", "document has no 'kind' field")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SchemaViolation("/kind", f"unknown kind {kind!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaViolation("/version", f"version {doc.get('version')!r} is not supported; re-run the "
                              f"step that wrote the file to get version {SCHEMA_VERSION}")
    _validate_schema(doc, kind)
    if kind == "label_cover":
        return _lc_from_payload(doc)
    if kind == "labeling":
        return Labeling(
            phi_a={v: lab for v, lab in doc["phi_a"]},
            phi_b=None if doc["phi_b"] is None else {v: lab for v, lab in doc["phi_b"]},
        )
    if kind == "ssat":
        prov = None
        if doc["provenance"] is not None:
            prov = LcProvenance(
                lc=_lc_from_payload(doc["provenance"]["lc"]),
                var_to_a=tuple(doc["provenance"]["var_to_a"]),
                test_to_b=tuple(doc["provenance"]["test_to_b"]),
            )
        return SsatInstance(
            variables=tuple(doc["variables"]),
            field_values=tuple(doc["field_values"]),
            tests=tuple(
                SsatTest(
                    variables=tuple(t["variables"]),
                    assignments=tuple(tuple(r) for r in t["assignments"]),
                )
                for t in doc["tests"]
            ),
            provenance=prov,
        )
    if kind == "superassignment":
        return SuperAssignment(
            weights=tuple(tuple(decode_int(w) for w in row) for row in doc["weights"])
        )
    if kind == "sis":
        row_prov = None
        if doc["row_provenance"] is not None:
            tags = []
            for rec in doc["row_provenance"]:
                if rec["row"] == "non_triviality":
                    tags.append(NonTrivialityRow(test=rec["test"]))
                else:
                    tags.append(
                        ConsistencyRow(
                            test_i=rec["test_i"],
                            test_j=rec["test_j"],
                            variable=rec["variable"],
                            value=rec["value"],
                        )
                    )
            row_prov = tuple(tags)
        return SisInstance(
            matrix=tuple(tuple(decode_int(v) for v in row) for row in doc["matrix"]),
            target=tuple(decode_int(v) for v in doc["target"]),
            bound=decode_int(doc["bound"]),
            column_provenance=None
            if doc["column_provenance"] is None
            else tuple((p[0], p[1]) for p in doc["column_provenance"]),
            row_provenance=row_prov,
        )
    if kind == "ncp":
        return NcpInstance(
            modulus=decode_int(doc["modulus"]),
            matrix=tuple(tuple(decode_int(v) for v in row) for row in doc["matrix"]),
            target=tuple(decode_int(v) for v in doc["target"]),
            bound=decode_int(doc["bound"]),
            replication=decode_int(doc["replication"]),
            multiplicity=tuple(decode_int(k) for k in doc["multiplicity"]),
        )
    if kind == "lhp":
        ineqs = tuple(
            LhpInequality(
                coeff_x=tuple((i, decode_fraction(c)) for i, c in rec["coeff_x"]),
                coeff_y=decode_fraction(rec["coeff_y"]),
                coeff_delta=decode_fraction(rec["coeff_delta"]),
                sense=rec["sense"],
                group=rec["group"],
                copies_of=rec["copies_of"],
                multiplicity=rec["multiplicity"],
            )
            for rec in doc["inequalities"]
        )
        return LhpSystem(num_x=doc["num_x"], u_param=doc["u_param"], inequalities=ineqs)
    if kind == "lhp_assignment":
        delta = doc["delta_value"]
        return LhpAssignment(
            x_values=tuple(decode_fraction(x) for x in doc["x_values"]),
            y_value=decode_fraction(doc["y_value"]),
            delta_value=EPSILON if delta == "epsilon" else decode_fraction(delta),
        )
    raise SchemaViolation("/kind", f"unknown kind {kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def _load_schema(kind: str) -> dict[str, Any]:
    ref = resources.files("gapforge").joinpath(f"schemas/{kind}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


_SCHEMA_CACHE: dict[str, Any] = {}


def _validate_schema(doc: dict[str, Any], kind: str) -> None:
    if kind not in _SCHEMA_CACHE:
        _SCHEMA_CACHE[kind] = jsonschema.Draft202012Validator(_load_schema(kind))
    validator = _SCHEMA_CACHE[kind]
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        pointer = "/" + "/".join(str(p) for p in error.absolute_path)
        raise SchemaViolation(pointer, error.message)


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

def sis_to_text(sis: SisInstance) -> str:
    """Header ``n' m' d``, one matrix row per line, then the target row.

    Provenance does not survive the text format; the JSON format is lossless.
    """
    lines = [f"{sis.num_rows} {sis.num_cols} {sis.bound}"]
    lines.extend(" ".join(str(v) for v in row) for row in sis.matrix)
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
    return SisInstance(matrix=tuple(rows), target=target, bound=d)


def _int_tokens(lines: list[str], i: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in lines[i].split())
    except ValueError:
        raise SchemaViolation(f"/{i}", f"non-blank line {i + 1} is not all integers: {lines[i]!r}") from None


def ncp_to_text(ncp: NcpInstance) -> str:
    """Header ``rows cols q d``, one line per row copy, then the target row.

    A row with multiplicity k is written k times, so ``rows`` counts copies.
    """
    lines = [f"{ncp.num_rows} {ncp.num_cols} {ncp.modulus} {ncp.bound}"]
    for row, k in zip(ncp.matrix, ncp.multiplicity):
        lines.extend([" ".join(str(v) for v in row)] * k)
    lines.append(" ".join(str(t) for t, k in zip(ncp.target, ncp.multiplicity) for _ in range(k)))
    return "\n".join(lines) + "\n"
