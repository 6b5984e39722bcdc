"""Canonical JSON (and plain-text) serialization for every instance kind.

Serialization is canonical: equal instances produce byte-identical files
(sorted keys, fixed indentation, trailing newline).  The bytes are those of
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline, but a small writer of its own produces them: with ``indent`` set,
``json.dumps`` runs its pure-Python encoder, one generator per node.
Rationals are written as ``"p/q"`` strings; integers ride as JSON numbers
while they fit in the 53-bit safe range and as strings beyond it.

Reading is one typed decoding pass: ``from_document`` checks each node while
it builds the instance.  A node of the wrong shape or scalar type (an object
with a missing or extra key, a pair of the wrong length, a float or a bool
where an integer belongs, an integer or a fraction in any encoding but the
canonical one, which for a fraction is ``"p/q"`` in lowest terms) raises
``SchemaViolation`` with the node's JSON pointer.  Value invariants live only
in the constructors, which raise ``MalformedInstance``.  So a file that loads
is a file that satisfies the type invariants.

One field table gives each document kind's layout once: for every key, which
is also the attribute name, a (reader, writer) pair.  ``to_document`` and
``from_document`` both run off it, and so do the nested SSAT test, SSAT
provenance and LHP inequality records.  Only the label cover, whose keys are
not its attribute names, has its own reader and writer.

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
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Optional, Union

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
            if str(n) != v:
                raise SchemaViolation(ptr, f"expected the integer written {str(n)!r:.60}, got {v!r:.60}")
            return n
    raise SchemaViolation(ptr, f"expected an integer: a JSON number within 2^53 - 1 of zero, or a "
                               f"digit string beyond, got {v!r:.60}")


def encode_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def encode_optimum(v: Union[Fraction, int, None]) -> Union[str, int, None]:
    """An oracle's optimum as JSON: a ``Fraction`` as ``"p/q"``, an ``int`` or ``None`` as itself."""
    return encode_fraction(v) if isinstance(v, Fraction) else v


# Fractions already decoded, by their canonical string: a document repeats a
# few coefficients many times.  Emptied when full, so it stays small.
_FRACTIONS: dict[str, Fraction] = {}
_FRACTIONS_MAX = 1024


def decode_fraction(v: Any, ptr: str = "") -> Fraction:
    """The inverse of ``encode_fraction``: ``"p/q"`` in lowest terms with q >= 1; any other string is refused."""
    if type(v) is str:
        f = _FRACTIONS.get(v)
        if f is not None:
            return f
    if type(v) is not str or not _FRACTION.fullmatch(v):
        raise SchemaViolation(ptr, f"expected a 'p/q' string, got {v!r:.60}")
    num, _, den = v.partition("/")
    try:
        f = Fraction(_digits(num, ptr), _digits(den, ptr) if den else 1)
    except ZeroDivisionError:
        raise MalformedInstance(f"fraction {v!r} at {ptr!r} has a zero denominator") from None
    if encode_fraction(f) != v:
        raise SchemaViolation(ptr, f"expected the fraction written {encode_fraction(f)!r:.60}, got {v!r:.60}")
    if len(_FRACTIONS) >= _FRACTIONS_MAX:
        _FRACTIONS.clear()
    _FRACTIONS[v] = f
    return f


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
    return tuple([read(item, f"{ptr}/{i}") for i, item in enumerate(v)])


def _pairs(v: Any, ptr: str, first: Callable[[Any, str], Any], second: Callable[[Any, str], Any]) -> tuple:
    """An array of ``[first, second]`` pairs."""
    if type(v) is not list:
        raise SchemaViolation(ptr, f"expected an array, got {v!r:.60}")
    out = []
    for i, pair in enumerate(v):
        at = f"{ptr}/{i}"
        if type(pair) is not list or len(pair) != 2:
            raise SchemaViolation(at, f"expected a pair, got {pair!r:.60}")
        out.append((first(pair[0], f"{at}/0"), second(pair[1], f"{at}/1")))
    return tuple(out)


def _fields(v: Any, ptr: str, names: frozenset[str], subset: bool = False) -> dict[str, Any]:
    """An object whose keys are exactly ``names``, or with ``subset`` some of them."""
    if type(v) is not dict:
        raise SchemaViolation(ptr, f"expected an object, got {v!r:.60}")
    if not (v.keys() <= names if subset else v.keys() == names):
        expected = "some of" if subset else "exactly"
        raise SchemaViolation(ptr, f"expected {expected} the keys {sorted(names)}, found {sorted(v)}")
    return v


def _label_map(v: Any, ptr: str) -> dict[Label, Label]:
    """``[vertex, label]`` pairs, each vertex listed once."""
    out: dict[Label, Label] = {}
    for i, (vertex, label) in enumerate(_pairs(v, ptr, _label, _label)):
        if vertex in out:
            raise SchemaViolation(f"{ptr}/{i}/0", f"vertex {vertex!r:.60} is listed twice")
        out[vertex] = label
    return out


def _label_key_map(labels, ptr: str) -> dict[str, Label]:
    """String forms of labels, for use as JSON object keys; must be injective."""
    out: dict[str, Label] = {}
    for lab in labels:
        key = str(lab)
        if key in out:
            raise SchemaViolation(ptr, f"labels {out[key]!r} and {lab!r} collide as JSON keys")
        out[key] = lab
    return out


def _check_version(v: Any, ptr: str) -> None:
    if type(v) is not int or v != SCHEMA_VERSION:
        raise SchemaViolation(f"{ptr}/version", f"version {v!r:.60} is not supported; re-run the step "
                                                f"that wrote the file to get version {SCHEMA_VERSION}")


# ---------------------------------------------------------------------------
# Label cover documents
# ---------------------------------------------------------------------------
# The label cover has its own pair of functions: its keys ``a`` and ``b`` are
# not its attribute names, and its ``pi`` objects are keyed by label strings.

_labels = partial(_list, read=_label)
_LC_KEYS = frozenset(("kind", "version", "a", "b", "sigma_a", "sigma_b", "edges"))
_EDGE_KEYS = frozenset(("a", "b", "pi"))


def _lc_payload(lc: LabelCoverInstance) -> dict[str, Any]:
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


def _lc_from_payload(node: Any, ptr: str) -> LabelCoverInstance:
    doc = _fields(node, ptr, _LC_KEYS)
    if doc["kind"] != "label_cover":
        raise SchemaViolation(f"{ptr}/kind", f"expected kind 'label_cover', got {doc['kind']!r:.60}")
    _check_version(doc["version"], ptr)
    sigma_a = _labels(doc["sigma_a"], f"{ptr}/sigma_a")
    key_map = _label_key_map(sigma_a, f"{ptr}/sigma_a")

    def edge(rec: Any, at: str) -> tuple:
        pi = _fields(rec, at, _EDGE_KEYS)["pi"]
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


# ---------------------------------------------------------------------------
# Codecs: one (reader, writer) pair per node shape
# ---------------------------------------------------------------------------
# The writer turns an attribute value into its JSON node; ``None`` marks a
# value that is its own node (an integer, a string or a label).

Codec = tuple[Callable[[Any, str], Any], Optional[Callable[[Any], Any]]]

_RAW_INT: Codec = (_int, None)
_INT: Codec = (decode_int, encode_int)
_FRAC: Codec = (decode_fraction, encode_fraction)
_STR: Codec = (_str, None)
_LABELS: Codec = (_labels, list)
_LC: Codec = (_lc_from_payload, _lc_payload)
# pair lists instead of JSON objects keep integer vertex ids intact
_LABEL_MAP: Codec = (_label_map, lambda m: [[v, lab] for v, lab in m.items()])
_DELTA: Codec = (
    lambda v, ptr: EPSILON if v == "epsilon" else decode_fraction(v, ptr),
    lambda d: "epsilon" if isinstance(d, _Epsilon) else encode_fraction(d),
)


def _array(item: Codec) -> Codec:
    read, write = item
    return partial(_list, read=read), list if write is None else (lambda xs: [write(x) for x in xs])


def _sparse(coeff: Codec) -> Codec:
    """A sparse row: ``[column, coefficient]`` pairs."""
    read, write = coeff
    return partial(_pairs, first=_int, second=read), lambda row: [[c, write(a)] for c, a in row]


def _nullable(codec: Codec) -> Codec:
    read, write = codec
    return (lambda v, ptr: None if v is None else read(v, ptr)), (lambda x: None if x is None else write(x))


def _record(cls: type, fields: dict[str, Codec], kind: Optional[str] = None) -> Codec:
    """An object whose keys are the attribute names of ``cls``, read in ``fields`` order.

    With ``kind`` it is a whole document, which also carries ``kind`` and
    ``version``; ``from_document`` checks those two before the fields.
    """
    names = frozenset(fields) if kind is None else frozenset(("kind", "version", *fields))
    header = {} if kind is None else {"kind": kind, "version": SCHEMA_VERSION}
    items = tuple((key, read, write) for key, (read, write) in fields.items())

    def read(node: Any, ptr: str) -> Any:
        rec = _fields(node, ptr, names)
        return cls(**{key: decode(rec[key], f"{ptr}/{key}") for key, decode, _ in items})

    def write(obj: Any) -> dict[str, Any]:
        doc = dict(header)
        for key, _, encode in items:
            value = getattr(obj, key)
            doc[key] = value if encode is None else encode(value)
        return doc

    return read, write


# ---------------------------------------------------------------------------
# The field table
# ---------------------------------------------------------------------------
# Every document kind but the label cover: its class, and a codec for each
# key, which is also the attribute name.  Fields are read in table order, so
# of several faults the first in this order is the one reported.

_INTS = _array(_INT)
_SPARSE_INT_ROWS = _array(_sparse(_INT))
_SSAT_TEST = _record(SsatTest, {"variables": _LABELS, "assignments": _array(_LABELS)})
_PROVENANCE = _record(LcProvenance, {"lc": _LC, "var_to_a": _LABELS, "test_to_b": _LABELS})
_LHP_INEQUALITY = _record(LhpInequality, {
    "coeff_x": _sparse(_FRAC), "coeff_y": _FRAC, "coeff_delta": _FRAC,
    "sense": _STR, "group": _STR, "copies_of": _STR, "multiplicity": _RAW_INT,
})

_TABLE: dict[str, tuple[type, dict[str, Codec]]] = {
    "labeling": (Labeling, {"phi_a": _LABEL_MAP, "phi_b": _nullable(_LABEL_MAP)}),
    "ssat": (SsatInstance, {
        "provenance": _nullable(_PROVENANCE), "variables": _LABELS, "field_values": _LABELS,
        "tests": _array(_SSAT_TEST),
    }),
    "superassignment": (SuperAssignment, {"weights": _array(_INTS)}),
    "sis": (SisInstance, {"num_cols": _RAW_INT, "matrix": _SPARSE_INT_ROWS, "target": _INTS, "bound": _INT}),
    "ncp": (NcpInstance, {
        "modulus": _INT, "num_cols": _RAW_INT, "matrix": _SPARSE_INT_ROWS, "target": _INTS, "bound": _INT,
        "replication": _INT, "multiplicity": _INTS,
    }),
    "lhp": (LhpSystem, {"num_x": _RAW_INT, "u_param": _RAW_INT, "inequalities": _array(_LHP_INEQUALITY)}),
    "lhp_assignment": (LhpAssignment, {"x_values": _array(_FRAC), "y_value": _FRAC, "delta_value": _DELTA}),
}

_READERS: dict[str, Callable[[Any, str], Instance]] = {"label_cover": _lc_from_payload}
_WRITERS: dict[type, Callable[[Any], dict[str, Any]]] = {LabelCoverInstance: _lc_payload}
for _kind, (_cls, _codecs) in _TABLE.items():
    _READERS[_kind], _WRITERS[_cls] = _record(_cls, _codecs, _kind)
KINDS = tuple(_READERS)


def to_document(obj: Instance) -> dict[str, Any]:
    """Plain-JSON document for any instance kind."""
    write = _WRITERS.get(type(obj))
    if write is None:
        raise MalformedInstance(f"cannot serialize objects of type {type(obj).__name__}")
    return write(obj)


def from_document(doc: Any) -> Instance:
    """Rebuild an instance from its document, checking each node as it is read.

    A node of the wrong shape or scalar type raises ``SchemaViolation`` at its
    JSON pointer (a missing or extra key, at the object's pointer); the
    constructors then raise ``MalformedInstance`` on any broken invariant.
    """
    if type(doc) is not dict or "kind" not in doc:
        raise SchemaViolation("", "document has no 'kind' field")
    kind = doc["kind"]
    if kind not in KINDS:  # before the lookup: a kind may be an unhashable list
        raise SchemaViolation("/kind", f"unknown kind {kind!r:.60}")
    _check_version(doc.get("version"), "")
    return _READERS[kind](doc, "")


# ---------------------------------------------------------------------------
# Files, bytes and hashes
# ---------------------------------------------------------------------------

# The JSON text of each scalar type, by a C function: no Python frame per scalar.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write(node: Any, out: list[str], pad: str) -> None:
    """Append the JSON text of ``node``, a dict or a list or tuple, to ``out``.

    ``pad`` is a newline and the indentation of the line ``node`` starts on.
    The layout is that of ``json.dumps(node, sort_keys=True, indent=2,
    ensure_ascii=False)``.  Scalar children are written in the loop; only a
    dict, list or tuple child costs a call.  A dict key that is not a string,
    or a node of any type but dict, list, tuple, str, int, bool and None,
    raises ``TypeError``.
    """
    if type(node) is dict:
        keys, opener, closer = sorted(node), "{", "}"
    elif type(node) is list or type(node) is tuple:
        keys, opener, closer = None, "[", "]"
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
    if not node:
        out.append(opener + closer)
        return
    inner = pad + "  "
    sep, comma = opener + inner, "," + inner
    for item in node if keys is None else keys:
        if keys is None:
            value, head = item, sep
        else:
            value, head = node[item], f"{sep}{encode_basestring(item)}: "
        text = _SCALAR_TEXT.get(type(value))
        if text is None:
            out.append(head)
            _write(value, out, inner)
        else:
            out.append(head + text(value))
        sep = comma
    out.append(pad + closer)


def canonical_bytes(obj: Union[Instance, dict[str, Any]]) -> bytes:
    doc = obj if isinstance(obj, dict) else to_document(obj)
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, and nesting too deep to parse
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
