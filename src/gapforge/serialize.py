"""Canonical JSON serialization for every instance kind.

Serialization is canonical: equal instances produce byte-identical files
(sorted keys, fixed indentation, trailing newline).  The bytes are those of
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline, but the package writes them itself, straight from the records: with
``indent`` set, ``json.dumps`` runs its pure-Python encoder, one generator
per node.  A record's writer fills one template per indentation with the
text of its fields in sorted key order, so no intermediate document is
built; ``to_document`` parses the text back.  Rationals, which occur only in LHP
assignments and oracle optima, are written as ``"p/q"`` strings; every
integer rides as a JSON number while it fits in the 53-bit safe range and as
a string beyond it.

Reading is one typed decoding pass: ``from_document`` checks each node while
it builds the instance.  A node of the wrong shape or scalar type (an object
with a missing or extra key, a pair of the wrong length, a float or a bool
where an integer belongs, an integer or a fraction in any encoding but the
canonical one, which for a fraction is ``"p/q"`` in lowest terms) raises
``SchemaViolation`` with the node's JSON pointer.  A reader carries that
pointer as a string or as a ``(parent, key)`` pair, and spells it out only
when it refuses the node.  Value invariants live only in the constructors,
which raise ``MalformedInstance``.  So a file that loads is a file that
satisfies the type invariants.

One codec table gives each document kind's layout once: for every key,
which is also the attribute name, a (reader, writer) pair.  ``to_document``
and ``from_document`` both run off it, and so do the nested records: LHP
inequalities, SSAT tests, and the documents a derived file nests.  Only the
label cover, whose keys are not its attribute names, has its own reader and
writer.  From the table each record generates, on first use, one plain
function that reads it and one that writes it at each indentation, as
``Record`` generates ``__init__``: a record costs one Python frame to read
and one to write.  Integer arrays, label arrays and sparse integer rows are
checked whole at C level and then read or written in one pass; a list that
fails the check goes item by item, so it is refused with the same error at
the same node.

Files are format version 7, and a file of any other version is refused at
``/version``.  A file stores each fact once.  A label cover's edge carries
its projection table as ``pi``, the array of its sigma_b images in sigma_a
order.  An SSAT and an LHP document each have two forms, and the key set
picks one; any other key set is refused at the document.  An SSAT file
reduced from a label cover is that cover: its keys are exactly ``kind``,
``version`` and ``provenance``, the whole label-cover document, and reading
it derives the tests again.  A standalone SSAT file has exactly ``kind``,
``version``, ``variables``, ``field_values`` and ``tests``.  Likewise an LHP
file homogenized from a SIS system has exactly ``kind``, ``version``,
``provenance``, the whole SIS document, and ``u_param``, and reading it
derives the inequalities again; a standalone one has exactly ``kind``,
``version``, ``num_x``, ``u_param`` and ``inequalities``.  A nested
document's ``kind`` and ``version`` are checked at its own pointers.

Every matrix row is sparse: SIS and NCP ``matrix`` rows, like LHP
``coeff_x``, are ``[column, coefficient]`` pairs with ascending columns and
nonzero coefficients, next to the column count (``num_cols``, or ``num_x``
for LHP).  Every instance coefficient is an integer, LHP
``coeff_x``, ``coeff_y`` and ``coeff_delta`` included (version 3 wrote
these as fractions).  The plain-text formats of ``gapforge.plaintext`` write
the same rows dense.
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

SCHEMA_VERSION = 7
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
# value or raises ``SchemaViolation`` at that pointer.  The pointer is a
# string, or a ``(parent pointer, key)`` pair that ``_violation`` spells out.

_BIG_INT = re.compile(r"-?[0-9]+")
_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _pointer(ptr: Any) -> str:
    return ptr if type(ptr) is str else f"{_pointer(ptr[0])}/{ptr[1]}"


def _violation(ptr: Any, message: str) -> SchemaViolation:
    return SchemaViolation(_pointer(ptr), message)


def encode_int(v: int) -> Union[int, str]:
    return v if -_SAFE_INT <= v <= _SAFE_INT else str(v)


def _digits(s: str, ptr: Any) -> int:
    try:
        return int(s)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise _violation(ptr, f"a {len(s)}-character integer is too long to convert") from None


def decode_int(v: Any, ptr: Any = "") -> int:
    """The inverse of ``encode_int``; any other encoding of an integer is refused."""
    if type(v) is int and -_SAFE_INT <= v <= _SAFE_INT:
        return v
    if type(v) is str and _BIG_INT.fullmatch(v):
        n = _digits(v, ptr)
        if not -_SAFE_INT <= n <= _SAFE_INT:
            if str(n) != v:
                raise _violation(ptr, f"expected the integer written {str(n)!r:.60}, got {v!r:.60}")
            return n
    raise _violation(ptr, f"expected an integer: a JSON number within 2^53 - 1 of zero, or a "
                          f"digit string beyond, got {v!r:.60}")


def encode_fraction(f: Fraction) -> str:
    return "%d/%d" % f.as_integer_ratio()


def encode_optimum(v: Union[Fraction, int, None]) -> Union[str, int, None]:
    """An oracle's optimum as JSON: a ``Fraction`` as ``"p/q"``, an ``int`` or ``None`` as itself."""
    return encode_fraction(v) if isinstance(v, Fraction) else v


def decode_fraction(v: Any, ptr: Any = "") -> Fraction:
    """The inverse of ``encode_fraction``: ``"p/q"`` in lowest terms with q >= 1; any other string is refused."""
    if type(v) is not str or not _FRACTION.fullmatch(v):
        raise _violation(ptr, f"expected a 'p/q' string, got {v!r:.60}")
    num, _, den = v.partition("/")
    try:
        f = Fraction(_digits(num, ptr), _digits(den, ptr) if den else 1)
    except ZeroDivisionError:
        raise MalformedInstance(f"fraction {v!r} at {_pointer(ptr)!r} has a zero denominator") from None
    if encode_fraction(f) != v:
        raise _violation(ptr, f"expected the fraction written {encode_fraction(f)!r:.60}, got {v!r:.60}")
    return f


def _int(v: Any, ptr: Any) -> int:
    if type(v) is not int:
        raise _violation(ptr, f"expected an integer, got {v!r:.60}")
    return v


def _bool(v: Any, ptr: Any) -> bool:
    if type(v) is not bool:
        raise _violation(ptr, f"expected true or false, got {v!r:.60}")
    return v


def _str(v: Any, ptr: Any) -> str:
    if type(v) is not str:
        raise _violation(ptr, f"expected a string, got {v!r:.60}")
    return v


def _label(v: Any, ptr: Any) -> Label:
    if type(v) is not int and type(v) is not str:
        raise _violation(ptr, f"expected an integer or string label, got {v!r:.60}")
    return v


def _list(v: Any, ptr: Any, read: Callable[[Any, Any], Any]) -> tuple:
    """An array, each item read by ``read``."""
    if type(v) is not list:
        raise _violation(ptr, f"expected an array, got {v!r:.60}")
    return tuple([read(item, (ptr, i)) for i, item in enumerate(v)])


def _pairs(v: Any, ptr: Any, first: Callable[[Any, Any], Any], second: Callable[[Any, Any], Any]) -> tuple:
    """An array of ``[first, second]`` pairs."""
    if type(v) is not list:
        raise _violation(ptr, f"expected an array, got {v!r:.60}")
    out = []
    for i, pair in enumerate(v):
        at = (ptr, i)
        if type(pair) is not list or len(pair) != 2:
            raise _violation(at, f"expected a pair, got {pair!r:.60}")
        out.append((first(pair[0], (at, 0)), second(pair[1], (at, 1))))
    return tuple(out)


def _fields(v: Any, ptr: Any, names: frozenset[str], subset: bool = False) -> dict[str, Any]:
    """An object whose keys are exactly ``names``, or with ``subset`` some of them."""
    if type(v) is not dict:
        raise _violation(ptr, f"expected an object, got {v!r:.60}")
    if not (v.keys() <= names if subset else v.keys() == names):
        expected = "some of" if subset else "exactly"
        raise _violation(ptr, f"expected {expected} the keys {sorted(names)}, found {sorted(v)}")
    return v


def _label_map(v: Any, ptr: Any) -> dict[Label, Label]:
    """``[vertex, label]`` pairs, each vertex listed once."""
    out: dict[Label, Label] = {}
    for i, (vertex, label) in enumerate(_pairs(v, ptr, _label, _label)):
        if vertex in out:
            raise _violation(((ptr, i), 0), f"vertex {vertex!r:.60} is listed twice")
        out[vertex] = label
    return out


def _check_version(v: Any, ptr: Any) -> None:
    if type(v) is not int or v != SCHEMA_VERSION:
        raise _violation((ptr, "version"), f"version {v!r:.60} is not supported; re-run the step "
                                           f"that wrote the file to get version {SCHEMA_VERSION}")


def _check_header(doc: dict, ptr: Any, kind: str) -> None:
    """Refuse a document of another kind at its ``kind``, then one of another version at its ``version``."""
    if doc["kind"] != kind:
        raise _violation((ptr, "kind"), f"expected kind {kind!r}, got {doc['kind']!r:.60}")
    _check_version(doc["version"], ptr)


# ---------------------------------------------------------------------------
# Codecs: one (reader, writer) pair of makers per node shape
# ---------------------------------------------------------------------------
# A codec is two makers.  The first returns the node's reader; the second
# takes the indentation a node starts on (a newline and spaces) and returns
# the function that gives a value's canonical JSON text there.  A record
# generates, on first use, one plain function that reads it and one that makes
# its writer for an indentation, with its fields' readers and writers bound
# in, as ``Record`` generates ``__init__``: a record costs one Python frame to
# read and one to write, its integer and string fields are tested inline, and
# a process pays only for the kinds it reads or writes.
# Integer arrays, label arrays and sparse integer rows check a whole list at
# C level and fall back to reading or writing item by item, so that a list
# they do not take raises what the item readers and writers raise, where
# they raise it.

Reader = Callable[[Any, Any], Any]
Text = Callable[[Any], str]  # a value to its JSON text at one indentation
Codec = tuple[Callable[[], Reader], Callable[[str], Text]]

# The JSON text of each scalar type, by a C function: no Python frame per scalar.
_SCALAR_TEXT: dict[type, Text] = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_INT_ONLY, _STR_ONLY = frozenset((int,)), frozenset((str,))


def _label_text(v: Label) -> str:
    return _SCALAR_TEXT[type(v)](v)


def _int_text(v: int) -> str:
    return int.__repr__(v) if -_SAFE_INT <= v <= _SAFE_INT else f'"{v}"'


def _fraction_text(f: Fraction) -> str:
    return '"%d/%d"' % f.as_integer_ratio()


def _scalar(read: Reader, text: Text) -> Codec:
    """A scalar's reader, and its text, which is the same at every indentation."""
    return (lambda: read), (lambda pad: text)


def _read_delta(v: Any, ptr: Any) -> Any:
    return EPSILON if v == "epsilon" else decode_fraction(v, ptr)


_INT = _scalar(decode_int, _int_text)
_FRAC = _scalar(decode_fraction, _fraction_text)
_STR = _scalar(_str, encode_basestring)
_LABEL = _scalar(_label, _label_text)
_DELTA = _scalar(_read_delta, lambda d: '"epsilon"' if isinstance(d, _Epsilon) else _fraction_text(d))


def _array(item: Codec) -> Codec:
    read, write = item

    def write_at(pad):
        inner = pad + "  "
        text, sep = write(inner), "," + inner
        return lambda xs: f"[{inner}{sep.join(map(text, xs))}{pad}]" if xs else "[]"

    return (lambda: partial(_list, read=read())), write_at


def _bulk_array(item: Codec, bulk: Callable[[Any], Optional[Text]]) -> Codec:
    """An array of scalars, read and written in one C-level pass when ``bulk`` takes the whole list.

    ``bulk(xs)`` returns the C function that writes every item of ``xs`` (a
    list it takes reads as ``tuple(xs)``), or ``None``, and then the list is
    read or written item by item.
    """
    read_item, text = item[0](), item[1]("")

    def read(v: Any, ptr: Any) -> tuple:
        return tuple(v) if type(v) is list and bulk(v) is not None else _list(v, ptr, read_item)

    def write_at(pad):
        inner = pad + "  "
        sep = "," + inner
        return lambda xs: f"[{inner}{sep.join(map(bulk(xs) or text, xs))}{pad}]" if xs else "[]"

    return (lambda: read), write_at


def _int_items(xs: Any) -> Optional[Text]:
    """``int.__repr__`` if every item is an ``int`` within 2^53 - 1 of zero."""
    if _INT_ONLY.issuperset(map(type, xs)) and -_SAFE_INT <= min(xs, default=0) and max(xs, default=0) <= _SAFE_INT:
        return int.__repr__
    return None


def _label_items(xs: Any) -> Optional[Text]:
    """``int.__repr__`` if every item is an ``int``, ``encode_basestring`` if every item is a ``str``."""
    if _INT_ONLY.issuperset(map(type, xs)):
        return int.__repr__
    return encode_basestring if _STR_ONLY.issuperset(map(type, xs)) else None


def _pairs_text(first: Text, second: Text) -> Callable[[str], Text]:
    """The writer of an array of ``[first, second]`` pairs: one formatted string per pair."""
    def write_at(pad):
        inner = pad + "  "
        pair, sep = f"[{inner}  {{}},{inner}  {{}}{inner}]", "," + inner
        return lambda xs: f"[{inner}{sep.join([pair.format(first(a), second(b)) for a, b in xs])}{pad}]" if xs else "[]"

    return write_at


def _sparse_ints(v: Any, ptr: Any) -> tuple:
    """A sparse integer row, ``[column, coefficient]`` pairs, checked inline; ``_pairs`` reads a row that needs more."""
    if type(v) is list:
        row = []
        for pair in v:
            if type(pair) is not list or len(pair) != 2:
                break
            a, b = pair
            if type(a) is not int or type(b) is not int or not -_SAFE_INT <= b <= _SAFE_INT:
                break
            row.append((a, b))
        else:
            return tuple(row)
    return _pairs(v, ptr, _int, decode_int)


def _sparse_ints_at(pad: str) -> Text:
    """Each pair ``%d``-formatted; a row with a pair of other types or an unsafe coefficient goes by ``_pairs_text``."""
    inner = pad + "  "
    pair, sep = f"[{inner}  %d,{inner}  %d{inner}]", "," + inner
    by_pair = _pairs_text(int.__repr__, _int_text)(pad)

    def text(xs):
        if not xs:
            return "[]"
        out = []
        for a, b in xs:
            if type(a) is not int or type(b) is not int or not -_SAFE_INT <= b <= _SAFE_INT:
                return by_pair(xs)
            out.append(pair % (a, b))
        return f"[{inner}{sep.join(out)}{pad}]"

    return text


def _label_map_at(pad: str) -> Text:
    # pair lists instead of JSON objects keep integer vertex ids intact
    text = _pairs_text(_label_text, _label_text)(pad)
    return lambda m: text(m.items())


_LABEL_MAP: Codec = (lambda: _label_map, _label_map_at)


def _nullable(codec: Codec) -> Codec:
    read, write = codec

    def read_nullable():
        decode = read()
        return lambda v, ptr: None if v is None else decode(v, ptr)

    def write_at(pad):
        text = write(pad)
        return lambda x: "null" if x is None else text(x)

    return read_nullable, write_at


# A reader that returns some values just as they are, and the test, on the
# name ``{0}``, that picks those values out: a generated record reader makes
# the test inline and calls the reader only on a value that fails it.
_AS_IS: dict[Reader, str] = {
    decode_int: "type({0}) is int and -_SAFE_INT <= {0} <= _SAFE_INT",
    _str: "type({0}) is str",
}


def _generate(source: str, scope: dict[str, Any]) -> Callable:
    """The one function that ``source`` defines, its globals ``scope``."""
    exec(source, scope)
    return scope[source[4:source.index("(")]]


def _record(cls: type, fields: dict[str, Codec], kind: Optional[str] = None) -> Codec:
    """An object whose keys are the attribute names of ``cls``, read in ``fields`` order.

    With ``kind`` it is a whole document, which also carries ``kind`` and
    ``version``, and may be nested in another.  The reader, generated on
    first use, checks the keys, then a document's kind and version at their
    own pointers, and returns ``cls(key=read(node[key], (ptr, key)), ...)``,
    each scalar that ``_AS_IS`` names tested inline.  The writer fills one
    template per indentation, its keys sorted, as
    ``template.format(text(obj.key), ...)``: one maker of such writers is
    generated on first use, and called once per indentation.
    """
    names = frozenset(fields) if kind is None else frozenset(("kind", "version", *fields))
    header = {} if kind is None else {"kind": encode_basestring(kind), "version": str(SCHEMA_VERSION)}
    order = sorted(fields)
    reader: Optional[Reader] = None
    maker: Optional[Callable[..., Text]] = None
    texts_at: dict[str, Text] = {}

    def read() -> Reader:
        nonlocal reader
        if reader is None:
            scope = {"cls": cls, "names": names, "_fields": _fields, "_SAFE_INT": _SAFE_INT,
                     "_check_header": _check_header}
            lines = [f"def read_{cls.__name__}(node, ptr):",
                     "    if type(node) is not dict or node.keys() != names:",
                     "        _fields(node, ptr, names)"]
            if kind is not None:
                lines.append(f"    _check_header(node, ptr, {kind!r})")
            # a reader not in _AS_IS is always called: ``if not (False):`` compiles to the bare call
            for i, (key, codec) in enumerate(fields.items()):
                scope[f"r{i}"] = decode = codec[0]()
                lines += [f"    v{i} = node[{key!r}]", f"    if not ({_AS_IS.get(decode, 'False').format(f'v{i}')}):",
                          f"        v{i} = r{i}(v{i}, (ptr, {key!r}))"]
            lines.append(f"    return cls({', '.join(f'{key}=v{i}' for i, key in enumerate(fields))})")
            reader = _generate("\n".join(lines), scope)
        return reader

    def write(pad: str) -> Text:
        nonlocal maker
        if pad not in texts_at:
            if maker is None:
                params = "".join(f", w{i}" for i in range(len(order)))
                args = ", ".join(f"w{i}(obj.{key})" for i, key in enumerate(order))
                maker = _generate(f"def make(template{params}):\n"
                                  f"    def text_{cls.__name__}(obj):\n"
                                  f"        return template.format({args})\n"
                                  f"    return text_{cls.__name__}", {})
            inner = pad + "  "
            lines = [f"{inner}{encode_basestring(key)}: {header.get(key, '{}')}" for key in sorted(names)]
            texts_at[pad] = maker("{{" + ",".join(lines) + pad + "}}", *[fields[key][1](inner) for key in order])
        return texts_at[pad]

    return read, write


# ---------------------------------------------------------------------------
# Label cover documents
# ---------------------------------------------------------------------------
# The label cover has its own pair of functions: its keys ``a`` and ``b`` are
# not its attribute names, and each edge's ``pi`` is the array of its
# sigma_b images in sigma_a order.  Its writer writes a plain document.

_LABELS = _bulk_array(_LABEL, _label_items)
_labels = _LABELS[0]()
_LC_KEYS = frozenset(("kind", "version", "a", "b", "sigma_a", "sigma_b", "edges"))
_EDGE_KEYS = frozenset(("a", "b", "pi"))


def _lc_payload(lc: LabelCoverInstance) -> dict[str, Any]:
    return {
        "kind": "label_cover",
        "version": SCHEMA_VERSION,
        "a": lc.a_vertices,
        "b": lc.b_vertices,
        "sigma_a": lc.sigma_a,
        "sigma_b": lc.sigma_b,
        "edges": [
            {"a": a, "b": b, "pi": list(map(lc.projections[(a, b)].__getitem__, lc.sigma_a))}
            for a, b in lc.edges
        ],
    }


def _lc_from_payload(node: Any, ptr: Any) -> LabelCoverInstance:
    doc = _fields(node, ptr, _LC_KEYS)
    _check_header(doc, ptr, "label_cover")
    sigma_a = _labels(doc["sigma_a"], (ptr, "sigma_a"))

    def edge(rec: Any, at: Any) -> tuple:
        images = _labels(_fields(rec, at, _EDGE_KEYS)["pi"], (at, "pi"))
        if len(images) != len(sigma_a):
            raise _violation((at, "pi"), f"expected {len(sigma_a)} labels, one per sigma_a label, got {len(images)}")
        return (_label(rec["a"], (at, "a")), _label(rec["b"], (at, "b"))), dict(zip(sigma_a, images))

    records = _list(doc["edges"], (ptr, "edges"), edge)
    return LabelCoverInstance(
        a_vertices=_labels(doc["a"], (ptr, "a")),
        b_vertices=_labels(doc["b"], (ptr, "b")),
        sigma_a=sigma_a,
        sigma_b=_labels(doc["sigma_b"], (ptr, "sigma_b")),
        edges=tuple(e for e, _ in records),
        projections=dict(records),
    )


_LC: Codec = (lambda: _lc_from_payload, lambda pad: lambda lc: _text(_lc_payload(lc), pad))


def _two_forms(cls: type, kind: str, derived: dict[str, Codec], standalone: dict[str, Codec]) -> Codec:
    """A document with two forms: a derived one holds what it was reduced from, under ``provenance``.

    Each form is a record of ``cls``, generated on first use.  The key set
    picks the form, and any other key set is refused at the document.  An
    instance whose ``provenance`` is ``None`` is written standalone.
    """
    forms = {frozenset(("kind", "version", *fields)): _record(cls, fields, kind) for fields in (derived, standalone)}
    expected = " or ".join(str(sorted(keys)) for keys in forms)
    derived_form, standalone_form = forms.values()

    def read_form(doc: dict, ptr: Any) -> Any:
        form = forms.get(frozenset(doc))
        if form is None:
            raise _violation(ptr, f"expected exactly the keys {expected}, found {sorted(doc)}")
        return form[0]()(doc, ptr)

    def write(pad: str) -> Text:
        return lambda obj: (standalone_form if obj.provenance is None else derived_form)[1](pad)(obj)

    return (lambda: read_form), write


# ---------------------------------------------------------------------------
# The codec table
# ---------------------------------------------------------------------------
# Every document kind: its class and its codec.  A record's fields are read in
# the order given, so of several faults the first in this order is the one
# reported.  A derived SSAT document is its cover and a derived LHP document
# its SIS document and U, each nested whole.

_INTS = _bulk_array(_INT, _int_items)
_SPARSE_INT: Codec = (lambda: _sparse_ints, _sparse_ints_at)
_SPARSE_INT_ROWS = _array(_SPARSE_INT)
_SIS = _record(SisInstance, {"num_cols": _INT, "matrix": _SPARSE_INT_ROWS, "target": _INTS, "bound": _INT}, "sis")
_SSAT_TEST = _record(SsatTest, {"variables": _LABELS, "assignments": _array(_LABELS)})
_LHP_INEQUALITY = _record(LhpInequality, {
    "coeff_x": _SPARSE_INT, "coeff_y": _INT, "coeff_delta": _INT, "sense": _STR, "group": _STR, "multiplicity": _INT,
})

_CODECS: dict[str, tuple[type, Codec]] = {
    "label_cover": (LabelCoverInstance, _LC),
    "labeling": (Labeling, _record(Labeling, {"phi_a": _LABEL_MAP, "phi_b": _nullable(_LABEL_MAP)}, "labeling")),
    "ssat": (SsatInstance, _two_forms(SsatInstance, "ssat", {"provenance": _LC}, {
        "variables": _LABELS, "field_values": _LABELS, "tests": _array(_SSAT_TEST)})),
    "superassignment": (SuperAssignment, _record(SuperAssignment, {"weights": _array(_INTS)}, "superassignment")),
    "sis": (SisInstance, _SIS),
    "ncp": (NcpInstance, _record(NcpInstance, {
        "modulus": _INT, "num_cols": _INT, "matrix": _SPARSE_INT_ROWS, "target": _INTS, "bound": _INT,
        "replication": _INT, "multiplicity": _INTS,
    }, "ncp")),
    "lhp": (LhpSystem, _two_forms(LhpSystem, "lhp", {"provenance": _SIS, "u_param": _INT}, {
        "num_x": _INT, "u_param": _INT, "inequalities": _array(_LHP_INEQUALITY)})),
    "lhp_assignment": (LhpAssignment, _record(LhpAssignment, {
        "x_values": _array(_FRAC), "y_value": _FRAC, "delta_value": _DELTA,
    }, "lhp_assignment")),
}
_READERS: dict[str, Callable[[], Reader]] = {kind: codec[0] for kind, (_, codec) in _CODECS.items()}
_WRITERS: dict[type, Callable[[str], Text]] = {cls: codec[1] for cls, codec in _CODECS.values()}
KINDS = tuple(_READERS)


def to_document(obj: Instance) -> dict[str, Any]:
    """Plain-JSON document for any instance kind: its canonical text, parsed."""
    if type(obj) not in _WRITERS:
        raise MalformedInstance(f"cannot serialize objects of type {type(obj).__name__}")
    return json.loads(_text(obj, "\n"))


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
    return _READERS[kind]()(doc, "")


# ---------------------------------------------------------------------------
# Files, bytes and hashes
# ---------------------------------------------------------------------------

def _write(node: Any, out: list[str], pad: str) -> None:
    """Append the JSON text of ``node``, an instance or a dict, list or tuple, to ``out``.

    ``pad`` is a newline and the indentation of the line ``node`` starts on.
    The layout is that of ``json.dumps(node, sort_keys=True, indent=2,
    ensure_ascii=False)``, with each instance written as its document.  An
    instance goes to its kind's writer.  Scalar children are written in the
    loop; only a dict, list, tuple or instance child costs a call.  A dict
    key that is not a string, or a node of any other type, raises
    ``TypeError``.
    """
    write = _WRITERS.get(type(node))
    if write is not None:
        out.append(write(pad)(node))
        return
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


def _text(node: Any, pad: str) -> str:
    out: list[str] = []
    _write(node, out, pad)
    return "".join(out)


def canonical_bytes(obj: Union[Instance, dict[str, Any]]) -> bytes:
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


def content_hash(obj: Union[Instance, dict[str, Any]]) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def write_instance(path: Union[str, Path], obj: Instance) -> None:
    Path(path).write_bytes(canonical_bytes(obj))


def read_document(path: Union[str, Path]) -> Any:
    """Parse a JSON file; text that is not JSON raises ``SchemaViolation``.

    A missing file raises the ``FileNotFoundError`` of opening it, whose
    ``filename`` is the path.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, and nesting too deep to parse
        raise SchemaViolation("", f"not valid JSON: {exc}") from None


def read_instance(path: Union[str, Path], kind: str | None = None) -> Instance:
    doc = read_document(path)
    if kind is not None:
        if not isinstance(doc, dict) or doc.get("kind") != kind:
            raise SchemaViolation("/kind", f"expected kind {kind!r}")
    return from_document(doc)
