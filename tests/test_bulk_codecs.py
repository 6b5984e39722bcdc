"""The bulk codecs against the item-by-item ones they stand in for.

Integer arrays, label arrays and sparse integer rows are read and written in
one C-level pass when every item qualifies, and item by item otherwise.  The
decode fuzz mutates only the first three items of a list; here one item at
any index is replaced, and the bulk reader must give the value, or raise the
error type, pointer and message, that the item-by-item reader gives.  The
writers must give the ``json.dumps`` bytes with safe and unsafe integers at
any index, label arrays that mix integers and strings, and empty rows; and an
instance built in memory with a float or a ``Fraction`` where an integer
belongs raises ``TypeError`` when written, while ``True`` writes ``1``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_canonical_writer import reference
from test_decode_fuzz import VALUES

from gapforge.instances import GT, LhpInequality, LhpSystem, NcpInstance, SisInstance, SsatInstance, SsatTest
from gapforge.serialize import (
    SCHEMA_VERSION,
    _INTS,
    _LABELS,
    _SPARSE_INT,
    _int,
    _label,
    _list,
    _pairs,
    canonical_bytes,
    decode_int,
    encode_int,
    from_document,
)

READ_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)
WRITE_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)
SAFE = 2 ** 53 - 1
POINTER = (("/stages", 2), "matrix")  # a nested pointer, so that every refusal spells it out

# what replaces one item: the fuzz's values, 2^53 as a number, a big integer with a
# leading zero, the canonical spelling of a big integer, pairs of 1 and 3 items, and pairs
# that are not lists
REPLACEMENTS = (*VALUES, 2 ** 53, -(2 ** 53), "0" + str(2 ** 60), str(2 ** 60), [0], [0, 1, 2], (0, 1), "0,1", {"0": 1})

BULK = {"ints": _INTS[0](), "labels": _LABELS[0](), "sparse": _SPARSE_INT[0]()}
BY_ITEM = {
    "ints": lambda v, ptr: _list(v, ptr, decode_int),
    "labels": lambda v, ptr: _list(v, ptr, _label),
    "sparse": lambda v, ptr: _pairs(v, ptr, _int, decode_int),
}
ITEMS = {
    "ints": st.integers(-SAFE, SAFE),
    "labels": st.one_of(st.integers(), st.text(max_size=4)),
    "sparse": st.lists(st.integers(-SAFE, SAFE), min_size=2, max_size=2),
}


def outcome(read, v):
    """What ``read`` gives ``v`` at ``POINTER``: the value, or the error's type, pointer and message."""
    try:
        return "ok", read(v, POINTER)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc).__name__, getattr(exc, "pointer", None), str(exc)


@st.composite
def mutated(draw, kind):
    """A list of valid items, with at most one item (or, in a sparse row, one half of a pair) replaced."""
    items = draw(st.lists(ITEMS[kind], max_size=12))
    if items and draw(st.booleans()):
        i = draw(st.integers(0, len(items) - 1))
        new = draw(st.sampled_from(REPLACEMENTS))
        if kind == "sparse" and draw(st.booleans()):
            items[i] = [new, items[i][1]] if draw(st.booleans()) else [items[i][0], new]
        else:
            items[i] = new
    return items


@pytest.mark.parametrize("kind", sorted(BULK))
@READ_SETTINGS
@given(data=st.data())
def test_a_bulk_reader_reads_or_refuses_as_the_item_reader_does(kind, data):
    v = data.draw(mutated(kind))
    assert outcome(BULK[kind], v) == outcome(BY_ITEM[kind], v)  # a tuple, as a list never equals one


@pytest.mark.parametrize("kind", sorted(BULK))
@pytest.mark.parametrize("node", [None, 7, "[]", {}, (1, 2)])
def test_a_bulk_reader_refuses_a_node_that_is_not_an_array_as_the_item_reader_does(kind, node):
    assert outcome(BULK[kind], node)[0] == "SchemaViolation"
    assert outcome(BULK[kind], node) == outcome(BY_ITEM[kind], node)


# the last safe integer, the first unsafe one, and one far beyond, of either sign
EDGES = (SAFE, -SAFE, 2 ** 53, -(2 ** 53), 10 ** 30, -(10 ** 30))


@st.composite
def int_lists(draw, min_size=0):
    """Nonzero safe integers, with one of ``EDGES`` at any index, or none."""
    xs = draw(st.lists(st.integers(-SAFE, SAFE).filter(bool), min_size=min_size, max_size=8))
    if xs and draw(st.booleans()):
        xs[draw(st.integers(0, len(xs) - 1))] = draw(st.sampled_from(EDGES))
    return xs


@st.composite
def sparse_rows(draw, num_cols):
    coeffs = draw(int_lists())[:num_cols]
    columns = sorted(draw(st.lists(st.integers(0, num_cols - 1), min_size=len(coeffs), max_size=len(coeffs),
                                   unique=True)))
    return tuple(zip(columns, coeffs))  # an empty row too


def sis_document(sis) -> dict:
    return {"kind": "sis", "version": SCHEMA_VERSION, "num_cols": sis.num_cols, "bound": encode_int(sis.bound),
            "matrix": [[[c, encode_int(a)] for c, a in row] for row in sis.matrix],
            "target": [encode_int(t) for t in sis.target]}


@WRITE_SETTINGS
@given(data=st.data())
def test_sis_ncp_and_lhp_with_edge_integers_anywhere_write_the_reference_bytes(data):
    num_cols = data.draw(st.integers(1, 6))
    matrix = tuple(data.draw(st.lists(sparse_rows(num_cols), min_size=1, max_size=4)))
    target = tuple(data.draw(int_lists(min_size=len(matrix)))[:len(matrix)])
    sis = SisInstance(num_cols=num_cols, matrix=matrix, target=target, bound=abs(data.draw(st.sampled_from(EDGES))))
    doc = sis_document(sis)
    assert canonical_bytes(sis) == reference(doc)
    assert from_document(json.loads(canonical_bytes(sis))) == sis

    multiplicity = tuple(abs(m) for m in data.draw(int_lists(min_size=len(matrix)))[:len(matrix)])
    ncp = NcpInstance(modulus=2 ** 61 - 1, num_cols=num_cols, matrix=matrix, target=target, bound=SAFE,
                      replication=2 ** 53, multiplicity=multiplicity)
    doc.update(kind="ncp", bound=SAFE, modulus=str(2 ** 61 - 1), replication=str(2 ** 53),
               multiplicity=[encode_int(m) for m in multiplicity])
    assert canonical_bytes(ncp) == reference(doc)
    assert from_document(json.loads(canonical_bytes(ncp))) == ncp

    rows = [LhpInequality(coeff_x=row, coeff_y=t, coeff_delta=-t, sense=GT, group="G2", multiplicity=1)
            for row, t in zip(matrix, target)]
    lhp = LhpSystem(num_x=num_cols, u_param=1, inequalities=tuple(rows))
    doc = {"kind": "lhp", "version": SCHEMA_VERSION, "num_x": num_cols, "u_param": 1, "inequalities": [
        {"coeff_x": [[c, encode_int(a)] for c, a in q.coeff_x], "coeff_y": encode_int(q.coeff_y),
         "coeff_delta": encode_int(q.coeff_delta), "sense": GT, "group": "G2", "multiplicity": 1}
        for q in rows]}
    assert canonical_bytes(lhp) == reference(doc)
    assert from_document(json.loads(canonical_bytes(lhp))) == lhp


@WRITE_SETTINGS
@given(data=st.data())
def test_label_arrays_that_mix_integers_and_strings_write_the_reference_bytes(data):
    def labels(min_size):
        return data.draw(st.lists(st.one_of(st.integers(), st.text(max_size=3)), min_size=min_size, max_size=6,
                                  unique=True))

    variables, field_values = labels(1), labels(1)
    test = SsatTest(variables=tuple(variables), assignments=tuple((f,) * len(variables) for f in field_values))
    ssat = SsatInstance(provenance=None, variables=tuple(variables), field_values=tuple(field_values), tests=(test,))
    doc = {"kind": "ssat", "version": SCHEMA_VERSION, "variables": variables, "field_values": field_values,
           "tests": [{"variables": variables, "assignments": [[f] * len(variables) for f in field_values]}]}
    assert canonical_bytes(ssat) == reference(doc)
    assert from_document(json.loads(canonical_bytes(ssat))) == ssat


def in_memory(bad, where: str):
    """An SIS, NCP or LHP record built with ``bad`` in one integer field that its constructor does not type-check."""
    row = ((0, bad),) if where == "coefficient" else ((0, 1), (bad, 2)) if where in ("column", "lhp") else ((0, 1),)
    target = (bad,) if where == "target" else (1,)
    if where == "lhp":  # LhpInequality checks its coefficients, not its columns
        q = LhpInequality(coeff_x=row, coeff_y=1, coeff_delta=0, sense=GT, group="G2", multiplicity=1)
        return LhpSystem(num_x=4, u_param=1, inequalities=(q,))
    if where == "multiplicity":
        return NcpInstance(modulus=7, num_cols=4, matrix=(row,), target=target, bound=1, replication=1,
                           multiplicity=(bad,))
    return SisInstance(num_cols=4, matrix=(row,), target=target, bound=bad if where == "bound" else 1)


WHERE = ("coefficient", "column", "target", "bound", "multiplicity", "lhp")


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), Fraction(3)])
def test_a_float_or_fraction_in_an_integer_field_of_a_record_in_memory_raises_type_error(bad, where):
    if where == "multiplicity" and bad < 1:
        bad += 1  # a multiplicity below 1 is refused by the constructor
    with pytest.raises(TypeError, match=f"requires a 'int' object but received a '{type(bad).__name__}'"):
        canonical_bytes(in_memory(bad, where))


@pytest.mark.parametrize("where", WHERE)
def test_true_in_an_integer_field_of_a_record_in_memory_writes_1(where):
    written = json.loads(canonical_bytes(in_memory(True, where)))
    assert written == json.loads(canonical_bytes(in_memory(1, where)))
