"""The frozen records: every value type of the package is a ``Record``.

One sample of each record class, taken from the shipped fixtures and the
functions that build the class, goes through the same checks: construction
by position, by keyword and with defaults, equality and hashing by the field
tuple, the ``repr`` form, and refused assignment and deletion.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from naive import replace

import gapforge
from gapforge import fixtures as shipped
from gapforge import oracles
from gapforge.errors import InfeasibleSpec, MalformedInstance
from gapforge.genlab import GenSpec
from gapforge.instances import EPSILON, LhpAssignment, Labeling, Record, SsatInstance, validate_label_cover
from gapforge.oracles import DEFAULT_MAX_STATES, MinResult, SearchBudget, solve_lc_max, solve_sis_min
from gapforge.reductions import gadget_pair, lc_to_ssat, sis_to_lhp, sis_to_ncp, ssat_to_sis
from gapforge.soundness import (
    BoundCheck,
    DefeatReport,
    ListConstructionParams,
    ListLabeling,
)
from gapforge.superassign import decompose_arrays, is_consistent, natural_from_labeling

for _path in sorted(Path(gapforge.__file__).parent.glob("*.py")):
    if _path.stem != "__init__":
        importlib.import_module(f"gapforge.{_path.stem}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(_subclasses(Record), key=lambda cls: (cls.__module__, cls.__qualname__))

LC = shipped.load("lc_share")
SSAT = lc_to_ssat(LC)
SIS = ssat_to_sis(SSAT)
LABELING = Labeling({a: LC.sigma_a[0] for a in LC.a_vertices})
SUPER = natural_from_labeling(SSAT, LABELING)
LISTS = ListLabeling.from_sets(LC, {a: LC.sigma_a[:1] for a in LC.a_vertices})

SAMPLES = {
    "LabelCoverInstance": LC,
    "Labeling": LABELING,
    "ValidationReport": validate_label_cover(LC),
    "SsatTest": SSAT.tests[0],
    "SsatInstance": SSAT,
    "SisInstance": SIS,
    "NcpInstance": sis_to_ncp(SIS, g=1),
    "LhpInequality": sis_to_lhp(SIS).inequalities[0],
    "LhpSystem": sis_to_lhp(SIS),
    "LhpAssignment": LhpAssignment((Fraction(0),) * SIS.num_cols, Fraction(1), EPSILON),
    "MinResult": solve_sis_min(SIS, SearchBudget(coeff_box=1)),
    "SearchBudget": SearchBudget(coeff_box=1, max_states=10 ** 4, mode="linf"),
    "_FiledRows": oracles._compile_ncp(sis_to_ncp(SIS, g=1))[1][0][1],
    "_EqualityRows": oracles._compile_ssat(SSAT)[0].equalities(1),
    "LcMaxResult": solve_lc_max(LC),
    "_SsatRows": oracles._compile_ssat(SSAT)[0],
    "GadgetPair": gadget_pair(SSAT, 0, 1, SSAT.variables[0]),
    "GenSpec": GenSpec(3, 2, 2, 2, 2, 1, planted=True, seed=7),
    "ListLabeling": LISTS,
    "BoundCheck": BoundCheck(Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), True),
    "ListConstructionParams": ListConstructionParams.derive(2, Fraction(1, 4), d_a=2, seed=3),
    "DefeatReport": DefeatReport(Fraction(0), False),
    "SuperAssignment": SUPER,
    "ConsistencyResult": is_consistent(SSAT, SUPER),
    "ArrayView": decompose_arrays(SSAT, SUPER, 0)[0],
}

# one field change per class with a __post_init__, and the error it raises
REFUSED = {
    "LabelCoverInstance": ({"sigma_a": ()}, MalformedInstance),
    "SsatInstance": ({"variables": ()}, MalformedInstance),
    "SisInstance": ({"target": ()}, MalformedInstance),
    "NcpInstance": ({"modulus": 4}, MalformedInstance),
    "LhpInequality": ({"sense": "ge"}, MalformedInstance),
    "LhpSystem": ({"u_param": 0}, MalformedInstance),
    "GenSpec": ({"num_a": 0}, InfeasibleSpec),
    "SearchBudget": ({"coeff_box": 0}, ValueError),
    "ListConstructionParams": ({"p_include": Fraction(0)}, MalformedInstance),
}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def _id(cls) -> str:
    return cls.__qualname__


def test_every_value_type_is_a_record_with_a_sample():
    assert len(RECORDS) == 25
    assert sorted(SAMPLES) == sorted(cls.__qualname__ for cls in RECORDS)
    assert sorted(REFUSED) == sorted(cls.__qualname__ for cls in RECORDS if "__post_init__" in cls.__dict__)


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_construction_by_position_keyword_and_default(cls):
    record = SAMPLES[cls.__qualname__]
    assert type(record) is cls and record._fields == tuple(cls.__dict__["__annotations__"])
    values = _values(record)
    assert cls(*values) == record
    assert cls(**dict(zip(cls._fields, values))) == record
    defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
    required = {name: value for name, value in zip(cls._fields, values) if name not in defaults}
    if cls is SsatInstance:  # the sample is derived: given its cover alone, the other fields are filled in
        assert cls(provenance=record.provenance) == record
    else:
        assert all(getattr(cls(**required), name) is value for name, value in defaults.items())
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    if required:
        with pytest.raises(TypeError):
            cls()


def test_defaults_of_the_search_types():
    assert SearchBudget() == SearchBudget(2, DEFAULT_MAX_STATES, "l1")
    assert MinResult(1, None, 3) == MinResult(1, None, 3, mode=None) == MinResult(minimum=1, witness=None, states_visited=3)
    assert MinResult(1, None, 3) != MinResult(1, None, 3, mode="l1")


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_post_init_refuses_bad_input(name):
    changes, error = REFUSED[name]
    with pytest.raises(error):
        replace(SAMPLES[name], **changes)


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_equality_goes_by_class_and_field_tuple(cls):
    record = SAMPLES[cls.__qualname__]
    values = _values(record)
    same = cls(*values)
    assert same is not record and same == record and not same != record
    changed = object.__new__(cls)
    changed.__dict__.update(zip(cls._fields, values[:-1] + (object(),)))
    assert changed != record and not changed == record
    other = SAMPLES["SearchBudget" if cls is not SearchBudget else "MinResult"]
    assert record.__eq__(other) is NotImplemented
    assert record != other and not record == other
    assert record != values


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_hash_is_the_field_tuples(cls):
    record = SAMPLES[cls.__qualname__]
    values = _values(record)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
        assert {record: 1}[cls(*values)] == 1


def test_a_record_with_a_dict_field_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(LC)
    assert hash(SearchBudget()) == hash((2, DEFAULT_MAX_STATES, "l1"))


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_repr_names_every_field(cls):
    record = SAMPLES[cls.__qualname__]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, _values(record)))
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_repr_form():
    assert repr(MinResult(Fraction(1, 2), (0, 1), 3, "l1")) == (
        "MinResult(minimum=Fraction(1, 2), witness=(0, 1), states_visited=3, mode='l1')"
    )
    assert repr(oracles._EqualityRows(1, True, ())) == "_EqualityRows(k=1, feasible=True, by_column=())"


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = SAMPLES[cls.__qualname__]
    values = _values(record)
    for name in (*cls._fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == values and "no_such_field" not in record.__dict__


# the tables that validation builds, in the order __post_init__ sets them
TABLES = {
    "LabelCoverInstance": ("edges_of_b", "sigma_b_index"),
    "SsatInstance": ("variable_index", "tests_of_variable", "offsets", "projection_indices", "shared_pairs"),
}


@pytest.mark.parametrize("record", [LC, SSAT, replace(SSAT, provenance=None)],
                         ids=["LabelCoverInstance", "SsatInstance", "SsatInstance-hashable"])
def test_derived_tables_set_at_init_stay_out_of_eq_hash_repr(record):
    cls = type(record)
    names = TABLES[cls.__qualname__]
    fresh = replace(record)
    # instance attributes set by __init__ right after the fields, not class-level descriptors filled in later
    assert list(vars(fresh)) == [*cls._fields, *names]
    assert not set(names) & set(cls._fields) and not set(names) & set(vars(cls))
    blanked = replace(record)
    for name in names:
        object.__setattr__(blanked, name, None)
    assert blanked == fresh and not blanked != fresh and repr(blanked) == repr(fresh)
    assert not any(f"{name}=" in repr(fresh) for name in names)
    try:
        expected = hash(fresh._values())
    except TypeError:
        with pytest.raises(TypeError):
            hash(blanked)
    else:
        assert hash(blanked) == hash(fresh) == expected
