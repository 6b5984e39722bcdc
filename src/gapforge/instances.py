"""Exact-arithmetic instance types for the five problems in the pipeline.

Everything here is immutable after construction and validated eagerly.  All
arithmetic is over arbitrary-precision integers and :class:`~fractions.Fraction`;
no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Optional, Union

from .errors import (
    MalformedInstance,
    PartialLabeling,
    UnknownEdge,
    UnknownLabel,
)

Label = Union[int, str]
Vertex = Union[int, str]
Edge = tuple[Vertex, Vertex]


class Record:
    """Frozen value type: its fields are the class's own annotations, in order; class attributes give defaults.

    Each subclass gets a generated ``__init__`` that sets the fields with
    ``object.__setattr__`` and then calls ``__post_init__`` if there is one.
    Equality and hashing go by the field tuple; nothing can be assigned or deleted.
    No method reads ``self.__dict__``: on CPython 3.11 that moves the inline
    attribute values into a dict, and every later attribute read gets slower.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", {}))
        scope = {f"_d_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
        params = "".join(f", {name}=_d_{name}" if f"_d_{name}" in scope else f", {name}" for name in names)
        stores = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope["_set"] = object.__setattr__
        exec(f"def __init__(self{params}):{stores}{post}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values()))})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Label cover
# ---------------------------------------------------------------------------

class LabelCoverInstance(Record):
    """Bipartite constraint graph with one projection table per edge.

    ``projections`` maps each edge to a total function table from the A-side
    alphabet into the B-side alphabet.  Vertex and label collections are
    ordered; every iteration in the package follows these orders, so all
    derived objects are deterministic.
    """

    a_vertices: tuple[Vertex, ...]
    b_vertices: tuple[Vertex, ...]
    sigma_a: tuple[Label, ...]
    sigma_b: tuple[Label, ...]
    edges: tuple[Edge, ...]
    projections: dict[Edge, dict[Label, Label]]

    def __post_init__(self):
        a_set, b_set = set(self.a_vertices), set(self.b_vertices)
        if len(a_set) != len(self.a_vertices) or len(b_set) != len(self.b_vertices):
            raise MalformedInstance("duplicate vertex identifiers")
        if len(set(self.sigma_a)) != len(self.sigma_a) or len(set(self.sigma_b)) != len(self.sigma_b):
            raise MalformedInstance("duplicate alphabet labels")
        texts: dict[str, Label] = {}  # a file keys each projection table by str(label)
        for x in self.sigma_a:
            if str(x) in texts:
                raise MalformedInstance(f"sigma_a labels {texts[str(x)]!r} and {x!r} have the same string form")
            texts[str(x)] = x
        if not self.sigma_a or not self.sigma_b:
            raise MalformedInstance("alphabets must be nonempty")
        if len(set(self.edges)) != len(self.edges):
            raise MalformedInstance("duplicate edges")
        sig_a, sig_b = set(self.sigma_a), set(self.sigma_b)
        for e in self.edges:
            a, b = e
            if a not in a_set or b not in b_set:
                raise MalformedInstance(f"edge {e!r} has a dangling endpoint")
            table = self.projections.get(e)
            if table is None:
                raise MalformedInstance(f"edge {e!r} has no projection table")
            if set(table) != sig_a:
                raise MalformedInstance(f"projection table of {e!r} is not total on sigma_a")
            for y in table.values():
                if y not in sig_b:
                    raise MalformedInstance(f"projection table of {e!r} maps outside sigma_b")
        extra = set(self.projections) - set(self.edges)
        if extra:
            raise MalformedInstance(f"projection tables for unknown edges {sorted(map(repr, extra))}")

    # -- derived structure ---------------------------------------------------

    @cached_property
    def sigma_b_index(self) -> dict[Label, int]:
        return {y: i for i, y in enumerate(self.sigma_b)}

    @cached_property
    def edges_of_b(self) -> dict[Vertex, tuple[Edge, ...]]:
        """Incident edges per B-vertex, in global edge order."""
        out: dict[Vertex, list[Edge]] = {b: [] for b in self.b_vertices}
        for e in self.edges:
            out[e[1]].append(e)
        return {b: tuple(es) for b, es in out.items()}

    @cached_property
    def edges_of_a(self) -> dict[Vertex, tuple[Edge, ...]]:
        out: dict[Vertex, list[Edge]] = {a: [] for a in self.a_vertices}
        for e in self.edges:
            out[e[0]].append(e)
        return {a: tuple(es) for a, es in out.items()}

    @property
    def size_n(self) -> int:
        return len(self.a_vertices) + len(self.b_vertices) + len(self.edges)


class Labeling(Record):
    """An A-side labeling, optionally paired with a B-side labeling."""

    phi_a: dict[Vertex, Label]
    phi_b: Optional[dict[Vertex, Label]] = None

    def require_total(self, lc: LabelCoverInstance) -> None:
        if set(self.phi_a) != set(lc.a_vertices):
            raise PartialLabeling("phi_a does not cover A exactly")
        if self.phi_b is not None and set(self.phi_b) != set(lc.b_vertices):
            raise PartialLabeling("phi_b does not cover B exactly")


class ValidationReport(Record):
    bi_regular: bool
    d_a: int
    d_b: int
    p: int
    size_n: int


def validate_label_cover(lc: LabelCoverInstance) -> ValidationReport:
    """Report degrees, projection arity and size for a label cover.

    Structural invariants are enforced at construction time; this reports the
    derived quantities and flags non-bi-regular instances without rejecting
    them.  ``d_a`` and ``d_b`` are the maximum side degrees.
    """
    a_degrees = [len(lc.edges_of_a[a]) for a in lc.a_vertices]
    b_degrees = [len(lc.edges_of_b[b]) for b in lc.b_vertices]
    bi_regular = len(set(a_degrees)) <= 1 and len(set(b_degrees)) <= 1
    p = 0
    for e in lc.edges:
        table = lc.projections[e]
        counts: dict[Label, int] = {}
        for y in table.values():
            counts[y] = counts.get(y, 0) + 1
        p = max(p, max(counts.values()))
    return ValidationReport(
        bi_regular=bi_regular,
        d_a=max(a_degrees, default=0),
        d_b=max(b_degrees, default=0),
        p=p,
        size_n=lc.size_n,
    )


def preimage(lc: LabelCoverInstance, e: Edge, y: Label) -> tuple[Label, ...]:
    """All A-labels that the edge's table maps to ``y``, in alphabet order."""
    if e not in lc.projections:
        raise UnknownEdge(f"{e!r}")
    if y not in lc.sigma_b_index:
        raise UnknownLabel(f"{y!r}")
    table = lc.projections[e]
    return tuple(x for x in lc.sigma_a if table[x] == y)


def count_satisfied_edges(lc: LabelCoverInstance, lab: Labeling) -> int:
    """Number of edges whose projection constraint holds under ``lab``."""
    if lab.phi_b is None:
        raise PartialLabeling("phi_b is required to evaluate edge satisfaction")
    lab.require_total(lc)
    count = 0
    for (a, b) in lc.edges:
        if lc.projections[(a, b)][lab.phi_a[a]] == lab.phi_b[b]:
            count += 1
    return count


# ---------------------------------------------------------------------------
# SSAT
# ---------------------------------------------------------------------------

class SsatTest(Record):
    """A test: an ordered variable tuple plus its satisfying assignments."""

    variables: tuple[Vertex, ...]
    assignments: tuple[tuple[Label, ...], ...]


class LcProvenance(Record):
    """Origin of an SSAT instance produced from a label cover."""

    lc: LabelCoverInstance
    var_to_a: tuple[Vertex, ...]
    test_to_b: tuple[Vertex, ...]


class SsatInstance(Record):
    variables: tuple[Vertex, ...]
    field_values: tuple[Label, ...]
    tests: tuple[SsatTest, ...]
    provenance: Optional[LcProvenance] = None

    def __post_init__(self):
        if not self.variables or not self.tests:
            raise MalformedInstance("an SSAT instance needs at least one variable and one test")
        if len(set(self.variables)) != len(self.variables):
            raise MalformedInstance("duplicate variables")
        if len(set(self.field_values)) != len(self.field_values) or not self.field_values:
            raise MalformedInstance("field values must be a nonempty ordered set")
        var_set = set(self.variables)
        values = set(self.field_values)
        used: set[Vertex] = set()
        for idx, test in enumerate(self.tests):
            if not test.variables:
                raise MalformedInstance(f"test {idx} has no variables")
            if len(set(test.variables)) != len(test.variables):
                raise MalformedInstance(f"test {idx} repeats a variable")
            if not var_set.issuperset(test.variables):
                raise MalformedInstance(f"test {idx} uses unknown variables")
            seen = set()
            for r in test.assignments:
                if len(r) != len(test.variables):
                    raise MalformedInstance(f"test {idx} has a partial assignment tuple")
                if not values.issuperset(r):
                    raise MalformedInstance(f"test {idx} assignment uses values outside the field")
                if r in seen:
                    raise MalformedInstance(f"test {idx} lists a duplicate assignment")
                seen.add(r)
            used.update(test.variables)
        if used != var_set:
            raise MalformedInstance("every variable must occur in at least one test")
        if self.provenance is not None:
            self._check_provenance()

    def _check_provenance(self) -> None:
        prov = self.provenance
        if len(prov.var_to_a) != len(self.variables) or len(prov.test_to_b) != len(self.tests):
            raise MalformedInstance("provenance maps have wrong lengths")
        if not set(prov.var_to_a) <= set(prov.lc.a_vertices):
            raise MalformedInstance("provenance maps a variable to a vertex outside A")
        if not set(prov.test_to_b) <= set(prov.lc.b_vertices):
            raise MalformedInstance("provenance maps a test to a vertex outside B")
        report = validate_label_cover(prov.lc)
        for idx, test in enumerate(self.tests):
            b = prov.test_to_b[idx]
            d_b = len(prov.lc.edges_of_b[b])
            bound = len(prov.lc.sigma_b) * report.p ** d_b
            if len(test.assignments) > bound:
                raise MalformedInstance(
                    f"test {idx} has {len(test.assignments)} assignments, above the |sigma_b|*p^D_B bound {bound}"
                )

    # -- convenience ----------------------------------------------------------

    @cached_property
    def field_index(self) -> dict[Label, int]:
        return {v: i for i, v in enumerate(self.field_values)}

    @cached_property
    def variable_index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.variables)}

    @cached_property
    def tests_of_variable(self) -> dict[Vertex, tuple[int, ...]]:
        out: dict[Vertex, list[int]] = {v: [] for v in self.variables}
        for idx, test in enumerate(self.tests):
            for v in test.variables:
                out[v].append(idx)
        return {v: tuple(ix) for v, ix in out.items()}

    # -- the flat (test, assignment) column layout ----------------------------

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each test's weights start in the flat column order, then the total column count."""
        return tuple(itertools.accumulate((len(t.assignments) for t in self.tests), initial=0))

    @cached_property
    def projection_indices(self) -> dict[tuple[int, Vertex], tuple[tuple[int, ...], ...]]:
        """``[t, x][f]``: the indices of test t's assignments that give x the f-th field value.

        Keyed by every (test, variable of that test); each value has one tuple
        per field value, in field order.
        """
        out: dict[tuple[int, Vertex], tuple[tuple[int, ...], ...]] = {}
        for t_idx, test in enumerate(self.tests):
            for pos, x in enumerate(test.variables):
                by_value: list[list[int]] = [[] for _ in self.field_values]
                for r_idx, r in enumerate(test.assignments):
                    by_value[self.field_index[r[pos]]].append(r_idx)
                out[t_idx, x] = tuple(map(tuple, by_value))
        return out

    @cached_property
    def shared_pairs(self) -> tuple[tuple[int, int, Vertex], ...]:
        """(i, j, x) for every test pair i < j sharing the variable x, in (i, j, variable) order."""
        pairs = (
            (i, j, x)
            for x in self.variables
            for pos, i in enumerate(self.tests_of_variable[x])
            for j in self.tests_of_variable[x][pos + 1:]
        )
        return tuple(sorted(pairs, key=lambda p: (p[0], p[1], self.variable_index[p[2]])))


# ---------------------------------------------------------------------------
# Sparse rows
# ---------------------------------------------------------------------------

# ``(column, coefficient)`` pairs with strictly ascending columns and nonzero
# coefficients: the one row form of SIS and NCP matrices and LHP ``coeff_x``.
SparseRow = tuple[tuple[int, Any], ...]


def check_sparse_rows(rows: Iterable[SparseRow], num_cols: int, name: str, count_name: str = "num_cols") -> None:
    """Refuse a negative ``num_cols``, and a row whose columns do not ascend inside [0, num_cols) or that lists a zero.

    ``name`` and ``count_name`` are the fields the messages name.
    """
    if num_cols < 0:
        raise MalformedInstance(f"{count_name} must be non-negative, got {num_cols}")
    for r, row in enumerate(rows):
        prev = -1
        for c, a in row:
            if not prev < c < num_cols:
                raise MalformedInstance(f"{name} row {r}: column {c} is out of order or outside [0, {num_cols})")
            if a == 0:
                raise MalformedInstance(f"{name} row {r} lists a zero coefficient at column {c}")
            prev = c


# ---------------------------------------------------------------------------
# SIS
# ---------------------------------------------------------------------------

class SisInstance(Record):
    """Integer linear system ``matrix @ z == target`` with an l1 budget.

    ``matrix`` has one sparse row per equation over ``num_cols`` columns:
    ``(column, coefficient)`` pairs, columns ascending, coefficients nonzero.
    """

    num_cols: int
    matrix: tuple[SparseRow, ...]
    target: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if len(self.target) != len(self.matrix):
            raise MalformedInstance("target length differs from row count")
        check_sparse_rows(self.matrix, self.num_cols, "matrix")

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    def multiply(self, z: Iterable[int]) -> tuple[int, ...]:
        zs = tuple(z)
        if len(zs) != self.num_cols:
            raise MalformedInstance("vector length differs from column count")
        return tuple(sum(a * zs[c] for c, a in row) for row in self.matrix)


# ---------------------------------------------------------------------------
# NCP
# ---------------------------------------------------------------------------

# Miller-Rabin over the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a number at or above ``PRIME_TEST_LIMIT`` is refused, not guessed."""
    if n >= PRIME_TEST_LIMIT:
        raise MalformedInstance(f"modulus {n} is not below {PRIME_TEST_LIMIT}, the limit of the exact prime test")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class NcpInstance(Record):
    """Nearest-codeword instance over a prime field.

    ``matrix`` is sparse over ``num_cols`` columns, as in ``SisInstance``; a
    coefficient is any nonzero integer and counts by its residue mod
    ``modulus``.  Row ``i`` stands for ``multiplicity[i]`` identical copies:
    a mismatch on it costs that many, and ``num_rows`` counts the copies.
    """

    modulus: int
    num_cols: int
    matrix: tuple[SparseRow, ...]
    target: tuple[int, ...]
    bound: int
    replication: int
    multiplicity: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.modulus):
            raise MalformedInstance(f"modulus {self.modulus} is not prime")
        if not len(self.target) == len(self.multiplicity) == len(self.matrix):
            raise MalformedInstance("target or multiplicity length differs from row count")
        if any(k < 1 for k in self.multiplicity):
            raise MalformedInstance("row multiplicities must be at least 1")
        check_sparse_rows(self.matrix, self.num_cols, "matrix")

    @property
    def num_rows(self) -> int:
        return sum(self.multiplicity)

    def distance(self, z: Iterable[int]) -> int:
        """Hamming distance between ``matrix @ z`` and the target, mod q, over the copies."""
        q = self.modulus
        zs = [v % q for v in z]
        if len(zs) != self.num_cols:
            raise MalformedInstance("vector length differs from column count")
        dist = 0
        for row, t, k in zip(self.matrix, self.target, self.multiplicity):
            if sum(a * zs[c] for c, a in row) % q != t % q:
                dist += k
        return dist


# ---------------------------------------------------------------------------
# LHP
# ---------------------------------------------------------------------------

class _Epsilon:
    """Positive infinitesimal; compares via (standard, epsilon) lexicographic pairs."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "EPSILON"


EPSILON = _Epsilon()

GT = "gt"
LT = "lt"

LHP_GROUPS = ("G1", "G2", "G3", "G4", "G5")


class LhpInequality(Record):
    """``multiplicity`` copies of one strict homogeneous inequality over (x, y, delta).

    ``coeff_x`` is a sparse row, as in ``SisInstance``, with ``Fraction``
    coefficients; ``LhpSystem`` checks it.  Homogenization leaves the
    right-hand side zero.
    """

    coeff_x: SparseRow
    coeff_y: Fraction
    coeff_delta: Fraction
    sense: str
    group: str
    copies_of: str
    multiplicity: int

    def __post_init__(self):
        if self.sense not in (GT, LT):
            raise MalformedInstance(f"unknown sense {self.sense!r}")
        if self.group not in LHP_GROUPS:
            raise MalformedInstance(f"unknown group {self.group!r}")
        if self.multiplicity < 1:
            raise MalformedInstance("multiplicity must be at least 1")

    def value_at(self, a: "LhpAssignment") -> tuple[Fraction, Fraction]:
        """Evaluate the left-hand side as a (standard, epsilon-coefficient) pair."""
        std = sum((c * a.x_values[i] for i, c in self.coeff_x), Fraction(0))
        std += self.coeff_y * a.y_value
        if isinstance(a.delta_value, _Epsilon):
            eps = self.coeff_delta
        else:
            std += self.coeff_delta * a.delta_value
            eps = Fraction(0)
        return (std, eps)

    def satisfied_by(self, a: "LhpAssignment") -> bool:
        std, eps = self.value_at(a)
        if self.sense == GT:
            return (std, eps) > (0, 0)
        return (std, eps) < (0, 0)


class LhpSystem(Record):
    """A list of strict linear inequalities produced by homogenization."""

    num_x: int
    u_param: int
    inequalities: tuple[LhpInequality, ...]

    def __post_init__(self):
        if self.u_param < 1:
            raise MalformedInstance("u_param must be at least 1")
        check_sparse_rows((ineq.coeff_x for ineq in self.inequalities), self.num_x, "coeff_x", "num_x")

    @property
    def num_inequalities(self) -> int:
        """All copies, counted with multiplicity."""
        return sum(ineq.multiplicity for ineq in self.inequalities)

    def group_counts(self) -> dict[str, int]:
        counts = {g: 0 for g in LHP_GROUPS}
        for ineq in self.inequalities:
            counts[ineq.group] += ineq.multiplicity
        return counts


class LhpAssignment(Record):
    """Values for (x, y, delta); delta may be the symbolic infinitesimal."""

    x_values: tuple[Fraction, ...]
    y_value: Fraction
    delta_value: Union[Fraction, _Epsilon]

    @classmethod
    def of(cls, xs: Iterable[Union[int, Fraction]], y: Union[int, Fraction] = 1,
           delta: Union[int, Fraction, _Epsilon] = EPSILON) -> "LhpAssignment":
        dv = delta if isinstance(delta, _Epsilon) else Fraction(delta)
        return cls(tuple(Fraction(v) for v in xs), Fraction(y), dv)
