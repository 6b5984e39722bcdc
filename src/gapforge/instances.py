"""Exact-arithmetic instance types for the five problems in the pipeline.

Everything here is immutable after construction and validated eagerly: the
pass that validates a label cover or an SSAT instance also builds the
derived tables its readers use, so nothing is computed or stored later.  An
SSAT instance reduced from a label cover holds that cover as its provenance
and is a function of it: ``cover_tests`` derives its tests.  All
arithmetic is over arbitrary-precision integers and :class:`~fractions.Fraction`;
no floating point is used anywhere.  Every instance coefficient is an
integer; fractions occur only in LHP assignments, which are scaled to
integers before they are evaluated.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Iterable, Optional, Union

from .errors import (
    EmptyRange,
    LengthMismatch,
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
    A ``__post_init__`` may set derived tables the same way, always in the same
    order; they are not fields.  It may also fill in fields left at their
    defaults from the others.  A record never changes after ``__init__``
    returns: nothing can be assigned or deleted, and nothing is cached later.
    Equality and hashing go by the field tuple.  No method reads or writes
    ``self.__dict__``: on CPython 3.11 that moves the inline attribute values
    into a dict, and every later attribute read gets slower.
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

    Validation builds two tables, which are not fields:

    - ``edges_of_b[b]``: the edges incident to each B-vertex, in global edge
      order;
    - ``sigma_b_index[y]``: the position of each B-label in ``sigma_b``.
    """

    a_vertices: tuple[Vertex, ...]
    b_vertices: tuple[Vertex, ...]
    sigma_a: tuple[Label, ...]
    sigma_b: tuple[Label, ...]
    edges: tuple[Edge, ...]
    projections: dict[Edge, dict[Label, Label]]

    def __post_init__(self):
        a_side = set(self.a_vertices)
        edges_of_b: dict[Vertex, list[Edge]] = {b: [] for b in self.b_vertices}
        if len(a_side) != len(self.a_vertices) or len(edges_of_b) != len(self.b_vertices):
            raise MalformedInstance("duplicate vertex identifiers")
        sig_a = set(self.sigma_a)
        if len(sig_a) != len(self.sigma_a):
            raise MalformedInstance("duplicate alphabet labels")
        sigma_b_index = {y: i for i, y in enumerate(self.sigma_b)}
        if len(sigma_b_index) != len(self.sigma_b):
            raise MalformedInstance("duplicate alphabet labels")
        if not self.sigma_a or not self.sigma_b:
            raise MalformedInstance("alphabets must be nonempty")
        if len(set(self.edges)) != len(self.edges):
            raise MalformedInstance("duplicate edges")
        for e in self.edges:
            a, b = e
            if a not in a_side or b not in edges_of_b:
                raise MalformedInstance(f"edge {e!r} has a dangling endpoint")
            table = self.projections.get(e)
            if table is None:
                raise MalformedInstance(f"edge {e!r} has no projection table")
            if set(table) != sig_a:
                raise MalformedInstance(f"projection table of {e!r} is not total on sigma_a")
            for y in table.values():
                if y not in sigma_b_index:
                    raise MalformedInstance(f"projection table of {e!r} maps outside sigma_b")
            edges_of_b[b].append(e)
        extra = set(self.projections) - set(self.edges)
        if extra:
            raise MalformedInstance(f"projection tables for unknown edges {sorted(map(repr, extra))}")
        _set = object.__setattr__
        _set(self, "edges_of_b", {b: tuple(es) for b, es in edges_of_b.items()})
        _set(self, "sigma_b_index", sigma_b_index)

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
    degree_of_a = dict.fromkeys(lc.a_vertices, 0)
    for a, _ in lc.edges:
        degree_of_a[a] += 1
    a_degrees = list(degree_of_a.values())
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


def cover_tests(lc: LabelCoverInstance) -> tuple[SsatTest, ...]:
    """The tests of the SSAT instance a label cover reduces to: one per B-vertex, in order.

    Test t reads the A-ends of B-vertex t's edges, in edge order.  Its
    satisfying assignments are, for each B-label in alphabet order, the cross
    product of the per-edge preimages of that label; a label with an empty
    preimage on some edge contributes nothing.  So a test lists at most
    |sigma_b|*p^D_B assignments.  A test with no assignment at all is
    unsatisfiable and raises ``EmptyRange`` rather than being dropped.
    """
    preimages: dict[Edge, dict[Label, list[Label]]] = {e: {} for e in lc.edges}
    for e, by_label in preimages.items():
        for x in lc.sigma_a:
            by_label.setdefault(lc.projections[e][x], []).append(x)
    tests = []
    for b in lc.b_vertices:
        edges = lc.edges_of_b[b]
        assignments: list[tuple[Label, ...]] = []
        for y in lc.sigma_b:
            axes = [preimages[e].get(y) for e in edges]
            if all(axes):
                assignments.extend(itertools.product(*axes))
        if not assignments:
            raise EmptyRange(b)
        tests.append(SsatTest(tuple(a for a, _ in edges), tuple(assignments)))
    return tuple(tests)


class SsatInstance(Record):
    """Tests over shared variables, each listing the assignments that satisfy it.

    ``provenance`` is the label cover the instance was reduced from, or
    ``None``.  An instance with a cover is a function of it: its variables
    are the A-vertices in order, its field values ``sigma_a`` and its tests
    ``cover_tests(provenance)``.  Given only the cover, validation fills the
    three in; given them too, it refuses any that differ.

    Validation builds five tables, which are not fields:

    - ``variable_index[v]``: the position of v in ``variables``;
    - ``tests_of_variable[v]``: the tests that read v, ascending;
    - ``offsets``: where each test's weights start in the flat (test,
      assignment) column order, then the total column count;
    - ``projection_indices[t, x][f]``: the indices of test t's assignments
      that give x the f-th field value, keyed by every (test, variable of that
      test), one tuple per field value in field order;
    - ``shared_pairs``: (i, j, x) for every test pair i < j sharing the
      variable x, in (i, j, variable) order.
    """

    variables: tuple[Vertex, ...] = ()
    field_values: tuple[Label, ...] = ()
    tests: tuple[SsatTest, ...] = ()
    provenance: Optional[LabelCoverInstance] = None

    def __post_init__(self):
        _set = object.__setattr__
        lc = self.provenance
        if lc is not None:
            fill = not (self.variables or self.field_values or self.tests)
            for name, value in (("variables", lc.a_vertices), ("field_values", lc.sigma_a), ("tests", cover_tests(lc))):
                if fill:
                    _set(self, name, value)
                elif getattr(self, name) != value:
                    raise MalformedInstance(f"the {name} are not the ones its label cover derives")
        if not self.variables or not self.tests:
            raise MalformedInstance("an SSAT instance needs at least one variable and one test")
        variable_index = {v: i for i, v in enumerate(self.variables)}
        if len(variable_index) != len(self.variables):
            raise MalformedInstance("duplicate variables")
        field_index = {v: i for i, v in enumerate(self.field_values)}
        if len(field_index) != len(self.field_values) or not self.field_values:
            raise MalformedInstance("field values must be a nonempty ordered set")
        tests_of_variable: dict[Vertex, list[int]] = {v: [] for v in self.variables}
        projection_indices: dict[tuple[int, Vertex], tuple[tuple[int, ...], ...]] = {}
        for idx, test in enumerate(self.tests):
            if not test.variables:
                raise MalformedInstance(f"test {idx} has no variables")
            names = set(test.variables)
            if len(names) != len(test.variables):
                raise MalformedInstance(f"test {idx} repeats a variable")
            if not variable_index.keys() >= names:
                raise MalformedInstance(f"test {idx} uses unknown variables")
            by_position = [[[] for _ in self.field_values] for _ in test.variables]
            seen = set()
            for r_idx, r in enumerate(test.assignments):
                if len(r) != len(test.variables):
                    raise MalformedInstance(f"test {idx} has a partial assignment tuple")
                for by_value, value in zip(by_position, r):
                    f = field_index.get(value)
                    if f is None:
                        raise MalformedInstance(f"test {idx} assignment uses values outside the field")
                    by_value[f].append(r_idx)
                if r in seen:
                    raise MalformedInstance(f"test {idx} lists a duplicate assignment")
                seen.add(r)
            for x, by_value in zip(test.variables, by_position):
                tests_of_variable[x].append(idx)
                projection_indices[idx, x] = tuple(map(tuple, by_value))
        if not all(tests_of_variable.values()):
            raise MalformedInstance("every variable must occur in at least one test")
        pairs = (
            (i, j, x)
            for x, ts in tests_of_variable.items()
            for pos, i in enumerate(ts)
            for j in ts[pos + 1:]
        )
        _set(self, "variable_index", variable_index)
        _set(self, "tests_of_variable", {v: tuple(ts) for v, ts in tests_of_variable.items()})
        _set(self, "offsets", tuple(itertools.accumulate((len(t.assignments) for t in self.tests), initial=0)))
        _set(self, "projection_indices", projection_indices)
        _set(self, "shared_pairs", tuple(sorted(pairs, key=lambda p: (p[0], p[1], variable_index[p[2]]))))


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
    """Positive infinitesimal: where the standard part of an inequality is zero, its delta coefficient decides."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "EPSILON"


EPSILON = _Epsilon()

GT = "gt"
LT = "lt"

LHP_GROUPS = ("G1", "G2", "G3", "G4", "G5")


class LhpInequality(Record):
    """``multiplicity`` copies of one strict homogeneous inequality over (x, y, delta).

    ``coeff_x`` is a sparse row, as in ``SisInstance``, and every coefficient
    is an ``int``; ``LhpSystem`` checks the row.  Homogenization leaves the
    right-hand side zero, so scaling by a positive integer keeps the
    solution set, and ``sis_to_lhp`` writes every inequality with integers.
    """

    coeff_x: SparseRow
    coeff_y: int
    coeff_delta: int
    sense: str
    group: str
    multiplicity: int

    def __post_init__(self):
        if self.sense not in (GT, LT):
            raise MalformedInstance(f"unknown sense {self.sense!r}")
        if self.group not in LHP_GROUPS:
            raise MalformedInstance(f"unknown group {self.group!r}")
        if self.multiplicity < 1:
            raise MalformedInstance("multiplicity must be at least 1")
        if type(self.coeff_y) is not int or type(self.coeff_delta) is not int:
            raise MalformedInstance(f"coeff_y {self.coeff_y!r} and coeff_delta {self.coeff_delta!r} must be ints")
        for i, c in self.coeff_x:
            if type(c) is not int:
                raise MalformedInstance(f"coeff_x coefficient {c!r} at column {i} is not an int")

    def holds_at(self, xs: tuple[int, ...], y: int, delta: Optional[int]) -> bool:
        """Whether the inequality holds at the integer point ``LhpAssignment.scaled()``; ``delta`` None is infinitesimal.

        Under the positive infinitesimal, a zero standard part takes the
        sign of the delta coefficient.
        """
        s = self.coeff_y * y
        for i, c in self.coeff_x:
            s += c * xs[i]
        if delta is not None:
            s += self.coeff_delta * delta
        elif s == 0:
            s = self.coeff_delta
        return s > 0 if self.sense == GT else s < 0

    def satisfied_by(self, a: "LhpAssignment") -> bool:
        """``holds_at`` the scaled ``a``; an assignment without a column this inequality reads raises ``LengthMismatch``."""
        xs, y, delta = a.scaled()
        if self.coeff_x and self.coeff_x[-1][0] >= len(xs):
            raise LengthMismatch(f"assignment has {len(xs)} x-values, the inequality reads x_{self.coeff_x[-1][0]}")
        return self.holds_at(xs, y, delta)


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

    def scaled_point(self, a: "LhpAssignment") -> tuple[tuple[int, ...], int, Optional[int]]:
        """``a.scaled()``, after checking that ``a`` has one x-value per column (else ``LengthMismatch``)."""
        if len(a.x_values) != self.num_x:
            raise LengthMismatch(f"assignment has {len(a.x_values)} x-values, system has {self.num_x}")
        return a.scaled()

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

    def scaled(self) -> tuple[tuple[int, ...], int, Optional[int]]:
        """(X, Y, D): x, y and delta times the positive lcm of their denominators; D is None for the infinitesimal.

        Every inequality is homogeneous, so a positive scale keeps the sign
        of each one, and the infinitesimal stays infinitesimal.
        """
        explicit = () if isinstance(self.delta_value, _Epsilon) else (self.delta_value,)
        values = (*self.x_values, self.y_value, *explicit)
        scale = math.lcm(*[v.denominator for v in values])
        *xs, y, delta = [v.numerator * (scale // v.denominator) for v in values] + ([] if explicit else [None])
        return tuple(xs), y, delta

    @classmethod
    def of(cls, xs: Iterable[Union[int, Fraction]], y: Union[int, Fraction] = 1,
           delta: Union[int, Fraction, _Epsilon] = EPSILON) -> "LhpAssignment":
        dv = delta if isinstance(delta, _Epsilon) else Fraction(delta)
        return cls(tuple(Fraction(v) for v in xs), Fraction(y), dv)
