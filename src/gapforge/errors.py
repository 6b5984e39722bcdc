"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class GapforgeError(Exception):
    """Base class for all pipeline errors."""


class MalformedInstance(GapforgeError):
    """An instance violates one of its structural invariants."""


class UnknownEdge(GapforgeError):
    pass


class UnknownLabel(GapforgeError):
    pass


class PartialLabeling(GapforgeError):
    """An operation needed a total labeling but part of it is missing."""


class VariableNotInTest(GapforgeError):
    pass


class VariableNotShared(GapforgeError):
    pass


class EdgeUnsatisfied(GapforgeError):
    """A labeling violates an edge constraint; carries the offending edge."""

    def __init__(self, edge):
        super().__init__(f"labeling violates edge {edge!r}")
        self.edge = edge


class NotLcDerived(GapforgeError):
    """The instance lacks the label-cover provenance the operation needs."""


class InconsistentInput(GapforgeError):
    """A super-assignment expected to be consistent is not."""


class ClassificationImpossible(GapforgeError):
    """A nonzero test has a zero-good assignment and no multi-good witness.

    Consistent super-assignments on label-cover derived instances can never
    reach this state; raising loudly is deliberate.
    """


class EmptyRange(GapforgeError):
    """A test ends up with no satisfying assignment; carries the test."""

    def __init__(self, test):
        super().__init__(f"test {test!r} has no satisfying assignment")
        self.test = test


class LengthMismatch(GapforgeError):
    pass


class BadParameters(GapforgeError):
    pass


class Infeasible(GapforgeError):
    """Extraction from a halfspace assignment failed a prerequisite.

    ``group`` names the inequality group (or pseudo-group such as
    ``integrality``) and ``index`` the first offending member.
    """

    def __init__(self, group, index, detail=""):
        msg = f"prerequisite failed in {group} at index {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.group = group
        self.index = index


class NormBoundViolated(GapforgeError):
    pass


class PreconditionFailed(GapforgeError):
    pass


class SearchSpaceTooLarge(GapforgeError):
    """An exact search charged more states than the cap allows.

    Each walk, depth first or best first, charges each node it enters and
    stops at the first node over the cap, so ``states`` is always ``cap + 1``.
    """

    def __init__(self, states, cap):
        super().__init__(f"search charged {states} states, more than the cap of {cap}")
        self.states = states
        self.cap = cap


class InfeasibleSpec(GapforgeError):
    pass


class SchemaViolation(GapforgeError):
    """A serialized document failed validation; carries a JSON pointer."""

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.detail = message
