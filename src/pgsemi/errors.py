"""Exception types shared across the package."""

__all__ = [
    "PgsemiError",
    "MalformedTable",
    "InvalidAlgebra",
    "NotPartialOrder",
    "DegreeMismatch",
    "InfeasibleDegree",
    "CapExceeded",
    "BudgetExceeded",
    "NotBelow",
    "NotFriendly",
    "NotLinked",
    "InvalidSemigroup",
    "NotAMorphism",
    "UndecidedEquality",
    "InconsistentClassification",
]


class PgsemiError(Exception):
    """Base class for package-specific errors."""


class MalformedTable(PgsemiError, ValueError):
    """An operation table is not square, not integral, or out of range."""


class InvalidAlgebra(PgsemiError, ValueError):
    """A table fails the projection-algebra laws P1-P5; carries the first
    failed law's Violation and names it in the message."""

    def __init__(self, violation):
        super().__init__(f"not a projection algebra: {violation}")
        self.violation = violation


class NotPartialOrder(PgsemiError, ValueError):
    """A relation expected to be a partial order fails one of the order laws."""


class DegreeMismatch(PgsemiError, ValueError):
    """Diagrams of different degrees were combined."""


class InfeasibleDegree(PgsemiError, ValueError):
    """A diagram family was requested beyond its supported degree."""


class CapExceeded(PgsemiError, RuntimeError):
    """A closure computation grew past its element cap."""


class BudgetExceeded(PgsemiError, RuntimeError):
    """A coset enumeration exceeded its coset budget."""


class NotBelow(PgsemiError, ValueError):
    """A restriction was requested at a projection that is not low enough."""


class NotFriendly(PgsemiError, ValueError):
    """A vertex sequence has a consecutive pair outside the friendliness
    relation."""


class NotLinked(PgsemiError, ValueError):
    """A pair of projections fails the linked-pair equations."""


class InvalidSemigroup(PgsemiError, ValueError):
    """A multiplication/star table violates the regular *-semigroup laws in a
    way that blocks the requested construction."""


class NotAMorphism(PgsemiError, ValueError):
    """A vertex map does not respect the unary operations."""


class UndecidedEquality(PgsemiError, RuntimeError):
    """Two words could not be proved equal or distinct within budget.

    Carries the component index the failure happened in.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class InconsistentClassification(PgsemiError, AssertionError):
    """Internal cross-checks of a linked-pair classification disagreed."""
