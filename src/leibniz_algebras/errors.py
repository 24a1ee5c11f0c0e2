"""Exception hierarchy shared across the package."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(AlgebraError):
    """Two values from different base fields were combined."""


class DimensionMismatchError(AlgebraError):
    """Vector / matrix / subspace shapes are incompatible."""


class NotLeibnizError(AlgebraError):
    """An operation required a Leibniz algebra and got something else."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class FamilyParameterError(AlgebraError):
    """Family constructor parameters violate the family's validity condition."""


class BudgetExceededError(AlgebraError):
    """A search exceeded its configured budget; the result is indeterminate."""


class NoAbelianIdealError(AlgebraError, ValueError):
    """No abelian ideal of codimension <= 2 exists: a mathematical negative.
    It stays a ValueError for callers that catch one."""


class ConsistencyError(AlgebraError):
    """An internal cross-check failed.  This signals a bug or corrupted input,
    never a legitimate mathematical outcome."""


class DocumentError(AlgebraError):
    """An algebra document failed to parse or validate."""
