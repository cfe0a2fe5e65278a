"""Exception types shared across the package."""

from typing import Optional


class MeanStreamError(Exception):
    """Base class for all library errors."""


class InvalidDescriptor(MeanStreamError):
    """Family parameters fail the family's admissibility rules."""


class DomainError(MeanStreamError):
    """An input value lies outside the mean's domain interval."""


class FamilyMismatch(MeanStreamError):
    """Two states (or state files) do not share family and parameters."""


class EmptyStateError(MeanStreamError):
    """Finalize was called on a state with no absorbed elements."""


class NumericalFailure(MeanStreamError):
    """Finalization could not be evaluated (overflow, bad branch, ...)."""


class ParseError(MeanStreamError):
    """State payload could not be parsed; carries the byte offset when known."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class GeneratorInvalid(InvalidDescriptor):
    """A generator function fails its grid invariants."""


class PairInvalid(InvalidDescriptor):
    """A Bajraktarevic (f, g) pair fails its grid invariants."""


class DegenerateExponents(InvalidDescriptor):
    """Biplanar parameters with c*p == d*q."""


class MissingGamma(MeanStreamError):
    """A gamma table does not cover the exponent-sum closure of a query."""

    def __init__(self, exponent):
        super().__init__(f"gamma table is missing exponent {exponent}")
        self.exponent = exponent


class TooLarge(MeanStreamError):
    """Brute-force oracle invoked beyond its size limit."""


class FinalizeOutsideBranches(NumericalFailure):
    """Piecewise finalizer hit a gap between its branch intervals."""


class InsufficientData(MeanStreamError):
    """Not enough lengths in a class profile to classify growth."""


class BudgetExceeded(MeanStreamError):
    """Myhill enumeration would exceed its evaluation budget."""
