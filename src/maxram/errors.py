"""Shared exception types.

Precondition and domain violations map to CLI exit code 2; budget
exhaustion is reported through result flags rather than exceptions so
that partial results can still be written (exit code 3).
"""

# Default search-node budget of the exact solvers and of the CLI's --budget.
DEFAULT_BUDGET = 10**7


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class DomainError(ValueError):
    """An input lies outside the domain the operation works on."""


class DimensionMismatch(PreconditionError):
    """Two vectors or point sets disagree on dimension."""


class ParseError(ValueError):
    """A serialized artifact could not be parsed; message carries context."""
