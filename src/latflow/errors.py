"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ParseError -> 2, InvalidInputError -> 2,
BudgetError -> 3, PrecisionError -> 4.
"""


class LatflowError(Exception):
    """Base class for all package errors."""


class ParseError(LatflowError, ValueError):
    """Malformed numeric text or an unusable mode/value combination."""


class InvalidInputError(LatflowError, ValueError):
    """Precondition violation (zero vector, empty sample, bad interval...)."""


class BudgetError(LatflowError, RuntimeError):
    """A search or enumeration would exceed its configured work budget."""


class PrecisionError(LatflowError, RuntimeError):
    """The requested computation cannot be trusted in the current scalar mode."""


class ReductionError(LatflowError, RuntimeError):
    """Lattice reduction failed to converge (pathological conditioning)."""
