"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code and the label of its ``latflow:
<label>: <message>`` line: parse and invalid-input errors exit 2, budget
errors 3, precision failures 4.
"""


class LatflowError(Exception):
    """Base class for all package errors."""
    exit_code, label = 1, "error"


class ParseError(LatflowError, ValueError):
    """Malformed numeric text or an unusable mode/value combination."""
    exit_code, label = 2, "parse error"


class InvalidInputError(LatflowError, ValueError):
    """Precondition violation (zero vector, empty sample, bad interval...)."""
    exit_code, label = 2, "invalid input"


class BudgetError(LatflowError, RuntimeError):
    """A search or enumeration would exceed its configured work budget."""
    exit_code, label = 3, "budget exceeded"


class PrecisionError(LatflowError, RuntimeError):
    """The requested computation cannot be trusted in the current scalar mode."""
    exit_code, label = 4, "precision failure"
