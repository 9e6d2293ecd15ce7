"""Exception hierarchy shared across the package.

Every failure mode callers are expected to branch on gets its own class. Each
class carries the CLI exit code for it: 1 usage or precondition error, 2 bad
input data, 3 model or fitting error, the default set on EpiForecastError.
"""


class EpiForecastError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ContractError(EpiForecastError, ValueError):
    """An argument or precondition violation (bad order, bad fraction, ...)."""

    exit_code = 1


class ParseError(EpiForecastError):
    """A malformed CSV row: wrong arity, unparseable number or date."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructuralError(EpiForecastError):
    """A structurally broken dataset: date gap, duplicate date, empty file."""

    exit_code = 2


class ValidationError(EpiForecastError):
    """Well-formed data that violates a domain invariant (e.g. monotonicity)."""

    exit_code = 2


class DegenerateScaleError(EpiForecastError):
    """A constant series cannot be min-max scaled."""


class SingularFitError(EpiForecastError):
    """The least-squares design matrix is rank deficient."""


class DivergenceError(EpiForecastError):
    """An iterative fit produced a non-finite objective or loss."""


class UndefinedMetricError(EpiForecastError):
    """A metric's denominator is zero for the given data."""


class ExhaustedGridError(EpiForecastError):
    """Every candidate in a hyperparameter grid failed to fit."""


class ModelFileError(EpiForecastError):
    """A model file is unreadable, truncated, or has an unsupported schema."""
