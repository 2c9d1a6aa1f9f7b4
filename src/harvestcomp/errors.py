"""Exception hierarchy shared across the package.

The CLI maps ConfigurationError to exit code 2 and NumericalError to 3;
any other HarvestCompError also exits 3, printed as "error: ...".
"""


class HarvestCompError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(HarvestCompError):
    """Invalid configuration, profile, grid, or argument."""


class ExpressionError(ConfigurationError):
    """Syntax or evaluation failure in a profile expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NumericalError(HarvestCompError):
    """Numerical failure during time stepping or linear algebra."""


class UnstableStepError(NumericalError):
    """Non-finite values appeared in a time step or a Newton iterate."""


class ConvergenceError(NumericalError):
    """An iterative solver failed to reach its tolerance within its cap."""


class SingularSystemError(NumericalError):
    """A shifted tridiagonal system, or a Newton step's system, was singular or unsolvable."""
