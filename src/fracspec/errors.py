"""Exception types shared across the solver modules, and the one check of
a count argument."""

import numbers

__all__ = ["FracspecError", "DomainError", "AccuracyError", "ConvergenceError", "BracketError"]


class FracspecError(Exception):
    """Base class for all package errors."""


class DomainError(FracspecError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class AccuracyError(FracspecError, ArithmeticError):
    """A quadrature error estimate exceeded the configured tolerance."""


class ConvergenceError(FracspecError, ArithmeticError):
    """An iteration failed to contract or an eigensolver failed to converge."""


class BracketError(ConvergenceError):
    """Root bracketing found no sign change; reported instead of guessed."""


def _check_count(value, name: str) -> int:
    """value as an int if it is an integer >= 1, a numpy one too; any other
    value, a bool or an integral float included, raises DomainError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)
