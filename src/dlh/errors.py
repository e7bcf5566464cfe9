"""Exception types shared across the package, and the one integer check.

The CLI maps these onto its exit codes: ValidationError -> 2,
ConvergenceError and ConsistencyError -> 3.
"""

import numbers

__all__ = ["ValidationError", "ConvergenceError", "ConsistencyError"]


class ValidationError(ValueError):
    """Bad input: configuration, path geometry, window, or truncation bounds."""


class ConvergenceError(RuntimeError):
    """A refinement loop hit its cap without meeting its tolerance."""


class ConsistencyError(ArithmeticError):
    """Two independent internal routes to the same quantity disagree."""


def _is_integer(value) -> bool:
    """An integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, minimum: int) -> int:
    """`value` as an int >= `minimum`; a bool, a float or a string is a ValidationError."""
    if not _is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
