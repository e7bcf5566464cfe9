"""Exception types shared across the package, and the one check per kind of argument.

The CLI maps these onto its exit codes: ValidationError -> 2,
ConvergenceError and ConsistencyError -> 3.
"""

import math
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


def _check_positive(name: str, value) -> None:
    """A finite real number > 0; a bool, a string or a NaN is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")


def _check_window(window: tuple[int, int]) -> tuple[int, int]:
    """(m_lo, m_hi) as plain ints: integer bounds (not bools) with 0 <= m_lo <= m_hi."""
    try:
        m_lo, m_hi = window
    except (TypeError, ValueError):  # not a pair
        m_lo = m_hi = None
    if not (_is_integer(m_lo) and _is_integer(m_hi) and 0 <= m_lo <= m_hi):
        raise ValidationError(f"window must be integers with 0 <= m_lo <= m_hi, got {window!r}")
    return int(m_lo), int(m_hi)
