"""Exception types and parameter predicates shared across the package."""

import math
import numbers
import sys


class RelaySimError(Exception):
    """Base class for all relaysim errors."""


class InvalidParameterError(RelaySimError, ValueError):
    """A caller-supplied parameter is out of range or malformed."""


class DegenerateInputError(RelaySimError, ValueError):
    """Input is mathematically degenerate (zero channel, zero matrix, ...)."""


class NumericalError(RelaySimError, ArithmeticError):
    """A numerical routine failed (singular system, dimension mismatch, ...)."""


class InsufficientStatisticsError(RelaySimError, ValueError):
    """Monte Carlo data is too sparse for the requested estimate."""


def is_int(v) -> bool:
    """A Python or numpy integer, never a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A real number that a float holds finitely: no bool, NaN, infinity or huge int."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v))


def is_positive(v) -> bool:
    return is_number(v) and v > 0
