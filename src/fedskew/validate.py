"""Type and range checks for config values.  Each returns the value it checked
or raises ValueError("<name>: must be …"), so a caller can prefix a key path.
A number is a finite int or float, never a bool or a string."""

import math
from numbers import Integral, Real


def integer(name: str, value, minimum=1):
    """An int (not a bool) >= `minimum`; any int when `minimum` is None."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name}: must be an integer{bound}, got {value!r}")
    return value


def _number(name: str, value, in_range, wanted: str):
    if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
            or not in_range(value)):
        raise ValueError(f"{name}: must be {wanted}, got {value!r}")
    return value


def positive(name: str, value):
    return _number(name, value, lambda v: v > 0, "a finite number > 0")


def nonnegative(name: str, value):
    return _number(name, value, lambda v: v >= 0, "a finite number >= 0")


def fraction(name: str, value):
    """Such as a dropout rate."""
    return _number(name, value, lambda v: 0 <= v < 1, "a number in [0, 1)")
