"""Type and range checks for config values.  Each returns the value it checked
or raises ValueError("<name>: must be …"), so a caller can prefix a key path.
A number is a finite int or float, never a bool or a string."""

import math
from numbers import Integral, Real


# the largest size, count or index a config may set: far past any desk-scale run, and far
# below the integers that overflow a C long or a numpy array size
MAX_INTEGER = 2**31 - 1


def integer(name: str, value, minimum=1):
    """An int (not a bool) in [`minimum`, MAX_INTEGER]; any int when `minimum` is None."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name}: must be an integer{bound}, got {value!r}")
    if minimum is not None and value > MAX_INTEGER:
        raise ValueError(f"{name}: must be an integer <= {MAX_INTEGER}, got {value!r}")
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
