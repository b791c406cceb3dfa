"""Type and range checks for config values.  Each returns the value it checked
or raises ValueError("<name>: must be …"), so a caller can prefix a key path."""

import math
from numbers import Integral, Real


def integer(name: str, value, minimum=1):
    """An int (not a bool) >= `minimum`; any int when `minimum` is None."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name}: must be an integer{bound}, got {value!r}")
    return value


def positive(name: str, value):
    """A finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValueError(f"{name}: must be a finite number > 0, got {value!r}")
    return value


def fraction(name: str, value):
    """A real number in [0, 1), such as a dropout rate."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < 1:
        raise ValueError(f"{name}: must be a number in [0, 1), got {value!r}")
    return value


def boolean(name: str, value):
    """A JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{name}: must be true or false, got {value!r}")
    return value
