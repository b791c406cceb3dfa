"""Dense float64 tensors with finiteness enforcement."""

import numpy as np


class NumericError(ValueError):
    """A public operation produced NaN/Inf."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ContractError(ValueError):
    """A caller violated an op precondition."""


class Tensor:
    """Immutable row-major float64 array; all values finite by construction."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

