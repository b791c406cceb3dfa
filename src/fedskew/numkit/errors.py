"""The errors numkit raises."""


class NumericError(ValueError):
    """A public operation produced NaN/Inf."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ContractError(ValueError):
    """A caller violated an op precondition."""
