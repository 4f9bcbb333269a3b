"""Exception types shared across the package."""


class PcmError(Exception):
    """Base class for all pcmkit errors."""


class NonSquareError(PcmError):
    """Input is not a square matrix of the required minimum order."""


class NonPositiveEntryError(PcmError):
    """A judgment entry is zero, negative, or not finite."""

    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row}, {col}) = {value!r} is not strictly positive")


class ReciprocityViolationError(PcmError):
    """A pair of mirrored entries fails a_ij * a_ji = 1 beyond tolerance."""

    def __init__(self, row: int, col: int, residual: float):
        self.row = row
        self.col = col
        self.residual = residual
        super().__init__(
            f"entries ({row}, {col})/({col}, {row}) violate reciprocity: "
            f"|a_ij * a_ji - 1| = {abs(residual):.3e}"
        )


class NonPositiveWeightError(PcmError):
    """A weight or priority component is zero, negative, or not finite."""


class DimensionMismatchError(PcmError):
    """Operands do not share the same number of alternatives."""


class EmptyListError(PcmError):
    """An aggregation was called with no inputs."""


class NoConvergenceError(PcmError):
    """The eigen solver exhausted its iteration budget."""

    def __init__(self, iterations: int, residual: float, detail: str = ""):
        self.iterations = iterations
        self.residual = residual
        msg = f"no convergence after {iterations} iterations (residual {residual:.3e})"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class MissingRiError(PcmError):
    """The random-index table has no value for the requested order."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"no random index available for n = {n}")
