"""Exception types shared across the package."""


class QuasiEigError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QuasiEigError):
    """Operands have incompatible dimensions."""


class NonSquare(QuasiEigError):
    """A square matrix was required."""


class NonFinite(QuasiEigError):
    """Input contains NaN or infinite entries."""


class ConvergenceFailure(QuasiEigError):
    """An eigenvalue computation failed its residual contract."""


class NumericalBreakdown(QuasiEigError):
    """LP pivoting met an unbounded direction, exceeded its pivot cap or
    lost feasibility; or the quasi-eigenvalue search's starting bracket
    misses a value, or a side of the search ran past its proven step
    budget ``2 L + 1`` (a defect).  Search errors name their bracket.
    Callers may retry with a slightly jittered problem.
    """


class NotInCone(QuasiEigError):
    """A vector expected inside the cone is not."""


class NotInterior(QuasiEigError):
    """An operation requires a strictly interior quasi-eigenvector."""


class NotNormal(QuasiEigError):
    """The matrix is not normal within tolerance."""


class NotOrthogonal(QuasiEigError):
    """The matrix is not orthogonal within tolerance."""


class UnsupportedDimension(QuasiEigError):
    """The operation is restricted to small dimensions."""


class ParseError(QuasiEigError):
    """Matrix file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
