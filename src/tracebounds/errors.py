"""Exception hierarchy shared across the library."""


class TraceBoundsError(Exception):
    """Base class for all library errors."""


class EigenConvergenceError(TraceBoundsError):
    """Eigensolver failed to converge or reconstruction residual too large."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"eigensolver residual too large: {residual:g}")


class NotPositiveDefiniteError(TraceBoundsError):
    """Cholesky pivot fell below tolerance.

    ``pivot_index`` is 1-based, matching the column where factorization failed.
    """

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix not positive definite: pivot {pivot_index} = {pivot_value:g}"
        )


class RankDeficiencyError(TraceBoundsError):
    """A QR factorization met a (numerically) dependent column.

    ``column`` is 1-based.
    """

    def __init__(self, column):
        self.column = column
        super().__init__(f"rank deficiency detected at column {column}")


class SpectrumError(TraceBoundsError):
    """A spectral precondition was violated (e.g. nonpositive Ritz value)."""

    def __init__(self, value, message=None):
        self.value = value
        super().__init__(message or f"nonpositive spectral value: {value:g}")


class CertificateError(TraceBoundsError):
    """A constructed polynomial failed its own accuracy certificate.

    This signals a construction bug, never an accepted outcome.
    """

    def __init__(self, achieved, bound):
        self.achieved = achieved
        self.bound = bound
        super().__init__(
            f"accuracy certificate failed: achieved {achieved:g} > bound {bound:g}"
        )


class ConditioningError(TraceBoundsError):
    """A derived matrix was too ill-conditioned to continue."""


class BudgetExceededError(TraceBoundsError):
    """An oracle-metered algorithm tried to exceed its query budget."""

    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"query budget of {budget} exceeded")


class ParseError(TraceBoundsError):
    """An input file could not be parsed; the CLI exits 4."""


class MatrixParseError(ParseError):
    """Matrix file could not be parsed; carries the offending line number."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UsageError(TraceBoundsError, ValueError):
    """An argument outside its documented range; the CLI exits 2."""
