"""Exception types shared across the package."""


class QMeasureError(Exception):
    """Base class for all package-specific errors."""


class ZeroMatrix(QMeasureError):
    """Matrix has (numerically) zero norm and cannot be projected."""


class DimensionMismatch(QMeasureError):
    """Input has the wrong dimension for the requested operation."""


class DomainError(QMeasureError):
    """Argument lies outside the mathematical domain of the function."""


class InsufficientData(QMeasureError):
    """Too few samples (or expected counts) for a meaningful statistic."""
