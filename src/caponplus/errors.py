"""Exception types shared across the package."""


class CaponPlusError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CaponPlusError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(CaponPlusError):
    """A matrix required to be Hermitian positive definite is not.

    Carries the index of the failing Cholesky pivot when known.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class NonPositiveQuadraticForm(CaponPlusError):
    """A quadratic form that must be positive came out non-positive."""


class DomainError(CaponPlusError):
    """A scalar argument lies outside its admissible range."""


class DegenerateSample(CaponPlusError):
    """Sample statistics are undefined (e.g. zero total power)."""


class DegenerateDenominator(CaponPlusError):
    """An adaptive shrinkage denominator is non-positive."""


class InsufficientSecondarySamples(CaponPlusError):
    """Secondary sample count too small for the requested correction."""


class InsufficientTrials(CaponPlusError):
    """Too few trial records to aggregate."""


class ConfigError(CaponPlusError):
    """A scenario or run configuration violates its invariants."""


class ParseError(CaponPlusError):
    """A configuration document could not be read or decoded."""


class ValidationError(CaponPlusError):
    """A configuration document violates the schema or semantic invariants."""


class TrialFailureError(CaponPlusError):
    """More than the tolerated share of Monte-Carlo trials failed."""
