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


class DomainError(CaponPlusError):
    """A scalar lies outside its admissible range: a bad argument, a quadratic
    form ``a^H C^{-1} a <= 0``, ``T0 <= M`` secondary snapshots for the
    inverse-Wishart correction, or fewer than two trial records of a method."""


class DegenerateSample(CaponPlusError):
    """Sample statistics are undefined (e.g. zero total power)."""


class DegenerateDenominator(CaponPlusError):
    """An adaptive shrinkage denominator is non-positive."""


class ConfigError(CaponPlusError):
    """A configuration cannot be read or decoded, breaks the key table in
    ``cli``, or violates a scenario invariant."""


class TrialFailureError(CaponPlusError):
    """More than the tolerated share of Monte-Carlo trials failed."""
