"""Exception types shared across the laboratory."""


class GrowthLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GrowthLabError, ValueError):
    """A point or radius lies outside the domain where an object is defined."""


class ConjugatePointError(DomainError):
    """A radius at or beyond the first zero of the Jacobi field J(r)."""


class BlowDownError(GrowthLabError, ValueError):
    """A comparison solution ceased to exist before the requested radius."""


class ShootingError(GrowthLabError, RuntimeError):
    """A two-point geodesic solve failed to bracket or converge on an arc."""


class MaximizationError(GrowthLabError, RuntimeError):
    """A modulus maximization failed to converge to the requested tolerance."""


class BudgetError(GrowthLabError, RuntimeError):
    """An iterative solve used up its evaluation budget."""
