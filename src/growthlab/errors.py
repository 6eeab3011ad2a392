"""Exception types and the verdict record shared across the laboratory."""
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Check:
    """A named verdict: margin is the signed distance to its threshold.

    A margin >= 0 passes; a negative or NaN one reports ``failure``,
    "violation" for the paper's inequalities and "fail" for the lab's own
    consistency checks.  Scalar measurements live in ``witness``.
    """
    name: str
    margin: float
    witness: dict = field(default_factory=dict)
    failure: str = "fail"

    @property
    def verdict(self) -> str:
        return "pass" if self.margin >= 0 else self.failure

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"
