"""Richardson-extrapolated central differences.

Used wherever a profile or solution is available only as a callable
(user tables, a user's u without its derivative).  Steps follow h = max(floor, scale*|x|)
so that second derivatives of tabulated data stay stable near zero and
far out alike.
"""
from __future__ import annotations

from typing import Callable


def first_derivative(f: Callable[[float], float], x: float,
                     h: float | None = None) -> float:
    """d f / d x by 4th-order Richardson extrapolation of central differences."""
    if h is None:
        h = max(1e-5, 1e-4 * abs(x))
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def second_derivative(f: Callable[[float], float], x: float,
                      h: float | None = None) -> float:
    """d^2 f / d x^2, 4th order.

    The step floor is larger than for first derivatives: the roundoff term
    scales like eps/h^2, so h near 1e-3 balances truncation against noise.
    """
    if h is None:
        h = max(2e-3, 2e-3 * abs(x))
    f0 = f(x)
    s1 = (f(x + h) - 2.0 * f0 + f(x - h)) / (h * h)
    s2 = (f(x + 0.5 * h) - 2.0 * f0 + f(x - 0.5 * h)) / (0.25 * h * h)
    return (4.0 * s2 - s1) / 3.0
