"""Dimension counts for spaces of holomorphic functions of bounded growth.

On C^n the functions of polynomial growth of order at most d form a space
whose dimension is the number of monomials of total degree <= floor(d),
i.e. binomial(n + floor(d), n).  On a model carrying a convexifier h the
vanishing-order argument converts h-growth into Euclidean growth: when h
grows like gamma * log r with gamma in (0, 1], order-d growth against h
reads as Euclidean order d / gamma and the same monomial count applies.

Four functions are exposed; all but the first return a DimensionBound:

* ``dim_poly_space``        the Euclidean benchmark count
* ``dim_bound_from_h``      bound through a measured growth exponent
* ``power_decay_regimes``   the trivial / sharp / general trichotomy for
                            curvature floors -A/(1+r)^(2+eps), eps < 1/2
* ``exp_growth_bound``      exponential-growth classes under an
                            inverse-square floor C/r^2, 0 < C < 1/4

All bounds are upper bounds; nothing here claims attainment except the
flat benchmark where the count is the actual dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparison_ode import Convexifier, growth_exponent
from .errors import DomainError

__all__ = [
    "DimensionBound",
    "dim_bound_from_h",
    "dim_poly_space",
    "exp_growth_bound",
    "power_decay_regimes",
]

_SNAP = 1e-9  # floats this close to an integer count as that integer


@dataclass(frozen=True)
class DimensionBound:
    """An upper bound on a growth-restricted function space.

    bound = dim_poly_space(n, d_eff) whenever finite, except the trivial
    clause's bound 1; d_eff is the effective Euclidean order the derivation
    produced.  regime is euclidean_exact | h_growth | exp_growth (from h),
    trivial | sharp | general (power decay) or exp_growth(C=...).  params
    holds the derivation's (name, value) witnesses: gamma (and c1) from h;
    A, eps, trivial_threshold, growth_factor (and, sharp only, sharp_cap,
    witness_ok) for power decay; a, b, A, k, C, c1 for exp_growth(C=...).
    """

    n: int
    d: float
    bound: int | float
    regime: str
    d_eff: float
    params: tuple = ()


def _check_n(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError("n must be an integer >= 1")
    if n < 1:
        raise DomainError("n must be an integer >= 1")


def dim_poly_space(n: int, d: float) -> int:
    """Number of monomials of total degree <= floor(d) in n variables."""
    _check_n(n)
    d = float(d)
    if not math.isfinite(d) or d < 0:
        raise DomainError("d must be finite and >= 0")
    return math.comb(n + math.floor(d + _SNAP), n)


def _default_window(h: Convexifier) -> tuple:
    hi_dom = h.domain[1]
    if math.isinf(hi_dom):
        return 1e3, 1e5
    lo, hi = max(2.0, hi_dom / 1e3), 0.99 * hi_dom
    if hi / lo < 10.0:
        raise DomainError(
            "h domain too small for a one-decade fit window; pass r_window")
    return lo, hi


def dim_bound_from_h(h: Convexifier, d: float, n: int,
                     r_window: tuple | None = None) -> DimensionBound:
    """Dimension bound for order-d growth measured against h.

    gamma = growth_exponent(h, window) in (0, 1] converts h-growth of
    order d into Euclidean growth of order d / gamma.  A diverging gamma
    (superlogarithmic h, at least linear in r) switches to the
    exponential class: the linear rate c1 is fitted over the same window
    and the count at order d / c1 is returned.  The default window sits
    at large radii, (1e3, 1e5) clipped to the h domain, where the slope
    has settled; pass r_window to override.
    """
    _check_n(n)
    d = float(d)
    if not math.isfinite(d) or d < 0:
        raise DomainError("d must be finite and >= 0")
    if r_window is None:
        window = _default_window(h)
    else:
        window = float(r_window[0]), float(r_window[1])
    gamma = growth_exponent(h, window)
    if math.isinf(gamma):
        rs = np.geomspace(window[0], window[1], 96)
        c1 = float(np.polyfit(rs, np.asarray(h(rs), dtype=float), 1)[0])
        if not (math.isfinite(c1) and c1 > 0):
            raise DomainError(
                "superlogarithmic h without a positive linear rate")
        d_eff = d / c1
        return DimensionBound(n=n, d=d, bound=dim_poly_space(n, d_eff),
                              regime="exp_growth", d_eff=d_eff,
                              params=(("gamma", math.inf), ("c1", c1)))
    if gamma <= 0:
        raise DomainError(f"growth exponent {gamma:.3g} is not positive")
    if gamma > 1.0 + 1e-6:
        raise DomainError(
            f"growth exponent {gamma:.6g} > 1 is outside the comparison range")
    gamma = min(gamma, 1.0)
    d_eff = d / gamma
    regime = "euclidean_exact" if abs(gamma - 1.0) <= 1e-9 else "h_growth"
    return DimensionBound(n=n, d=d, bound=dim_poly_space(n, d_eff),
                          regime=regime, d_eff=d_eff,
                          params=(("gamma", gamma),))


def power_decay_regimes(A: float, eps: float, d: float,
                        n: int) -> DimensionBound:
    """Trichotomy of bounds under the curvature floor -A/(1+r)^(2+eps).

    trivial: d <= e^{-3A/eps}; only constants, bound 1.
    sharp:   d a positive integer with A/eps <= 1/(4d); the Euclidean
             count dim_poly_space(n, d) holds because the inflated order
             e^{2A/eps} d stays below d + 1.
    general: bound dim_poly_space(n, d e^{2A/eps}).

    eps < 1/2 is required; larger eps is outside the stated trichotomy.
    An inflated order too large for floats reports bound = +inf.
    """
    _check_n(n)
    A, eps, d = float(A), float(eps), float(d)
    if A <= 0 or eps <= 0:
        raise DomainError("power_decay needs A > 0 and eps > 0")
    if eps >= 0.5:
        raise DomainError("the regime trichotomy requires eps < 1/2")
    if not (math.isfinite(d) and d > 0):
        raise DomainError("d must be finite and > 0")
    threshold = math.exp(-3.0 * A / eps)
    x = 2.0 * A / eps
    factor = math.exp(x) if x < 709.0 else math.inf
    params = (("A", A), ("eps", eps), ("trivial_threshold", threshold),
              ("growth_factor", factor))
    d_int = round(d)
    if d <= threshold:
        return DimensionBound(n=n, d=d, bound=1, regime="trivial", d_eff=0.0,
                              params=params)
    if abs(d - d_int) <= _SNAP and d_int >= 1 and A / eps <= 0.25 / d_int:
        return DimensionBound(
            n=n, d=d, bound=dim_poly_space(n, float(d_int)), regime="sharp",
            d_eff=float(d_int),
            params=params + (("sharp_cap", 0.25 / d_int),
                             ("witness_ok", factor * d_int < d_int + 1)))
    d_eff = d * factor
    bound = dim_poly_space(n, d_eff) if math.isfinite(d_eff) else math.inf
    return DimensionBound(n=n, d=d, bound=bound, regime="general",
                          d_eff=d_eff, params=params)


def exp_growth_bound(C: float, d: float, n: int, c1: float) -> DimensionBound:
    """Count bound for the exponential class |f| <= A0 e^{d r}.

    Under an inverse-square curvature floor C/r^2 with 0 < C < 1/4 the
    comparison exponents are the roots of 2x^2 - x + C/2 = 0,
    a = (1 + sqrt(1-4C))/4 and b = (1 - sqrt(1-4C))/4, and the
    convexifier grows like c1 r^{1-2a}.  c1 is model dependent and must
    be supplied by the caller (extracted from the solved h).  The bound
    is the polynomial count at effective order d / c1; the roots and the
    derived quantities A = 1 - 2a and k = 2a - 2b are exposed in params
    for the explicit supersolution check.

    C >= 1/4 is rejected: the model is then compact (C > 1/4) or on the
    excluded borderline (C = 1/4).
    """
    _check_n(n)
    C, d, c1 = float(C), float(d), float(c1)
    if not 0.0 < C < 0.25:
        raise DomainError("exp_growth_bound needs 0 < C < 1/4")
    if d < 1:
        raise DomainError("d must be >= 1")
    if c1 <= 0:
        raise DomainError("c1 must be > 0")
    disc = math.sqrt(1.0 - 4.0 * C)
    a = (1.0 + disc) / 4.0
    b = (1.0 - disc) / 4.0
    d_eff = d / c1
    return DimensionBound(
        n=n, d=d, bound=dim_poly_space(n, d_eff),
        regime=f"exp_growth(C={C:g})", d_eff=d_eff,
        params=(("a", a), ("b", b), ("A", 1.0 - 2.0 * a),
                ("k", 2.0 * (a - b)), ("C", C), ("c1", c1)))
