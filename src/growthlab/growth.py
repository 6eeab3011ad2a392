"""Max-modulus growth of holomorphic polynomials on radial model metrics.

Core predicate battery:

  * three_circle_check      log M_f convex against a convexifier h
  * monotonicity_check      M_f / e^{d h} one-sided monotone
  * growth_order            d = deg f * beta, the order of f in O_d
  * order_at_infinity       limsup log M / log r, fitted to a curve
  * necessity_deficit       the r^2 coefficient of M_z(r)/(c r), which the
                            curvature at the origin predicts as H(0)/12
  * homogeneity_check       |f(y) r(x)^d - f(x) r(y)^d| smallness at scale
  * cone_exponent           alpha <-> alpha (m + alpha - 2) on metric cones

Maximal moduli over geodesic balls reduce to geodesic spheres (|f| is
plurisubharmonic, so the maximum sits on the boundary).  A growth curve
evaluates all of its radii in one pass, and max_modulus is its
one-radius case.  Spheres about the origin have radius rho(r) from the
model's map, and every circle is sampled at max(720, 16 deg) angles:

  * monomials centered at the origin have a closed form;
  * phase-alignable f centered there on C^n: when the exponent
    differences a_t - a_0 of its k terms have rank k - 1, one torus
    rotation aligns the phases of all terms, so M is the maximum of
    sum |c_a| rho^|a| s^a over s >= 0, |s| = 1: a closed form on C, the
    peak of g = sum |c_a| z^a on the real circle rho (cos, sin) on C^2,
    and on C^n, n >= 3, g sampled on a grid of the positive orthant
    (corners, edges and faces included), its best four points per sphere
    climbed by the ascent below;
  * n = 1: |f| is sampled on each circle, and a peak placed on the
    interpolant of the best samples is moved once more on the interpolant
    of seven true values about it; each circle is asked for its own angles.
    Circles about the origin are rho(r) e^{i phi}; off-center ones (n = 1
    only) are closed forms or, without one, one exp-map integration
    through every radius;
  * other polynomials on C^n, n >= 2: |f| is sampled at fixed quasirandom
    directions on each sphere, and the best 8 n per sphere climb together,
    over all radii at once, by a saddle-free Riemannian Newton ascent of
    |f|^2 to rounding level.  A curve then climbs once more on every
    sphere from the direction of each sphere's best point.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .comparison_ode import Convexifier
from .errors import Check, DomainError, MaximizationError
from .radial_metric import (RadialKahlerModel, curvature_at_origin,
                            geodesic_circle, rho_of_r)

__all__ = [
    "HoloPoly",
    "GrowthCurve",
    "ConvexityReport",
    "max_modulus",
    "growth_curve",
    "three_circle_check",
    "monotonicity_check",
    "growth_order",
    "order_at_infinity",
    "necessity_check",
    "necessity_deficit",
    "homogeneity_check",
    "cone_exponent",
    "separation_eigenvalue",
]

_COEF_TOL = 1e-12   # relative cutoff below which a coefficient counts as 0


# ---------------------------------------------------------------------------
# polynomials

@dataclass(frozen=True)
class HoloPoly:
    """Polynomial in n complex variables, exponent multi-index -> coefficient.

    n = 1 keys may be bare integers; they are normalized to 1-tuples.
    The zero polynomial is rejected (its log-max-modulus is undefined).
    Ball centers are arguments (default 0); vanishing orders are at 0.
    """
    n: int
    coeffs: Mapping
    degree: int = field(init=False)
    # the same polynomial as arrays: row t of _exponents is the
    # multi-index whose coefficient is _coefs[t]
    _exponents: np.ndarray = field(init=False, repr=False, compare=False)
    _coefs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need n >= 1")
        clean = {}
        for key, c in dict(self.coeffs).items():
            alpha = (int(key),) if np.isscalar(key) else tuple(int(a) for a in key)
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise DomainError(f"bad multi-index {key!r} for n={self.n}")
            c = complex(c)
            if not np.isfinite(c):
                raise DomainError(f"coefficient {c} of {key!r} is not finite")
            if c != 0:
                clean[alpha] = clean.get(alpha, 0j) + c
        scale = max((abs(c) for c in clean.values()), default=0.0)
        clean = {a: c for a, c in clean.items()
                 if abs(c) > _COEF_TOL * scale}
        if not clean:
            raise DomainError("the zero polynomial has no growth curve")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "degree", max(sum(a) for a in clean))
        object.__setattr__(self, "_exponents",
                           np.array(list(clean), dtype=int))
        object.__setattr__(self, "_coefs", np.array(list(clean.values())))

    def _coef_vec(self) -> np.ndarray:
        vec = np.zeros(self.degree + 1, dtype=complex)
        for (k,), c in self.coeffs.items():
            vec[k] = c
        return vec

    def vanishing_order(self) -> int:
        """Order of vanishing at the origin: the least degree of a term."""
        return min(sum(a) for a in self.coeffs)

    def eval(self, z):
        """Evaluate at points: complex array for n=1, (..., n) for n >= 2."""
        z = np.asarray(z, dtype=complex)
        if self.n == 1:
            return np.polynomial.polynomial.polyval(z, self._coef_vec())
        if z.shape[-1] != self.n:
            raise DomainError(f"points must have {self.n} components")
        return self._monomials(z, self._exponents) @ self._coefs

    def _monomials(self, z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        """z^e for points z (..., n) and multi-indices e (k, n), each e_i in
        0 .. degree; the result has shape z.shape[:-1] + (k,)."""
        powers = np.ones(z.shape[:-1] + (self.n, self.degree + 1),
                         dtype=complex)
        powers[..., 1:] = z[..., None]
        powers = np.cumprod(powers, axis=-1)
        return powers[..., np.arange(self.n), exponents].prod(-1)

    __call__ = eval


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class GrowthCurve:
    model: RadialKahlerModel
    radii: np.ndarray
    values: np.ndarray

    @property
    def log_values(self) -> np.ndarray:
        return np.log(self.values)


@dataclass(frozen=True, kw_only=True)
class ConvexityReport(Check):
    second_differences: np.ndarray  # slope(r2,r3) - slope(r1,r2) per triple

    @property
    def min_second_difference(self) -> float:
        return self.witness["min_second_difference"]


# ---------------------------------------------------------------------------
# max modulus

def _monomial_max(f: HoloPoly, rho: np.ndarray) -> np.ndarray:
    (alpha, c), = f.coeffs.items()
    total = sum(alpha)
    # max of prod |z_i|^{a_i} over the sphere |z| = rho sits at
    # |z_i|^2 = (a_i/|alpha|) rho^2
    factor = math.prod((a / total) ** (a / 2.0) for a in alpha if a)
    return abs(c) * factor * rho ** total


def __getattr__(name: str):
    # growth uses no scipy; perfbench/tracing.py still binds
    # growth.optimize, so the name resolves to scipy.optimize on first use
    if name != "optimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[name] = importlib.import_module("scipy.optimize")
    return module


@functools.cache
def _directions(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere of C^n: points
    1..count of Roberts' R_2n sequence, frac(1/2 + k g^-j) for j = 1..2n
    with g^(2n+1) = g + 1, paired into standard complex Gaussians by the
    Box-Muller transform, then normalized."""
    g = 2.0
    for _ in range(40):  # contracts by a factor 1/(2n + 1) or less
        g = (1.0 + g) ** (1.0 / (2 * n + 1))
    u = (0.5 + np.outer(np.arange(1, count + 1),
                        g ** -np.arange(1.0, 2 * n + 1))) % 1.0
    z = (np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
         * np.exp(2j * math.pi * u[:, 1::2]))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@functools.cache
def _orthant_grid(n: int, count: int) -> np.ndarray:
    """The points sqrt(q / N) of the unit sphere's positive orthant in R^n,
    for integers q >= 0 with sum q = N, the largest N that gives at most
    count points; corners, edges and faces included.  Each q is read off
    n - 1 bars placed among N + n - 1 slots (stars and bars)."""
    N = 1
    while math.comb(N + n, n - 1) <= count:
        N += 1
    bars = np.array(list(itertools.combinations(range(N + n - 1), n - 1)))
    ends = np.full((bars.shape[0], 1), -1)
    q = np.diff(np.concatenate([ends, bars, ends + N + n], axis=1)) - 1
    return np.sqrt(q / N)


_STARTS = 8          # best sampled directions polished per sphere, times n
_ORTHANT_STARTS = 4  # best orthant grid points polished per sphere
_NEWTON_STEPS = 100  # Newton iterations per member, at most
_HALVINGS = 50       # step halvings per Newton iteration, at most
_RAY_SAMPLES = 24    # sample rays of homogeneity_check
# samples at u = -3 .. 3 -> u-coefficients of the first and second derivative
# of their interpolant; a Lagrange basis from roots imports no LAPACK
_NODES, _DERIVS = np.arange(-3, 4), np.zeros((7, 12))
_DERIVS[:, :6], _DERIVS[:, 6:11] = (np.polynomial.polynomial.polyder(np.array([
    np.polynomial.polynomial.polyfromroots(np.delete(_NODES, j))
    / np.prod(x - np.delete(_NODES, j)) for j, x in enumerate(_NODES)]),
    order, axis=1) for order in (1, 2))


def _jet(f: HoloPoly) -> Callable:
    """z -> (f, grad f, Hess f) at points z of shape (m, n), holomorphic."""
    e, c = f._exponents, f._coefs
    t, n = e.shape
    eye = np.eye(n, dtype=int)
    e1 = e - eye[:, None]                      # [i, t]: e_t - 1_i
    e2 = e1[:, None] - eye[None, :, None]      # [i, j, t]: e_t - 1_i - 1_j
    c1 = c * e.T                               # c_t e_ti
    c2 = c1[:, None] * (e.T - eye[..., None])  # c_t e_ti (e_tj - delta_ij)
    # a negative exponent always meets a zero coefficient
    exps = np.maximum(np.concatenate(
        [e, e1.reshape(-1, n), e2.reshape(-1, n)]), 0)
    coefs = np.concatenate([c, c1.ravel(), c2.ravel()])

    def jet(z):
        terms = f._monomials(z, exps) * coefs
        return (terms[:, :t].sum(axis=1),
                terms[:, t:t + n * t].reshape(-1, n, t).sum(axis=2),
                terms[:, t + n * t:].reshape(-1, n, n, t).sum(axis=3))
    return jet


def _sphere_ascent(f: HoloPoly, z: np.ndarray) -> tuple:
    """Climb |f|^2 from the points z (m, n), each on its sphere |z| = const.

    Saddle-free Riemannian Newton in real coordinates x = (Re z, Im z) on
    F = |f / scale|^2, where scale is |f| at the starts (1 where that is
    0): F stays near 1 and cannot overflow where |f| does not.  The
    Hessian of F restricted to the sphere, written in an orthonormal
    tangent basis (a Householder reflection of x), has its eigenvalues
    replaced by their absolute values, so every step ascends.
    A member halves its step until F increases, and stops once its Newton
    decrement is at most 1e-14 F (the gain left is below rounding) or no
    halving increases F.  Returns the final points and |f| there.
    """
    n, m = f.n, z.shape[0]
    jet = _jet(f)
    v = f.eval(z)
    scale = np.where(v != 0.0, np.abs(v), 1.0)
    rho = np.linalg.norm(z, axis=1)
    x = np.concatenate([z.real, z.imag], axis=1)
    val = np.abs(v / scale) ** 2
    eye = np.eye(2 * n)
    active = np.ones(m, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        a = np.nonzero(active)[0]
        if a.size == 0:
            break
        xa, ra, sa = x[a], rho[a], scale[a]
        v, g, h = jet(xa[:, :n] + 1j * xa[:, n:])
        v, g, h = v / sa, g / sa[:, None], h / sa[:, None, None]
        # Euclidean gradient and Hessian of F: with u = grad f . dz,
        # F(z + dz) = F + 2 Re(conj(f) u) + |u|^2 + Re(conj(f) dz^T Hess dz)
        q = np.conj(v)[:, None] * g
        grad = 2.0 * np.concatenate([q.real, -q.imag], axis=1)
        u = np.stack([np.concatenate([g.real, -g.imag], axis=1),
                      np.concatenate([g.imag, g.real], axis=1)], axis=2)
        cf = np.conj(v)[:, None, None] * h
        hess = 2.0 * (u @ u.transpose(0, 2, 1) + np.concatenate(
            [np.concatenate([cf.real, -cf.imag], axis=2),
             np.concatenate([-cf.imag, -cf.real], axis=2)], axis=1))
        # tangent basis: columns 1.. of the reflection taking x/rho to e_0
        w = xa / ra[:, None]
        w[:, 0] += np.where(w[:, 0] >= 0.0, 1.0, -1.0)
        w /= np.linalg.norm(w, axis=1)[:, None]
        basis = (eye - 2.0 * w[:, :, None] * w[:, None])[:, :, 1:]
        # Riemannian Hessian: the normal component of the gradient bends
        # the sphere by -(grad . x) / rho^2 in every tangent direction
        bend = np.sum(grad * xa, axis=1) / ra ** 2
        hr = (basis.transpose(0, 2, 1) @ hess @ basis
              - bend[:, None, None] * eye[1:, 1:])
        mu, vec = np.linalg.eigh(hr)
        mu = np.abs(mu)
        mu = np.maximum(mu, 1e-12 * mu.max(axis=1, keepdims=True) + 1e-300)
        gv = ((grad[:, None] @ basis) @ vec)[:, 0]
        done = np.sum(gv * gv / mu, axis=1) <= 1e-14 * val[a]
        dx = (basis @ (vec @ (gv / mu)[:, :, None]))[:, :, 0]
        # steps longer than half the radius are cut back before retraction
        with np.errstate(divide="ignore"):
            t = np.minimum(1.0, 0.5 * ra / np.linalg.norm(dx, axis=1))
        pend = np.nonzero(~done)[0]
        for _ in range(_HALVINGS):
            if pend.size == 0:
                break
            y = xa[pend] + t[pend, None] * dx[pend]
            y *= (ra[pend] / np.linalg.norm(y, axis=1))[:, None]
            fy = np.abs(f.eval(y[:, :n] + 1j * y[:, n:]) / sa[pend]) ** 2
            up = fy > val[a[pend]]
            x[a[pend[up]]] = y[up]
            val[a[pend[up]]] = fy[up]
            pend = pend[~up]
            t[pend] *= 0.5
        active[a[done]] = False
        active[a[pend]] = False
    return x[:, :n] + 1j * x[:, n:], np.sqrt(val) * scale


def _samples(f: HoloPoly, zeta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """|f(rho zeta)| at unit vectors zeta (count, n), a row per radius:
    f(rho zeta) = sum_t c_t rho^|e_t| zeta^e_t, one table for all radii."""
    e = f._exponents
    return np.abs(f._monomials(zeta, e)
                  @ (f._coefs[:, None] * rho ** e.sum(axis=1)[:, None])).T


def _climb(f: HoloPoly, rho: np.ndarray, zeta: np.ndarray,
           starts: int) -> tuple:
    """Sample |f| at rho zeta for unit vectors zeta (count, n), one row per
    sphere |z| = rho, and climb the best starts samples of every sphere
    together.  Returns the per-sphere maxima, the peaks (spheres, starts,
    n) and their values, or the sample maxima and None where one is not
    finite."""
    vals = _samples(f, zeta, rho)
    best = vals.max(axis=1)
    if not np.all(np.isfinite(best)):
        return best, None, None
    top = np.argsort(vals, axis=1)[:, -starts:]
    peaks, peak_vals = _sphere_ascent(
        f, (rho[:, None, None] * zeta[top]).reshape(-1, f.n))
    peak_vals = peak_vals.reshape(top.shape)
    return (np.maximum(best, peak_vals.max(axis=1)),
            peaks.reshape(top.shape + (f.n,)), peak_vals)


def _sphere_max(f: HoloPoly, rho: np.ndarray) -> np.ndarray:
    """max |f| on the spheres |z| = rho of C^n, n >= 2, one per entry,
    sampled at 480 n directions."""
    best, peaks, peak_vals = _climb(f, rho, _directions(f.n, 480 * f.n),
                                    _STARTS * f.n)
    if peaks is not None and rho.size > 1:
        # a maximum missed on one sphere is often found on another: climb
        # again on every sphere from the direction of each sphere's best
        won = peaks[np.arange(rho.size), peak_vals.argmax(axis=1)]
        dirs = won / rho[:, None]
        starts = (rho[:, None, None] * dirs).reshape(-1, f.n)
        peak_vals = _sphere_ascent(f, starts)[1]
        best = np.maximum(best, peak_vals.reshape(rho.size, -1).max(axis=1))
    return best


def _angles(f: HoloPoly) -> np.ndarray:
    """Every circle's sample angles: max(720, 16 deg), equispaced from 0."""
    return np.linspace(0.0, 2.0 * math.pi, max(720, 16 * f.degree),
                       endpoint=False)


def _circle_peaks(f: HoloPoly, circle: Callable,
                  vals: np.ndarray) -> np.ndarray:
    """Refine the best of the samples vals = |f(circle(phi))|, all rows, at
    angles phi equispaced from 0 with spacing h = 2 pi / vals.shape[1], in
    two passes of three Newton steps on the degree-6 interpolant of seven
    values about v: the best sample and its three neighbours on each side,
    then true values at v + (h/16)(-3 .. 3).  Two circle calls, each asking
    every circle for its own angles only, give those and |f| at the final
    v.  Returns the largest value seen, or at once the sample maxima where
    one is not finite."""
    i, count = np.argmax(vals, axis=1), vals.shape[1]
    out = vals.max(axis=1)
    if not np.all(np.isfinite(out)):
        return out
    y = np.take_along_axis(vals, (i[:, None] + _NODES) % count, axis=1)
    s = 2.0 * math.pi / count
    v = i * s
    for nodes in (_NODES, np.zeros(1)):
        derivs = ((y / out[:, None]) @ _DERIVS).reshape(-1, 2, 6)
        # at u = 0 the slope and bend are the interpolant's first terms
        u, (g, k) = np.zeros(v.size), derivs[:, :, 0].T
        for j in range(3):
            if j:
                g, k = np.einsum("rdj,rj->dr", derivs,
                                 u[:, None] ** np.arange(6))
            # a step of 2 or more, or one up a convex stretch, ends at an edge
            step = np.divide(g, -k, out=2.0 * np.sign(g),
                             where=-k > 0.5 * abs(g))
            u = np.minimum(np.maximum(u + step, -1.0), 1.0)
        v, s = v + s * u, s / 16.0
        y = np.abs(f.eval(circle(v[:, None] + s * nodes)))
        out = np.fmax(out, np.fmax.reduce(y, axis=1))
    return out


def _aligned_max(f: HoloPoly, rho: np.ndarray) -> np.ndarray:
    """max over s >= 0, |s| = 1 of sum |c_a| rho^|a| s^a: max |f| on
    |z| = rho if f is phase-alignable, an upper bound otherwise.  That is
    the maximum of g = sum |c_a| z^a on the sphere, which sits on its
    positive orthant as |z^a| <= |z|^a.  On C^2 it is the peak of g on the
    real circle rho (cos, sin); on C^n, n >= 3, g is sampled on the
    orthant grid of 480 n points and its best four per sphere climb."""
    if f.n == 1:
        return np.abs(f._coefs) @ rho ** f._exponents
    g = HoloPoly(f.n, {a: abs(c) for a, c in f.coeffs.items()})
    if f.n > 2:
        return _climb(g, rho, _orthant_grid(f.n, 480 * f.n),
                      _ORTHANT_STARTS)[0]
    ray = lambda phi: np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return _circle_peaks(g, lambda phi: rho[:, None, None] * ray(phi),
                         _samples(g, ray(_angles(g)), rho))


def _max_moduli(model: RadialKahlerModel, f: HoloPoly, center: complex,
                rs: np.ndarray) -> np.ndarray:
    """max |f| over the geodesic balls of radii rs (positive) about center."""
    if f.n != model.n:
        raise DomainError("polynomial and model dimension differ")
    if center != 0 and f.n != 1:
        raise DomainError("off-center balls are supported for n=1 only")
    k, e = len(f.coeffs), f._exponents
    # centered balls read rho from the model's own map, which rho_of_r
    # would stop at an overflow: every overflow ends at the one check below
    with np.errstate(over="ignore", invalid="ignore"):
        if center == 0:
            rho = np.asarray(model.f_rho_of_r(rs), dtype=float)
        if center == 0 and k == 1:
            out = _monomial_max(f, rho)
        elif center == 0 and np.linalg.matrix_rank(e[1:] - e[0]) == k - 1:
            out = _aligned_max(f, rho)  # e_t - e_0 linearly independent
        elif f.n > 1:
            out = _sphere_max(f, rho)
        else:
            circle = (geodesic_circle(model, center, rs) if center != 0
                      else lambda phi: rho[:, None] * np.exp(1j * phi))
            out = _circle_peaks(f, circle, np.abs(f.eval(circle(_angles(f)))))
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise MaximizationError("maximum-modulus search failed")
    return out


def max_modulus(model: RadialKahlerModel, f: HoloPoly, center: complex,
                r: float) -> float:
    """max |f| over the geodesic ball of radius r about center.

    The one-radius case of growth_curve.  Centered at the origin (radius
    rho(r) of the model's map), single monomials use the closed form, and
    so do phase-alignable f on C (k terms whose exponent differences have
    rank k - 1); on C^n, n >= 2, these maximize sum |c_a| z^a on the
    sphere's positive orthant (the peak on a real circle on C^2, a grid of
    at most 480 n points and the best four climbed on C^n, n >= 3).
    Otherwise |f| is sampled on the geodesic sphere: on a circle (n = 1),
    as on C^2's real one, at max(720, 16 deg) angles, a peak placed on an
    interpolant of the best ones, then moved on an interpolant of seven
    true values at a sixteenth of their spacing; on the sphere of C^n
    (n >= 2) at 480 n fixed quasirandom directions, the best 8 n climbed
    by a Riemannian Newton ascent.
    """
    return float(growth_curve(model, f, center, [r]).values[0])


def growth_curve(model: RadialKahlerModel, f: HoloPoly, center: complex = 0,
                 radii: Sequence[float] = ()) -> GrowthCurve:
    """max |f| over the geodesic balls about center, at increasing radii.

    center (n = 1 only) defaults to the origin, as does None.

    All radii are evaluated together by the method of max_modulus, with
    rho read once from the model's map for every centered ball: the circle
    refinements (two circle-map calls a curve, each circle at its own
    angles) and sphere ascents of all radii run as one batch (spheres climb
    again from each other radius's best direction), and off-center balls
    take closed-form circles or share one exp-map integration.
    """
    rs = np.asarray(radii, dtype=float)
    if rs.ndim != 1 or rs.size == 0:
        raise DomainError("radii must be a nonempty 1-d list")
    if np.any(rs <= 0) or np.any(np.diff(rs) <= 0):
        raise DomainError("radii must be positive and strictly increasing")
    if rs[-1] >= model.r_max:
        raise DomainError(f"radii must lie below r_max = {model.r_max}")
    center = complex(center or 0)
    vals = _max_moduli(model, f, center, rs)
    drop = vals[1:] < vals[:-1] * (1.0 - 1e-9)
    if np.any(drop):
        raise MaximizationError(
            "growth curve decreased at r = "
            f"{rs[1:][drop][0]:g}; maximization did not converge")
    return GrowthCurve(model=model, radii=rs, values=vals)


# ---------------------------------------------------------------------------
# predicates

def three_circle_check(curve: GrowthCurve, h: Convexifier,
                       tol: float = 1e-6) -> ConvexityReport:
    """Divided-difference convexity of log M_f against h over the radii."""
    if curve.radii.size < 3:
        raise DomainError("need at least three radii")
    if np.any(curve.values <= 0):
        raise DomainError("nonpositive max modulus in the curve")
    hv = np.asarray(h(curve.radii), dtype=float)
    dh = np.diff(hv)
    if np.any(dh <= 0):
        raise DomainError("h is not increasing on the sample radii")
    logm = curve.log_values
    slopes = np.diff(logm) / dh
    defects = np.diff(slopes)
    thresholds = tol * (1.0 + np.abs(logm[1:-1]))
    j = int(np.argmin(defects))
    return ConvexityReport(
        "three-circle", float(np.min(defects + thresholds)),
        {"min_second_difference": float(defects[j]),
         "argmin_r": float(curve.radii[j + 1])},
        "violation", second_differences=defects)


def monotonicity_check(curve: GrowthCurve, h: Convexifier, d: float,
                       direction: str, tol: float = 1e-7) -> Check:
    """Is log M_f - d h nonincreasing / nondecreasing along the radii?"""
    if direction not in ("nonincreasing", "nondecreasing"):
        raise DomainError(f"unknown direction {direction!r}")
    if d < 0:
        raise DomainError("d must be nonnegative")
    if curve.radii.size < 2:
        raise DomainError("need at least two radii")
    if np.any(curve.values <= 0):
        raise DomainError("nonpositive max modulus in the curve")
    logm = curve.log_values
    hv = np.asarray(h(curve.radii), dtype=float)
    diffs = np.diff(logm - d * hv)
    slack = tol * (1.0 + np.maximum(np.abs(logm[1:]), np.abs(logm[:-1])))
    signed = diffs - slack if direction == "nonincreasing" else -diffs - slack
    k = int(np.argmax(signed))
    return Check(f"monotonicity {direction} d={d:g}", -float(signed[k]),
                 {"worst": float(signed[k]),
                  "argworst_r": float(curve.radii[k + 1]), "d": d},
                 "violation")


def order_at_infinity(curve: GrowthCurve) -> float:
    """Least-squares slope of log M against log r over the last decade.

    math.inf when the local slope still grows by more than 10% from the
    previous decade (exponential growth).
    """
    if math.isfinite(curve.model.r_max):
        raise DomainError("order at infinity needs a noncompact model")
    rs, logm = curve.radii, curve.log_values
    if not np.all(np.isfinite(logm)):
        raise DomainError("growth curve overflowed; probe smaller radii")
    r_top = rs[-1]
    if r_top < 100.0:
        raise DomainError("curve must reach radius 100")
    outer = rs >= r_top / 10.0
    if np.count_nonzero(outer) < 10:
        raise DomainError("need at least 10 samples in the outermost decade")
    x, y = np.log(rs), logm
    s_outer = float(np.polyfit(x[outer], y[outer], 1)[0])
    prev = (rs >= r_top / 100.0) & ~outer
    if np.count_nonzero(prev) >= 4:
        s_prev = float(np.polyfit(x[prev], y[prev], 1)[0])
    else:  # fall back to half-decades of the outer window
        lohalf = outer & (rs < r_top / math.sqrt(10.0))
        s_prev = float(np.polyfit(x[lohalf], y[lohalf], 1)[0])
        s_outer = float(np.polyfit(x[outer & ~lohalf], y[outer & ~lohalf],
                                   1)[0])
    if s_outer > 1.1 * abs(s_prev) + 1e-12:
        return math.inf
    return s_outer


def growth_order(model: RadialKahlerModel, f: HoloPoly) -> float:
    """The order d of f in O_d, deg f * model.rho_order: M_f(r) = max |f| on
    |z| = rho(r) grows like rho^deg f, and log rho / log r tends to
    rho_order.  Constants have order 0.  DomainError on a compact model
    and, asking for d, where rho_order is nan or inf."""
    if math.isfinite(model.r_max):
        raise DomainError("order at infinity needs a noncompact model")
    if f.degree == 0:
        return 0.0
    if not math.isfinite(model.rho_order):
        what = ("diverges" if math.isinf(model.rho_order)
                else f"is not resolved on the {model.profile.name} chart")
        raise DomainError(f"order at infinity {what}; pass d explicitly")
    return f.degree * model.rho_order


def necessity_deficit(model: RadialKahlerModel, r_grid) -> float:
    """Fit c2 in M_z(r)/(c r) = 1 + c2 r^2 + O(r^4) near the origin.

    For f = z the max modulus is rho(r) exactly, so the fit is noise-free;
    the curvature at the origin predicts c2 = H(0)/12, and c2 < 0 is the
    three-circle violation mechanism.
    """
    rs = np.asarray(r_grid, dtype=float)
    if rs.ndim != 1 or rs.size < 6:
        raise DomainError("need at least 6 radii")
    cap = 0.2 * min(1.0, model.r_max)
    if np.any(rs <= 0) or np.any(np.diff(rs) <= 0) or rs[-1] >= cap:
        raise DomainError(f"grid must increase inside (0, {cap:g})")
    y = np.asarray(rho_of_r(model, rs), dtype=float) / rs
    X = np.column_stack([np.ones_like(rs), rs ** 2, rs ** 4])
    cond = float(np.linalg.cond(X))
    if cond > 1e10:
        raise DomainError(
            f"grid too coarse for a stable fit (condition number {cond:.3g})")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(beta[1] / beta[0])


def necessity_check(model: RadialKahlerModel, grid, rtol: float = 0.05,
                    atol: float = 1e-3) -> Check:
    """The fitted deficit against H(0)/12, within max(rtol |H(0)/12|, atol)."""
    fitted = necessity_deficit(model, grid)
    expected = float(curvature_at_origin(model)) / 12.0
    err = abs(fitted - expected)
    return Check("necessity-deficit", max(rtol * abs(expected), atol) - err,
                 {"fitted": fitted, "expected": expected, "error": err})


def homogeneity_check(model: RadialKahlerModel, f: HoloPoly, K: float,
                      r: float, *, d: float | None = None) -> float:
    """sup |f(y) r(x)^d - f(x) r(y)^d| / (M_f(r) r^d) over sample rays.

    x runs over the shell B(0, Kr) minus B(0, r) along rays, y over the
    radial segment from the origin to x.  Decays as r grows when f is
    asymptotically homogeneous of order d (default growth_order(model, f)).
    Raises DomainError when the products overflow.
    """
    if math.isfinite(model.r_max):
        raise DomainError("homogeneity checks need a noncompact model")
    if K <= 1:
        raise DomainError("need K > 1")
    if r <= 0:
        raise DomainError("need r > 0")
    if d is None:
        d = growth_order(model, f)
    if d <= 0:
        raise DomainError("order at infinity must be positive")

    dirs = (np.exp(2j * math.pi * np.arange(_RAY_SAMPLES) / _RAY_SAMPLES)
            if f.n == 1 else _directions(f.n, _RAY_SAMPLES))
    # one row per shell radius of x: y runs along it, and x is its end
    r_y = np.multiply.outer(np.geomspace(r, K * r, 8),
                            np.linspace(0.0, 1.0, 10))
    with np.errstate(over="ignore", invalid="ignore"):
        fy = f.eval(np.multiply.outer(rho_of_r(model, r_y), dirs))
        ry = r_y[..., None] ** d
        sup = float(np.abs(fy * ry[:, -1:] - fy[:, -1:] * ry).max())
    if not math.isfinite(sup):
        raise DomainError(f"|f| r^d overflows on the shell at r = {r:g}; "
                          "the homogeneity defect is not finite")
    return sup / (max_modulus(model, f, 0, r) * r ** d)


# ---------------------------------------------------------------------------
# cone exponents

def cone_exponent(lam: float, m: int) -> float:
    """Nonnegative root alpha of lam = alpha (m + alpha - 2)."""
    if lam < 0:
        raise DomainError("eigenvalue must be nonnegative")
    if int(m) != m or m < 2:
        raise DomainError("cone dimension m must be an integer >= 2")
    return 0.5 * ((2.0 - m) + math.sqrt((m - 2.0) ** 2 + 4.0 * lam))


def separation_eigenvalue(alpha: float, m: int) -> float:
    """Inverse of cone_exponent: alpha (m + alpha - 2)."""
    if alpha < 0:
        raise DomainError("exponent must be nonnegative")
    if int(m) != m or m < 2:
        raise DomainError("cone dimension m must be an integer >= 2")
    return alpha * (m + alpha - 2.0)
