"""Max-modulus growth of holomorphic polynomials on radial model metrics.

Core predicate battery:

  * three_circle_check      log M_f convex against a convexifier h
  * monotonicity_check      M_f / e^{d h} one-sided monotone
  * order_at_infinity       limsup log M / log r
  * necessity_deficit       the r^2 coefficient of M_z(r)/(c r), which the
                            curvature at the origin predicts as H(0)/12
  * homogeneity_check       |f(y) r(x)^d - f(x) r(y)^d| smallness at scale
  * cone_exponent           alpha <-> alpha (m + alpha - 2) on metric cones

Maximal moduli over geodesic balls reduce to geodesic spheres (|f| is
plurisubharmonic, so the maximum sits on the boundary).  A growth curve
evaluates all of its radii in one pass, and max_modulus is its
one-radius case:

  * monomials centered at the origin have a closed form;
  * n = 1: |f| is sampled on each circle and the best samples refined
    together by parabolic interpolation.  Off-center circles (n = 1 only)
    are closed forms or, without one, one exp-map integration through
    every radius;
  * n >= 2: |f| is sampled at fixed Halton directions on each sphere, and
    the best 32 per sphere climb together, over all radii at once, by a
    saddle-free Riemannian Newton ascent of |f|^2 to rounding level.  A
    curve then climbs once more on every sphere from the direction of
    each sphere's best point.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .comparison_ode import Convexifier
from .errors import DomainError, MaximizationError
from .radial_metric import RadialKahlerModel, geodesic_circle, rho_of_r

__all__ = [
    "HoloPoly",
    "GrowthCurve",
    "ConvexityReport",
    "MonotonicityReport",
    "max_modulus",
    "growth_curve",
    "three_circle_check",
    "monotonicity_check",
    "order_at_infinity",
    "probe_order",
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
    Ball centers and vanishing points are arguments (default 0), not fields.
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

    def vanishing_order(self, at: complex = 0) -> int:
        """Lowest degree of the Taylor expansion about at (default 0);
        n >= 2 only about the origin."""
        if self.n == 1:
            vec = self._coef_vec()
            if at != 0:
                vec = np.polynomial.polynomial.Polynomial(vec)(
                    np.polynomial.polynomial.Polynomial([at, 1.0])).coef
            scale = float(np.max(np.abs(vec)))
            nz = np.nonzero(np.abs(vec) > _COEF_TOL * scale)[0]
            return int(nz[0])
        if at != 0:
            raise DomainError("vanishing orders off the origin need n = 1")
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


@dataclass(frozen=True)
class ConvexityReport:
    h_values: np.ndarray
    second_differences: np.ndarray  # slope(r2,r3) - slope(r1,r2) per triple
    min_second_difference: float
    argmin_r: float
    verdict: str  # "pass" | "violation"
    tol: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class MonotonicityReport:
    h_values: np.ndarray
    worst: float        # most violating signed slack; <= 0 means pass
    argworst_r: float
    verdict: str
    tol: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


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


def _primes(k: int) -> list:
    """The first k primes."""
    out: list = []
    p = 2
    while len(out) < k:
        if all(p % q for q in out if q * q <= p):
            out.append(p)
        p += 1
    return out


def _halton(d: int, count: int) -> np.ndarray:
    """Points 1..count of the unscrambled Halton sequence in [0, 1)^d.

    Each column is the radical inverse of the index in one of the first d
    primes, summed digit by digit from the lowest as scipy's
    ``qmc.Halton(d, scramble=False)`` does, so the points are the same
    bits as that sampler's after ``fast_forward(1)``.
    """
    out = np.zeros((count, d))
    for j, base in enumerate(_primes(d)):
        q = np.arange(1, count + 1)
        scale = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * scale
            scale /= base
            q //= base
    return out


@functools.cache
def _directions(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere of C^n."""
    inv_cdf = statistics.NormalDist().inv_cdf
    x = np.array([[inv_cdf(t) for t in row]
                  for row in _halton(2 * n, count).tolist()])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x[:, 0::2] + 1j * x[:, 1::2]


_STARTS = 32         # best sampled directions polished per sphere
_NEWTON_STEPS = 100  # Newton iterations per member, at most
_HALVINGS = 50       # step halvings per Newton iteration, at most
_RAY_SAMPLES = 24    # sample rays of homogeneity_check
_PARABOLA_STEPS = 40  # refinement steps per circle, at most
_GAIN_TOL = 1e-14     # relative gain below which a parabola is converged
_PROBE = 1e-9         # shortest refinement step, rad


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


def _sphere_ascent(f: HoloPoly, z: np.ndarray, scale: np.ndarray) -> tuple:
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
    scale = np.where(scale > 0.0, scale, 1.0)
    rho = np.linalg.norm(z, axis=1)
    x = np.concatenate([z.real, z.imag], axis=1)
    val = np.abs(f.eval(z) / scale) ** 2
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


def _sphere_max(f: HoloPoly, rho: np.ndarray, count: int,
                refine: bool) -> np.ndarray:
    """max |f| on the spheres |z| = rho of C^n, n >= 2, one per entry."""
    zeta = _directions(f.n, count)
    # f(rho zeta) = sum_t c_t rho^|e_t| zeta^e_t: one monomial table serves
    # every radius
    e, c = f._exponents, f._coefs
    vals = np.abs(f._monomials(zeta, e)
                  @ (c[:, None] * rho ** e.sum(axis=1)[:, None])).T
    best = vals.max(axis=1)
    if not refine:
        return best
    top = np.argsort(vals, axis=1)[:, -_STARTS:]
    peaks, peak_vals = _sphere_ascent(
        f, (rho[:, None, None] * zeta[top]).reshape(-1, f.n),
        np.take_along_axis(vals, top, axis=1).ravel())
    peak_vals = peak_vals.reshape(top.shape)
    best = np.maximum(best, peak_vals.max(axis=1))
    if rho.size > 1:
        # a maximum missed on one sphere is often found on another: climb
        # again on every sphere from the direction of each sphere's best
        won = peaks.reshape(top.shape + (f.n,))[
            np.arange(rho.size), peak_vals.argmax(axis=1)]
        dirs = won / rho[:, None]
        starts = (rho[:, None, None] * dirs).reshape(-1, f.n)
        peak_vals = _sphere_ascent(f, starts, np.abs(f.eval(starts)))[1]
        best = np.maximum(best, peak_vals.reshape(rho.size, -1).max(axis=1))
    return best


def _circle_peaks(f: HoloPoly, circle: Callable, phis: np.ndarray,
                  vals: np.ndarray) -> np.ndarray:
    """Refine the best of the samples vals = |f(circle(phis))|, all rows,
    by successive parabolic interpolation on true circle values from the
    bracket of the best sample and its neighbours.  A circle stops after
    two parabolas in a row that gain at most _GAIN_TOL of its best value,
    once its bracket is at most 4 _PROBE wide, or after _PARABOLA_STEPS
    steps, and keeps the best value seen."""
    m, count = vals.shape
    i, nbr = np.argmax(vals, axis=1), np.array([-1, 0, 1])[:, None]
    x, y = phis[i] + phis[1] * nbr, vals[np.arange(m), (i + nbr) % count]
    quiet, live = np.zeros(m), np.nonzero(np.isfinite(y[1]))[0]
    for _ in range(_PARABOLA_STEPS):
        (a, b, c), (fa, fb, fc) = x[:, live], y[:, live]
        lft, rgt, da, dc = b - a, c - b, fb - fa, fb - fc
        # the parabola peaks at b + s, num s / (lft rgt (lft + rgt)) above
        # fb; s = 0 where the three values are level
        num, den = 0.5 * (rgt * rgt * da - lft * lft * dc), lft * dc + rgt * da
        s = np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)
        v = b + np.where(abs(s) >= _PROBE, s, np.copysign(_PROBE, rgt - lft))
        cols = np.arange(live.size)
        fv = np.abs(f.eval(circle(v)[live, cols]))
        left = v < b
        pts = np.where(left, (a, v, b, c), (a, b, v, c))
        fpts = np.where(left, (fa, fv, fb, fc), (fa, fb, fv, fc))
        k = 1 + (left != (fv >= fb)) + nbr
        x[:, live], y[:, live] = pts[k, cols], fpts[k, cols]
        gained = num * s > _GAIN_TOL * fb * lft * rgt * (lft + rgt)
        quiet[live] = np.where(gained, 0, quiet[live] + 1)
        live = live[(quiet[live] < 2) & (np.ptp(x[:, live], 0) > 4 * _PROBE)]
        if live.size == 0:
            break
    return y[1]


def _max_moduli(model: RadialKahlerModel, f: HoloPoly, center: complex,
                rs: np.ndarray, refine: bool) -> np.ndarray:
    """max |f| over the geodesic balls of radii rs (positive) about center."""
    if f.n != model.n:
        raise DomainError("polynomial and model dimension differ")
    if center != 0 and f.n != 1:
        raise DomainError("off-center balls are supported for n=1 only")
    if center == 0 and (len(f.coeffs) == 1 or f.n > 1):
        rho = np.asarray(rho_of_r(model, rs), dtype=float)
        return (_monomial_max(f, rho) if len(f.coeffs) == 1
                else _sphere_max(f, rho, 480 * f.n, refine))
    circle = geodesic_circle(model, center, rs)
    count = max(720, 16 * max(f.degree, 1))
    phis = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    vals = np.abs(f.eval(circle(phis)))
    out = _circle_peaks(f, circle, phis, vals) if refine else vals.max(axis=1)
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise MaximizationError("maximum-modulus search failed")
    return out


def max_modulus(model: RadialKahlerModel, f: HoloPoly, center: complex = 0,
                r: float = None) -> float:
    """max |f| over the geodesic ball of radius r about center (default 0).

    The one-radius case of growth_curve.  Single monomials centered at
    the origin use the closed form.  Otherwise |f| is sampled on the
    geodesic sphere: on a circle (n = 1) at max(720, 16 deg) launch
    angles, the best one refined by parabolic interpolation to rounding
    level; on the sphere of C^n (n >= 2) at 480 n fixed Halton
    directions, the best 32 climbed by a Riemannian Newton ascent.
    """
    if r is None:
        raise DomainError("max_modulus needs a radius")
    return float(growth_curve(model, f, center, [r]).values[0])


def growth_curve(model: RadialKahlerModel, f: HoloPoly, center: complex = 0,
                 radii: Sequence[float] = (), *,
                 refine: bool = True) -> GrowthCurve:
    """max |f| over the geodesic balls about center, at increasing radii.

    center (n = 1 only) defaults to the origin, as does None.

    All radii are evaluated together by the method of max_modulus: the
    circle refinements and sphere ascents of all radii run as one batch
    (spheres climb again from each other radius's best direction), and
    off-center balls take closed-form circles or share one exp-map
    integration.
    refine=False returns the best samples: with a fixed direction set the
    bias is nearly scale-independent, good enough for slope fits.
    """
    rs = np.asarray(radii, dtype=float)
    if rs.ndim != 1 or rs.size == 0:
        raise DomainError("radii must be a nonempty 1-d list")
    if np.any(rs <= 0) or np.any(np.diff(rs) <= 0):
        raise DomainError("radii must be positive and strictly increasing")
    center = complex(center or 0)
    vals = _max_moduli(model, f, center, rs, refine)
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
    verdict = "pass" if np.all(defects >= -thresholds) else "violation"
    j = int(np.argmin(defects))
    return ConvexityReport(h_values=hv, second_differences=defects,
                           min_second_difference=float(defects[j]),
                           argmin_r=float(curve.radii[j + 1]),
                           verdict=verdict, tol=tol)


def monotonicity_check(curve: GrowthCurve, h: Convexifier, d: float,
                       direction: str, tol: float = 1e-7
                       ) -> MonotonicityReport:
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
    verdict = "pass" if signed[k] <= 0 else "violation"
    return MonotonicityReport(h_values=hv, worst=float(signed[k]),
                              argworst_r=float(curve.radii[k + 1]),
                              verdict=verdict, tol=tol)


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


def probe_order(model: RadialKahlerModel, f: HoloPoly,
                top: float = 200.0) -> float:
    """order_at_infinity on 24 radii in (100, 1e4), far enough out that
    lower-order terms stop biasing it, or, where M overflows there (or
    top >= 1e4), in (top/100, top), where exponential growth reads as
    infinite sooner."""
    for hi in (1e4, top) if top < 1e4 else (top,):
        try:
            with np.errstate(all="ignore"):
                curve = growth_curve(model, f, 0, np.geomspace(
                    hi / 100.0, hi, 24), refine=False)
            if np.all(np.isfinite(curve.log_values)):
                return order_at_infinity(curve)
        except MaximizationError:
            pass
    raise MaximizationError(
        "max modulus overflows in every order probe; pass d explicitly")


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


def homogeneity_check(model: RadialKahlerModel, f: HoloPoly, K: float,
                      r: float, *, d: float | None = None) -> float:
    """sup |f(y) r(x)^d - f(x) r(y)^d| / (M_f(r) r^d) over sample rays.

    x runs over the shell B(0, Kr) minus B(0, r) along rays, y over the
    radial segment from the origin to x.  Decays as r grows when f is
    asymptotically homogeneous of order d.  Raises DomainError when the
    products overflow.
    """
    if math.isfinite(model.r_max):
        raise DomainError("homogeneity checks need a noncompact model")
    if K <= 1:
        raise DomainError("need K > 1")
    if r <= 0:
        raise DomainError("need r > 0")
    if d is None:
        d = probe_order(model, f, max(200.0, 1.2 * K * r))
    if math.isinf(d):
        raise DomainError("order at infinity is infinite; f is not in O_d")
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
