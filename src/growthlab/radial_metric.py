"""Rotationally invariant Kahler model metrics on C^n.

A model is specified by the conformal factor of the induced metric on a
complex line through the origin,

    g = lam(rho)^2 (drho^2 + rho^2 dtheta^2),      rho = |z|,

with lam even, positive, and lam(0) = 1 up to normalization of the user's
choosing.  Everything downstream works with two radial coordinates:

* rho, the chart radius, and
* r(rho) = integral_0^rho lam(t) dt, the geodesic distance from the origin.

Derived radial quantities:

* J(r) = lam(rho(r)) * rho(r), the Jacobi field along a radial geodesic
  (circumference of the geodesic circle of radius r is 2 pi J(r));
* u(r) = J'(r) / (2 J(r)), the model Hessian comparison quantity, equal to
  the complex Hessian r_{1 1bar} of the distance function in the direction
  tangent to the line (flat space: u = 1/(2r));
* H(r), the Gaussian curvature of the line metric,
  H = -lam^{-2} * Delta_0 log lam with Delta_0 the Euclidean Laplacian,
  which for radial functions reads phi'' + phi'/rho.

Built-in profiles

    flat            lam = 1                      H = 0
    cigar           lam = (1 + rho^2)^(-1/2)     H = 2 / cosh^2 r
    hyperbolic(k)   lam = 2/(sqrt(k)(1-rho^2))   H = -k, chart rho < 1
    sphere(k)       lam = 2/(sqrt(k)(1+rho^2))   H = +k, r < pi/sqrt(k)
    conformal_poly  lam = c0 + c1 rho^2 + ...    polynomial in rho^2

The first four have closed-form radial maps r(rho), rho(r), H(r), u(r) and
geodesic circles.  The others, and a user table's cubic spline, as
model_from_profile(load_profile_table(path), n), get them from one table
built with the model: r at graded rho knots by 10-point Gauss-Legendre
panels (exact for conformal_poly up to degree 9 in rho^2), rho(r) by a
Hermite guess and Newton steps, log lam derivatives from the profile's
jet, rho -> (lam, lam', lam''), or from Chebyshev panels of G(s) =
log lam(sqrt s), s = rho^2, where (log lam)'/rho = 2 G' and Delta_0 log
lam = 4 (G' + s G''), and circles from the exp map.

A finite chart's knots end on the ladder rho_max (1 - 2^-k): r_max is r at
the last knot kept when r's increment shrinks by 5% or more per halving,
else inf (complete).  lam ~ (rho_max - rho)^-a gives a ratio 2^(a - 1), so
an integrable blowup with a >~ 0.93 still reads as complete.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _numdiff, _shooting  # noqa: F401
from .errors import BudgetError, ConjugatePointError, DomainError, ShootingError

_SINH_TOP = math.asinh(np.finfo(float).max)  # 710.4758600739439: last finite sinh

__all__ = [
    "RadialProfile",
    "RadialKahlerModel",
    "builtin_model",
    "model_from_profile",
    "load_profile_table",
    "distance_from_origin",
    "rho_of_r",
    "radial_curvature",
    "curvature_at_origin",
    "model_hessian",
    "geodesic_distance",
    "pair_distances",
    "geodesic_circle",
]


def __getattr__(name: str):
    # scipy.integrate and scipy.optimize load on first use, as module
    # attributes that perfbench/tracing.py wraps; ROADMAP item 7 deletes
    # the names
    if name not in ("integrate", "optimize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[name] = importlib.import_module(f"scipy.{name}")
    return module


@dataclass(frozen=True)
class RadialProfile:
    """Conformal factor of the line metric, with optional analytic derivatives.

    lam must accept numpy arrays, and so must jet, rho -> (lam, lam',
    lam'').  Without a jet, model_from_profile differentiates log lam itself.
    """

    lam: Callable
    rho_max: float
    name: str
    jet: Callable | None = None


@dataclass(frozen=True)
class RadialKahlerModel:
    """A U(n)-invariant model metric, represented through its line profile."""

    n: int
    profile: RadialProfile
    kind: str
    r_max: float
    conjugate_radius: float
    # lim r / (rho lam) = lim d log rho / d log r as r -> inf: a polynomial
    # f has order deg f * rho_order; 0 on a bounded chart, nan with no limit
    rho_order: float
    # radial maps and circles on arrays, no domain checks: closed forms or
    # the table
    f_r_of_rho: Callable
    f_rho_of_r: Callable
    f_curvature: Callable                    # H(r)
    f_hessian: Callable                      # u(r)
    # (center, r) -> (phi -> z), phi shared or one row per circle
    f_circle: Callable
    params: tuple = ()
    f_pair_distance: Callable | None = None  # d(p, q), complex args

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"complex dimension must be >= 1, got {self.n}")


# ---------------------------------------------------------------------------
# profile / model constructors

def _per_circle(x, phi):
    """x, one entry per circle, against the angles phi (geodesic_circle)."""
    return x[..., None] if np.ndim(phi) else x


def _moebius_circle(f_rho_of_r: Callable, s: float) -> Callable:
    """Isometry T(w) = (w + p) / (1 + s conj(p) w) of w = rho(r) e^{i(phi +
    arg p)}; s = 0, 1, -1 on flat, hyperbolic, sphere.  T'(0) > 0 keeps phi."""
    def circle(p, r):
        rho = f_rho_of_r(np.asarray(r, dtype=float))

        def at(phi):
            w = _per_circle(rho, phi) * np.exp(1j * np.add(phi, np.angle(p)))
            return (w + p) / (1.0 + s * np.conj(p) * w)
        return at
    return circle


def _cigar_circle(p, r):
    """Closed-form exp-map circles of dr^2 + tanh^2 r dtheta^2 about p.

    With p rotated onto the positive axis, the geodesic launched at phi has
    Clairaut constant c = J(r_p) sin phi, k cosh r = cosh x and theta' =
    c coth^2 r, with k = sqrt(1 - c^2) and x = k (arc length from the
    pericenter), which starts at asinh(|p| cos phi)."""
    a, rs = abs(p), np.asarray(r, dtype=float)

    def at(phi):
        c = a * np.sin(phi) / math.sqrt(1.0 + a * a)
        k = np.sqrt((1.0 - c) * (1.0 + c))
        x0 = np.arcsinh(a * np.cos(phi))
        x = x0 + _per_circle(rs, phi) * k
        theta = (_per_circle(rs, phi) * c + np.arctan2(k * np.tanh(x), c)
                 - np.arctan2(k * np.tanh(x0), c))
        rho = np.sqrt(np.sinh(x) ** 2 + c * c) / k
        return rho * np.exp(1j * theta) * (p / a)
    return at


def _flat_model(n: int) -> RadialKahlerModel:
    prof = RadialProfile(
        lam=lambda rho: np.ones_like(np.asarray(rho, dtype=float)),
        rho_max=math.inf, name="flat")
    return RadialKahlerModel(
        n=n, profile=prof, kind="flat", r_max=math.inf,
        conjugate_radius=math.inf, rho_order=1.0,
        f_r_of_rho=lambda rho: rho,
        f_rho_of_r=lambda r: r,
        f_curvature=lambda r: 0.0 * r,
        f_hessian=lambda r: 0.5 / r,
        f_pair_distance=lambda p, q: np.abs(p - q),
        f_circle=_moebius_circle(lambda r: r, 0.0),
    )


def _cigar_model(n: int) -> RadialKahlerModel:
    def lam(rho):
        return (1.0 + rho ** 2) ** -0.5

    prof = RadialProfile(lam=lam, rho_max=math.inf, name="cigar")
    return RadialKahlerModel(
        n=n, profile=prof, kind="cigar", r_max=math.inf,
        conjugate_radius=math.inf, rho_order=math.inf,  # rho = sinh r
        f_r_of_rho=np.arcsinh,
        f_rho_of_r=np.sinh,
        # 2/cosh^2 r and 1/sinh 2r in q = e^{-2r}, finite at every r
        f_curvature=lambda r: (8.0 * np.exp(-2.0 * r)
                               / (1.0 + np.exp(-2.0 * r)) ** 2),
        f_hessian=lambda r: -2.0 * np.exp(-2.0 * r) / np.expm1(-4.0 * r),
        f_circle=_cigar_circle,
    )


def _space_form(n: int, kappa: float, s: float) -> RadialKahlerModel:
    """Hyperbolic disk (s = 1) or sphere (s = -1), H = -s kappa.  Distances
    use a = |p - q|, b = |1 - s conj(p) q|: 2 atan2(a, b) on the sphere, and
    2 artanh(a/b) = log1p(2a(a + b)/(b^2 - a^2)) on the disk, where
    b^2 - a^2 = (1 - |p|^2)(1 - |q|^2); both keep nearby pairs accurate."""
    kind = "hyperbolic" if s > 0 else "sphere"
    if not 0 < kappa < math.inf:
        raise DomainError(f"{kind} model needs a finite kappa > 0")
    sk = math.sqrt(kappa)
    tan, atan = (np.tanh, np.arctanh) if s > 0 else (np.tan, np.arctan)
    r_max = math.inf if s > 0 else math.pi / sk
    rho_of_r = lambda r: tan(sk * r / 2.0)

    def pair(p, q):
        a = np.abs(p - q)
        b = np.abs(1.0 - s * np.conj(p) * q)
        if s < 0:
            return 2.0 * np.arctan2(a, b) / sk
        den = (1.0 - np.abs(p) ** 2) * (1.0 - np.abs(q) ** 2)
        return np.log1p(2.0 * a * (a + b) / den) / sk

    prof = RadialProfile(lam=lambda rho: 2.0 / (sk * (1.0 - s * rho ** 2)),
                         rho_max=1.0 if s > 0 else math.inf,
                         name=f"{kind}(kappa={kappa:g})")
    return RadialKahlerModel(
        n=n, profile=prof, kind=kind, r_max=r_max, conjugate_radius=r_max,
        rho_order=0.0 if s > 0 else math.nan, params=(kappa,),
        f_r_of_rho=lambda rho: 2.0 * atan(rho) / sk,
        f_rho_of_r=rho_of_r,
        f_curvature=lambda r: -s * kappa + 0.0 * r,
        f_hessian=lambda r: sk / (2.0 * tan(sk * r)),
        f_pair_distance=pair,
        f_circle=_moebius_circle(rho_of_r, s),
    )


def _conformal_poly_model(n: int, coeffs: Sequence[float]) -> RadialKahlerModel:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("conformal_poly needs a 1-d coefficient list")
    if c[0] <= 0:
        raise DomainError("conformal_poly needs lam(0) = c0 > 0")
    # lam(rho) = P(s), s = rho^2; the chart ends at the first positive root of P
    p = np.polynomial.Polynomial(c)
    dp, d2p = p.deriv(), p.deriv(2)
    pos = [rt.real for rt in p.roots() if abs(rt.imag) < 1e-12 and rt.real > 0]
    rho_max = math.sqrt(min(pos)) if pos else math.inf

    def jet(rho):
        s = rho ** 2
        return p(s), 2.0 * rho * dp(s), 2.0 * dp(s) + 4.0 * s * d2p(s)

    prof = RadialProfile(lam=lambda rho: p(rho ** 2), rho_max=rho_max,
                         name=f"conformal_poly{tuple(c)}", jet=jet)
    return replace(model_from_profile(prof, n), kind="conformal_poly",
                   params=tuple(c))


def builtin_model(tag: str, n: int = 1, *, kappa: float = 1.0,
                  coeffs: Sequence[float] | None = None) -> RadialKahlerModel:
    """Construct one of the named model metrics on C^n."""
    if tag == "flat":
        return _flat_model(n)
    if tag == "cigar":
        return _cigar_model(n)
    if tag in ("hyperbolic", "sphere"):
        return _space_form(n, kappa, 1.0 if tag == "hyperbolic" else -1.0)
    if tag == "conformal_poly":
        if coeffs is None:
            raise DomainError("conformal_poly needs coeffs")
        return _conformal_poly_model(n, coeffs)
    raise DomainError(f"unknown model tag {tag!r}")


def load_profile_table(path: str) -> RadialProfile:
    """Profile from a two-column text table with header '# rho lambda'.

    Every row holds two finite numbers ('#' starts a comment); rho must
    start at 0 and be strictly increasing, and lambda must be positive.
    Interpolation is the cubic spline through the rows with zero slope at
    rho = 0 (even symmetry) and the not-a-knot condition at the last row,
    evaluated in numpy; its jet reads the spline and its derivatives in one
    knot search, and queries outside [0, rho_max] take the end values.
    """
    rows = []
    # undecodable bytes become U+FFFD, which fails as a number on its row
    with open(path, errors="replace") as fh:
        header = fh.readline().strip()
        cols = header.lstrip("#").split()
        if not header.startswith("#") or cols[:2] != ["rho", "lambda"]:
            raise DomainError(
                f"profile table {path!r} must start with '# rho lambda'")
        for line_no, line in enumerate(fh, 2):
            cells = line.split("#", 1)[0].split()
            if not cells:
                continue
            try:
                row = [float(cell) for cell in cells]
            except ValueError:
                row = []
            if len(row) != 2 or not all(map(math.isfinite, row)):
                raise DomainError(
                    f"profile table {path!r} line {line_no}: "
                    f"{line.strip()!r} is not two finite numbers")
            rows.append(row)
    if len(rows) < 4:
        raise DomainError("profile table needs at least 4 (rho, lambda) rows")
    # contiguous columns: searchsorted copies a strided array on every call
    rho, lam = np.ascontiguousarray(np.array(rows).T)
    if rho[0] != 0.0 or np.any(np.diff(rho) <= 0):
        raise DomainError("table rho column must be strictly increasing from 0")
    if np.any(lam <= 0):
        raise DomainError("table lambda column must be positive")
    coef = _even_spline(rho, lam)
    # (lam, lam', lam'') rows, zero-padded in front: 0 * t + c is exactly c
    pad = np.zeros_like(coef[:1])
    jet = np.stack([coef, np.vstack([pad, coef[:3] * [[3.0], [2.0], [1.0]]]),
                    np.vstack([pad, pad, coef[:2] * [[6.0], [2.0]]])], axis=1)
    return RadialProfile(lam=_horner(rho, coef), rho_max=float(rho[-1]),
                         name="table", jet=_horner(rho, jet))


def _even_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Panel coefficients, highest power of x - x_j first, shape (4, N - 1),
    of the cubic spline through (x, y) with zero slope at x_0 and not-a-knot
    at x_{N-1} (scipy's CubicSpline with bc_type ((1, 0.0), "not-a-knot")).

    The knot slopes s solve a tridiagonal system by one forward and one back
    sweep.  With panel widths dx and secants m, inner rows match second
    derivatives, dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1} =
    3 (dx_i m_{i-1} + dx_{i-1} m_i); the first row is s_0 = 0, and the last
    is not-a-knot with s_{N-3} eliminated by the row before it.
    """
    dx = np.diff(x)
    m = np.diff(y) / dx
    d = x[-1] - x[-3]
    sub = np.concatenate([[0.0], dx[1:], [d]]).tolist()
    diag = np.concatenate([[1.0], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]]).tolist()
    sup = np.concatenate([[0.0], dx[:-1]]).tolist()
    rhs = np.concatenate([
        [0.0], 3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:]),
        [(dx[-1] ** 2 * m[-2] + (2.0 * d + dx[-1]) * dx[-2] * m[-1]) / d],
    ]).tolist()
    for i in range(1, len(diag)):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = rhs    # back substitution turns rhs into the slopes
    s[-1] /= diag[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * m) / dx
    return np.array([t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]])


def _horner(x: np.ndarray, coef: np.ndarray) -> Callable:
    """q -> the piecewise polynomial with panel coefficients coef (highest
    power of q - x_j first, panels on the last axis) at q clipped into
    [x_0, x_{N-1}]; coef of shape (degree + 1, k, N - 1) gives k values."""
    inner, lo, hi, rows = x[1:-1], x[0], x[-1], tuple(coef)

    def at(q):
        q = np.minimum(np.maximum(q, lo), hi)
        j = np.searchsorted(inner, q, "right")
        t = q - x[j]
        p = rows[0].take(j, axis=-1)
        for row in rows[1:]:
            p = p * t + row.take(j, axis=-1)
        return p

    return at


# ---------------------------------------------------------------------------
# tabulated backend for profiles without closed forms

_PER_OCTAVE = 2    # knots per octave of rho
_DEEP = 20         # octaves of rho below 1 (below rho_max on a disk)
_EDGE = 48         # halvings of rho_max - rho toward a finite chart edge
_FAR = 256         # octaves of rho above 1 on an infinite chart
_CHEB = 24         # Chebyshev points per panel of G(s)
# the first G panel is [0, _G_FIRST min(1, s_max)]: narrower panels near
# s = 0 would lose G' to the rounding of lam
_G_FIRST = 2.0 ** -8
_NEWTON_CAP = 60   # Newton steps of rho(r) per call
_XG, _WG = np.polynomial.legendre.leggauss(10)


def _graded(rho_max: float) -> np.ndarray:
    """Knots on [0, rho_max): octaves of rho, then rho_max (1 - 2^-k)."""
    per = _PER_OCTAVE
    if math.isfinite(rho_max):
        down = 2.0 ** -(np.arange(_DEEP * per, per - 1, -1) / per)
        up = 1.0 - 2.0 ** -np.arange(2.0, _EDGE + 1)
        return rho_max * np.concatenate([[0.0], down, up])
    return np.concatenate(
        [[0.0], 2.0 ** (np.arange(-_DEEP * per, _FAR * per + 1) / per)])


def _gauss(lam: Callable, a, b):
    """int_a^b lam by the fixed Gauss-Legendre rule, elementwise."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _XG
    return half * (lam(x) @ _WG)


def _chart(lam: Callable, rho_max: float):
    """r(rho), its inverse, the knots kept, r_max and rho_order, from one
    table of r at the _graded knots.

    Panels are integrated by the Gauss-Legendre rule and a point adds its
    partial panel.  The table ends where lam or r stops being finite or r
    stops increasing; rho(r) beyond it raises DomainError.  A finite
    chart takes r_max from its last two panels (module docstring) and
    rho_order 0; an infinite one has r_max = inf and rho_order = r / (rho
    lam) at the last two knots when they agree to 1e-8, else nan.
    """
    knots = _graded(rho_max)
    with np.errstate(all="ignore"):
        lam_k = lam(knots)
        inc = _gauss(lam, knots[:-1], knots[1:])
        r_k = np.concatenate([[0.0], np.cumsum(inc)])
        ok = np.isfinite(r_k) & np.isfinite(lam_k) & (lam_k > 0)
        ok[1:] &= np.diff(r_k) > 0
        # one division at a time: rho lam overflows on growing profiles
        ratio = r_k / knots / lam_k
    n = ok.size if ok.all() else int(np.argmin(ok))
    if n < 3:
        raise DomainError("lam must be positive and finite near rho = 0")
    knots, r_k, lam_k = knots[:n], r_k[:n], lam_k[:n]
    if math.isfinite(rho_max):
        r_max = float(r_k[-1]) if inc[n - 2] <= 0.95 * inc[n - 3] else math.inf
        beta = 0.0
    else:
        lo, hi = ratio[n - 2:n].tolist()
        r_max, beta = math.inf, hi if abs(hi - lo) <= 1e-8 * hi else math.nan
    # searching the inner knots gives the panel index, clipped to [0, n - 2]
    inner_rho, inner_r = knots[1:-1], r_k[1:-1]

    def r_of_rho(rho):
        j = np.searchsorted(inner_rho, rho, "right")
        return r_k[j] + _gauss(lam, knots[j], rho)

    def rho_of_r(r):
        if np.any(r > r_k[-1]):
            raise DomainError(f"r = {np.max(r):g} lies beyond the tabulated "
                              f"chart, which ends at r = {r_k[-1]:g}")
        j = np.searchsorted(inner_r, r, "right")
        lo, hi, h = knots[j], knots[j + 1], r_k[j + 1] - r_k[j]
        t = (r - r_k[j]) / h
        # cubic Hermite in r with slopes drho/dr = 1/lam, clipped into the
        # panel, then Newton steps kept inside it (three suffice in practice)
        rho = ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * lo
               + t * t * (3.0 - 2.0 * t) * hi
               + h * t * (1.0 - t) * ((1.0 - t) / lam_k[j] - t / lam_k[j + 1]))
        rho, prev = np.minimum(np.maximum(rho, lo), hi), np.inf
        for _ in range(_NEWTON_CAP):
            step = (r_of_rho(rho) - r) / lam(rho)
            rho = np.minimum(np.maximum(rho - step, lo), hi)
            # converged, or stalled at the rounding of r (no longer halving)
            size = np.abs(step)
            if np.all(size <= np.where(size >= 0.5 * prev, 1e-12, 2e-15) * rho):
                return rho
            prev = size
        _require(size <= 1e-12 * rho, r, "rho(r) needs more than "
                 f"{_NEWTON_CAP} Newton steps at some r", BudgetError)
        return rho

    return r_of_rho, rho_of_r, knots, r_max, beta


def _g_panels(lam: Callable, knots: np.ndarray) -> Callable:
    """rho -> ((log lam)'/rho, Delta_0 log lam) = (2 G', 4 (G' + s G'')).

    G(s) = log lam(sqrt s), s = rho^2, is interpolated between the squared
    knots the chart kept (from _G_FIRST up; no panel lies past the end of
    its table) at Chebyshev points of the first kind, relative to
    each panel's first sample so that rounding in a large log lam stays out
    of G' and G''.
    """
    edges = knots ** 2
    edges = np.append(0.0, edges[edges >= _G_FIRST * min(1.0, edges[-1])])
    inner = edges[1:-1]
    a, b = edges[:-1, None], edges[1:, None]
    x = np.polynomial.chebyshev.chebpts1(_CHEB)
    with np.errstate(all="ignore"):
        lam_s = lam(np.sqrt(0.5 * (a + b) + 0.5 * (b - a) * x))
        g = np.log(lam_s / lam_s[:, :1])
    # c_k = (2 - [k = 0]) / N sum_j g_j T_k(x_j) at first-kind points, on
    # the panels where lam is finite; the rest stay NaN
    fit = np.isfinite(g).all(axis=1)
    coef = np.full((len(g), _CHEB), np.nan)
    coef[fit] = (g[fit] @ np.polynomial.chebyshev.chebvander(x, _CHEB - 1)
                 * (2.0 / _CHEB))
    coef[:, 0] *= 0.5
    scale = 2.0 / (b - a)
    d1 = np.polynomial.chebyshev.chebder(coef, 1, axis=1) * scale
    d2 = np.polynomial.chebyshev.chebder(coef, 2, axis=1) * scale ** 2
    k = np.arange(_CHEB - 1)

    def derivs(rho):
        s = rho * rho
        j = np.searchsorted(inner, s, "right")
        t = (2.0 * s - edges[j] - edges[j + 1]) / (edges[j + 1] - edges[j])
        t = np.minimum(np.maximum(t, -1.0), 1.0)
        cheb_t = np.cos(np.arccos(t)[..., None] * k)
        g1 = (d1[j] * cheb_t).sum(-1)
        return 2.0 * g1, 4.0 * (g1 + s * (d2[j] * cheb_t[..., :-1]).sum(-1))

    return derivs


def model_from_profile(profile: RadialProfile, n: int = 1) -> RadialKahlerModel:
    """Wrap a bare profile in the tabulated backend (module docstring).

    derivs(rho) = (lam, (log lam)'/rho, Delta_0 log lam), from one call of
    the profile's jet when it has one ((log lam)'/rho -> lam''(0)/lam(0)
    at 0), else from lam and the G panels.  H = -Delta_0 log lam / lam^2
    and u = (1 + rho^2 (log lam)'/rho) / (2 lam rho) at rho = rho(r), and
    circles integrate the exp map with the same (log lam)'/rho.
    """
    lam, jet = profile.lam, profile.jet
    r_of_rho, rho_of_r, knots, r_max, beta = _chart(lam, profile.rho_max)
    if jet is None:
        panels = _g_panels(lam, knots)
        derivs = lambda rho: (lam(rho),) + panels(rho)
    else:
        def derivs(rho):
            (lv, d1, d2), pos = jet(rho), rho > 0
            l1, l2 = d1 / lv, d2 / lv
            over = np.where(pos, l1 / np.where(pos, rho, 1.0), l2)
            return lv, over, l2 - l1 ** 2 + over

    def curvature(r):
        lv, _, lap = derivs(rho_of_r(r))
        return -lap / lv ** 2

    def hessian(r):
        rho = rho_of_r(r)
        lv, over, _ = derivs(rho)
        return (1.0 + rho * rho * over) / (2.0 * lv * rho)

    def circle(center, rs):
        # _shooting's binding is read per call: a wrapper put there sees it
        return _shooting.circle_interpolator(
            lam, lambda rho: derivs(rho)[1], center, rs)

    return RadialKahlerModel(
        n=n, profile=profile, kind="custom", r_max=r_max,
        conjugate_radius=math.inf, rho_order=beta, f_r_of_rho=r_of_rho,
        f_rho_of_r=rho_of_r, f_curvature=curvature, f_hessian=hessian,
        f_circle=circle)


# ---------------------------------------------------------------------------
# radial maps

def _shaped(out, like):
    return float(out) if np.ndim(like) == 0 else np.asarray(out, dtype=float)


def _require(ok, x, what: str, error=DomainError) -> None:
    """Raise error naming the first entry of x where ok fails."""
    if not np.all(ok):
        bad = float(np.asarray(x)[~np.asarray(ok)].flat[0])
        raise error(f"{what}, got {bad}")


def distance_from_origin(model: RadialKahlerModel, rho) -> float:
    """Geodesic radius r(rho): closed form, or table plus a partial panel."""
    rho_arr = np.asarray(rho, dtype=float)
    _require((rho_arr >= 0) & (rho_arr < model.profile.rho_max), rho_arr,
             f"rho must lie in [0, {model.profile.rho_max})")
    return _shaped(model.f_r_of_rho(rho_arr), rho)


def rho_of_r(model: RadialKahlerModel, r):
    """Invert r(rho): closed form, or table Hermite guess and Newton steps;
    DomainError where rho overflows (only the cigar's sinh r can)."""
    r_arr = np.asarray(r, dtype=float)
    _require((r_arr >= 0) & (r_arr < model.r_max), r_arr,
             f"r must lie in [0, {model.r_max})")
    with np.errstate(over="ignore"):
        rho = model.f_rho_of_r(r_arr)
    if not np.isfinite(rho).all():
        _require(np.isfinite(rho), r_arr,
                 f"rho = sinh r overflows past r = {_SINH_TOP!r}")
    return _shaped(rho, r)


def radial_curvature(model: RadialKahlerModel, r):
    """Gaussian curvature H of the line metric at geodesic radius r > 0."""
    r_arr = np.asarray(r, dtype=float)
    _require((r_arr > 0) & (r_arr < model.r_max), r_arr,
             f"radial_curvature needs 0 < r < r_max = {model.r_max}")
    return _shaped(model.f_curvature(r_arr), r)


def curvature_at_origin(model: RadialKahlerModel) -> float:
    """H(0) = -2 (log lam)''(0) / lam(0)^2, the r -> 0 limit of H."""
    return float(model.f_curvature(np.asarray(0.0)))


def model_hessian(model: RadialKahlerModel, r):
    """u(r) = J'(r)/(2 J(r)) with J = lam(rho) rho.

    In chart terms J'(r) = 1 + rho (log lam)'(rho), so
    u = (1 + rho (log lam)'(rho)) / (2 lam rho).
    Raises ConjugatePointError at or beyond the first zero of J.
    """
    r_arr = np.asarray(r, dtype=float)
    _require(r_arr > 0, r_arr, "model_hessian needs r > 0")
    _require(r_arr < model.conjugate_radius, r_arr,
             f"J(r) vanishes at r = {model.conjugate_radius:g}; model_hessian "
             "needs r below it", ConjugatePointError)
    _require(r_arr < model.r_max, r_arr,
             f"model_hessian needs r < r_max = {model.r_max}")
    return _shaped(model.f_hessian(r_arr), r)


# ---------------------------------------------------------------------------
# geodesic distance

def pair_distances(model: RadialKahlerModel, ps, qs,
                   method: str = "auto") -> np.ndarray:
    """Geodesic distances for batches of chart points (complex arrays).

    Points are coordinates on a complex line through the origin; for n >= 2
    both endpoints of each pair must lie on a common line.  method is one of
    "auto" (closed form when the model has one, else Clairaut quadrature),
    "closed", or "shoot" (Clairaut quadrature for any profile).  Pairs on
    one ray or through the origin take |r_p - r_q|; the others are posed
    as (rho_lo, rho_hi, |dtheta|), so d(p, q) = d(q, p) exactly, and arcs
    are searched out to geodesic radius max(r_p, r_q) + 1; on a chart of
    finite radius, pairs with no arc there are searched again out to
    r_max - 1e-6.  Where the chart edge closes to a point at r_max (the
    sphere's far pole), antipodal pairs also take the path through it,
    2 r_max - r_p - r_q.
    """
    p = np.atleast_1d(np.asarray(ps, dtype=complex))
    q = np.atleast_1d(np.asarray(qs, dtype=complex))
    if p.shape != q.shape:
        raise DomainError("ps and qs must have matching shapes")
    for z in (p, q):
        if np.any(np.abs(z) >= model.profile.rho_max):
            raise DomainError("point outside the chart")
    if method not in ("auto", "closed", "shoot"):
        raise DomainError(f"unknown method {method!r}")
    if method == "closed" and model.f_pair_distance is None:
        raise DomainError(f"model {model.kind!r} has no closed-form distance")
    if method in ("auto", "closed") and model.f_pair_distance is not None:
        return np.asarray(model.f_pair_distance(p, q), dtype=float)

    a, b = p.ravel(), q.ravel()
    r_a = np.asarray(distance_from_origin(model, np.abs(a)), dtype=float)
    r_b = np.asarray(distance_from_origin(model, np.abs(b)), dtype=float)
    dth = np.angle(b) - np.angle(a)
    dth = np.abs(dth - 2.0 * math.pi * np.round(dth / (2.0 * math.pi)))
    out = np.abs(r_a - r_b)
    swept = np.nonzero((a != 0) & (b != 0) & (dth > 1e-12))[0]
    edge = model.r_max - 1e-6

    def connect(idx, r_cap):
        rho_cap = np.asarray(rho_of_r(model, r_cap), dtype=float)
        return _shooting.connect_lengths(
            model.profile.lam, np.abs(a[idx]), np.abs(b[idx]), dth[idx],
            r_a[idx], r_b[idx], rho_cap)

    if swept.size:
        out[swept] = connect(swept, np.minimum(
            np.maximum(r_a, r_b)[swept] + 1.0, edge))
        # apocenters past the first window (sphere pairs near dtheta = pi)
        miss = swept[np.isinf(out[swept])]
        if miss.size and math.isfinite(edge):
            out[miss] = connect(miss, np.full(miss.size, edge))
        if np.any(np.isinf(out)):
            j = int(np.argmax(np.isinf(out)))
            raise ShootingError(
                f"no connecting geodesic for pair rho_p={abs(a[j]):g}, "
                f"rho_q={abs(b[j]):g}, dtheta={dth[j]:g}")
    if math.isfinite(model.r_max) and model.conjugate_radius == model.r_max:
        # the chart edge closes to a point: at dtheta = pi the broken radial
        # path through it competes with the one through the origin
        pole = dth >= math.pi - 1e-9
        out[pole] = np.minimum(out[pole],
                               2.0 * model.r_max - r_a[pole] - r_b[pole])
    return out.reshape(p.shape)


def geodesic_distance(model: RadialKahlerModel, p, q,
                      method: str = "auto") -> float:
    """Distance between two chart points on a complex line through 0."""
    return float(pair_distances(model, [complex(p)], [complex(q)], method)[0])


def geodesic_circle(model: RadialKahlerModel, center, r) -> Callable:
    """Return phi -> z(phi), the geodesic circle of radius r about center.

    The parametrization is by launch angle of the exponential map at the
    center (phi = 0 points away from the origin).  r may also be a 1-d
    array of radii, one circle each: angles phi of shape (m,) are shared
    (z has shape r.shape + (m,), or r.shape for a scalar phi), and phi of
    shape r.shape + (m,) gives circle k the angles phi[k].  Circles
    about the origin are exact; the others are the
    model's f_circle: exact on the built-in closed-form models, and on the
    tabulated backend 1024 launch angles integrated through every radius
    at once and interpolated trigonometrically.
    """
    center = complex(center)
    rs = np.asarray(r, dtype=float)
    if np.any(rs <= 0):
        raise DomainError("geodesic_circle needs r > 0")
    if abs(center) >= model.profile.rho_max:
        raise DomainError("point outside the chart")
    if center == 0:
        rr = np.asarray(rho_of_r(model, rs), dtype=float)
        return lambda phi: _per_circle(rr, phi) * np.exp(1j * np.asarray(phi))
    if distance_from_origin(model, abs(center)) + np.max(rs) >= model.r_max:
        raise DomainError("geodesic circle leaves the chart")
    return model.f_circle(center, rs)
