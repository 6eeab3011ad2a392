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
    custom          cubic spline through a user table (rho, lam)

Closed forms (distances, curvature, Hessian, pairwise distance) are wired
in where they exist; the generic numeric routes remain available for any
profile and are what custom tables use.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize

from . import _numdiff, _shooting
from .errors import ConjugatePointError, DomainError

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

_ORIGIN_RHO = 1e-6  # below this, radial formulas switch to their even-limit form


@dataclass(frozen=True)
class RadialProfile:
    """Conformal factor of the line metric, with optional analytic derivatives.

    lam must accept numpy arrays.  When d_lam / d2_lam are omitted the
    profile differentiates itself by Richardson-extrapolated central
    differences on the even extension lam(|rho|).
    """

    lam: Callable
    rho_max: float
    name: str
    d_lam: Callable | None = None
    d2_lam: Callable | None = None
    # (log lam)'(rho) / rho with its even limit at rho = 0; supplied in closed
    # form for built-ins because the Cartesian geodesic equation needs it to
    # stay regular through the origin.
    log_d1_over_rho: Callable | None = None

    def lam_at(self, rho):
        return self.lam(np.abs(rho))

    def d1_at(self, rho):
        if self.d_lam is not None:
            return np.sign(rho) * self.d_lam(np.abs(rho)) if np.ndim(rho) else (
                math.copysign(1.0, rho) * float(self.d_lam(abs(rho))))
        rho_arr = np.asarray(rho, dtype=float)
        out = np.empty_like(rho_arr)
        flat = rho_arr.ravel()
        res = out.ravel()
        for i, x in enumerate(flat):
            res[i] = _numdiff.first_derivative(lambda t: float(self.lam(abs(t))), x)
        return out if np.ndim(rho) else float(out)

    def d2_at(self, rho):
        if self.d2_lam is not None:
            return self.d2_lam(np.abs(rho))
        rho_arr = np.asarray(rho, dtype=float)
        out = np.empty_like(rho_arr)
        flat = rho_arr.ravel()
        res = out.ravel()
        for i, x in enumerate(flat):
            res[i] = _numdiff.second_derivative(lambda t: float(self.lam(abs(t))), x)
        return out if np.ndim(rho) else float(out)

    def log_deriv_over_rho(self, rho):
        """(log lam)'(rho)/rho, finite at the origin for even profiles."""
        if self.log_d1_over_rho is not None:
            return self.log_d1_over_rho(np.abs(rho))
        rho_arr = np.abs(np.asarray(rho, dtype=float))
        lam = self.lam(rho_arr)
        small = rho_arr < 1e-4
        safe = np.where(small, 1.0, rho_arr)
        out = self.d1_at(safe) / (self.lam(safe) * safe)
        if np.any(small):
            lam0 = float(self.lam(np.asarray(0.0)))
            limit = float(self.d2_at(0.0)) / lam0
            out = np.where(small, limit, out)
        return out if np.ndim(rho) else float(out)


@dataclass(frozen=True)
class RadialKahlerModel:
    """A U(n)-invariant model metric, represented through its line profile."""

    n: int
    profile: RadialProfile
    kind: str
    r_max: float
    conjugate_radius: float
    params: tuple = ()
    # closed-form shortcuts; None means "use the generic numeric route"
    f_r_of_rho: Callable | None = None
    f_rho_of_r: Callable | None = None
    f_curvature: Callable | None = None      # H(r)
    f_hessian: Callable | None = None        # u(r)
    f_pair_distance: Callable | None = None  # d(p, q), complex args

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"complex dimension must be >= 1, got {self.n}")


# ---------------------------------------------------------------------------
# profile / model constructors

def _flat_model(n: int) -> RadialKahlerModel:
    prof = RadialProfile(
        lam=lambda rho: np.ones_like(np.asarray(rho, dtype=float)),
        rho_max=math.inf, name="flat",
        d_lam=lambda rho: np.zeros_like(np.asarray(rho, dtype=float)),
        d2_lam=lambda rho: np.zeros_like(np.asarray(rho, dtype=float)),
        log_d1_over_rho=lambda rho: np.zeros_like(np.asarray(rho, dtype=float)),
    )
    return RadialKahlerModel(
        n=n, profile=prof, kind="flat", r_max=math.inf,
        conjugate_radius=math.inf,
        f_r_of_rho=lambda rho: rho,
        f_rho_of_r=lambda r: r,
        f_curvature=lambda r: 0.0 * r,
        f_hessian=lambda r: 0.5 / r,
        f_pair_distance=lambda p, q: np.abs(p - q),
    )


def _cigar_model(n: int) -> RadialKahlerModel:
    def lam(rho):
        return (1.0 + rho ** 2) ** -0.5

    prof = RadialProfile(
        lam=lam, rho_max=math.inf, name="cigar",
        d_lam=lambda rho: -rho * (1.0 + rho ** 2) ** -1.5,
        d2_lam=lambda rho: (2.0 * rho ** 2 - 1.0) * (1.0 + rho ** 2) ** -2.5,
        log_d1_over_rho=lambda rho: -1.0 / (1.0 + rho ** 2),
    )
    return RadialKahlerModel(
        n=n, profile=prof, kind="cigar", r_max=math.inf,
        conjugate_radius=math.inf,
        f_r_of_rho=np.arcsinh,
        f_rho_of_r=np.sinh,
        f_curvature=lambda r: 2.0 / np.cosh(r) ** 2,
        f_hessian=lambda r: 1.0 / np.sinh(2.0 * r),
    )


def _hyperbolic_model(n: int, kappa: float) -> RadialKahlerModel:
    if kappa <= 0:
        raise DomainError("hyperbolic model needs kappa > 0")
    sk = math.sqrt(kappa)

    def lam(rho):
        return 2.0 / (sk * (1.0 - rho ** 2))

    def pair(p, q):
        p = np.asarray(p, dtype=complex)
        q = np.asarray(q, dtype=complex)
        num = 2.0 * np.abs(p - q) ** 2
        den = (1.0 - np.abs(p) ** 2) * (1.0 - np.abs(q) ** 2)
        return np.arccosh(1.0 + num / den) / sk

    prof = RadialProfile(
        lam=lam, rho_max=1.0, name=f"hyperbolic(kappa={kappa:g})",
        d_lam=lambda rho: 4.0 * rho / (sk * (1.0 - rho ** 2) ** 2),
        d2_lam=lambda rho: 4.0 * (1.0 + 3.0 * rho ** 2) / (sk * (1.0 - rho ** 2) ** 3),
        log_d1_over_rho=lambda rho: 2.0 / (1.0 - rho ** 2),
    )
    return RadialKahlerModel(
        n=n, profile=prof, kind="hyperbolic", r_max=math.inf,
        conjugate_radius=math.inf, params=(kappa,),
        f_r_of_rho=lambda rho: 2.0 * np.arctanh(rho) / sk,
        f_rho_of_r=lambda r: np.tanh(sk * r / 2.0),
        f_curvature=lambda r: -kappa + 0.0 * r,
        f_hessian=lambda r: sk / (2.0 * np.tanh(sk * r)),
        f_pair_distance=pair,
    )


def _sphere_model(n: int, kappa: float) -> RadialKahlerModel:
    if kappa <= 0:
        raise DomainError("sphere model needs kappa > 0")
    sk = math.sqrt(kappa)

    def lam(rho):
        return 2.0 / (sk * (1.0 + rho ** 2))

    def _lift(z):
        z = np.asarray(z, dtype=complex)
        s = np.abs(z) ** 2
        d = 1.0 + s
        return np.stack([2.0 * z.real / d, 2.0 * z.imag / d, (1.0 - s) / d])

    def pair(p, q):
        a, b = _lift(p), _lift(q)
        dot = np.sum(a * b, axis=0)
        cross = np.linalg.norm(np.cross(a, b, axis=0), axis=0)
        return np.arctan2(cross, dot) / sk

    prof = RadialProfile(
        lam=lam, rho_max=math.inf, name=f"sphere(kappa={kappa:g})",
        d_lam=lambda rho: -4.0 * rho / (sk * (1.0 + rho ** 2) ** 2),
        d2_lam=lambda rho: 4.0 * (3.0 * rho ** 2 - 1.0) / (sk * (1.0 + rho ** 2) ** 3),
        log_d1_over_rho=lambda rho: -2.0 / (1.0 + rho ** 2),
    )
    return RadialKahlerModel(
        n=n, profile=prof, kind="sphere", r_max=math.pi / sk,
        conjugate_radius=math.pi / sk, params=(kappa,),
        f_r_of_rho=lambda rho: 2.0 * np.arctan(rho) / sk,
        f_rho_of_r=lambda r: np.tan(sk * r / 2.0),
        f_curvature=lambda r: kappa + 0.0 * r,
        f_hessian=lambda r: sk / (2.0 * np.tan(sk * r)),
        f_pair_distance=pair,
    )


def _conformal_poly_model(n: int, coeffs: Sequence[float]) -> RadialKahlerModel:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("conformal_poly needs a 1-d coefficient list")
    if c[0] <= 0:
        raise DomainError("conformal_poly needs lam(0) = c0 > 0")
    # lam(rho) = P(s), s = rho^2; the chart ends at the first positive root of P
    p = np.polynomial.Polynomial(c)
    dp = p.deriv()
    d2p = p.deriv(2)
    rho_max = math.inf
    roots = p.roots()
    real_pos = [rt.real for rt in roots if abs(rt.imag) < 1e-12 and rt.real > 0]
    if real_pos:
        rho_max = math.sqrt(min(real_pos))

    def lam(rho):
        return p(rho ** 2)

    # exact antiderivative: integral of sum c_i rho^{2i} is sum c_i rho^{2i+1}/(2i+1)
    def r_of_rho(rho):
        rho = np.asarray(rho, dtype=float)
        s = rho ** 2
        acc = np.zeros_like(s)
        for i in range(c.size - 1, -1, -1):
            acc = acc * s + c[i] / (2 * i + 1)
        return acc * rho if rho.ndim else float(acc * rho)

    prof = RadialProfile(
        lam=lam, rho_max=rho_max, name=f"conformal_poly{tuple(c)}",
        d_lam=lambda rho: 2.0 * rho * dp(rho ** 2),
        d2_lam=lambda rho: 2.0 * dp(rho ** 2) + 4.0 * rho ** 2 * d2p(rho ** 2),
        log_d1_over_rho=lambda rho: 2.0 * dp(rho ** 2) / p(rho ** 2),
    )
    r_max = r_of_rho(rho_max - 1e-12) if math.isfinite(rho_max) else math.inf
    return RadialKahlerModel(
        n=n, profile=prof, kind="conformal_poly", r_max=r_max,
        conjugate_radius=math.inf, params=tuple(c),
        f_r_of_rho=r_of_rho,
    )


def builtin_model(tag: str, n: int = 1, *, kappa: float = 1.0,
                  coeffs: Sequence[float] | None = None,
                  table: str | None = None) -> RadialKahlerModel:
    """Construct one of the named model metrics on C^n."""
    if tag == "flat":
        return _flat_model(n)
    if tag == "cigar":
        return _cigar_model(n)
    if tag == "hyperbolic":
        return _hyperbolic_model(n, kappa)
    if tag == "sphere":
        return _sphere_model(n, kappa)
    if tag == "conformal_poly":
        if coeffs is None:
            raise DomainError("conformal_poly needs coeffs")
        return _conformal_poly_model(n, coeffs)
    if tag == "custom":
        if table is None:
            raise DomainError("custom model needs a table path")
        return model_from_profile(load_profile_table(table), n=n)
    raise DomainError(f"unknown model tag {tag!r}")


def model_from_profile(profile: RadialProfile, n: int = 1) -> RadialKahlerModel:
    """Wrap a bare profile; all radial quantities go through numeric routes.

    When the chart is a finite disk the total radius is probed near the
    edge: if the increments keep growing the metric is complete and
    r_max = inf (lam must stay bounded at the edge for a finite answer).
    """
    r_max = math.inf
    if math.isfinite(profile.rho_max):
        rho_m = profile.rho_max
        cuts = [rho_m * (1.0 - 10.0 ** (-k)) for k in (4, 6, 8, 10)]
        total = _quad_distance(profile, cuts[0])
        incs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            for a, b in zip(cuts, cuts[1:]):
                val, _ = integrate.quad(
                    lambda t: float(profile.lam_at(t)), a, b,
                    epsabs=1e-12, epsrel=1e-11, limit=200)
                incs.append(val)
                total += val
        # bounded lam: increments fall two decades per probe; any kind of
        # edge blowup keeps them flat or growing
        if incs[-1] < 0.05 * incs[-2] and incs[-1] < 1e-3 * (1.0 + total):
            r_max = total
    return RadialKahlerModel(
        n=n, profile=profile, kind="custom", r_max=r_max,
        conjugate_radius=math.inf,
    )


def load_profile_table(path: str) -> RadialProfile:
    """Profile from a two-column text table with header '# rho lambda'.

    rho must start at 0 and be strictly increasing; lambda must be positive.
    Interpolation is a cubic spline with even symmetry at rho = 0.
    """
    from scipy.interpolate import CubicSpline

    with open(path) as fh:
        header = fh.readline().strip()
    cols = header.lstrip("#").split()
    if not header.startswith("#") or cols[:2] != ["rho", "lambda"]:
        raise DomainError(f"profile table {path!r} must start with '# rho lambda'")
    data = np.loadtxt(path, comments="#")
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise DomainError("profile table needs at least 4 (rho, lambda) rows")
    rho, lam = data[:, 0], data[:, 1]
    if rho[0] != 0.0 or np.any(np.diff(rho) <= 0):
        raise DomainError("table rho column must be strictly increasing from 0")
    if np.any(lam <= 0):
        raise DomainError("table lambda column must be positive")
    spline = CubicSpline(rho, lam, bc_type=((1, 0.0), "not-a-knot"))
    return RadialProfile(
        lam=lambda x: spline(np.clip(x, 0.0, rho[-1])),
        rho_max=float(rho[-1]), name="table",
    )


# ---------------------------------------------------------------------------
# radial coordinates

def _quad_distance(profile: RadialProfile, rho: float) -> float:
    val, err = integrate.quad(lambda t: float(profile.lam(np.asarray(t))),
                              0.0, rho, epsabs=1e-10, epsrel=1e-11, limit=200)
    return val


def distance_from_origin(model: RadialKahlerModel, rho) -> float:
    """Geodesic radius r(rho); adaptive quadrature when no closed form."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0) or np.any(rho_arr >= model.profile.rho_max):
        raise DomainError(
            f"rho must lie in [0, {model.profile.rho_max}), got {rho}")
    if model.f_r_of_rho is not None:
        out = model.f_r_of_rho(rho_arr)
        return float(out) if np.ndim(rho) == 0 else np.asarray(out, dtype=float)
    if np.ndim(rho) == 0:
        return _quad_distance(model.profile, float(rho_arr))
    return np.array([_quad_distance(model.profile, x) for x in rho_arr])


def rho_of_r(model: RadialKahlerModel, r):
    """Invert r(rho) to chart radius; bracketing plus Newton polish."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0) or np.any(r_arr >= model.r_max):
        raise DomainError(f"r must lie in [0, {model.r_max}), got {r}")
    if model.f_rho_of_r is not None:
        out = model.f_rho_of_r(r_arr)
        return float(out) if np.ndim(r) == 0 else np.asarray(out, dtype=float)

    def invert_one(rv: float) -> float:
        if rv == 0.0:
            return 0.0
        hi = 0.5 * model.profile.rho_max if math.isfinite(
            model.profile.rho_max) else 1.0
        while _quad_distance(model.profile, hi) < rv:
            nxt = (hi + model.profile.rho_max) / 2 if math.isfinite(
                model.profile.rho_max) else hi * 2.0
            if nxt == hi:
                raise DomainError(f"radius r={rv} not reachable in the chart")
            hi = nxt
        root = optimize.brentq(
            lambda x: _quad_distance(model.profile, x) - rv, 0.0, hi,
            xtol=1e-13, rtol=8.9e-16)
        # Newton polish: dr/drho = lam
        for _ in range(2):
            root -= (_quad_distance(model.profile, root) - rv) / float(
                model.profile.lam_at(root))
        return root

    if np.ndim(r) == 0:
        return invert_one(float(r_arr))
    return np.array([invert_one(x) for x in r_arr])


# ---------------------------------------------------------------------------
# curvature

def _curvature_from_profile(profile: RadialProfile, rho):
    """H = -(1/lam^2) ((log lam)'' + (log lam)'/rho) from profile derivatives."""
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    lam = np.asarray(profile.lam(rho_arr), dtype=float)
    if profile.d_lam is not None and profile.d2_lam is not None:
        d1 = np.asarray(profile.d_lam(rho_arr), dtype=float)
        d2 = np.asarray(profile.d2_lam(rho_arr), dtype=float)
        l1 = d1 / lam                       # (log lam)'
        l2 = d2 / lam - l1 ** 2             # (log lam)''
        small = rho_arr < _ORIGIN_RHO
        ratio = np.where(small, l2, l1 / np.where(small, 1.0, rho_arr))
        lap = l2 + ratio
        out = -lap / lam ** 2
    else:
        out = np.array([_numeric_curvature(profile, x) for x in rho_arr])
    return out[0] if np.ndim(rho) == 0 else out


def _numeric_curvature(profile: RadialProfile, rho: float) -> float:
    """Differentiate log lam in s = rho^2; regular at the origin.

    Delta_0 log lam = 4 G'(s) + 4 s G''(s) with G(s) = log lam(sqrt(s)).
    Away from the origin the stencil runs in eta = log s, where the
    identity collapses to 4 G_eta_eta / s; near a finite chart edge it
    runs in zeta = log(rho_max^2 - s) instead.  Either way the step
    stays a fixed multiplicative distance from the profile's singular
    points, so complete metrics (lam blowing up at the edge) still give
    six to eight correct digits.  Near s = 0 a one-sided cubic fit in s
    replaces the centered stencils (the profile only exists for
    rho >= 0).
    """
    def G(s: float) -> float:
        return math.log(float(profile.lam_at(math.sqrt(max(s, 0.0)))))

    s = rho * rho
    s_edge = (profile.rho_max ** 2 if math.isfinite(profile.rho_max)
              else math.inf)
    delta = 2e-2  # log-coordinate step
    if s < 1e-3:
        hs = 4e-4  # s-step of the origin fit, rho-step 0.02
        g0 = G(0.0)
        a = np.array([G(k * hs) - g0 for k in (1, 2, 3)])
        vand = np.array([[(k * hs) ** j for j in (1, 2, 3)] for k in (1, 2, 3)])
        g123 = np.linalg.solve(vand, a)
        gp = g123[0] + 2.0 * g123[1] * s + 3.0 * g123[2] * s * s
        gpp = 2.0 * g123[1] + 6.0 * g123[2] * s
        lap = 4.0 * gp + 4.0 * s * gpp
    elif s > 0.6 * s_edge:
        q = s_edge - s

        def Gz(z: float) -> float:
            return G(s_edge - math.exp(z))

        z0 = math.log(q)
        d1 = _numdiff.first_derivative(Gz, z0, h=delta)
        d2 = _numdiff.second_derivative(Gz, z0, h=delta)
        gp = -d1 / q
        gpp = (d2 - d1) / q ** 2
        lap = 4.0 * gp + 4.0 * s * gpp
    else:
        def Ge(e: float) -> float:
            return G(math.exp(e))

        d2 = _numdiff.second_derivative(Ge, math.log(s), h=delta)
        lap = 4.0 * d2 / s
    lam = float(profile.lam_at(rho))
    return -lap / lam ** 2


def radial_curvature(model: RadialKahlerModel, r):
    """Gaussian curvature H of the line metric at geodesic radius r > 0."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0) or np.any(r_arr >= model.r_max):
        raise DomainError(f"radial_curvature needs 0 < r < r_max, got {r}")
    if model.f_curvature is not None:
        out = model.f_curvature(r_arr)
        return float(out) if np.ndim(r) == 0 else np.asarray(out, dtype=float)
    return _curvature_from_profile(model.profile, rho_of_r(model, r_arr))


def curvature_at_origin(model: RadialKahlerModel) -> float:
    """H(0) = -2 (log lam)''(0) / lam(0)^2, the r -> 0 limit of H."""
    if model.f_curvature is not None:
        return float(model.f_curvature(np.asarray(1e-9)))
    prof = model.profile
    lam0 = float(prof.lam(np.asarray(0.0)))
    if prof.d2_lam is not None:
        return -2.0 * float(prof.d2_lam(np.asarray(0.0))) / lam0 ** 3
    return _numeric_curvature(prof, 0.0)


# ---------------------------------------------------------------------------
# model Hessian

def model_hessian(model: RadialKahlerModel, r):
    """u(r) = J'(r)/(2 J(r)) with J = lam(rho) rho.

    In chart terms J'(r) = 1 + rho (log lam)'(rho), so
    u = (1 + rho (log lam)'(rho)) / (2 lam rho).
    Raises ConjugatePointError at or beyond the first zero of J.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise DomainError(f"model_hessian needs r > 0, got {r}")
    if np.any(r_arr >= model.conjugate_radius):
        raise ConjugatePointError(
            f"J(r) vanishes at r = {model.conjugate_radius:g}; "
            f"requested r = {r}")
    if np.any(r_arr >= model.r_max):
        raise DomainError(f"model_hessian needs r < r_max = {model.r_max}")
    if model.f_hessian is not None:
        out = model.f_hessian(r_arr)
        return float(out) if np.ndim(r) == 0 else np.asarray(out, dtype=float)
    rho = np.asarray(rho_of_r(model, r_arr), dtype=float)
    prof = model.profile
    lam = np.asarray(prof.lam(rho), dtype=float)
    jprime = 1.0 + rho ** 2 * np.asarray(prof.log_deriv_over_rho(rho), dtype=float)
    out = jprime / (2.0 * lam * rho)
    return float(out) if np.ndim(r) == 0 else out


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
    are searched out to geodesic radius max(r_p, r_q) + 1.
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
    if swept.size:
        r_cap = np.minimum(np.maximum(r_a, r_b)[swept] + 1.0,
                           model.r_max - 1e-6 if math.isfinite(model.r_max)
                           else math.inf)
        out[swept] = _shooting.connect_lengths(
            model.profile, np.abs(a[swept]), np.abs(b[swept]), dth[swept],
            r_a[swept], r_b[swept],
            np.asarray(rho_of_r(model, r_cap), dtype=float))
    return out.reshape(p.shape)


def geodesic_distance(model: RadialKahlerModel, p, q,
                      method: str = "auto") -> float:
    """Distance between two chart points on a complex line through 0."""
    return float(pair_distances(model, [complex(p)], [complex(q)], method)[0])


def geodesic_circle(model: RadialKahlerModel, center, r: float,
                    n_base: int = 1024) -> Callable:
    """Return phi -> z(phi), the geodesic circle of radius r about center.

    The parametrization is by launch angle of the exponential map at the
    center (phi = 0 points away from the origin).  Exact for flat models
    and for circles centered at the origin; otherwise one batched
    integration of the Cartesian geodesic equation plus periodic cubic
    spline interpolation.
    """
    center = complex(center)
    if r <= 0:
        raise DomainError("geodesic_circle needs r > 0")
    if model.kind == "flat":
        return lambda phi: center + r * np.exp(1j * np.asarray(phi))
    if center == 0:
        rr = float(rho_of_r(model, r))
        return lambda phi: rr * np.exp(1j * np.asarray(phi))
    if math.isfinite(model.r_max):
        base = distance_from_origin(model, abs(center))
        if base + r >= model.r_max:
            raise DomainError("geodesic circle leaves the chart")
    return _shooting.circle_interpolator(model.profile, center, r, n_base)
