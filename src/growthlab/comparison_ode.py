"""Riccati supersolutions and convexifiers for radial comparison geometry.

The comparison system on a rotationally invariant model is

    u' + 2 u^2 + g/2 >= 0,        2 u(r) r -> 1   (r -> 0+),
    (1/2) h'' + h' u  = 0,        e^{h(r)} / r -> 1,

where g is a lower bound for the radial holomorphic sectional curvature.
Equality solutions u are the model complex Hessians; h is the increasing
reparametrization in which log-max-modulus becomes convex.

Closed-form catalog (tag -> (u, h)), held as data in _CATALOG together
with each u's bound g, derivatives and domain:

    nonneg                u = 1/(2r)              h = log r
    lower_bound_minus_one u = coth(r)/2           h = log(2 tanh(r/2))
    lower_bound_plus_one  u = cot(r)/2            h = log(2 tan(r/2))
    cigar                 u = 1/sinh(2r)          h = log(sinh r)
    power_decay(A, eps)   u = 1/(2r) + A/(1+r)^(1+eps)
                          h' = exp(2A/(eps (1+r)^eps) - 2A/eps) / r

The power_decay row is built from (A, eps) by _power_decay_row.

Both solves run on one engine, without an ODE stepper: Chebyshev panels
in t = log r that split where the solution needs it (_log_r_panels).
solve_riccati_equality solves the Jacobi equation J'' = -g J, with
u = J'/(2J), by collocation; g must accept arrays and is evaluated on
all of (0, r_end], also past a blow-down.  solve_convexifier builds h
from two cumulative spectral integrals, dV/dt = r u - 1/2 and
dQ/dt = expm1(-2V).  The power-decay h uses the same Q integral with
its exact V = -phi/2.

Sign conventions here follow the supersolution inequality above: for a
power-decay bound g = -A/(1+r)^(2+eps) the residual of the catalog u is
nonnegative (for eps < 1/2), and that is the direction verified.
"""
from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _numdiff
from .errors import BlowDownError, BudgetError, DomainError

_R0_CHECK = 1e-4    # normalization probe radius
# budget per solve, in panel nodes summed over the rounds: points of g
# for the Riccati solve, points of u for the h quadrature
_MAX_RHS = 50_000

__all__ = [
    "CurvatureLowerBound",
    "Supersolution",
    "Convexifier",
    "ResidualReport",
    "curvature_bound",
    "make_supersolution",
    "closed_form_supersolution",
    "closed_form_convexifier",
    "solve_riccati_equality",
    "verify_supersolution",
    "solve_convexifier",
    "growth_exponent",
]


def __getattr__(name: str):
    # scipy.integrate loads on first use, as a module attribute that
    # perfbench/tracing.py wraps; ROADMAP item 7 deletes the name
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[name] = importlib.import_module(f"scipy.{name}")
    return module


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class CurvatureLowerBound:
    """Radial lower curvature bound g(r), tagged by family."""
    g: Callable
    tag: str
    params: tuple = ()

    def __call__(self, r):
        return self.g(r)


@dataclass(frozen=True)
class Supersolution:
    """u(r) with u' + 2u^2 + g/2 >= 0 and 2 u(r) r -> 1.

    origin_normalized records that the r -> 0 normalization holds in the
    limit; origin_residual is the finite-r probe |2 u(r0) r0 - 1| at
    r0 = 1e-4 (nonzero at order A r0 for the power-decay family).
    """
    u: Callable
    origin_normalized: bool
    u_prime: Callable | None = None
    bound: CurvatureLowerBound | None = None
    r_max: float = math.inf
    blow_down: float | None = None
    origin_residual: float = 0.0
    tag: str = "custom"
    params: tuple = ()

    def __call__(self, r):
        return self.u(r)


@dataclass(frozen=True)
class Convexifier:
    """Increasing reparametrization h with (1/2) h'' + h' u = 0."""
    h: Callable
    h_prime: Callable
    h_second: Callable | None = None
    normalization_residual: float = 0.0
    stated_offset: float = 0.0
    domain: tuple = (0.0, math.inf)
    tag: str = "custom"
    params: tuple = ()

    def __call__(self, r):
        return self.h(r)


@dataclass(frozen=True)
class ResidualReport:
    min_residual: float
    argmin_r: float
    passed: bool
    tol: float
    residuals: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# curvature bounds

def curvature_bound(tag: str, **params) -> CurvatureLowerBound:
    """Build a tagged lower bound for the radial curvature.

    tags: constant(c) | power_decay(A, eps) | inverse_square(C, r0)
          | cigar | custom(g).  g takes 1-d arrays of radii:
    solve_riccati_equality evaluates it on whole arrays of panel nodes
    over all of (0, r_end], also past a blow-down.
    """
    if tag == "constant":
        c = float(params.pop("c"))
        _no_extras(params)
        return CurvatureLowerBound(
            g=lambda r: np.full_like(np.asarray(r, dtype=float), c),
            tag=tag, params=(("c", c),))
    if tag == "power_decay":
        A, eps = _power_decay_params(params)
        return CurvatureLowerBound(
            g=lambda r: -A / (1.0 + np.asarray(r, dtype=float)) ** (2 + eps),
            tag=tag, params=(("A", A), ("eps", eps)))
    if tag == "inverse_square":
        C = float(params.pop("C"))
        r0 = float(params.pop("r0"))
        _no_extras(params)
        if not 0 < C < 0.25:
            raise DomainError("inverse_square needs 0 < C < 1/4")
        if r0 <= 0:
            raise DomainError("inverse_square needs r0 > 0")
        return CurvatureLowerBound(
            g=lambda r: C / np.asarray(r, dtype=float) ** 2,
            tag=tag, params=(("C", C), ("r0", r0)))
    if tag == "cigar":
        _no_extras(params)
        return CurvatureLowerBound(
            g=lambda r: 2.0 / np.cosh(np.asarray(r, dtype=float)) ** 2,
            tag=tag)
    if tag == "custom":
        g = params.pop("g")
        _no_extras(params)
        return CurvatureLowerBound(g=g, tag=tag)
    raise DomainError(f"unknown curvature bound tag {tag!r}")


def _no_extras(params: dict) -> None:
    if params:
        raise DomainError(f"unexpected parameters {sorted(params)}")


def _power_decay_params(params: dict) -> tuple:
    A = float(params.pop("A"))
    eps = float(params.pop("eps"))
    _no_extras(params)
    if A <= 0 or eps <= 0:
        raise DomainError("power_decay needs A > 0 and eps > 0")
    return A, eps


# ---------------------------------------------------------------------------
# supersolutions

def make_supersolution(u: Callable, u_prime: Callable | None = None,
                       g: CurvatureLowerBound | None = None,
                       r_max: float = math.inf,
                       origin_normalized: bool | None = None,
                       tag: str = "custom", params: tuple = ()) -> Supersolution:
    """Wrap a user-supplied u.

    u must accept 1-d arrays of radii: solve_convexifier evaluates it on
    whole arrays of quadrature nodes.
    origin_normalized=None probes |2 u(r0) r0 - 1| at r0 = 1e-4; pass the
    flag explicitly for families whose limit normalization holds but whose
    finite-r deviation is first order in r (power-decay supersolutions).
    """
    res = abs(2.0 * float(u(_R0_CHECK)) * _R0_CHECK - 1.0)
    if origin_normalized is None:
        origin_normalized = res <= 1e-3
    return Supersolution(u=u, origin_normalized=origin_normalized,
                         u_prime=u_prime, bound=g, r_max=r_max,
                         origin_residual=res, tag=tag, params=params)


def solve_riccati_equality(g: CurvatureLowerBound,
                           r_end: float = 50.0) -> Supersolution:
    """Solve u' + 2u^2 + g/2 = 0 with 2 u(r) r -> 1 as a Jacobi field.

    u = J'/(2J) turns it into J'' = -g J, J(0) = 0, J'(0) = 1, and a
    blow-down of u into the first zero of J (pi/sqrt(c) under g = c).
    J and P = J' are chained across the panels of _jacobi_transitions
    from (J, P) = (r_s, 1) at r_s = 2^-27; below r_s, u = 1/(2r) to double
    precision.  u' = P'/(2J) - 2u^2 takes P' from the panel interpolant
    of P, so verify_supersolution measures the collocation defect.  Past
    r_max = blow_down/(1 + 1e-4), where 2 u r ~ -1e4, u raises
    BlowDownError.  Each panel round evaluates g once, on a 1-d array of
    nodes; more than _MAX_RHS points of g raise BudgetError.
    """
    if isinstance(g, CurvatureLowerBound) and g.tag == "inverse_square":
        raise DomainError(
            "inverse_square bounds are non-integrable at r = 0; "
            "use verify_supersolution on r >= r0")
    a, b, r, trans = _log_r_panels(_jacobi_transitions(g), r_end,
                                   "Riccati solve", "g")
    # chain the transitions; renormalized start states keep growing fields
    # finite and change neither u = P/(2J) nor the signs of J
    starts = np.empty((r.shape[0], 2))
    state = np.array([_R_LO, 1.0])
    for k, end in enumerate(trans[:, -1]):
        starts[k] = state = state / np.hypot(*state)
        state = end @ state + [0.0, state[1]]
    j, dev = np.einsum("nicb,nb->cni", trans, starts)
    # dP/dt from the deviation, whose derivative carries no rounding of P_a
    j_of, p_of, dp_of = (_interpolant(a, b, y, r_end) for y in (
        j, starts[:, 1:] + dev, (dev @ _DIFF.T) / (0.5 * (b - a))[:, None]))
    blow_down, r_max = None, r_end
    hit = np.flatnonzero(j <= 0.0)
    if hit.size:
        # a simple zero, never at a panel start: secant between its nodes,
        # then Newton steps with J' = P
        i, rs, js = hit[0], r.ravel(), j.ravel()
        x = rs[i - 1] + (rs[i] - rs[i - 1]) * js[i - 1] / (js[i - 1] - js[i])
        for _ in range(3):
            x -= float(j_of(x) / p_of(x))
        blow_down, r_max = float(x), float(x) / (1.0 + 1e-4)

    def j_and_p(r):
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0):
            raise DomainError("u is defined for r > 0")
        if np.any(r_arr > r_max):
            if blow_down is not None:
                raise BlowDownError(f"u blows down near r = {blow_down:.6g}")
            raise DomainError(f"u was solved on (0, {r_max:g}]")
        return r_arr, j_of(r_arr), p_of(r_arr)

    def u(r):
        r_arr, j, p = j_and_p(r)
        return np.where(r_arr < _R_LO, 0.5 / r_arr, p / (2.0 * j))[()]

    def u_prime(r):
        r_arr, j, p = j_and_p(r)
        return np.where(r_arr < _R_LO, -0.5 / r_arr ** 2,
                        dp_of(r_arr) / (2.0 * r_arr * j)
                        - 2.0 * (p / (2.0 * j)) ** 2)[()]

    return Supersolution(u=u, origin_normalized=True, u_prime=u_prime,
                         bound=g if isinstance(g, CurvatureLowerBound) else None,
                         r_max=r_max, blow_down=blow_down,
                         origin_residual=abs(2 * u(_R0_CHECK) * _R0_CHECK - 1),
                         tag=f"riccati[{getattr(g, 'tag', 'custom')}]")


def verify_supersolution(u: Supersolution, g: CurvatureLowerBound,
                         grid: Sequence[float],
                         tol: float = 1e-8) -> ResidualReport:
    """Check u' + 2u^2 + g/2 >= -tol over the grid."""
    rs = np.asarray(grid, dtype=float)
    if rs.ndim != 1 or rs.size < 2:
        raise DomainError("grid must be a 1-d list of radii")
    if np.any(rs <= 0) or np.any(np.diff(rs) <= 0):
        raise DomainError("grid must be positive and strictly increasing")
    if getattr(g, "tag", None) == "inverse_square":
        r0 = dict(g.params)["r0"]
        if rs[0] < r0:
            raise DomainError(
                f"inverse_square bound applies for r >= {r0:g}")
    if u.u_prime is not None:
        du = np.asarray(u.u_prime(rs), dtype=float)
    else:
        du = np.array([_numdiff.first_derivative(lambda t: float(u(t)), x)
                       for x in rs.tolist()])
    res = (du + 2.0 * np.asarray(u(rs), dtype=float) ** 2
           + 0.5 * np.asarray(g(rs), dtype=float))
    k = int(np.argmin(res))
    return ResidualReport(min_residual=float(res[k]), argmin_r=float(rs[k]),
                          passed=bool(res[k] >= -tol), tol=tol,
                          residuals=res)


# ---------------------------------------------------------------------------
# convexifiers

def solve_convexifier(u: Supersolution, r_end: float | None = None) -> Convexifier:
    """Build h from u by quadrature: h' = e^{-2 V(r)}/r, V = int (u - 1/2t).

    V's integrand is regular at 0, where it tends to lim (2ur - 1)/(2r):
    0 for Riccati solutions, A for the power-decay u.  V starts at its
    true value r_s u(r_s) - 1/2 at r_s = 2^-27, and the log-singular part
    of h is handled exactly: h = log r + Q(r) with Q' = (e^{-2V} - 1)/r,
    then h is shifted so e^{h(r0)}/r0 = 1 exactly at r0 = 1e-4.  Both
    integrals run on the adaptive Chebyshev panels of _log_r_panels, so
    u must accept arrays; a solve that needs more than _MAX_RHS points of
    u raises BudgetError.
    """
    if not u.origin_normalized:
        raise DomainError("solve_convexifier needs an origin-normalized u")
    hi = min(u.r_max, r_end if r_end is not None else 50.0)
    # a closed-form u may be singular exactly at its r_max; stay inside
    # (solver outputs already end strictly before their blow-down)
    if math.isfinite(u.r_max) and hi >= u.r_max and u.blow_down is None:
        hi = u.r_max * (1.0 - 1e-6)

    # dV/dt = r u - 1/2, whose value at the first node r_s is V(r_s)
    a, b, _, rate = _log_r_panels(_rate_tails(
        lambda r: r * (np.asarray(u(r), dtype=float) - 0.5 / r)), hi,
        "convexifier quadrature", "u")
    v = _cumulative(a, b, rate, rate[0, 0])
    v_of = _interpolant(a, b, v, hi)
    h = _log_r_h(a, b, v, hi)

    def h_prime(r):
        r_arr = np.asarray(r, dtype=float)
        _check_domain(r_arr, hi)
        return np.exp(-2.0 * v_of(r_arr)) / r_arr

    def h_second(r):
        r_arr = np.asarray(r, dtype=float)
        _check_domain(r_arr, hi)
        return -2.0 * np.asarray(u(r_arr), dtype=float) * h_prime(r_arr)

    return Convexifier(h=h, h_prime=h_prime, h_second=h_second,
                       normalization_residual=_nres_of(lambda r: float(h(r))),
                       stated_offset=0.0, domain=(0.0, hi),
                       tag=f"solved[{u.tag}]")


# Chebyshev panels in t = log r: 16 Lobatto points per panel, ascending
_R_LO = 2.0 ** -27                  # where the first panel starts
_X = -np.cos(np.pi * np.arange(16) / 15.0)
_K = np.arange(16)
# node values -> coefficients, c_k = (2/15) sum'' f_j T_k(x_j) with the end
# nodes and c_0, c_15 halved: the exact inverse of the Vandermonde matrix,
# so that importing runs no LAPACK (np.linalg.inv adds 0.6 MB to RSS)
_TO_COEF = np.polynomial.chebyshev.chebvander(_X, 15).T * (2.0 / 15.0)
_TO_COEF[:, [0, -1]] *= 0.5
_TO_COEF[[0, -1]] *= 0.5
# node values -> integral of their interpolant from -1 up to each node,
# and -> its derivative at each node
_CUMINT, _DIFF = (np.polynomial.chebyshev.chebval(_X, m).T for m in (
    np.polynomial.chebyshev.chebint(_TO_COEF, lbnd=-1.0, axis=0),
    np.polynomial.chebyshev.chebder(_TO_COEF, axis=0)))


def _log_r_panels(resolve: Callable, hi: float, what: str, of: str):
    """Panels [a, b] in t = log r covering [2^-27, hi], radii at their
    nodes, and what resolve makes of those radii.

    resolve(r, half) takes the node radii of a round's new panels, shape
    (panels, 16) and clamped to [2^-27, hi], and the panels' half-widths
    in t; it returns per-panel node data and a mask of the panels to
    halve.  Octave panels are halved until none is flagged.  More than
    _MAX_RHS nodes in all raise BudgetError.
    """
    if not hi > _R_LO:
        raise DomainError(f"{what} needs r_end > {_R_LO:g}")
    octaves = np.arange(math.log2(_R_LO), math.ceil(math.log2(hi)))
    edges = np.append(octaves * math.log(2.0), math.log(hi))
    a, b = edges[:-1], edges[1:]
    done, spent = [], 0
    while a.size:
        r = np.clip(np.exp(0.5 * (a + b)[:, None]
                           + 0.5 * (b - a)[:, None] * _X), _R_LO, hi)
        spent += r.size
        if spent > _MAX_RHS:
            raise BudgetError(f"{what} used up its budget of {_MAX_RHS} "
                              f"{of} points")
        data, split = resolve(r, 0.5 * (b - a))
        done.append((a[~split], b[~split], r[~split], data[~split]))
        mid = 0.5 * (a + b)[split]
        a, b = (np.concatenate([a[split], mid]),
                np.concatenate([mid, b[split]]))
    a, b, r, data = (np.concatenate(x) for x in zip(*done))
    order = np.argsort(a)
    return a[order], b[order], r[order], data[order]


def _finite(f: np.ndarray, r: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(f)):
        raise DomainError(
            f"{name} is not finite at r = {r[~np.isfinite(f)][0]:g}")
    return f


def _rate_tails(rate: Callable) -> Callable:
    """resolve for _log_r_panels: rate at the nodes.  A panel splits while
    its Chebyshev tail in t, half (|c_14| + |c_15|), exceeds
    1e-14 (1 + max|rate| over the rounds so far)."""
    scale = 0.0

    def resolve(r, half):
        nonlocal scale
        f = _finite(np.asarray(rate(r.ravel()), dtype=float).reshape(r.shape),
                    r, "u")
        scale = max(scale, float(np.max(np.abs(f))))
        coef = f @ _TO_COEF.T
        tail = half * (np.abs(coef[:, -2]) + np.abs(coef[:, -1]))
        return f, tail > 1e-14 * (1.0 + scale)
    return resolve


def _jacobi_transitions(g: Callable) -> Callable:
    """resolve for _log_r_panels: the transitions of dJ/dt = r P,
    dP/dt = -r g J from (J_a, P_a) = (1, 0) and (0, 1) across each panel,
    at its nodes, as (panels, 16, [J, P - P_a], [from (1, 0), (0, 1)]).

    Each is solved as its deviation (x, y) from the flat transition
    J = J_a + P_a (r - r_a), P = P_a, which keeps the digits of J ~ r at
    the origin: x = half C (r y), y = -half C (r g (J_flat + x)), C the
    cumulative integral on the nodes.  Eliminating x leaves one 16 x 16
    system per panel, all solved in one batch.  A panel splits where the
    Chebyshev tail |c_14| + |c_15| of a transition exceeds 1e-13 of its
    values, J counted in units of the panel's end radius.
    """
    def resolve(r, half):
        rg = r * _finite(np.asarray(g(r.ravel()), dtype=float).reshape(
            r.shape), r, "g")
        flat = np.stack([np.ones_like(r), r - r[:, :1]], axis=-1)
        cr, crg = (half[:, None, None] * _CUMINT * w[:, None, :]
                   for w in (r, rg))
        y = np.linalg.solve(np.eye(16) + crg @ cr, -crg @ flat)
        j = flat + cr @ y
        full = np.stack([j / r[:, -1, None, None], y + [0.0, 1.0]], axis=-2)
        tail = np.abs(np.einsum("kj,njcb->nkcb", _TO_COEF[-2:], full))
        split = (tail.sum(1).max(1)
                 > 1e-13 * np.abs(full).max(axis=(1, 2))).any(-1)
        return np.stack([j, y], axis=-2), split
    return resolve


def _cumulative(a, b, f, y0: float) -> np.ndarray:
    """y0 plus the integral in t of the panel interpolants of f, from the
    first node to every node."""
    part = 0.5 * (b - a)[:, None] * (f @ _CUMINT.T)
    start = y0 + np.concatenate([[0.0], np.cumsum(part[:-1, -1])])
    return start[:, None] + part


def _interpolant(a, b, y, hi: float) -> Callable:
    """r -> the panel interpolant of the node values y at log r, with r
    clamped to [2^-27, hi]."""
    coef = y @ _TO_COEF.T
    inner = a[1:]

    def at(r):
        t = np.log(np.clip(r, _R_LO, hi))
        j = np.searchsorted(inner, t, "right")
        s = np.clip((2.0 * t - a[j] - b[j]) / (b[j] - a[j]), -1.0, 1.0)
        return (coef[j] * np.cos(np.arccos(s)[..., None] * _K)).sum(-1)
    return at


def _log_r_h(a, b, v, hi: float) -> Callable:
    """h = log r + Q - Q(r0) with dQ/dt = expm1(-2V), from V at the nodes."""
    q_of = _interpolant(a, b, _cumulative(a, b, np.expm1(-2.0 * v), 0.0), hi)
    q_anchor = float(q_of(_R0_CHECK))

    def h(r):
        r_arr = np.asarray(r, dtype=float)
        _check_domain(r_arr, hi)
        return np.log(r_arr) + q_of(r_arr) - q_anchor
    return h


def _check_domain(r_arr, hi):
    if np.any(r_arr <= 0):
        raise DomainError("h is defined for r > 0")
    if np.any(r_arr > hi * (1 + 1e-12)):
        raise DomainError(f"h was solved on (0, {hi:g}]")


# ---------------------------------------------------------------------------
# closed-form catalog

# One row per tag, two fields a line: u, u'; the curvature_bound
# arguments of the g that u solves u' + 2u^2 + g/2 = 0 for, r_max (the end
# of u's domain); h, h'; h'', stated_offset.  The functions take float
# arrays; _catalog_row converts the argument.  The trigonometric h carry their normalizing
# factor 2 (so that e^h/r -> 1), and stated_offset is the log 2 against
# the bare log-tanh and log-tan shapes.
_CATALOG = {
    "nonneg": (
        lambda r: 0.5 / r, lambda r: -0.5 / r ** 2,
        ("constant", {"c": 0.0}), math.inf,
        np.log, lambda r: 1.0 / r,
        lambda r: -1.0 / r ** 2, 0.0),
    "lower_bound_minus_one": (
        lambda r: 0.5 / np.tanh(r), lambda r: -0.5 / np.sinh(r) ** 2,
        ("constant", {"c": -1.0}), math.inf,
        lambda r: np.log(2.0 * np.tanh(0.5 * r)), lambda r: 1.0 / np.sinh(r),
        lambda r: -np.cosh(r) / np.sinh(r) ** 2, math.log(2.0)),
    "lower_bound_plus_one": (
        lambda r: 0.5 / np.tan(r), lambda r: -0.5 / np.sin(r) ** 2,
        ("constant", {"c": 1.0}), math.pi,
        lambda r: np.log(2.0 * np.tan(0.5 * r)), lambda r: 1.0 / np.sin(r),
        lambda r: -np.cos(r) / np.sin(r) ** 2, math.log(2.0)),
    "cigar": (
        lambda r: 1.0 / np.sinh(2.0 * r),
        lambda r: -2.0 * np.cosh(2.0 * r) / np.sinh(2.0 * r) ** 2,
        ("cigar", {}), math.inf,
        # sinh overflows past r ~ 710; log sinh r = r + log1p(-e^{-2r}) - log 2
        lambda r: r + np.log1p(-np.exp(-2.0 * r)) - math.log(2.0),
        lambda r: 1.0 / np.tanh(r), lambda r: -1.0 / np.sinh(r) ** 2, 0.0),
}
# power_decay's h is a quadrature, tabulated on (0, _H_TABLE_END]
_H_TABLE_END = 1e6


def _catalog_row(tag: str, params: dict) -> tuple:
    """(row, params) of a catalog tag; the row's functions take array-likes."""
    if tag == "power_decay":
        A, eps = _power_decay_params(params)
        row, params = _power_decay_row(A, eps), (("A", A), ("eps", eps))
    elif tag in _CATALOG:
        _no_extras(params)
        row, params = _CATALOG[tag], ()
    else:
        raise DomainError(f"unknown catalog tag {tag!r}")
    return [_on_arrays(f) if callable(f) else f for f in row], params


def _on_arrays(f: Callable) -> Callable:
    return lambda r: f(np.asarray(r, dtype=float))


def _power_decay_row(A: float, eps: float) -> tuple:
    """The catalog row of power_decay(A, eps).

    u = 1/(2r) + A/(1+r)^(1+eps), so 2 u(r) r - 1 = 2 A r/(1+r)^(1+eps).
    h' = exp(phi)/r with phi = 2A/(eps (1+r)^eps) - 2A/eps, and the
    residual (1/2) h'' + h' u vanishes identically.  h = log r + Q with
    Q' = (e^phi - 1)/r: V = -phi/2 is exact, and the panels are those on
    which u's dV/dt = r u - 1/2 resolves.
    """
    def phi(r):
        return 2.0 * A / (eps * (1.0 + r) ** eps) - 2.0 * A / eps

    @functools.cache
    def h():
        # built on first use: the supersolution lookup never needs it
        a, b, r_nodes, _ = _log_r_panels(_rate_tails(
            lambda r: A * r / (1.0 + r) ** (1 + eps)), _H_TABLE_END,
            "convexifier quadrature", "u")
        return _log_r_h(a, b, -0.5 * phi(r_nodes), _H_TABLE_END)

    def h_prime(r):
        _check_domain(r, _H_TABLE_END)
        return np.exp(phi(r)) / r

    return (
        lambda r: 0.5 / r + A / (1.0 + r) ** (1 + eps),
        lambda r: -0.5 / r ** 2 - A * (1 + eps) / (1.0 + r) ** (2 + eps),
        ("power_decay", {"A": A, "eps": eps}), math.inf,
        lambda r: h()(r), h_prime,
        lambda r: h_prime(r) * (-2.0 * A / (1.0 + r) ** (1 + eps) - 1.0 / r),
        0.0)


def closed_form_supersolution(tag: str, **params) -> Supersolution:
    """Catalog u with analytic derivative; see _CATALOG.

    Every catalog u has 2 u(r) r -> 1 in the limit, so it is marked
    origin-normalized; for power_decay the finite probe at 1e-4 still
    deviates by 2 A r0.
    """
    (u, u_prime, (g_tag, g_params), r_max, *_), params = _catalog_row(
        tag, params)
    return make_supersolution(u, u_prime=u_prime,
                              g=curvature_bound(g_tag, **g_params),
                              r_max=r_max, origin_normalized=True, tag=tag,
                              params=params)


def closed_form_convexifier(tag: str, **params) -> Convexifier:
    """Catalog h with analytic derivatives; see _CATALOG."""
    (*_, r_max, h, h_prime, h_second, offset), params = _catalog_row(
        tag, params)
    return Convexifier(h=h, h_prime=h_prime, h_second=h_second,
                       normalization_residual=_nres_of(lambda r: float(h(r))),
                       stated_offset=offset,
                       domain=(0.0, _H_TABLE_END if params else r_max),
                       tag=tag, params=params)


def _nres_of(h_scalar) -> float:
    return abs(math.exp(h_scalar(_R0_CHECK)) / _R0_CHECK - 1.0)


# ---------------------------------------------------------------------------
# growth exponent

def growth_exponent(h: Convexifier, r_window: tuple) -> float:
    """Least-squares slope of h against log r over the window.

    Returns math.inf when the local slope keeps growing across the
    window (superlogarithmic h, e.g. log sinh r at large r).
    """
    lo, hi = float(r_window[0]), float(r_window[1])
    if not (1.0 < lo < hi):
        raise DomainError("window must satisfy 1 < lo < hi")
    if hi > h.domain[1]:
        raise DomainError(f"window exceeds the h domain (0, {h.domain[1]:g})")
    rs = np.geomspace(lo, hi, 96)
    x = np.log(rs)
    y = np.asarray(h(rs), dtype=float)
    k = rs.size // 2
    s_lo = np.polyfit(x[:k], y[:k], 1)[0]
    s_hi = np.polyfit(x[k:], y[k:], 1)[0]
    # a diverging local slope is detectable on any window; a finite
    # estimate needs at least a decade of leverage
    if s_hi > 1.1 * abs(s_lo) + 1e-12 and s_hi > s_lo:
        return math.inf
    if hi / lo < 10.0:
        raise DomainError("window must span at least one decade")
    return float(np.polyfit(x, y, 1)[0])
