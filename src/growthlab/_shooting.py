"""Geodesics on rotationally invariant conformal metrics.

Two tools are used:

* Clairaut quadrature for two-point distances.  On the metric
  lam(rho)^2 (drho^2 + rho^2 dtheta^2) with J = lam rho, unit-speed
  geodesics conserve c = J sin(psi), psi measured from the radial
  direction.  An arc whose radius turns at t has c = J(t), and from t out
  (or in) to a radius rho it sweeps and measures

      T(t, rho) = int c drho / (rho sqrt(J^2 - c^2)),
      L(t, rho) = int lam J drho / sqrt(J^2 - c^2).

  With rho = t cosh(tau) (pericenter) or rho = t / cosh(tau) (apocenter)
  both integrands are smooth in tau, so a fixed composite Gauss-Legendre
  rule evaluates them; J is never inverted.  A pair (rho_lo, rho_hi,
  dtheta) is joined by an arc without a turn (sweep T_far - T_near), an
  arc through a pericenter below rho_lo or an apocenter above rho_hi
  (sweep T_far + T_near).  Each family is scanned along its turning
  radius, and every sign change of sweep - dtheta is refined by a
  bracketed Illinois iteration.

* The Cartesian geodesic equation z'' = -F(|z|) conj(z) z'^2 with
  F = (log lam)'(rho)/rho, which is regular through the origin because lam
  is even.  It drives the tabulated backend's off-center exponential-map
  circles (conformal_poly, tables, bare profiles), given lam and F, through
  one vectorized Cash-Karp RKF45 stepper with per-member adaptive steps,
  so a batch of launch angles costs one pass, and circles of several
  radii about one center share it: the pass stops at each radius in turn.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ShootingError

# Cash-Karp tableau
_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
]
_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)
_BE = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


# integrate_batch's tolerances, first step (a fraction of the first
# stop) and sweep cap
_RTOL, _ATOL, _H0, _MAX_SWEEPS = 1e-11, 1e-13, 1e-3, 20000


def integrate_batch(rhs: Callable, y0: np.ndarray, stops):
    """March y' = rhs(y) from t = 0 through the increasing times stops.

    y0 has shape (k, N): k state components for N independent members.
    rhs must be autonomous and vectorized over the member axis.  Returns
    (ys, ok_mask) with ys[s] the state at stops[s], shape (S, k, N).  Each
    member carries its step size from one stop into the next.  Members
    whose step size underflows, or that are still marching after
    _MAX_SWEEPS sweeps, are flagged and left frozen.
    """
    y = np.array(y0, copy=True)
    n = y.shape[1]
    stops = np.atleast_1d(np.asarray(stops, dtype=float))
    ys = np.empty((stops.size,) + y.shape, dtype=y.dtype)
    t = np.zeros(n)
    h = np.full(n, _H0 * stops[0])
    ok = np.ones(n, dtype=bool)
    sweeps = 0
    for s, t_end in enumerate(stops):
        active = ok & (t < t_end * (1 - 1e-15))
        h = np.where(active, np.minimum(h, t_end - t), h)
        while np.any(active):
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                ok &= ~active
                break
            ha = np.where(active, h, 0.0)
            ks = []
            for stage in range(6):
                yst = y.copy()
                for j, a in enumerate(_A[stage]):
                    yst += (a * ha) * ks[j]
                ks.append(rhs(yst))
            ynew = y.copy()
            err = np.zeros_like(y)
            for j in range(6):
                ynew += (_B5[j] * ha) * ks[j]
                if _BE[j] != 0.0:
                    err += (_BE[j] * ha) * ks[j]
            scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(ynew))
            enorm = np.max(np.abs(err) / scale, axis=0)
            enorm = np.where(np.isfinite(enorm), enorm, np.inf)
            accept = active & (enorm <= 1.0)
            y = np.where(accept, ynew, y)
            t = np.where(accept, t + ha, t)
            grow = 0.9 * np.power(np.maximum(enorm, 1e-16), -0.2)
            shrink = 0.9 * np.power(np.maximum(enorm, 1e-16), -0.25)
            fac = np.where(enorm <= 1.0, np.minimum(grow, 5.0),
                           np.maximum(shrink, 0.2))
            h = np.where(active, h * fac, h)
            dead = active & (h < 1e-14) & (enorm > 1.0)
            ok &= ~dead
            active = (t < t_end * (1 - 1e-15)) & ~dead & ok
            h = np.where(active, np.minimum(h, t_end - t), h)
        ys[s] = y
    return ys, ok


# ---------------------------------------------------------------------------
# two-point distances by Clairaut quadrature

# composite Gauss-Legendre rule on [0, 1] in s = tau / tau_end.  The
# panels shrink toward s = 1, where the end radius may sit near a
# chart-edge singularity of lam or near the arc's other turning point.
# The integrands are even in tau, so the first panel takes the positive
# half of a rule on [-s1, s1]: its nodes keep away from tau = 0, where
# J - c cancels.
_EDGES = 1.0 - (1.0 - np.linspace(0.0, 1.0, 11)) ** 2
_X20, _W20 = np.polynomial.legendre.leggauss(20)
_X40, _W40 = np.polynomial.legendre.leggauss(40)
_WIDTH = np.diff(_EDGES)[1:, None]
_S = np.concatenate([_EDGES[1] * _X40[20:], (_EDGES[1:-1, None] + 0.5 * _WIDTH
                                             * (_X20 + 1.0)).ravel()])
_W = np.concatenate([_EDGES[1] * _W40[20:], (0.5 * _WIDTH * _W20).ravel()])
_SCAN = np.linspace(0.0, 1.0, 17)   # |u| of the scanned turning radii
_CHUNK = 32       # turning radii per evaluation; bounds the working set
_MAX_ITER = 60    # Illinois iterations per bracket
_TAU_MIN = 1e-4   # shortest leg, in tau, that is integrated directly


def _legs(lam, t, tau_near, ends, apo, r_ends):
    """Sweep and length from turning radius t to the near and far ends.

    ends and r_ends are (m, 2) with columns (near, far); t, apo and
    tau_near are (m,).  Returns (T, L), each (m, 2); NaN where J dips
    below c = J(t) on a leg.  t = 0 is the radial limit: sweep pi/2 and
    length r(rho) per leg.  A leg shorter than _TAU_MIN, where J - c is
    lost to rounding, is scaled down from one of extent _TAU_MIN ending at
    the same radius: legs are odd and smooth in their extent.
    """
    T = np.empty(ends.shape)
    L = np.empty(ends.shape)
    for lo in range(0, t.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        radial = (t[sl] == 0.0)[:, None]
        ec, ac = ends[sl], apo[sl][:, None]
        tc = np.where(radial, ec, t[sl][:, None])
        ratio = np.where(ac, tc / ec, ec / tc)[:, 1]
        tau_end = np.where(radial, 0.0, np.stack(
            [tau_near[sl], np.arccosh(np.maximum(ratio, 1.0))], axis=1))
        short = (tau_end > 0.0) & (tau_end < _TAU_MIN)
        stretch = math.cosh(_TAU_MIN)
        tc = np.where(short, np.where(ac, ec * stretch, ec / stretch), tc)
        c = (np.reshape(lam(tc.ravel()), tc.shape) * tc)[..., None]
        tau = np.where(short, _TAU_MIN, tau_end)[..., None] * _S
        ch = np.cosh(tau)
        x = tc[..., None] * np.where(ac[..., None], 1.0 / ch, ch)
        J = np.reshape(lam(x.ravel()), x.shape) * x
        with np.errstate(invalid="ignore", divide="ignore"):
            wq = (np.tanh(tau) / np.sqrt((J - c) * (J + c))
                  * (tau_end[..., None] * _W))
        Tc = np.where(tau_end > 0.0, c[..., 0] * wq.sum(axis=-1), 0.0)
        Lc = np.where(tau_end > 0.0, (J * J * wq).sum(axis=-1), 0.0)
        T[sl] = np.where(radial, 0.5 * math.pi, Tc)
        L[sl] = np.where(radial, r_ends[sl], Lc)
    return T, L


def connect_lengths(profile, rho_p, rho_q, dtheta, r_p, r_q,
                    rho_cap) -> np.ndarray:
    """Distances for pairs ((rho_p, 0) -> (rho_q, dtheta)), dtheta in (0, pi].

    Each pair is posed as (rho_lo, rho_hi, dtheta).  Two families of arcs
    are scanned along a signed parameter u in [-1, 1]; u < 0 is the arc
    without a turn, u > 0 the arc through the turning point t:

    * pericenter side: t = rho_lo / cosh(2 artanh u), from rho_lo at u = 0
      down to the radial (sweep 0) and through-origin (sweep pi) limits at
      u = -1 and u = 1;
    * apocenter side: t = rho_hi cosh(|u| tau_cap), from rho_hi out to
      rho_cap.

    The sweep is smooth in u across u = 0.  Every sign change of
    sweep - dtheta between admissible scan points is refined and the
    shortest arc wins; at dtheta = pi the broken radial path through the
    origin (r_p + r_q) competes too.  Arcs without a turn are found on
    both sides when they have both turning points; each side is accurate
    where the other end is far from its second turning point.  A pair that
    no arc connects reads inf.
    """
    lam = profile.lam
    rho_p, rho_q, dtheta, r_p, r_q, rho_cap = (
        np.asarray(a, dtype=float)
        for a in (rho_p, rho_q, dtheta, r_p, r_q, rho_cap))
    n, ns = rho_p.size, _SCAN.size
    # per (pair, side): side 0 turns at a pericenter, side 1 at an
    # apocenter; the last axis of ends and r_ends is (near, far)
    perm = [[0, 1], [1, 0]]
    ends = np.sort(np.stack([rho_p, rho_q], -1), -1)[:, perm]
    r_ends = np.sort(np.stack([r_p, r_q], -1), -1)[:, perm]
    apo = np.tile([False, True], (n, 1))
    tau_cap = np.stack([np.zeros(n), np.arccosh(
        np.maximum(rho_cap / ends[:, 1, 0], 1.0))], 1)
    j_far = lam(ends[..., 1]) * ends[..., 1]

    def turn(au, sel):
        # turning radius at |u| = au and the near leg's extent in tau
        with np.errstate(divide="ignore"):
            tau = np.where(apo[sel], au * tau_cap[sel], 2.0 * np.arctanh(au))
        near, ch = ends[sel][..., 0], np.cosh(tau)
        return np.where(apo[sel], near * ch, near / ch), tau

    def legs(au, sel):
        return _legs(lam, *turn(au, sel), ends[sel], apo[sel], r_ends[sel])

    # scan |u| on _SCAN for both sides; both signs of u share the legs.
    # A turning radius with c = J(t) above J at the far end is skipped.
    t = turn(_SCAN, (slice(None), slice(None), None))[0]
    c = lam(np.where(t > 0.0, t, ends[..., 0, None])) * t
    idx = np.nonzero((c <= j_far[..., None])
                     & ~(apo & (tau_cap == 0.0))[..., None])
    T = np.full((n, 2, ns, 2), np.nan)
    L = np.full((n, 2, ns, 2), np.nan)
    T[idx], L[idx] = legs(_SCAN[idx[2]], idx[:2])
    # signed path u = -1 .. 0 .. 1
    sign = np.concatenate([-np.ones(ns - 1), np.ones(ns)])
    order = np.concatenate([np.arange(ns - 1, 0, -1), np.arange(ns)])
    u_path = sign * _SCAN[order]
    f = T[..., order, 1] + sign * T[..., order, 0] - dtheta[:, None, None]
    length = L[..., order, 1] + sign * L[..., order, 0]

    def fail(why, j):
        raise ShootingError(f"{why} for pair rho_p={rho_p[j]:g}, "
                            f"rho_q={rho_q[j]:g}, dtheta={dtheta[j]:g}")

    best = np.where(dtheta >= math.pi - 1e-9, r_p + r_q, np.inf)
    hit = f == 0.0
    np.minimum.at(best, np.nonzero(hit)[0], length[hit])
    fa, fb = f[..., :-1], f[..., 1:]
    bracket = np.isfinite(fa) & np.isfinite(fb) & (fa * fb < 0.0)
    bi, bs, bk = np.nonzero(bracket)
    ua, ub = u_path[bk], u_path[bk + 1]
    fa, fb = fa[bracket], fb[bracket]

    # bracketed Illinois iteration on all brackets at once
    active = np.ones(bi.size, dtype=bool)
    for _ in range(_MAX_ITER):
        if not np.any(active):
            break
        a = np.nonzero(active)[0]
        u = ub[a] - fb[a] * (ub[a] - ua[a]) / (fb[a] - fa[a])
        Tn, Ln = legs(np.abs(u), (bi[a], bs[a]))
        sg = np.where(u < 0.0, -1.0, 1.0)
        fn = Tn[:, 1] + sg * Tn[:, 0] - dtheta[bi[a]]
        # an iterate outside the family's admissible radii ends its bracket
        lost = ~np.isfinite(fn)
        done = ~lost & ((np.abs(fn) <= 1e-13)
                        | (np.abs(ub[a] - ua[a]) <= 1e-15))
        np.minimum.at(best, bi[a][done], (Ln[:, 1] + sg * Ln[:, 0])[done])
        flip = fn * fb[a] < 0.0
        ua[a] = np.where(flip, ub[a], ua[a])
        fa[a] = np.where(flip, fb[a], 0.5 * fa[a])
        ub[a], fb[a] = u, fn
        active[a[done | lost]] = False
    if np.any(active):
        fail(f"Illinois iteration cap {_MAX_ITER} reached",
             bi[np.argmax(active)])
    return best


# ---------------------------------------------------------------------------
# exponential-map circles (Cartesian chart)

_N_BASE = 1024    # launch angles per interpolated circle


def _cartesian_rhs(logd):
    def rhs(y):
        z, v = y[0], y[1]
        rho = np.abs(z)
        f = np.asarray(logd(rho), dtype=float)
        return np.stack([v, -f * np.conj(z) * v * v])

    return rhs


def exp_circle_points(lam, logd, rho0: float, lengths,
                      phis: np.ndarray) -> np.ndarray:
    """Endpoints of geodesics from (rho0, 0) with launch angles phis.

    logd is (log lam)'(rho)/rho.  lengths increase; row s of the result
    holds the endpoints at lengths[s], all from one integration.
    """
    lam0 = float(lam(np.asarray(rho0)))
    n = phis.size
    z0 = np.full(n, rho0, dtype=complex)
    v0 = np.exp(1j * phis) / lam0
    y0 = np.stack([z0, v0])
    ys, ok = integrate_batch(_cartesian_rhs(logd), y0, lengths)
    if not np.all(ok):
        raise ShootingError("exponential map integration failed")
    return ys[:, 0]


def circle_interpolator(lam, logd, center: complex, r) -> Callable:
    """phi -> z(phi) on the geodesic circles of radius r about center.

    logd is (log lam)'(rho)/rho, with its even limit at rho = 0; r is a
    radius or a 1-d array of them, and z(phi) has shape r.shape +
    phi.shape.  With the center rotated onto the positive axis each
    circle is symmetric under conjugation (lam depends on |z| only), so
    the _N_BASE // 2 + 1 launch angles in [0, pi] are integrated once
    through every radius and mirrored.  A circle is the trigonometric
    interpolant of its _N_BASE points: by the symmetry its FFT is real,
    Re z a cosine and Im z a sine series, summed over powers of e^{i phi}.
    phi = 0 launches away from the origin.
    """
    a = abs(center)
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    order = np.argsort(radii)
    half = _N_BASE // 2
    phis = np.linspace(0.0, 2.0 * math.pi, _N_BASE, endpoint=False)
    pts = np.empty((radii.size, _N_BASE), dtype=complex)
    pts[order, :half + 1] = exp_circle_points(lam, logd, a, radii[order],
                                              phis[:half + 1])
    pts[:, half + 1:] = np.conj(pts[:, half - 1:0:-1])
    # c_k e^{ik phi} + c_-k e^{-ik phi}, k < half, and c_half cos(half phi)
    c = np.fft.fft(pts, axis=1).real / _N_BASE
    pos, neg = c[:, 1:half], c[:, :half:-1]
    cos_coef = np.column_stack([c[:, 0], pos + neg, c[:, half]])
    sin_coef = pos - neg
    shape = np.shape(r)

    def at(phi):
        w = np.exp(1j * np.ravel(phi))
        powers = np.concatenate([np.ones((1, w.size)),
                                 np.broadcast_to(w, (half, w.size))])
        np.cumprod(powers, axis=0, out=powers)
        z = cos_coef @ powers.real + 1j * (sin_coef @ powers.imag[1:half])
        return (z * (center / a)).reshape(shape + np.shape(phi))

    return at
