"""Two-point geodesic distances and exponential-map circles.

method="shoot" solves the two-point problem by Clairaut quadrature: a
fixed Gauss-Legendre rule along each family of arcs and an Illinois root
find on the sweep.  It is checked against the closed forms on the flat,
hyperbolic and sphere models (inside and past the sphere's equator, where
arcs turn at an apocenter) and against an independent oracle, adaptive
quad plus brentq on the Clairaut constant, on the cigar and on a
conformal_poly profile.  Symmetry holds by construction, since each pair
is posed as (rho_lo, rho_hi, |dtheta|); the 1e-8 closed-form test is the
one that measures accuracy.

Off-center circles on the hyperbolic disk and the sphere are checked
against the closed-form distance; the cigar's closed-form circles against
the integrated circles of the same profile given bare.
"""
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from growthlab import (
    DomainError,
    RadialProfile,
    ShootingError,
    _shooting,
    builtin_model,
    distance_from_origin,
    geodesic_circle,
    geodesic_distance,
    model_from_profile,
    pair_distances,
    rho_of_r,
)


def flat_dist(p, q):
    return np.abs(p - q)


def hyperbolic_dist(p, q, kappa=1.0):
    t = 2 * np.abs(p - q) ** 2 / ((1 - np.abs(p) ** 2) * (1 - np.abs(q) ** 2))
    return np.arccosh(1 + t) / math.sqrt(kappa)


def sphere_dist(p, q, kappa=1.0):
    # stereographic lift to S^2(radius 1/sqrt(kappa))
    def lift(z):
        d = 1 + np.abs(z) ** 2
        return np.stack([2 * z.real / d, 2 * z.imag / d,
                         (1 - np.abs(z) ** 2) / d])
    a, b = lift(np.asarray(p, dtype=complex)), lift(np.asarray(q, dtype=complex))
    dot = np.sum(a * b, axis=0)
    cross = np.linalg.norm(np.cross(a.T, b.T).T, axis=0)
    return np.arctan2(cross, dot) / math.sqrt(kappa)


def rand_pairs(rng, rho_hi, k, rho_lo=0.05):
    rr = rng.uniform(rho_lo, rho_hi, size=(2, k))
    th = rng.uniform(0, 2 * np.pi, size=(2, k))
    return rr[0] * np.exp(1j * th[0]), rr[1] * np.exp(1j * th[1])


# ---------------------------------------------------------------------------
# shooting vs closed forms

def test_flat_shoot_matches_closed():
    rng = np.random.default_rng(101)
    m = builtin_model("flat")
    ps, qs = rand_pairs(rng, 2.5, 25)
    d = pair_distances(m, ps, qs, method="shoot")
    assert np.max(np.abs(d - flat_dist(ps, qs))) <= 1e-6


def test_hyperbolic_shoot_matches_closed():
    rng = np.random.default_rng(102)
    m = builtin_model("hyperbolic")
    ps, qs = rand_pairs(rng, 0.85, 25)
    d = pair_distances(m, ps, qs, method="shoot")
    assert np.max(np.abs(d - hyperbolic_dist(ps, qs))) <= 1e-6
    dc = pair_distances(m, ps, qs, method="closed")
    assert np.max(np.abs(dc - hyperbolic_dist(ps, qs))) <= 1e-12


def test_sphere_shoot_matches_closed():
    rng = np.random.default_rng(103)
    m = builtin_model("sphere")
    # stay well inside the convexity radius pi/2
    rr = rng.uniform(0.05, 1.5, size=(2, 25))
    th = rng.uniform(0, 2 * np.pi, size=(2, 25))
    ps = np.tan(rr[0] / 2) * np.exp(1j * th[0])
    qs = np.tan(rr[1] / 2) * np.exp(1j * th[1])
    d = pair_distances(m, ps, qs, method="shoot")
    assert np.max(np.abs(d - sphere_dist(ps, qs))) <= 1e-6


def test_sphere_past_equator_matches_closed():
    # J = sin r decreases past r = pi/2: arcs turn at an apocenter
    rng = np.random.default_rng(107)
    m = builtin_model("sphere")
    rr = rng.uniform(1.2, 2.6, size=(2, 16))
    th = rng.uniform(0, 2 * np.pi, size=(2, 16))
    ps = np.tan(rr[0] / 2) * np.exp(1j * th[0])
    qs = np.tan(rr[1] / 2) * np.exp(1j * th[1])
    d = pair_distances(m, ps, qs, method="shoot")
    assert np.max(np.abs(d - sphere_dist(ps, qs))) <= 1e-6


def test_sphere_antipodal_through_far_pole():
    # at dtheta = pi with r_p + r_q > pi the shortest path runs through the
    # far pole, 2 pi - r_p - r_q, not through the origin
    rng = np.random.default_rng(109)
    m = builtin_model("sphere")
    rr = rng.uniform(0.05, 3.0, size=(2, 40))
    ps = np.tan(rr[0] / 2).astype(complex)
    qs = -np.tan(rr[1] / 2).astype(complex)
    d = pair_distances(m, ps, qs, method="shoot")
    assert np.max(np.abs(d - sphere_dist(ps, qs))) <= 1e-8
    d = geodesic_distance(m, math.tan(0.419 / 2), -math.tan(1.5),
                          method="shoot")
    assert abs(d - (2 * math.pi - 3.419)) <= 1e-8


def test_sphere_near_antipodal_grid():
    # past the equator near dtheta = pi the apocenter lies beyond
    # max(r_p, r_q) + 1; those pairs are searched again out to the edge.
    # Pairs with both ends near the equator (J' ~ 0) are left out.
    m = builtin_model("sphere")
    rs = np.linspace(1.3, 3.0, 18)
    r_p, r_q, th = (a.ravel() for a in np.meshgrid(
        rs, rs, np.linspace(2.6, math.pi - 1e-3, 12), indexing="ij"))
    keep = (np.abs(r_p - math.pi / 2) >= 0.1) | (np.abs(r_q - math.pi / 2)
                                                 >= 0.1)
    ps = np.tan(r_p[keep] / 2).astype(complex)
    qs = np.tan(r_q[keep] / 2) * np.exp(1j * th[keep])
    d = pair_distances(m, ps, qs, method="shoot")
    assert np.max(np.abs(d - sphere_dist(ps, qs))) <= 1e-8


def test_shoot_accuracy_against_closed_forms():
    rng = np.random.default_rng(108)
    for tag, ref, hi in (("flat", flat_dist, 2.5),
                         ("hyperbolic", hyperbolic_dist, 0.95),
                         ("sphere", sphere_dist, math.tan(1.25))):
        ps, qs = rand_pairs(rng, hi, 60, rho_lo=0.01)
        d = pair_distances(builtin_model(tag), ps, qs, method="shoot")
        assert np.max(np.abs(d - ref(ps, qs))) <= 1e-8, tag


@pytest.mark.parametrize("tag", ["hyperbolic", "sphere"])
@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_closed_form_nearby_pairs(tag, kappa):
    # pairs 1e-9 apart: d = lam(midpoint) |p - q| up to O(|p - q|^2)
    rng = np.random.default_rng(29)
    m = builtin_model(tag, kappa=kappa)
    ps, _ = rand_pairs(rng, 0.9, 20)
    qs = ps + 1e-9 * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    d = pair_distances(m, ps, qs, method="auto")
    ref = m.profile.lam(np.abs(0.5 * (ps + qs))) * np.abs(ps - qs)
    assert np.all(np.abs(d - ref) <= 1e-12 * d)


def test_scaled_curvature_closed_forms():
    rng = np.random.default_rng(104)
    k = 2.0
    m = builtin_model("hyperbolic", kappa=k)
    ps, qs = rand_pairs(rng, 0.7, 8)
    assert np.allclose(pair_distances(m, ps, qs),
                       hyperbolic_dist(ps, qs, kappa=k), atol=1e-12)
    ms = builtin_model("sphere", kappa=k)
    assert np.allclose(pair_distances(ms, ps, qs),
                       sphere_dist(ps, qs, kappa=k), atol=1e-12)


# ---------------------------------------------------------------------------
# Clairaut oracle: first integrals by adaptive quadrature in rho, J = lam rho

def _peri_legs(lam, c, rho_in, rho_end):
    # leg from the pericenter t (J(t) = c, J increasing on [0, rho_in]) out
    # to rho_end; rho = t + s^2 removes the square root at the turn
    def J(x):
        return float(lam(x)) * x

    t = optimize.brentq(lambda x: J(x) - c, 0.0, rho_in, xtol=1e-16,
                        rtol=1e-15)
    smax = math.sqrt(max(rho_end - t, 0.0))

    def parts(s):
        x = t + s * s
        jx = J(x)
        return x, jx, 2 * s / math.sqrt(max((jx - c) * (jx + c), 1e-300))

    def li(s):
        x, jx, w = parts(s)
        return float(lam(x)) * jx * w

    def ti(s):
        x, _, w = parts(s)
        return c * w / x

    # near tangency J - c loses digits to rounding and quad says so; such
    # grid points only bracket roots
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        L, _ = integrate.quad(li, 0, smax, epsabs=1e-14, epsrel=1e-13,
                              limit=400)
        T, _ = integrate.quad(ti, 0, smax, epsabs=1e-14, epsrel=1e-13,
                              limit=400)
    return L, T


def clairaut_oracle(profile, rho_p, rho_q, dth):
    """Distance on a profile by root finding on the Clairaut constant.

    Needs J = lam rho increasing on [0, max(rho_p, rho_q)].  Candidates:
    every root of the sweep along the arc through a pericenter (leg sum)
    and the monotone arc (leg difference), bracketed on a grid in c, and
    the broken path through the origin.
    """
    lam = profile.lam
    lo, hi = min(rho_p, rho_q), max(rho_p, rho_q)
    chi = float(lam(lo)) * lo * (1 - 1e-9)
    cands = [sum(integrate.quad(lambda x: float(lam(x)), 0, rho,
                                epsabs=1e-14, epsrel=1e-13)[0]
                 for rho in (rho_p, rho_q))]

    def legs(c):
        return _peri_legs(lam, c, lo, lo), _peri_legs(lam, c, lo, hi)

    grid = chi * np.concatenate([[1e-9], np.linspace(0.02, 0.98, 25),
                                 1 - np.geomspace(1e-2, 1e-7, 6)])
    for sign in (1, -1):
        def sweep(c):
            (_, t_lo), (_, t_hi) = legs(c)
            return t_hi + sign * t_lo - dth

        vals = [sweep(c) for c in grid]
        for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
            if fa * fb < 0:
                c = optimize.brentq(sweep, a, b, xtol=1e-15)
                (l_lo, _), (l_hi, _) = legs(c)
                cands.append(l_hi + sign * l_lo)
    return min(cands)


def cigar_oracle(r_p, r_q, dth):
    return clairaut_oracle(builtin_model("cigar").profile,
                           math.sinh(r_p), math.sinh(r_q), dth)


# frozen from the quadrature oracle above
CIGAR_CASES = [
    (1.0, 1.2, 0.8, 0.667359051402),
    (0.3, 2.0, 2.0, 2.083521174910),
    (2.5, 2.5, 3.1, 3.057592114979),
    (1.5, 0.2, 0.3, 1.308489102981),
    (3.0, 2.8, 1.5708, 1.573988054492),
]


@pytest.mark.parametrize("r_p,r_q,dth,expect", CIGAR_CASES)
def test_cigar_frozen_distances(r_p, r_q, dth, expect):
    m = builtin_model("cigar")
    p = math.sinh(r_p) + 0j
    q = math.sinh(r_q) * np.exp(1j * dth)
    assert abs(geodesic_distance(m, p, q) - expect) <= 1e-7


def test_cigar_live_oracle():
    r_p, r_q, dth = 0.8, 1.7, 2.4
    m = builtin_model("cigar")
    p = math.sinh(r_p) + 0j
    q = math.sinh(r_q) * np.exp(1j * dth)
    assert abs(geodesic_distance(m, p, q)
               - cigar_oracle(r_p, r_q, dth)) <= 1e-8


def test_cigar_wrap_beats_origin_path():
    # far out the cigar is a cylinder: the swept arc undercuts r_p + r_q
    m = builtin_model("cigar")
    r = 3.0
    p = math.sinh(r) + 0j
    q = math.sinh(r) * np.exp(1j * math.pi)
    d = geodesic_distance(m, p, q)
    assert d < 2 * r - 1.0
    assert abs(d - cigar_oracle(r, r, math.pi)) <= 1e-7


# pairs whose endpoints sit where J = rho - rho^3/2 increases (rho < 0.816)
POLY_PAIRS = [(0.3, 0.7j), (0.6, 0.5 * np.exp(2.5j)), (0.2, 0.75 * np.exp(1j))]


@pytest.mark.parametrize("p,q", POLY_PAIRS)
def test_conformal_poly_matches_oracle(p, q):
    # a 400-segment polyline minimization gives 0.686249, 0.978239 and
    # 0.587493
    m = builtin_model("conformal_poly", coeffs=[1.0, -0.5])
    want = clairaut_oracle(m.profile, abs(p), abs(q),
                           abs(np.angle(q / p)))
    assert abs(geodesic_distance(m, p, q, method="shoot") - want) <= 1e-8


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(_shooting, "_MAX_ITER", 1)
    m = builtin_model("hyperbolic")
    with pytest.raises(ShootingError, match="rho_p=0.3, rho_q=0.6"):
        pair_distances(m, [0.3], [0.6j], method="shoot")


# ---------------------------------------------------------------------------
# structural properties

def test_degenerate_pairs():
    m = builtin_model("cigar")
    assert geodesic_distance(m, 0.3 + 0.4j, 0.3 + 0.4j) == 0.0
    # radial pair: |r_p - r_q|
    d = geodesic_distance(m, 0.5 + 0j, 2.0 + 0j)
    assert abs(d - (math.asinh(2.0) - math.asinh(0.5))) <= 1e-12
    # through the origin
    d0 = geodesic_distance(m, 0j, 1.5j)
    assert abs(d0 - math.asinh(1.5)) <= 1e-12


def test_flat_antipodal_through_origin():
    m = builtin_model("flat")
    assert abs(geodesic_distance(m, 1.0 + 0j, -2.0 + 0j, method="shoot")
               - 3.0) <= 1e-9


@pytest.mark.parametrize("tag,rho_hi", [
    ("flat", 2.0), ("cigar", 3.0), ("hyperbolic", 0.8),
])
def test_symmetry(tag, rho_hi):
    rng = np.random.default_rng(105)
    m = builtin_model(tag)
    ps, qs = rand_pairs(rng, rho_hi, 12)
    d1 = pair_distances(m, ps, qs, method="shoot")
    d2 = pair_distances(m, qs, ps, method="shoot")
    assert np.max(np.abs(d1 - d2)) <= 1e-8


def test_triangle_inequality_cigar():
    rng = np.random.default_rng(106)
    m = builtin_model("cigar")
    k = 25
    rr = rng.uniform(0.05, 3.0, size=(3, k))
    th = rng.uniform(0, 2 * np.pi, size=(3, k))
    a, b, c = (rr[i] * np.exp(1j * th[i]) for i in range(3))
    dab = pair_distances(m, a, b)
    dbc = pair_distances(m, b, c)
    dac = pair_distances(m, a, c)
    assert np.all(dac <= dab + dbc + 1e-6)


def test_chart_validation():
    m = builtin_model("hyperbolic")
    with pytest.raises(DomainError):
        geodesic_distance(m, 0.5, 1.2)
    with pytest.raises(DomainError):
        pair_distances(m, [0.1], [0.2, 0.3])
    with pytest.raises(DomainError):
        pair_distances(m, [0.1], [0.2], method="fancy")
    with pytest.raises(DomainError):
        pair_distances(builtin_model("cigar"), [0.1], [0.2], method="closed")


# ---------------------------------------------------------------------------
# geodesic circles

def test_flat_circle_exact():
    m = builtin_model("flat")
    c = 0.7 + 0.2j
    f = geodesic_circle(m, c, 0.5)
    phis = np.linspace(0, 2 * np.pi, 17)
    assert np.max(np.abs(np.abs(f(phis) - c) - 0.5)) <= 1e-14


def test_origin_circle_exact():
    m = builtin_model("cigar")
    f = geodesic_circle(m, 0j, 1.3)
    phis = np.linspace(0, 2 * np.pi, 9)
    assert np.max(np.abs(np.abs(f(phis)) - math.sinh(1.3))) <= 1e-12


def test_hyperbolic_circle_distance():
    m = builtin_model("hyperbolic")
    c = 0.3 + 0.25j
    r = 0.9
    f = geodesic_circle(m, c, r)
    pts = f(np.linspace(0, 2 * np.pi, 33))
    d = pair_distances(m, np.full(pts.shape, c), pts, method="closed")
    assert np.max(np.abs(d - r)) <= 1e-9


def test_cigar_circle_distance():
    m = builtin_model("cigar")
    c = 1.1 + 0.4j
    r = 0.8
    f = geodesic_circle(m, c, r)
    pts = f(np.linspace(0, 2 * np.pi, 9))
    d = pair_distances(m, np.full(pts.shape, c), pts, method="shoot")
    assert np.max(np.abs(d - r)) <= 1e-8


def _bare_cigar():
    lam = builtin_model("cigar").profile.lam
    return model_from_profile(RadialProfile(lam=lam, rho_max=math.inf,
                                            name="bare cigar"))


@pytest.mark.parametrize("tag", ["hyperbolic", "sphere"])
@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_moebius_circle_exact(tag, kappa):
    m = builtin_model(tag, kappa=kappa)
    rs = np.array([0.05, 0.4, 0.9])
    phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for c in (0.35 + 0.2j, -0.5 + 0.3j):
        pts = geodesic_circle(m, c, rs)(phis)
        d = pair_distances(m, np.full(pts.shape, c), pts, method="closed")
        assert np.max(np.abs(d - rs[:, None])) <= 1e-13


def test_cigar_circle_matches_integrated():
    # radii past the cut locus (3.05, 4.9), where exp-map points are
    # nearer than r: positions are compared, not distances
    cigar, bare = builtin_model("cigar"), _bare_cigar()
    rs = np.array([0.05, 0.8, 3.05, 4.9])
    phis = np.linspace(0, 2 * np.pi, 37)
    for c in (0.9 + 0.3j, -0.4 + 1.1j):
        z = geodesic_circle(cigar, c, rs)(phis)
        ref = geodesic_circle(bare, c, rs)(phis)
        assert np.max(np.abs(z - ref) / np.abs(ref)) <= 5e-10


def test_tabulated_circle_calls_interpolator_once(monkeypatch):
    # the tabulated backend's circles go through one circle_interpolator
    # call, looked up in _shooting when the circle is asked for
    bare = _bare_cigar()
    calls = []
    original = _shooting.circle_interpolator

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_shooting, "circle_interpolator", counted)
    circle = geodesic_circle(bare, 0.6 + 0.5j, [0.4, 0.9])
    assert len(calls) == 1
    assert circle(np.linspace(0, 6, 5)).shape == (2, 5)


@pytest.mark.parametrize("tag", ["flat", "hyperbolic", "sphere", "cigar"])
def test_circle_launch_convention(tag):
    # phi = 0 launches away from the origin, phi = pi toward it
    m = builtin_model(tag)
    c = 0.3 - 0.4j
    r0, u = distance_from_origin(m, abs(c)), c / abs(c)
    for r in (0.3, 1.2):
        z0, zpi = geodesic_circle(m, c, r)(np.array([0.0, math.pi]))
        assert abs(z0 - rho_of_r(m, r0 + r) * u) <= 1e-13 * abs(z0)
        back = math.copysign(rho_of_r(m, abs(r0 - r)), r0 - r) * u
        assert abs(zpi - back) <= 1e-13 * abs(back)


@pytest.mark.parametrize("route", ["closed", "origin", "integrated"])
def test_circle_shapes(route):
    m = _bare_cigar() if route == "integrated" else builtin_model("cigar")
    c = 0j if route == "origin" else 0.6 + 0.2j
    for r in (0.7, np.array([0.3, 0.7, 1.1])):
        circle = geodesic_circle(m, c, r)
        for phi in (0.4, np.linspace(0, 6, 5)):
            assert np.shape(circle(phi)) == np.shape(r) + np.shape(phi)


def test_circle_validation():
    m = builtin_model("sphere")
    with pytest.raises(DomainError):
        geodesic_circle(m, 0j, -1.0)
    # center at distance 1.0 from origin, radius past the cut
    c = complex(math.tan(0.5))
    with pytest.raises(DomainError):
        geodesic_circle(m, c, math.pi)
    # centers on or off the edge of the hyperbolic disk
    for c in (1.5, 1j):
        with pytest.raises(DomainError, match="outside the chart"):
            geodesic_circle(builtin_model("hyperbolic"), c, 0.3)
