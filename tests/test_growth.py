"""Max-modulus curves and the growth-side predicates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.interpolate import CubicSpline
from scipy.special import ndtri
from scipy.stats import qmc

from growthlab import (
    RadialProfile,
    _shooting,
    builtin_model,
    closed_form_convexifier,
    curvature_at_origin,
    distance_from_origin,
    geodesic_circle,
    growth,
    model_from_profile,
)
from growthlab.errors import DomainError
from growthlab.growth import (
    HoloPoly,
    _sphere_ascent,
    cone_exponent,
    growth_curve,
    homogeneity_check,
    max_modulus,
    monotonicity_check,
    necessity_deficit,
    order_at_infinity,
    probe_order,
    separation_eigenvalue,
    three_circle_check,
)

FLAT = builtin_model("flat")
FLAT2 = builtin_model("flat", n=2)
FLAT3 = builtin_model("flat", n=3)
CIGAR = builtin_model("cigar")
# the cigar as a bare profile: no closed forms, so its exp-map circles are
# integrated
BARE_CIGAR = model_from_profile(RadialProfile(
    lam=CIGAR.profile.lam, rho_max=math.inf, name="bare cigar"))
HYPER = builtin_model("hyperbolic")
SPHERE = builtin_model("sphere")

H_LOGR = closed_form_convexifier("nonneg")
H_CIGAR = closed_form_convexifier("cigar")
H_SPHERE = closed_form_convexifier("lower_bound_plus_one")


# ---------------------------------------------------------------------------
# HoloPoly

def test_poly_degree_and_vanishing_order():
    f = HoloPoly(1, {3: 2.0, 1: 1.0})
    assert f.degree == 3
    assert f.vanishing_order() == 1
    g = HoloPoly(2, {(2, 1): 1.0, (0, 3): 1j, (1, 1): 0.5})
    assert g.degree == 3
    assert g.vanishing_order() == 2


def test_poly_recentered_vanishing_order():
    # f = (z - 1)^2 vanishes to order 2 at the point 1
    f = HoloPoly(1, {0: 1.0, 1: -2.0, 2: 1.0})
    assert f.vanishing_order(1.0) == 2
    assert f.degree == 2


@given(st.lists(st.tuples(st.sampled_from(
    [0, 1, -1, 2, -2, 1j, -1j, 1 + 1j, -2 + 1j]), st.integers(1, 3)),
    min_size=1, max_size=3, unique_by=lambda t: t[0]))
@settings(max_examples=60, deadline=None)
def test_vanishing_order_of_products(factors):
    # prod (z - a_j)^m_j vanishes to order m_j at a_j and not elsewhere;
    # Gaussian-integer roots keep the expansion and its shifts exact
    f = HoloPoly(1, dict(enumerate(np.polynomial.polynomial.polyfromroots(
        [a for a, m in factors for _ in range(m)]))))
    for a, m in factors:
        assert f.vanishing_order(a) == m
    for other in (0.5 + 0.25j, 3.0):
        assert f.vanishing_order(other) == 0


def test_poly_merges_and_drops_coefficients():
    f = HoloPoly(1, {2: 1.0, (2,): -1.0, 0: 3.0})
    assert f.degree == 0 and f.coeffs == {(0,): 3.0 + 0j}


def test_poly_rejects_zero_and_bad_indices():
    with pytest.raises(DomainError):
        HoloPoly(1, {})
    with pytest.raises(DomainError):
        HoloPoly(1, {2: 1.0, (2,): -1.0})
    with pytest.raises(DomainError):
        HoloPoly(2, {(1,): 1.0})
    with pytest.raises(DomainError):
        HoloPoly(1, {-1: 1.0})
    with pytest.raises(DomainError):
        HoloPoly(2, {(1, 1): 1.0}).vanishing_order(0.5)


# ---------------------------------------------------------------------------
# max_modulus

def test_max_modulus_flat_monomial():
    assert max_modulus(FLAT, HoloPoly(1, {3: 1.0}), 0, 2.0) == 8.0


def test_max_modulus_flat_two_vars():
    got = max_modulus(FLAT2, HoloPoly(2, {(1, 1): 1.0}), 0, 1.0)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_max_modulus_cigar_z():
    got = max_modulus(CIGAR, HoloPoly(1, {1: 1.0}), 0, 2.0)
    assert got == pytest.approx(math.sinh(2.0), rel=1e-10)


def test_max_modulus_multi_term_n1():
    # positive coefficients peak on the positive axis: M = r^2 + 10 r
    f = HoloPoly(1, {2: 1.0, 1: 10.0})
    for r in (0.5, 2.0, 7.0):
        assert max_modulus(FLAT, f, 0, r) == pytest.approx(
            r * r + 10 * r, rel=1e-9)


def test_max_modulus_numeric_sphere_oracle():
    # (z1 + z2)^2 expanded: max over |z| = rho is (sqrt 2 rho)^2
    f = HoloPoly(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
    got = max_modulus(FLAT2, f, 0, 1.5)
    assert got == pytest.approx(2.0 * 1.5 ** 2, rel=1e-8)


def test_max_modulus_three_vars_monomial_factor():
    # closed form: |z1 z2 z3| maxes at |z_i|^2 = rho^2/3
    got = max_modulus(FLAT3, HoloPoly(3, {(1, 1, 1): 1.0}), 0, 1.0)
    assert got == pytest.approx(3.0 ** -1.5, rel=1e-12)


def test_max_modulus_deterministic():
    f = HoloPoly(2, {(2, 1): 1.0 + 0.3j, (0, 2): -0.7j, (1, 0): 0.2})
    a = max_modulus(FLAT2, f, 0, 1.3)
    b = max_modulus(FLAT2, f, 0, 1.3)
    assert a == b


def test_max_modulus_validation():
    f = HoloPoly(1, {1: 1.0})
    with pytest.raises(DomainError):
        max_modulus(SPHERE, f, 0, math.pi + 0.1)
    with pytest.raises(DomainError):
        max_modulus(FLAT, f, 0, -1.0)
    with pytest.raises(DomainError):
        max_modulus(FLAT2, f, 0, 1.0)
    with pytest.raises(DomainError):
        max_modulus(FLAT2, HoloPoly(2, {(1, 1): 1.0}), 0.5, 1.0)
    with pytest.raises(DomainError, match="outside the chart"):
        growth_curve(HYPER, f, center=1.5, radii=[0.1, 0.2, 0.3])


def test_max_modulus_c3_global_maximum():
    # the best four of 1,440 Halton directions polished by L-BFGS found a
    # local maximum, 5.7762; 40 Nelder-Mead runs from the best of 40,000
    # random directions agree with the value below to 1e-15
    f = HoloPoly(3, {(2, 2, 1): 0.6904 + 0.4766j, (1, 0, 4): -1.7628 - 0.3470j,
                     (4, 0, 0): -0.7912 - 0.4659j})
    got = max_modulus(FLAT3, f, 0, 1.60560)
    assert got == pytest.approx(6.102091905397318, rel=1e-9)


def test_max_modulus_c2_global_maximum():
    # L-BFGS stopped at 0.096789; reference as in the C^3 case above
    f = HoloPoly(2, {(3, 1): -0.3093 + 0.3255j, (1, 0): 0.0298 - 0.3210j,
                     (0, 3): 1.2111 - 2.3554j, (3, 2): -1.1219 + 0.0609j,
                     (1, 4): 0.2078 + 2.1432j})
    got = max_modulus(FLAT2, f, 0, 0.3)
    assert got == pytest.approx(0.0970259039867192, rel=1e-9)


def test_max_modulus_off_center_flat():
    # ball of radius 2 about z=1: max of |z| on |z-1|<=2 is 3
    got = max_modulus(FLAT, HoloPoly(1, {1: 1.0}), 1.0, 2.0)
    assert got == pytest.approx(3.0, rel=1e-10)


# ---------------------------------------------------------------------------
# growth curves

def test_growth_curve_flat_square():
    c = growth_curve(FLAT, HoloPoly(1, {2: 1.0}), 0, [1.0, 2.0, 3.0])
    assert np.allclose(c.values, [1.0, 4.0, 9.0])


def test_growth_curve_hyperbolic_z():
    c = growth_curve(HYPER, HoloPoly(1, {1: 1.0}), 0, [0.5, 1.0, 1.5])
    want = np.tanh([0.25, 0.5, 0.75])
    assert np.allclose(c.values, want, rtol=1e-10)


def test_growth_curve_sphere_z():
    c = growth_curve(SPHERE, HoloPoly(1, {1: 1.0}), 0, [0.5, 1.0, 1.5])
    want = np.tan([0.25, 0.5, 0.75])
    assert np.allclose(c.values, want, rtol=1e-10)


def test_growth_curve_validation():
    f = HoloPoly(1, {1: 1.0})
    with pytest.raises(DomainError):
        growth_curve(FLAT, f, 0, [])
    with pytest.raises(DomainError):
        growth_curve(FLAT, f, 0, [1.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        growth_curve(FLAT, f, 0, [-1.0, 1.0])


# ---------------------------------------------------------------------------
# three-circle checks

def test_three_circle_flat_z_exact():
    c = growth_curve(FLAT, HoloPoly(1, {1: 1.0}), 0, np.geomspace(0.1, 10, 12))
    rep = three_circle_check(c, H_LOGR)
    assert rep.passed
    assert abs(rep.min_second_difference) <= 1e-13


def test_three_circle_sphere_equality_model():
    c = growth_curve(SPHERE, HoloPoly(1, {1: 1.0}), 0, np.linspace(0.3, 2.8, 9))
    rep = three_circle_check(c, H_SPHERE)
    assert rep.passed
    assert np.max(np.abs(rep.second_differences)) <= 1e-10


def test_three_circle_hyperbolic_violation():
    radii = [0.5, 1.0, 1.5]
    c = growth_curve(HYPER, HoloPoly(1, {1: 1.0}), 0, radii)
    rep = three_circle_check(c, H_LOGR)
    assert rep.verdict == "violation"
    assert rep.min_second_difference < -1e-3
    # independent arithmetic oracle on the closed-form values
    L = np.log(np.tanh(np.array(radii) / 2.0))
    x = np.log(np.array(radii))
    oracle = (L[2] - L[1]) / (x[2] - x[1]) - (L[1] - L[0]) / (x[1] - x[0])
    assert rep.min_second_difference == pytest.approx(oracle, abs=1e-9)
    assert rep.argmin_r == 1.0


def test_three_circle_needs_increasing_h():
    from growthlab.comparison_ode import Convexifier
    c = growth_curve(FLAT, HoloPoly(1, {1: 1.0}), 0, [1.0, 2.0, 3.0])
    bad = Convexifier(h=lambda r: -np.log(np.asarray(r, dtype=float)),
                      h_prime=lambda r: -1.0 / np.asarray(r, dtype=float))
    with pytest.raises(DomainError):
        three_circle_check(c, bad)
    with pytest.raises(DomainError):
        three_circle_check(growth_curve(FLAT, HoloPoly(1, {1: 1.0}), 0,
                                        [1.0, 2.0]), H_LOGR)


def rand_poly(rng, n, max_deg=5, terms=4):
    coeffs = {}
    while not coeffs:
        for _ in range(terms):
            alpha = tuple(int(a) for a in rng.integers(0, max_deg + 1, size=n))
            if sum(alpha) <= max_deg:
                c = complex(rng.normal(), rng.normal())
                coeffs[alpha] = c
    return HoloPoly(n, coeffs)


@pytest.mark.parametrize("model,h,n,rlim", [
    (FLAT, H_LOGR, 1, (0.2, 4.0)),
    (FLAT2, H_LOGR, 2, (0.2, 4.0)),
    (FLAT3, H_LOGR, 3, (0.2, 4.0)),
    (CIGAR, H_CIGAR, 1, (0.2, 4.0)),
    (SPHERE, H_SPHERE, 1, (0.1, math.pi - 0.15)),
])
def test_three_circle_positivity_random(model, h, n, rlim):
    # curvature >= 0 models: convex in the exact h, and in log r too
    rng = np.random.default_rng(2026 + n + len(model.kind))
    for _ in range(5):
        f = rand_poly(rng, n)
        lo = rng.uniform(rlim[0], rlim[0] + 0.2)
        hi = rng.uniform(0.6 * rlim[1], rlim[1])
        c = growth_curve(model, f, 0, np.linspace(lo, hi, 5))
        assert three_circle_check(c, h).min_second_difference >= -1e-6
        assert three_circle_check(c, H_LOGR).min_second_difference >= -1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_max_matches_dense_search(n):
    # 25 seeded polynomials per dimension (2 to 5 terms of total degree 1
    # to 5, as in the benchmark's growth sweep) on 7 radii each, against
    # the best 64 of 20,000 random directions climbed by the same ascent
    # (an independent start set)
    rng = np.random.default_rng(4100 + n)
    model = FLAT2 if n == 2 else FLAT3
    for k in range(25):
        coeffs = {}
        while len(coeffs) < 2 + k % 4:
            alpha = tuple(int(a) for a in rng.integers(0, 6, size=n))
            if 0 < sum(alpha) <= 5:
                coeffs[alpha] = complex(*rng.normal(size=2))
        f = HoloPoly(n, coeffs)
        radii = np.geomspace(rng.uniform(0.25, 0.4), rng.uniform(5.0, 7.0), 7)
        got = growth_curve(model, f, 0, radii).values
        x = rng.normal(size=(20_000, 2 * n))
        zeta = (x[:, :n] + 1j * x[:, n:]) / np.linalg.norm(x, axis=1)[:, None]
        vals = np.array([np.abs(f.eval(r * zeta)) for r in radii])
        top = np.argsort(vals, axis=1)[:, -64:]
        ref = _sphere_ascent(
            f, (radii[:, None, None] * zeta[top]).reshape(-1, n),
            np.take_along_axis(vals, top, axis=1).ravel())[1]
        ref = ref.reshape(top.shape).max(axis=1)
        assert np.all(got >= ref * (1.0 - 1e-12)), (coeffs, got / ref - 1.0)


def test_three_circle_off_center_positivity():
    rng = np.random.default_rng(7)
    for model in (FLAT, CIGAR):
        h = H_LOGR if model is FLAT else H_CIGAR
        for _ in range(3):
            f = rand_poly(rng, 1)
            center = complex(rng.normal(), rng.normal()) * 0.4
            c = growth_curve(model, f, center, [0.4, 0.9, 1.5, 2.2])
            rep = three_circle_check(c, h)
            assert rep.min_second_difference >= -1e-6, (model.kind, f.coeffs)


def _per_radius_max(model, f, center, r):
    """max |f| on one exp-map circle as computed one radius at a time:
    all 1,024 launch angles integrated from 0 to r, periodic splines, 720
    samples and a bounded refinement of the best."""
    a = abs(center)
    phis = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    # the cigar's (log lam)'/rho = -1/(1 + rho^2)
    pts = _shooting.exp_circle_points(
        model.profile.lam, lambda rho: -1.0 / (1.0 + rho * rho), a, [r],
        phis)[0]
    pts *= center / a
    circle = CubicSpline(np.append(phis, 2 * math.pi), np.append(pts, pts[0]),
                         bc_type="periodic")
    grid = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    vals = np.abs(f.eval(circle(grid)))
    i = int(np.argmax(vals))
    step = 2 * math.pi / 720
    res = optimize.minimize_scalar(
        lambda t: -abs(f.eval(circle(t))), bounds=(grid[i] - step,
                                                    grid[i] + step),
        method="bounded", options={"xatol": 1e-10})
    return max(float(vals[i]), -float(res.fun))


def test_off_center_curve_integrates_once(monkeypatch):
    # a curve's integrated exp-map circles come from one integration
    # through all of its radii: it costs about one circle at the largest
    # radius
    calls = []
    make_rhs = _shooting._cartesian_rhs

    def counted(profile):
        rhs = make_rhs(profile)

        def wrapped(y):
            calls.append(1)
            return rhs(y)
        return wrapped

    monkeypatch.setattr(_shooting, "_cartesian_rhs", counted)
    f = HoloPoly(1, {0: 0.3, 1: 1.0 - 0.5j, 3: 0.4j})
    center, radii = 0.6 + 0.5j, [0.4, 0.9, 1.5, 2.2]
    curve = growth_curve(BARE_CIGAR, f, center, radii)
    n_curve = len(calls)
    calls.clear()
    geodesic_circle(BARE_CIGAR, center, radii[-1])
    assert 0 < n_curve <= 1.25 * len(calls)
    ref = [_per_radius_max(BARE_CIGAR, f, center, r) for r in radii]
    assert np.allclose(curve.values, ref, rtol=1e-9, atol=0.0)
    # the generic route agrees with the cigar's closed-form circles
    closed = growth_curve(CIGAR, f, center, radii)
    assert np.allclose(curve.values, closed.values, rtol=1e-8, atol=0.0)


def _scalar_search_max(model, f, center, r):
    """max |f| on one circle: the curve's samples, then a bounded scalar
    search (xatol 1e-12) between the best sample's neighbours."""
    circle = geodesic_circle(model, center, r)
    count = max(720, 16 * max(f.degree, 1))
    phis = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
    vals = np.abs(f.eval(circle(phis)))
    i = int(np.argmax(vals))
    res = optimize.minimize_scalar(
        lambda t: -abs(f.eval(circle(t))), bounds=(phis[i] - phis[1],
                                                    phis[i] + phis[1]),
        method="bounded", options={"xatol": 1e-12})
    return max(float(vals[i]), -float(res.fun))


def _circle_cases(model, rng):
    """(center, radii) pairs: centered, off-center, and near the chart
    edge (hyperbolic circles about |p| = 0.97 out to r = 5, sphere
    circles out to 0.999 (pi - r_p))."""
    out = []
    for center in (0j, complex(rng.normal(), rng.normal())):
        if model is HYPER:
            center *= 0.97 / abs(center) if center else 1.0
            top = 5.0
        elif model is SPHERE:
            top = 0.999 * (math.pi - distance_from_origin(model, abs(center)))
        else:
            top = 4.0
        out.append((center, np.sort(rng.uniform(0.05, top, 5))))
        out.append((center, np.array([0.5, 0.9, 0.99, 1.0]) * top))
    return out


@pytest.mark.parametrize("model", [FLAT, CIGAR, HYPER, SPHERE],
                         ids=["flat", "cigar", "hyperbolic", "sphere"])
def test_circle_maxima_match_scalar_search(model):
    # the batched refinement against one bounded scalar search per radius
    rng = np.random.default_rng(41)
    for _ in range(3):
        for center, rs in _circle_cases(model, rng):
            f = rand_poly(rng, 1, max_deg=7)
            got = growth_curve(model, f, center, rs).values
            ref = [_scalar_search_max(model, f, center, r) for r in rs]
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, (center, rs)


def test_circle_refinement_work_is_quadratic(monkeypatch):
    # a curve of n radii asks its circle map for n count sample points,
    # then at most C n^2 while it refines: every step evaluates each
    # circle at each angle still moving, and few steps are needed
    asked = []
    make_circle = growth.geodesic_circle

    def counted(*args):
        circle = make_circle(*args)

        def at(phi):
            z = circle(phi)
            asked.append(z.size)
            return z
        return at

    monkeypatch.setattr(growth, "geodesic_circle", counted)
    rng = np.random.default_rng(43)
    for model in (FLAT, CIGAR, HYPER, SPHERE):
        for center, rs in _circle_cases(model, rng):
            for n in (1, 5, 40):
                f = rand_poly(rng, 1)
                asked.clear()
                growth_curve(model, f, center, np.linspace(rs[0], rs[-1], n))
                count = max(720, 16 * max(f.degree, 1))
                assert sum(asked) <= n * count + 16 * n * n


# ---------------------------------------------------------------------------
# monotonicity

def test_monotonicity_flat_exact_ratio():
    c = growth_curve(FLAT, HoloPoly(1, {2: 1.0}), 0, np.geomspace(0.5, 8, 9))
    assert monotonicity_check(c, H_LOGR, 2.0, "nonincreasing").passed
    assert monotonicity_check(c, H_LOGR, 2.0, "nondecreasing").passed


def test_monotonicity_cigar_equality():
    c = growth_curve(CIGAR, HoloPoly(1, {1: 1.0}), 0, np.linspace(0.5, 6, 10))
    rep = monotonicity_check(c, H_CIGAR, 1.0, "nondecreasing")
    assert rep.passed
    # M / e^h is exactly 1 on the equality model
    assert np.allclose(c.values, np.sinh(c.radii), rtol=1e-9)


def test_monotonicity_strictly_decreasing_ratio():
    c = growth_curve(FLAT, HoloPoly(1, {2: 1.0, 1: 10.0}), 0,
                     np.geomspace(1, 50, 10))
    assert monotonicity_check(c, H_LOGR, 2.0, "nonincreasing").passed
    rep = monotonicity_check(c, H_LOGR, 2.0, "nondecreasing")
    assert rep.verdict == "violation"
    assert rep.worst > 0


def test_monotonicity_vanishing_order_direction():
    # k = 2 at the origin: log M - 2 log r nondecreasing on flat
    f = HoloPoly(1, {3: 1.0, 2: 1.0})
    assert f.vanishing_order() == 2
    c = growth_curve(FLAT, f, 0, np.geomspace(0.1, 20, 12))
    assert monotonicity_check(c, H_LOGR, 2.0, "nondecreasing").passed


def test_monotonicity_validation():
    c = growth_curve(FLAT, HoloPoly(1, {1: 1.0}), 0, [1.0, 2.0])
    with pytest.raises(DomainError):
        monotonicity_check(c, H_LOGR, 1.0, "sideways")
    with pytest.raises(DomainError):
        monotonicity_check(c, H_LOGR, -1.0, "nonincreasing")


# ---------------------------------------------------------------------------
# order at infinity

def test_order_flat_cubic():
    c = growth_curve(FLAT, HoloPoly(1, {3: 1.0}), 0, np.geomspace(1, 1000, 40))
    assert order_at_infinity(c) == pytest.approx(3.0, abs=1e-9)


def test_order_cigar_exponential():
    c = growth_curve(CIGAR, HoloPoly(1, {1: 1.0}), 0, np.geomspace(1, 200, 30))
    assert order_at_infinity(c) == math.inf


def test_order_validation():
    f = HoloPoly(1, {1: 1.0})
    with pytest.raises(DomainError):
        order_at_infinity(growth_curve(SPHERE, f, 0, np.linspace(0.1, 3, 30)))
    with pytest.raises(DomainError):
        order_at_infinity(growth_curve(FLAT, f, 0, np.geomspace(1, 50, 30)))
    with pytest.raises(DomainError):
        order_at_infinity(growth_curve(FLAT, f, 0,
                                       np.array([1.0, 2.0, 150.0])))


# ---------------------------------------------------------------------------
# necessity deficit

DEFICIT_GRID = np.geomspace(0.03, 0.18, 12)


@pytest.mark.parametrize("name,kwargs", [
    ("flat", {}), ("cigar", {}), ("hyperbolic", {}), ("sphere", {}),
    ("conformal_poly", {"coeffs": [1.0, 1.0]}),
])
def test_deficit_matches_origin_curvature(name, kwargs):
    model = builtin_model(name, **kwargs)
    grid = DEFICIT_GRID * min(1.0, model.r_max)
    c2 = necessity_deficit(model, grid)
    want = curvature_at_origin(model) / 12.0
    if want == 0.0:
        assert abs(c2) <= 1e-9
    else:
        assert c2 == pytest.approx(want, rel=0.05)


def test_deficit_frozen_values():
    assert necessity_deficit(SPHERE, DEFICIT_GRID) == pytest.approx(
        1.0 / 12.0, rel=0.05)
    poly = builtin_model("conformal_poly", coeffs=[1.0, 1.0])
    assert necessity_deficit(poly, DEFICIT_GRID) == pytest.approx(
        -1.0 / 3.0, rel=0.05)


def test_deficit_validation():
    with pytest.raises(DomainError):
        necessity_deficit(FLAT, np.geomspace(0.01, 0.1, 4))
    with pytest.raises(DomainError):
        necessity_deficit(FLAT, np.geomspace(0.05, 0.5, 12))


# ---------------------------------------------------------------------------
# homogeneity

def test_homogeneity_flat_monomial_exact():
    assert homogeneity_check(FLAT, HoloPoly(1, {3: 1.0}), 2.0, 50.0) <= 1e-10


def test_homogeneity_flat_perturbed():
    f = HoloPoly(1, {2: 1.0, 1: 1.0})
    v100 = homogeneity_check(FLAT, f, 2.0, 100.0)
    v400 = homogeneity_check(FLAT, f, 2.0, 400.0)
    assert v100 <= 0.05
    assert v400 < v100


def test_homogeneity_order_ignores_large_lower_terms():
    # log M of 100 + z^2 steepens on the moderate window (2, 200), which
    # read as exponential growth before the probe looked at (100, 1e4)
    f = HoloPoly(1, {0: 100.0, 2: 1.0})
    assert probe_order(FLAT, f) == pytest.approx(2.0, abs=1e-3)
    v100 = homogeneity_check(FLAT, f, 2.0, 100.0)
    assert homogeneity_check(FLAT, f, 2.0, 400.0) < v100 <= 0.05


def test_homogeneity_two_vars():
    f = HoloPoly(2, {(2, 0): 1.0, (0, 1): 0.5})
    v = homogeneity_check(FLAT2, f, 2.0, 200.0)
    assert 0.0 <= v <= 0.05


@pytest.mark.parametrize("model,coeffs", [
    (CIGAR, {4: 1.0, 1: 1.0}),
    (builtin_model("cigar", n=2), {(4, 0): 1.0, (0, 1): 1.0})])
def test_homogeneity_overflow_raises(model, coeffs):
    # |f| grows like e^{4r} on the cigar: with d given, the products of
    # the shell at r = 100 overflow, which is an error, not a value
    with pytest.raises(DomainError, match="overflows"):
        homogeneity_check(model, HoloPoly(model.n, coeffs), 2.0, 100.0, d=4)


def test_homogeneity_rejections():
    with pytest.raises(DomainError):
        homogeneity_check(CIGAR, HoloPoly(1, {1: 1.0}), 2.0, 5.0)
    with pytest.raises(DomainError):
        homogeneity_check(SPHERE, HoloPoly(1, {1: 1.0}), 2.0, 0.5)
    with pytest.raises(DomainError):
        homogeneity_check(FLAT, HoloPoly(1, {0: 1.0}), 2.0, 10.0)
    with pytest.raises(DomainError):
        homogeneity_check(FLAT, HoloPoly(1, {1: 1.0}), 1.0, 10.0)


# ---------------------------------------------------------------------------
# cone exponents

def test_cone_round_trip():
    for alpha in (0.0, 0.5, 1.0, 2.0, 7.0):
        for m in (2, 3, 4, 8):
            lam = separation_eigenvalue(alpha, m)
            assert cone_exponent(lam, m) == pytest.approx(alpha, abs=1e-12)


def test_cone_frozen_values():
    assert separation_eigenvalue(1.0, 2) == 1.0
    # degree-d harmonics on R^{2n}: d (2n + d - 2); n=2, d=1 gives 3
    assert separation_eigenvalue(1.0, 4) == 3.0
    assert cone_exponent(3.0, 4) == pytest.approx(1.0, abs=1e-14)


def test_cone_validation():
    with pytest.raises(DomainError):
        cone_exponent(-1.0, 4)
    with pytest.raises(DomainError):
        cone_exponent(1.0, 1)
    with pytest.raises(DomainError):
        separation_eigenvalue(-0.5, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_halton_points_match_scipy(n):
    # n = 7 reaches the primes past 13
    sampler = qmc.Halton(d=2 * n, scramble=False)
    sampler.fast_forward(1)
    expected = sampler.random(480 * n)
    got = growth._halton(2 * n, 480 * n)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    x = ndtri(expected)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    assert np.max(np.abs(growth._directions(n, 480 * n)
                         - (x[:, 0::2] + 1j * x[:, 1::2]))) <= 2e-15
