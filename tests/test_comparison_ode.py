"""Riccati supersolutions, convexifiers, growth exponents."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from growthlab import (
    BlowDownError,
    BudgetError,
    DomainError,
    RadialProfile,
    builtin_model,
    closed_form_convexifier,
    closed_form_supersolution,
    curvature_bound,
    growth_exponent,
    make_supersolution,
    model_from_profile,
    model_hessian,
    radial_curvature,
    solve_convexifier,
    solve_riccati_equality,
    verify_supersolution,
)
from growthlab import _numdiff, comparison_ode

EQUALITY_CATALOG = [
    # tag, matching constant bound c (None = cigar bound), closed-form u and h
    ("nonneg", 0.0),
    ("lower_bound_minus_one", -1.0),
    ("lower_bound_plus_one", 1.0),
    ("cigar", None),
]


def bound_for(tag, c):
    if c is None:
        return curvature_bound("cigar")
    return curvature_bound("constant", c=c)


def residual_grid(u, lo=1e-3, cap=20.0):
    hi = min(cap, (u.r_max - 0.1) if math.isfinite(u.r_max) else cap)
    return np.geomspace(lo, hi, 220)


# ---------------------------------------------------------------------------
# catalog residuals and normalizations

@pytest.mark.parametrize("tag,c", EQUALITY_CATALOG)
def test_catalog_residual_vanishes(tag, c):
    u = closed_form_supersolution(tag)
    rep = verify_supersolution(u, bound_for(tag, c), residual_grid(u))
    assert rep.passed
    assert np.max(np.abs(rep.residuals)) <= 1e-8


@pytest.mark.parametrize("tag,c", EQUALITY_CATALOG)
def test_solver_matches_catalog(tag, c):
    un = solve_riccati_equality(bound_for(tag, c), r_end=25.0)
    uc = closed_form_supersolution(tag)
    grid = residual_grid(un)
    assert np.max(np.abs(un(grid) - uc(grid))) <= 1e-9
    rep = verify_supersolution(un, bound_for(tag, c), grid)
    assert np.max(np.abs(rep.residuals)) <= 1e-8


@pytest.mark.parametrize("tag,c", EQUALITY_CATALOG)
def test_origin_normalization(tag, c):
    r0 = 1e-4
    uc = closed_form_supersolution(tag)
    assert abs(2.0 * uc(r0) * r0 - 1.0) <= 1e-6
    un = solve_riccati_equality(bound_for(tag, c), r_end=5.0)
    assert abs(2.0 * un(r0) * r0 - 1.0) <= 1e-6
    assert un.origin_normalized


def test_power_decay_supersolution_builds_no_h(monkeypatch):
    # the catalog u of power_decay needs none of its h quadrature
    def no_panels(*args, **kwargs):
        raise AssertionError("the power-decay u must not build h")

    monkeypatch.setattr(comparison_ode, "_log_r_panels", no_panels)
    u = closed_form_supersolution("power_decay", A=1.0, eps=0.4)
    rs = np.geomspace(1e-3, 50.0, 20)
    assert np.allclose(u(rs), 0.5 / rs + 1.0 / (1.0 + rs) ** 1.4,
                       rtol=1e-15, atol=0.0)


def test_power_decay_normalized_in_the_limit():
    # finite-r probe deviates at first order (2 A r), the limit holds
    u = closed_form_supersolution("power_decay", A=2.0, eps=0.25)
    assert u.origin_normalized
    assert abs(2.0 * u(1e-7) * 1e-7 - 1.0) <= 1e-6
    assert u.origin_residual == pytest.approx(4e-4, rel=1e-2)


@pytest.mark.parametrize("tag", [t for t, _ in EQUALITY_CATALOG]
                         + ["power_decay"])
def test_convexifier_normalization(tag):
    kw = dict(A=1.0, eps=0.4) if tag == "power_decay" else {}
    h = closed_form_convexifier(tag, **kw)
    r0 = 1e-4
    assert abs(math.exp(h(r0)) / r0 - 1.0) <= 1e-5


@pytest.mark.parametrize("tag,kw", [(t, {}) for t, _ in EQUALITY_CATALOG]
                         + [("power_decay", dict(A=1.0, eps=0.4)),
                            ("power_decay", dict(A=0.05, eps=0.49))])
def test_catalog_derivatives_match_functions(tag, kw):
    # u' against u, h' against h and h'' against h' by central differences
    u = closed_form_supersolution(tag, **kw)
    h = closed_form_convexifier(tag, **kw)
    rs = np.geomspace(1e-2, min(20.0, 0.97 * u.r_max), 80)
    step = 1e-5 * rs
    for f, df in ((u.u, u.u_prime), (h.h, h.h_prime),
                  (h.h_prime, h.h_second)):
        central = (np.asarray(f(rs + step)) - np.asarray(f(rs - step))) \
            / (2.0 * step)
        want = np.asarray(df(rs))
        scale = np.abs(want) + np.abs(np.asarray(f(rs))) / rs
        assert np.max(np.abs(central - want) / scale) <= 1e-6


def test_minus_one_h_prime_frozen_value():
    h = closed_form_convexifier("lower_bound_minus_one")
    assert h.h_prime(2.0) == pytest.approx(1.0 / math.sinh(2.0), abs=1e-14)
    assert h.h_prime(2.0) == pytest.approx(0.27573, abs=1e-5)
    # the trigonometric h carry the factor 2 that makes e^h/r -> 1: they
    # sit log 2 above the bare log-tanh and log-tan shapes
    rs = np.array([0.05, 0.5, 1.0, 2.0, 3.0])
    for tag, shape in (("lower_bound_minus_one", np.tanh),
                       ("lower_bound_plus_one", np.tan)):
        offset = (closed_form_convexifier(tag)(rs)
                  - np.log(shape(0.5 * rs)))
        assert np.max(np.abs(offset - math.log(2.0))) <= 1e-14, tag


@pytest.mark.parametrize("tag,kw,end", [
    ("nonneg", {}, math.inf),
    ("lower_bound_minus_one", {}, math.inf),
    ("lower_bound_plus_one", {}, math.pi),
    ("cigar", {}, math.inf),
    ("power_decay", {"A": 1.0, "eps": 0.4}, 1e6),
])
def test_catalog_h_domains(tag, kw, end):
    # the last catalog column: where each h is defined (power_decay's h
    # is a quadrature tabulated up to 1e6)
    assert closed_form_convexifier(tag, **kw).domain == (0.0, end)


@pytest.mark.parametrize("tag,c", EQUALITY_CATALOG)
def test_pair_ode_closed_forms(tag, c):
    u = closed_form_supersolution(tag)
    h = closed_form_convexifier(tag)
    hi = min(20.0, u.r_max * 0.97 if math.isfinite(u.r_max) else 20.0)
    grid = np.geomspace(1e-3, hi, 180)
    res = (0.5 * np.asarray(h.h_second(grid))
           + np.asarray(h.h_prime(grid)) * np.asarray(u(grid)))
    assert np.max(np.abs(res)) <= 1e-8
    assert np.all(np.asarray(h.h_prime(grid)) > 0)


# ---------------------------------------------------------------------------
# solved convexifiers

@pytest.mark.parametrize("tag,c,glo,ghi", [
    ("nonneg", 0.0, 0.01, 20.0),
    ("lower_bound_minus_one", -1.0, 0.01, 20.0),
    ("lower_bound_plus_one", 1.0, 0.05, 3.0),
    ("cigar", None, 0.01, 20.0),
])
def test_solved_convexifier_matches_catalog(tag, c, glo, ghi):
    un = solve_riccati_equality(bound_for(tag, c), r_end=25.0)
    hn = solve_convexifier(un)
    hc = closed_form_convexifier(tag)
    grid = np.geomspace(glo, min(ghi, hn.domain[1] * 0.999), 140)
    d = np.asarray(hn(grid)) - np.asarray(hc(grid))
    assert np.max(np.abs(d - np.median(d))) <= 1e-7
    assert np.max(np.abs(np.asarray(hn.h_prime(grid))
                         - np.asarray(hc.h_prime(grid)))) <= 1e-7
    assert np.all(np.asarray(hn.h_prime(grid)) > 0)


def test_solved_convexifier_power_decay():
    u = closed_form_supersolution("power_decay", A=1.0, eps=0.4)
    hn = solve_convexifier(u, r_end=50.0)
    hc = closed_form_convexifier("power_decay", A=1.0, eps=0.4)
    grid = np.geomspace(0.01, 49.0, 140)
    d = np.asarray(hn(grid)) - np.asarray(hc(grid))
    assert np.max(np.abs(d - np.median(d))) <= 1e-7


@pytest.mark.parametrize("A,eps", [(1.0, 0.4), (0.05, 0.49)])
def test_solved_power_decay_h_matches_quadrature(A, eps):
    # V's integrand tends to A at r = 0, so V must start at A r_s, not 0;
    # the reference integrates the closed-form h' with adaptive quad
    def h_prime(r):
        return math.exp(2.0 * A / (eps * (1.0 + r) ** eps) - 2.0 * A / eps) / r

    grid = np.geomspace(1e-3, 29.4, 200)
    ref = np.concatenate([[0.0], np.cumsum([
        quad(h_prime, x, y, epsabs=1e-15, epsrel=1e-13)[0]
        for x, y in zip(grid[:-1], grid[1:])])])
    u = closed_form_supersolution("power_decay", A=A, eps=eps)
    d = np.asarray(solve_convexifier(u, r_end=29.4)(grid)) - ref
    assert np.max(np.abs(d - np.median(d))) <= 1e-10


def test_convexifier_calls_u_with_arrays_only(monkeypatch):
    def no_ivp(*args, **kwargs):
        raise AssertionError("h must not be built by solve_ivp")

    solved = solve_riccati_equality(curvature_bound("cigar"), r_end=12.0)
    monkeypatch.setattr(comparison_ode.integrate, "solve_ivp", no_ivp)
    for base in (closed_form_supersolution("power_decay", A=1.0, eps=0.4),
                 solved):
        args = []

        def u(r, base=base):
            args.append(r)
            return base.u(r)

        h = solve_convexifier(replace(base, u=u), r_end=10.0)
        assert 0 < len(args) <= 40
        assert all(isinstance(r, np.ndarray) and r.ndim == 1 for r in args)
        assert np.isfinite(h(np.geomspace(1e-3, 10.0, 50))).all()
    h = closed_form_convexifier("power_decay", A=1.0, eps=0.4)
    assert abs(math.exp(h(1e-4)) / 1e-4 - 1.0) <= 1e-12


def test_solved_convexifier_second_derivative_consistent():
    un = solve_riccati_equality(curvature_bound("constant", c=-1.0), r_end=10.0)
    hn = solve_convexifier(un)
    # h'' from the stored relation h'' = -2 u h' should agree with a
    # central difference of h' itself
    for r in (0.5, 2.0, 7.0):
        eps = 1e-5 * (1 + r)
        num = (hn.h_prime(r + eps) - hn.h_prime(r - eps)) / (2 * eps)
        assert num == pytest.approx(hn.h_second(r), rel=1e-6, abs=1e-10)


def test_solve_convexifier_requires_normalization():
    bad = make_supersolution(lambda r: 1.0 / np.asarray(r, dtype=float))
    assert not bad.origin_normalized
    with pytest.raises(DomainError):
        solve_convexifier(bad)


@pytest.mark.parametrize("c,verdict,min_residual", [
    (0.5, "pass", 0.0), (0.4, "fail", -8.0)])
def test_verify_supersolution_differences_u(c, verdict, min_residual):
    # without u_prime, u' comes from finite differences: u = c/r under
    # g = 0 leaves (2c^2 - c)/r^2, zero for c = 1/2 and -8 at r = 0.1 for
    # c = 0.4
    u = make_supersolution(lambda r: c / np.asarray(r, dtype=float))
    assert u.u_prime is None
    rep = verify_supersolution(u, curvature_bound("constant", c=0.0),
                               np.geomspace(0.1, 5.0, 40))
    assert rep.verdict == verdict
    assert rep.witness["min_residual"] == pytest.approx(min_residual,
                                                        abs=1e-9)
    assert rep.witness["argmin_r"] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# the power-decay sign

@pytest.mark.parametrize("A,eps", [(0.05, 0.49), (1.0, 0.4), (2.0, 0.25)])
def test_power_decay_supersolution_sign(A, eps):
    # u = 1/(2r) + A/(1+r)^(1+eps) against g = -A/(1+r)^(2+eps): the
    # residual must be nonnegative for eps < 1/2 (supersolution side)
    u = closed_form_supersolution("power_decay", A=A, eps=eps)
    g = curvature_bound("power_decay", A=A, eps=eps)
    grid = np.geomspace(1e-3, 50.0, 400)
    rep = verify_supersolution(u, g, grid)
    assert rep.passed
    assert rep.witness["min_residual"] >= 0.0


def test_power_decay_residual_closed_form():
    # independent oracle: residual = 2A/(r(1+r)^(1+e)) - A(3/2+e)/(1+r)^(2+e)
    #                                + 2A^2/(1+r)^(2+2e)
    A, eps = 1.0, 0.4
    u = closed_form_supersolution("power_decay", A=A, eps=eps)
    g = curvature_bound("power_decay", A=A, eps=eps)
    grid = np.geomspace(0.01, 30.0, 50)
    rep = verify_supersolution(u, g, grid)
    expect = (2 * A / (grid * (1 + grid) ** (1 + eps))
              - A * (1.5 + eps) / (1 + grid) ** (2 + eps)
              + 2 * A ** 2 / (1 + grid) ** (2 + 2 * eps))
    assert np.allclose(rep.residuals, expect, rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# inverse-square bounds at large radius

def test_inverse_square_supersolution():
    # roots of 2x^2 - x + C/2 with C = 0.18; the rational supersolution
    # (a B r^k - b)/(r (B r^k - 1)) works against C/r^2 on r >= 2
    C, B = 0.18, 1.0
    roots = np.sort(np.roots([2.0, -1.0, C / 2.0]))
    b, a = float(roots[0]), float(roots[1])
    assert abs(2 * a * a - a + C / 2) <= 1e-12
    assert abs(2 * b * b - b + C / 2) <= 1e-12
    k = 2 * a - 2 * b
    assert k == pytest.approx(math.sqrt(1 - 4 * C), abs=1e-12)

    def u(r):
        r = np.asarray(r, dtype=float)
        return (a * B * r ** k - b) / (r * (B * r ** k - 1.0))

    def du(r):
        r = np.asarray(r, dtype=float)
        num = a * B * r ** k - b
        den = r * (B * r ** k - 1.0)
        dnum = a * B * k * r ** (k - 1)
        dden = B * (k + 1) * r ** k - 1.0
        return (dnum * den - num * dden) / den ** 2

    ub = make_supersolution(u, u_prime=du, origin_normalized=False)
    gb = curvature_bound("inverse_square", C=C, r0=2.0)
    rep = verify_supersolution(ub, gb, np.geomspace(2.0, 200.0, 300))
    assert rep.passed
    assert rep.witness["min_residual"] >= -1e-8


def test_inverse_square_guards():
    gb = curvature_bound("inverse_square", C=0.18, r0=2.0)
    with pytest.raises(DomainError):
        solve_riccati_equality(gb)
    with pytest.raises(DomainError):
        verify_supersolution(closed_form_supersolution("nonneg"), gb,
                             np.linspace(1.0, 5.0, 10))


# ---------------------------------------------------------------------------
# blow-down under positive bounds

def test_blow_down_radius_sphere():
    un = solve_riccati_equality(curvature_bound("constant", c=1.0))
    assert un.blow_down == pytest.approx(math.pi, abs=1e-6)
    # u passes through 0 and goes negative before the blow-down
    assert un(math.pi / 2) == pytest.approx(0.0, abs=1e-10)
    assert un(2.5) < 0
    with pytest.raises(BlowDownError):
        un(3.2)


def test_blow_down_radius_scales_with_bound():
    # the first zero of the Jacobi field sin(sqrt(c) r)/sqrt(c); u ends
    # where 2 u r = -1e4 to leading order
    for c in (0.25, 1.0, 4.0):
        un = solve_riccati_equality(curvature_bound("constant", c=c))
        assert abs(un.blow_down - math.pi / math.sqrt(c)) <= 1e-12
        assert un.r_max == pytest.approx(un.blow_down / (1.0 + 1e-4),
                                         rel=1e-15)


# ---------------------------------------------------------------------------
# cross-module consistency with the model geometry

@pytest.mark.parametrize("name", ["flat", "cigar", "hyperbolic", "sphere"])
def test_equality_solution_matches_model_hessian(name):
    model = builtin_model(name)
    r_hi = min(5.0, (model.r_max - 0.05) if math.isfinite(model.r_max) else 5.0)
    g = curvature_bound("custom", g=lambda r: radial_curvature(model, r))
    un = solve_riccati_equality(g, r_end=r_hi + 0.02)
    grid = np.linspace(0.05, min(r_hi, un.r_max - 1e-9), 120)
    got = un(grid)
    want = model_hessian(model, grid)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_equality_solution_on_bare_cigar_curvature(monkeypatch):
    # the bare profile's curvature must be smooth enough for the Riccati
    # solve to finish in a few panel rounds, each one call of g on a 1-d
    # array of nodes, with no ODE stepper, and reproduce the cigar's u
    def no_ivp(*args, **kwargs):
        raise AssertionError("the Riccati solve must not call solve_ivp")

    monkeypatch.setattr(comparison_ode.integrate, "solve_ivp", no_ivp)
    cigar = builtin_model("cigar").profile
    bare = model_from_profile(RadialProfile(lam=cigar.lam, rho_max=math.inf,
                                            name="bare"))
    args = []

    def g(r):
        args.append(r)
        return radial_curvature(bare, r)

    un = solve_riccati_equality(curvature_bound("custom", g=g), r_end=5.0)
    grid = np.linspace(0.05, 5.0, 120)
    assert np.max(np.abs(un(grid) - 1.0 / np.sinh(2.0 * grid))) <= 1e-8
    assert 0 < len(args) <= 20
    assert all(isinstance(r, np.ndarray) and r.ndim == 1 for r in args)


def test_solved_residual_needs_no_numdiff(monkeypatch):
    # the solved u carries u', so verification differentiates nothing
    def no_numdiff(*args, **kwargs):
        raise AssertionError("verify_supersolution must not difference u")

    monkeypatch.setattr(_numdiff, "first_derivative", no_numdiff)
    g = curvature_bound("constant", c=1.0)
    un = solve_riccati_equality(g)
    rep = verify_supersolution(un, g, np.geomspace(1e-3, 0.995 * un.r_max,
                                                   400))
    assert rep.witness["min_residual"] >= -1e-10


def test_evaluation_budget_raises(monkeypatch):
    monkeypatch.setattr(comparison_ode, "_MAX_RHS", 10)
    with pytest.raises(BudgetError, match="Riccati solve"):
        solve_riccati_equality(curvature_bound("constant", c=-1.0), r_end=5.0)
    with pytest.raises(BudgetError, match="convexifier"):
        solve_convexifier(closed_form_supersolution("lower_bound_minus_one"),
                          r_end=5.0)


@pytest.mark.parametrize("name,c", [
    ("cigar", 0.0),        # cigar curvature 2/cosh^2 >= 0
    ("sphere", 0.0),       # sphere curvature +1 >= 0
    ("hyperbolic", -1.0),  # equality case
    ("cigar", -1.0),       # strictly weaker bound
])
def test_comparison_direction(name, c):
    # a weaker curvature bound gives a larger equality solution:
    # model_hessian <= u_g whenever g <= radial_curvature(model)
    model = builtin_model(name)
    r_hi = min(3.0, (model.r_max - 0.1) if math.isfinite(model.r_max) else 3.0)
    grid = np.linspace(0.05, r_hi, 80)
    assert np.all(np.asarray(radial_curvature(model, grid)) >= c - 1e-12)
    ug = solve_riccati_equality(curvature_bound("constant", c=c),
                                r_end=r_hi + 0.02)
    assert np.all(model_hessian(model, grid) <= ug(grid) + 1e-7)


@given(st.floats(-2.0, 0.5), st.floats(-2.0, 0.5))
@settings(max_examples=20, deadline=None)
def test_monotone_dependence_on_bound(c1, c2):
    lo, hi = sorted((c1, c2))
    u_lo = solve_riccati_equality(curvature_bound("constant", c=lo), r_end=2.5)
    u_hi = solve_riccati_equality(curvature_bound("constant", c=hi), r_end=2.5)
    grid = np.linspace(0.05, 2.0, 40)
    assert np.all(u_lo(grid) >= u_hi(grid) - 1e-8)


def test_denormal_scale_bound_flushes_to_flat():
    # a bound at denormal scale must behave exactly like g = 0
    u = solve_riccati_equality(curvature_bound("constant", c=2.4e-157))
    grid = np.linspace(0.05, 40.0, 60)
    assert np.max(np.abs(u(grid) - 0.5 / grid)) <= 1e-12


# ---------------------------------------------------------------------------
# growth exponents

def test_growth_exponent_log_r():
    assert growth_exponent(closed_form_convexifier("nonneg"),
                           (10.0, 1e4)) == pytest.approx(1.0, abs=1e-12)


def test_growth_exponent_power_decay():
    h = closed_form_convexifier("power_decay", A=0.05, eps=0.5)
    got = growth_exponent(h, (1e3, 1e5))
    assert got == pytest.approx(math.exp(-0.2), rel=0.02)


def test_growth_exponent_superlogarithmic():
    assert growth_exponent(closed_form_convexifier("cigar"),
                           (5.0, 20.0)) == math.inf


def test_growth_exponent_window_validation():
    h = closed_form_convexifier("nonneg")
    with pytest.raises(DomainError):
        growth_exponent(h, (5.0, 20.0))      # finite slope, under a decade
    with pytest.raises(DomainError):
        growth_exponent(h, (0.5, 100.0))     # window must start above 1
    hp = closed_form_convexifier("lower_bound_plus_one")
    with pytest.raises(DomainError):
        growth_exponent(hp, (1.1, 20.0))     # exceeds the h domain


# ---------------------------------------------------------------------------
# constructor validation

def test_bound_validation():
    with pytest.raises(DomainError):
        curvature_bound("power_decay", A=-1.0, eps=0.4)
    with pytest.raises(DomainError):
        curvature_bound("power_decay", A=1.0, eps=0.0)
    with pytest.raises(DomainError):
        curvature_bound("inverse_square", C=0.3, r0=1.0)
    with pytest.raises(DomainError):
        curvature_bound("inverse_square", C=0.18, r0=0.0)
    with pytest.raises(DomainError):
        curvature_bound("no_such_tag")
    with pytest.raises(DomainError):
        curvature_bound("cigar", extra=1.0)
    # a missing, non-finite or malformed parameter is named
    for call, kw, name in [
            (curvature_bound, {"tag": "constant"}, "c"),
            (curvature_bound, {"tag": "power_decay", "A": 1.0}, "eps"),
            (curvature_bound, {"tag": "inverse_square", "C": 0.1}, "r0"),
            (closed_form_convexifier, {"tag": "power_decay"}, "A"),
            (curvature_bound, {"tag": "constant", "c": math.nan}, "c"),
            (closed_form_convexifier,
             {"tag": "power_decay", "A": 1.0, "eps": math.inf}, "eps"),
            (curvature_bound, {"tag": "constant", "c": "x"}, "c")]:
        with pytest.raises(DomainError, match=f"parameter {name} "):
            call(**kw)
    # a custom bound needs a callable g, or the solve fails far from here
    for kw in [{}, {"g": 3.0}]:
        with pytest.raises(DomainError, match="callable g"):
            curvature_bound("custom", **kw)


def test_cigar_closed_forms_finite_at_large_r():
    # written in q = e^{-2r}, they stay finite and raise no warning where
    # sinh and cosh overflow (r > ~355), and match the textbook forms
    # wherever those are finite and nonzero
    r = np.array([1e-3, 0.5, 1.0, 5.0, 20.0, 360.0, 400.0, 800.0])
    cigar, u = builtin_model("cigar"), closed_form_supersolution("cigar")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [radial_curvature(cigar, r), curvature_bound("cigar").g(r),
               model_hessian(cigar, r), u(r), u.u_prime(r),
               closed_form_convexifier("cigar").h_second(r)]
    with np.errstate(all="ignore"):
        want = [2.0 / np.cosh(r) ** 2, 2.0 / np.cosh(r) ** 2,
                1.0 / np.sinh(2.0 * r), 1.0 / np.sinh(2.0 * r),
                -2.0 * np.cosh(2.0 * r) / np.sinh(2.0 * r) ** 2,
                -1.0 / np.sinh(r) ** 2]
    for new, old in zip(got, want):
        new = np.asarray(new, dtype=float)
        assert np.all(np.isfinite(new))
        keep = np.isfinite(old) & (old != 0)
        assert np.allclose(new[keep], old[keep], rtol=1e-15, atol=0)
    # u solves the Riccati equation of its own bound out to r = 400
    rep = verify_supersolution(u, curvature_bound("cigar"),
                               np.geomspace(1.0, 400.0, 50))
    assert rep.verdict == "pass"


def test_supersolution_tag_validation():
    with pytest.raises(DomainError):
        closed_form_supersolution("no_such_tag")
    with pytest.raises(DomainError):
        closed_form_convexifier("no_such_tag")
    with pytest.raises(DomainError):
        closed_form_supersolution("power_decay", A=1.0, eps=-0.1)


def test_verify_grid_validation():
    u = closed_form_supersolution("nonneg")
    g = curvature_bound("constant", c=0.0)
    with pytest.raises(DomainError):
        verify_supersolution(u, g, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DomainError):
        verify_supersolution(u, g, np.array([2.0, 1.0, 3.0]))
    with pytest.raises(DomainError):
        verify_supersolution(u, g, np.array([1.0]))
