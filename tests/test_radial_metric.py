"""Radial model geometry: coordinates, curvature, model Hessian."""
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetError,
    ConjugatePointError,
    DomainError,
    RadialProfile,
    builtin_model,
    curvature_at_origin,
    distance_from_origin,
    geodesic_circle,
    load_profile_table,
    model_from_profile,
    model_hessian,
    radial_curvature,
    rho_of_r,
)
from growthlab import _numdiff, radial_metric

TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "cigar_61.txt"


def all_models():
    return [
        ("flat", builtin_model("flat")),
        ("cigar", builtin_model("cigar")),
        ("hyperbolic", builtin_model("hyperbolic", kappa=1.0)),
        ("sphere", builtin_model("sphere", kappa=1.0)),
        ("conformal_poly", builtin_model("conformal_poly", coeffs=[1.0, 1.0])),
    ]


def r_grid(model, lo=0.05, hi=5.0, k=40):
    top = min(hi, model.r_max - 0.05) if math.isfinite(model.r_max) else hi
    return np.linspace(lo, top, k)


# ---------------------------------------------------------------------------
# construction and coordinates

def test_unknown_tag_rejected():
    with pytest.raises(DomainError):
        builtin_model("torus")


def test_table_models_come_from_model_from_profile():
    # a table is a profile: builtin_model takes no table tag or path
    with pytest.raises(TypeError):
        builtin_model("custom", table=str(TABLE))


def test_conformal_poly_needs_coeffs():
    with pytest.raises(DomainError):
        builtin_model("conformal_poly")
    with pytest.raises(DomainError):
        builtin_model("conformal_poly", coeffs=[-1.0, 2.0])  # lam(0) <= 0


def test_dimension_validation():
    with pytest.raises(DomainError):
        builtin_model("flat", n=0)


@pytest.mark.parametrize("name,model", all_models())
def test_round_trip_r_rho(name, model):
    rs = r_grid(model, lo=0.0, k=60)
    rho = rho_of_r(model, rs)
    back = distance_from_origin(model, rho)
    assert np.max(np.abs(back - rs)) <= 1e-10 * (1 + np.max(rho))


def test_distance_closed_forms():
    # frozen coordinate maps: r(rho) for each built-in profile
    rho = np.linspace(0.0, 0.9, 20)
    assert np.allclose(distance_from_origin(builtin_model("flat"), rho), rho,
                       rtol=0, atol=1e-14)
    assert np.allclose(distance_from_origin(builtin_model("cigar"), rho),
                       np.arcsinh(rho), rtol=0, atol=1e-13)
    assert np.allclose(distance_from_origin(builtin_model("hyperbolic"), rho),
                       np.log((1 + rho) / (1 - rho)), rtol=0, atol=1e-12)
    assert np.allclose(distance_from_origin(builtin_model("sphere"), rho),
                       2 * np.arctan(rho), rtol=0, atol=1e-13)
    assert np.allclose(
        distance_from_origin(builtin_model("conformal_poly",
                                           coeffs=[1.0, 1.0]), rho),
        rho + rho ** 3 / 3, rtol=0, atol=1e-13)
    # the table's Gauss-Legendre panels integrate lam = P(rho^2) exactly,
    # up to the edge of a disk
    for c in ([1.0, -0.5], [1.0, 0.3, -0.02]):
        m = builtin_model("conformal_poly", coeffs=c)
        rho = np.linspace(0.0, m.profile.rho_max * (1 - 1e-9), 200)[1:]
        exact = sum(ci * rho ** (2 * i + 1) / (2 * i + 1)
                    for i, ci in enumerate(c))
        assert np.max(np.abs(distance_from_origin(m, rho) / exact - 1)) \
            <= 1e-14, c


def test_kappa_rescaling():
    # lam scales as 1/sqrt(kappa); distances too
    m1 = builtin_model("hyperbolic", kappa=1.0)
    m4 = builtin_model("hyperbolic", kappa=4.0)
    assert math.isclose(distance_from_origin(m4, 0.5),
                        0.5 * distance_from_origin(m1, 0.5), rel_tol=1e-14)
    m4s = builtin_model("sphere", kappa=4.0)
    assert math.isclose(m4s.r_max, math.pi / 2, rel_tol=1e-15)


@pytest.mark.parametrize("model,rho_top", [
    (model_from_profile(RadialProfile(lam=lambda rho: np.exp(rho * rho),
                                      rho_max=math.inf, name="exp")), 5.0),
    (builtin_model("conformal_poly", coeffs=[1.0] + [0.1] * 11), 3.0),
])
def test_tabulated_round_trip_steep_profiles(model, rho_top):
    # the Hermite guess leaves the panel on steep profiles; clipped, Newton
    # converges (lam = exp(rho^2) read NaN past r = 8.6e4 without the clip)
    rs = np.geomspace(1e-3, distance_from_origin(model, rho_top), 400)
    rho = rho_of_r(model, rs)
    assert np.all(np.isfinite(rho))
    assert np.max(np.abs(distance_from_origin(model, rho) / rs - 1)) <= 1e-12


def test_cigar_rho_stops_at_the_float_range():
    # sinh r is finite up to r = asinh(max float) and not past it: rho_of_r
    # names that limit, as the tabulated chart names the end of its table
    cigar = builtin_model("cigar")
    assert math.isfinite(rho_of_r(cigar, 710.4758600739439))
    with pytest.raises(DomainError,
                       match=r"past r = 710\.4758600739439, got 720\.0"):
        rho_of_r(cigar, [1.0, 720.0])


def test_steep_profiles_build_without_warnings():
    # lam = exp(rho^2) overflows on the last G panels: they are not fitted
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model_from_profile(RadialProfile(lam=lambda rho: np.exp(rho * rho),
                                         rho_max=math.inf, name="exp"))
        builtin_model("conformal_poly", coeffs=[1.0] + [0.1] * 11)


@pytest.mark.parametrize("lam,points", [
    (lambda rho: np.exp(rho * rho), 6516),
    (lambda rho: np.exp(-rho * rho), 6444),
    (lambda rho: (1.0 + rho * rho) ** 2, 16140),
    (builtin_model("cigar").profile.lam, 18588),
])
def test_g_panels_end_with_the_chart(lam, points):
    # the chart takes 6,084 lam points on its 554 knots, and each G panel
    # 24 up to the last knot the chart kept: exp(+-rho^2) and (1+rho^2)^2
    # end early (the cigar keeps every knot), where sampling every panel
    # took 18,588 points on each profile
    count = [0]

    def counted(rho):
        count[0] += np.size(rho)
        return lam(rho)

    model_from_profile(RadialProfile(lam=counted, rho_max=math.inf,
                                     name="counted"))
    assert count[0] == points


def test_tabulated_rho_of_r_budget(monkeypatch):
    m = builtin_model("conformal_poly", coeffs=[1.0] + [0.1] * 11)
    monkeypatch.setattr(radial_metric, "_NEWTON_CAP", 2)
    with pytest.raises(BudgetError, match="Newton steps"):
        rho_of_r(m, np.geomspace(1.0, 1e6, 464))


def test_domain_errors_name_one_value():
    # 464 radii out of range make a one-line message, not the array
    sphere = builtin_model("sphere")
    rs = np.linspace(0.5, 4.0, 464)
    calls = [
        (distance_from_origin, builtin_model("hyperbolic"), rs, DomainError),
        (rho_of_r, sphere, rs, DomainError),
        (radial_curvature, sphere, rs, DomainError),
        (model_hessian, sphere, rs, ConjugatePointError),
        (model_hessian, sphere, -rs, DomainError),
        (rho_of_r, builtin_model("conformal_poly", coeffs=[1.0, -0.5]), rs,
         DomainError),
    ]
    for fn, m, r, error in calls:
        with pytest.raises(error) as info:
            fn(m, r)
        assert len(str(info.value)) < 200 and "\n" not in str(info.value)


def test_rho_of_r_domain():
    m = builtin_model("sphere")
    with pytest.raises(DomainError):
        rho_of_r(m, math.pi)
    with pytest.raises(DomainError):
        rho_of_r(m, -0.1)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=20.0))
def test_round_trip_cigar_property(rho):
    m = builtin_model("cigar")
    r = distance_from_origin(m, rho)
    assert math.isclose(rho_of_r(m, r), rho, rel_tol=1e-10, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# curvature

def test_curvature_closed_forms():
    rs = np.linspace(0.05, 3.0, 30)
    assert np.allclose(radial_curvature(builtin_model("flat"), rs), 0.0,
                       atol=1e-15)
    assert np.allclose(radial_curvature(builtin_model("cigar"), rs),
                       2.0 / np.cosh(rs) ** 2, rtol=1e-13)
    assert np.allclose(radial_curvature(builtin_model("hyperbolic"), rs),
                       -1.0, rtol=1e-13)
    k = 2.7
    assert np.allclose(
        radial_curvature(builtin_model("hyperbolic", kappa=k), rs), -k,
        rtol=1e-13)
    rs_s = np.linspace(0.05, 3.0, 30)
    assert np.allclose(radial_curvature(builtin_model("sphere"), rs_s), 1.0,
                       rtol=1e-13)


def test_curvature_at_origin_values():
    assert math.isclose(curvature_at_origin(builtin_model("flat")), 0.0,
                        abs_tol=1e-15)
    assert math.isclose(curvature_at_origin(builtin_model("cigar")), 2.0,
                        rel_tol=1e-12)
    assert math.isclose(curvature_at_origin(builtin_model("hyperbolic")),
                        -1.0, rel_tol=1e-12)
    assert math.isclose(curvature_at_origin(builtin_model("sphere")), 1.0,
                        rel_tol=1e-12)
    # lam = 1 + rho^2: H(0) = -2 (log lam)''(0) / lam(0)^2 = -4
    assert math.isclose(
        curvature_at_origin(builtin_model("conformal_poly",
                                          coeffs=[1.0, 1.0])),
        -4.0, rel_tol=1e-12)


@pytest.mark.parametrize("name,exact", [
    ("flat", lambda r: 0.0 * r),
    ("cigar", lambda r: 2.0 / np.cosh(r) ** 2),
    ("hyperbolic", lambda r: -1.0 + 0.0 * r),
    ("sphere", lambda r: 1.0 + 0.0 * r),
])
def test_curvature_numeric_profile_oracle(name, exact):
    # strip the closed forms: everything must come out of lam alone
    full = builtin_model(name)
    prof = full.profile
    bare = RadialProfile(lam=prof.lam, rho_max=prof.rho_max, name="bare")
    m = model_from_profile(bare)
    rs = r_grid(full)
    err = np.abs(radial_curvature(m, rs) - exact(rs))
    assert np.max(err) <= 1e-6


def test_bare_cigar_matches_builtin():
    # generic routes against closed forms on the same geometry, on the
    # 100 geometric radii of the benchmark's gate (H 3.55e-9, u 8.5e-12)
    cigar = builtin_model("cigar")
    bare = model_from_profile(RadialProfile(
        lam=cigar.profile.lam, rho_max=cigar.profile.rho_max, name="bare"))
    rs = np.geomspace(0.05, 5.0, 100)
    assert np.max(np.abs(radial_curvature(bare, rs)
                         - 2.0 / np.cosh(rs) ** 2)) <= 3.5e-9
    assert np.max(np.abs(model_hessian(bare, rs)
                         - 1.0 / np.sinh(2.0 * rs))) <= 1e-12
    assert np.max(np.abs(rho_of_r(bare, rs) / np.sinh(rs) - 1.0)) <= 1e-14


def test_generic_routes_need_no_quadrature(tmp_path, monkeypatch):
    # every model without closed forms is tabulated when it is built;
    # afterwards no adaptive quadrature, root bracketing or finite
    # differences may run
    rho = np.linspace(0.0, 6.0, 61)
    path = tmp_path / "cigar.txt"
    np.savetxt(path, np.column_stack([rho, 1.0 / np.sqrt(1.0 + rho ** 2)]),
               header="rho lambda")
    cigar = builtin_model("cigar").profile
    models = [
        model_from_profile(RadialProfile(lam=cigar.lam, rho_max=math.inf,
                                         name="bare")),
        model_from_profile(load_profile_table(str(path))),
        builtin_model("conformal_poly", coeffs=[1.0, 0.5, 0.25]),
        builtin_model("conformal_poly", coeffs=[1.0, -0.5]),
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("called after the model was built")

    monkeypatch.setattr(radial_metric.integrate, "quad", forbidden)
    monkeypatch.setattr(radial_metric.optimize, "brentq", forbidden)
    monkeypatch.setattr(radial_metric._numdiff, "first_derivative", forbidden)
    monkeypatch.setattr(radial_metric._numdiff, "second_derivative",
                        forbidden)
    for m in models:
        rs = np.linspace(0.1, min(4.0, 0.9 * m.r_max), 9)
        rho = rho_of_r(m, rs)
        assert np.allclose(distance_from_origin(m, rho), rs, rtol=1e-12)
        assert np.all(np.isfinite(radial_curvature(m, rs)))
        assert np.all(np.isfinite(model_hessian(m, rs)))
        assert math.isfinite(rho_of_r(m, 0.5))
        assert math.isfinite(curvature_at_origin(m))


def test_conformal_poly_curvature_consistency():
    # analytic-derivative route vs bare-profile numeric route
    full = builtin_model("conformal_poly", coeffs=[1.0, 0.5, 0.25])
    prof = full.profile
    bare = RadialProfile(lam=prof.lam, rho_max=prof.rho_max, name="bare")
    m = model_from_profile(bare)
    rs = np.linspace(0.05, 2.0, 25)
    assert np.max(np.abs(radial_curvature(full, rs)
                         - radial_curvature(m, rs))) <= 1e-6


def test_curvature_domain():
    with pytest.raises(DomainError):
        radial_curvature(builtin_model("flat"), 0.0)
    with pytest.raises(DomainError):
        radial_curvature(builtin_model("sphere"), 4.0)


# ---------------------------------------------------------------------------
# model Hessian

def test_model_hessian_closed_forms():
    rs = np.linspace(0.05, 4.0, 30)
    assert np.allclose(model_hessian(builtin_model("flat"), rs), 0.5 / rs,
                       rtol=1e-14)
    assert np.allclose(model_hessian(builtin_model("cigar"), rs),
                       1.0 / np.sinh(2 * rs), rtol=1e-13)
    assert np.allclose(model_hessian(builtin_model("hyperbolic"), rs),
                       0.5 / np.tanh(rs), rtol=1e-13)
    rs_s = np.linspace(0.05, 3.0, 30)
    assert np.allclose(model_hessian(builtin_model("sphere"), rs_s),
                       0.5 / np.tan(rs_s), rtol=1e-12, atol=1e-13)
    k = 2.0
    assert np.allclose(model_hessian(builtin_model("hyperbolic", kappa=k), rs),
                       0.5 * math.sqrt(k) / np.tanh(math.sqrt(k) * rs),
                       rtol=1e-13)


def test_model_hessian_generic_route():
    # poly model has no closed-form hessian: u = J'(r) / (2 J)
    m = builtin_model("conformal_poly", coeffs=[1.0, 1.0])
    rs = np.linspace(0.1, 2.0, 15)
    rho = rho_of_r(m, rs)
    lam = 1.0 + rho ** 2
    jprime = 1.0 + rho ** 2 * (2.0 / (1.0 + rho ** 2))  # 1 + rho (log lam)'
    assert np.allclose(model_hessian(m, rs), jprime / (2 * lam * rho),
                       rtol=1e-10)


def test_model_hessian_normalization():
    # 2 u(r) r -> 1 as r -> 0 on every model
    for _, m in all_models():
        r = 1e-5
        assert abs(2 * model_hessian(m, r) * r - 1.0) < 1e-8


def test_conjugate_point_error():
    m = builtin_model("sphere")
    with pytest.raises(ConjugatePointError):
        model_hessian(m, math.pi)
    m2 = builtin_model("sphere", kappa=4.0)
    with pytest.raises(ConjugatePointError):
        model_hessian(m2, math.pi / 2 + 0.2)


@pytest.mark.parametrize("name,model", all_models())
def test_jacobi_consistency(name, model):
    # u' + 2 u^2 + H/2 = 0 along the radial direction
    rs = r_grid(model, lo=0.2, hi=3.0, k=12)
    H = radial_curvature(model, rs)
    for r, h in zip(rs, H):
        du = _numdiff.first_derivative(lambda t: model_hessian(model, t), r)
        u = model_hessian(model, r)
        assert abs(du + 2 * u * u + 0.5 * h) <= 1e-7 * (1 + abs(h))


# ---------------------------------------------------------------------------
# profiles from tables / bare callables

def test_profile_table_round_trip(tmp_path):
    rho = np.linspace(0.0, 6.0, 400)
    lam = 1.0 / np.sqrt(1.0 + rho ** 2)
    path = tmp_path / "cigar.txt"
    np.savetxt(path, np.column_stack([rho, lam]), header="rho lambda")
    m = model_from_profile(load_profile_table(str(path)))
    rs = np.linspace(0.3, 1.5, 7)
    # spline-grade accuracy only
    assert np.max(np.abs(radial_curvature(m, rs)
                         - 2.0 / np.cosh(rs) ** 2)) < 2e-4
    r = distance_from_origin(m, 1.0)
    assert abs(r - math.asinh(1.0)) < 1e-6


def test_profile_table_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# x y\n0 1\n1 1\n2 1\n3 1\n")
    with pytest.raises(DomainError):
        load_profile_table(str(bad))
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("# rho lambda\n0 1\n1 -1\n2 1\n3 1\n")
    with pytest.raises(DomainError):
        load_profile_table(str(bad2))
    bad3 = tmp_path / "bad3.txt"
    bad3.write_text("# rho lambda\n0.5 1\n1 1\n2 1\n3 1\n")
    with pytest.raises(DomainError):
        load_profile_table(str(bad3))


def _write_table(path, rho, lam=None):
    if lam is None:
        lam = 1.0 / np.sqrt(1.0 + rho ** 2)
    np.savetxt(path, np.column_stack([rho, lam]), header="rho lambda")
    return str(path)


def _spline_tables(tmp_path):
    yield _write_table(tmp_path / "cigar.txt", np.linspace(0.0, 6.0, 61))
    rng = np.random.default_rng(7)
    for k, n in enumerate((9, 40, 300)):
        rho = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
        yield _write_table(tmp_path / f"random{k}.txt", rho,
                           rng.uniform(0.5, 2.0, n))
    yield _write_table(tmp_path / "four.txt", np.array([0.0, 0.3, 1.1, 1.5]),
                       np.array([1.0, 0.9, 0.5, 0.45]))


def test_profile_table_spline_matches_scipy(tmp_path):
    # zero slope at rho = 0, not-a-knot at the last row, end values outside
    from scipy.interpolate import CubicSpline
    for path in _spline_tables(tmp_path):
        rho, lam = np.loadtxt(path).T
        want = CubicSpline(rho, lam, bc_type=((1, 0.0), "not-a-knot"))
        prof = load_profile_table(path)
        q = np.linspace(-1.0, rho[-1] + 1.0, 20001)
        inside = np.clip(q, 0.0, rho[-1])
        jet = prof.jet(q)
        # the jet's lam is the profile's lam, bit for bit
        assert np.array_equal(jet[0], prof.lam(q))
        for nu, got in enumerate(jet):
            ref = want(inside, nu)
            err = np.max(np.abs(got - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (path, nu, err)
        assert prof.lam(-0.5) == prof.lam(0.0) == lam[0]
        assert prof.lam(rho[-1] + 0.5) == prof.lam(rho[-1])
        assert prof.jet(0.0)[1] == 0.0


def test_profile_table_builds_in_linear_time(tmp_path):
    # the slope system is tridiagonal: a dense 100,000-row solve would need
    # 80 GB
    path = _write_table(tmp_path / "big.txt", np.linspace(0.0, 50.0, 100_000))
    t0 = time.perf_counter()
    m = model_from_profile(load_profile_table(path))
    assert time.perf_counter() - t0 < 2.0
    assert abs(distance_from_origin(m, 1.0) - math.asinh(1.0)) < 1e-9


def test_complete_disk_profile_has_infinite_radius():
    prof = builtin_model("hyperbolic").profile
    bare = RadialProfile(lam=prof.lam, rho_max=prof.rho_max, name="bare")
    assert model_from_profile(bare).r_max == math.inf


def test_truncated_profile_has_finite_radius():
    bare = RadialProfile(lam=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         rho_max=2.0, name="bare")
    m = model_from_profile(bare)
    assert math.isfinite(m.r_max)
    assert abs(m.r_max - 2.0) < 1e-7


def _disk(a):
    """lam = (1 - rho^2)^-a on the unit disk."""
    return RadialProfile(lam=lambda rho: (1.0 - rho * rho) ** -a,
                         rho_max=1.0, name=f"disk({a})")


def test_edge_zero_poly_is_incomplete():
    # lam = (1 - rho^2)^2 reaches zero at the edge, r = 8/15 away
    m = builtin_model("conformal_poly", coeffs=[1.0, -2.0, 1.0])
    assert abs(m.r_max - 8.0 / 15.0) <= 1e-12


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 0.85])
def test_integrable_edge_blowup_is_incomplete(a):
    # r = int_0^1 (1 - rho^2)^-a = sqrt(pi)/2 Gamma(1 - a)/Gamma(3/2 - a)
    # converges for a < 1; r_max stops at the last edge knot 1 - 2^-48,
    # short of it by the tail int (2 t)^-a dt over [0, 2^-48]
    m = model_from_profile(_disk(a))
    exact = math.sqrt(math.pi) / 2 * math.gamma(1 - a) / math.gamma(1.5 - a)
    tail = 2.0 ** -a * 2.0 ** (-48 * (1 - a)) / (1 - a)
    assert abs((exact - m.r_max) / tail - 1.0) < 1e-3
    rho = rho_of_r(m, np.linspace(0.0, np.nextafter(m.r_max, 0.0), 50))
    assert np.all(np.diff(rho) > 0) and rho[-1] < 1.0


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_divergent_edge_is_complete(a):
    # the bare hyperbolic disk is test_complete_disk_profile_has_infinite_radius
    assert model_from_profile(_disk(a)).r_max == math.inf


@pytest.mark.parametrize("model,r_max", [
    # r_max as the edge probe read it before completeness came from the
    # chart's edge ladder
    (lambda: model_from_profile(load_profile_table(str(TABLE))),
     2.4917798521034946),
    (lambda: model_from_profile(RadialProfile(
        lam=lambda x: np.ones_like(np.asarray(x, dtype=float)), rho_max=2.0,
        name="unit")), 1.9999999998),
    (lambda: builtin_model("conformal_poly", coeffs=[1.0, -0.5]),
     0.9428090415820635),
])
def test_bounded_profiles_keep_their_radius(model, r_max):
    assert abs(model().r_max - r_max) < 1e-9


def test_table_curvature_and_hessian_take_one_jet_call():
    # lam runs only inside rho(r); H and u read lam, lam' and lam'' from
    # one jet call
    prof = load_profile_table(str(TABLE))
    calls = {"lam": 0, "jet": 0}

    def counting(key, fn):
        def wrapped(rho):
            calls[key] += 1
            return fn(rho)
        return wrapped

    m = model_from_profile(replace(prof, lam=counting("lam", prof.lam),
                                   jet=counting("jet", prof.jet)))
    rs = np.geomspace(0.05, 2.4, 160)
    calls.update(lam=0, jet=0)
    rho_of_r(m, rs)
    inside = calls["lam"]
    assert inside > 0 and calls["jet"] == 0
    for fn in (radial_curvature, model_hessian):
        calls.update(lam=0, jet=0)
        fn(m, rs)
        assert calls == {"lam": inside, "jet": 1}, fn.__name__


def test_jetless_circles_call_lam_only_at_their_start():
    # the exp-map right-hand side reads (log lam)'/rho from the G panels
    # alone; lam runs for r(|center|) and the launch speed
    cigar = builtin_model("cigar")
    calls = [0]

    def lam(rho):
        calls[0] += 1
        return cigar.profile.lam(rho)

    bare = model_from_profile(RadialProfile(lam=lam, rho_max=math.inf,
                                            name="bare"))
    calls[0] = 0
    geodesic_circle(bare, 0.4 + 0.3j, np.geomspace(0.2, 1.5, 7))(
        np.linspace(0.0, 2.0 * np.pi, 16))
    assert calls[0] == 2
