"""End-to-end acceptance checks, one test per criterion.

Each test prints a single machine-greppable verdict line

    ACCEPTANCE <k> <name>: PASS|FAIL

through pytest's capture onto the real terminal.  The checks cover:
equality cases of the growth bound, convexity sufficiency on
curvature-nonnegative models, violation detection and the small-radius
deficit law, the closed-form ODE catalog against the numeric solver,
the Jacobi-field cross oracle, the sign of the decay supersolution
residual, dimension arithmetic, homogeneity at large scale, and the
two-point geodesic engine.  Tolerances here are pinned; loosening them
is never the right fix for a regression.
"""
import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from growthlab import (
    HoloPoly,
    builtin_model,
    closed_form_convexifier,
    closed_form_supersolution,
    cone_exponent,
    curvature_bound,
    dim_poly_space,
    exp_growth_bound,
    growth_curve,
    model_hessian,
    necessity_deficit,
    pair_distances,
    power_decay_regimes,
    separation_eigenvalue,
    solve_riccati_equality,
    three_circle_check,
    verify_supersolution,
)
from growthlab.cli import SUITES, five_profiles

SEED = 20260815


@pytest.fixture
def criterion(capfd):
    # fd-level capture would swallow writes to sys.__stdout__, so the
    # verdict lines go out through a disabled-capture window
    @contextmanager
    def run(idx: int, name: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"\nACCEPTANCE {idx} {name}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"\nACCEPTANCE {idx} {name}: PASS", flush=True)

    return run


def _assert_suite(checks: list) -> None:
    bad = [c.name for c in checks if not c.passed]
    assert not bad, f"failed checks: {bad}"
    assert all(c.margin >= 0 for c in checks)


# ---------------------------------------------------------------------------
# 1. equality cases: log M - d h is constant on the four closed-form models

def test_acceptance_1_sharpness(criterion) -> None:
    with criterion(1, "sharpness-equality"):
        checks = SUITES["sharpness"]()
        assert len(checks) == 6
        _assert_suite(checks)
        assert max(c.witness["spread"] for c in checks) <= 1e-6


# ---------------------------------------------------------------------------
# 2. sufficiency: random polynomials on curvature >= 0 models stay convex

def _random_poly(rng: np.random.Generator, n: int) -> HoloPoly:
    # rejection-sample multi-indices until total degree <= 5
    k = int(rng.integers(1, 5))
    coeffs = {}
    while len(coeffs) < k:
        alpha = tuple(int(a) for a in rng.integers(0, 6, size=n))
        if 0 < sum(alpha) <= 5:
            re, im = rng.normal(size=2)
            coeffs[alpha] = complex(re, im)
    return HoloPoly(n, coeffs)


def test_acceptance_2_three_circle_sufficiency(criterion) -> None:
    with criterion(2, "three-circle-sufficiency"):
        rng = np.random.default_rng(SEED)
        h = closed_form_convexifier("nonneg")
        radii = np.geomspace(0.3, 6.0, 7)
        worst = math.inf
        for k in range(100):
            n = 1 + k % 3
            f = _random_poly(rng, n)
            curve = growth_curve(builtin_model("flat", n=n), f, radii=radii)
            rep = three_circle_check(curve, h)
            worst = min(worst, rep.min_second_difference)
            assert rep.verdict == "pass", (k, n, f.coeffs)
        assert worst >= -1e-6
        # off-center balls: classical h = log r still convexifies when the
        # curvature is nonnegative, for any basepoint
        for k in range(20):
            model = builtin_model("flat" if k % 2 == 0 else "cigar")
            f = _random_poly(rng, 1)
            center = ((0.3 + 0.9 * rng.random())
                      * np.exp(2j * np.pi * rng.random()))
            base = 0.2 + 0.6 * rng.random()
            rs = base * np.array([1.0, 1.9, 3.4, 6.1])
            curve = growth_curve(model, f, center=center, radii=rs)
            rep = three_circle_check(curve, h)
            worst = min(worst, rep.min_second_difference)
            assert rep.verdict == "pass", (k, center, f.coeffs)
        assert worst >= -1e-6


# ---------------------------------------------------------------------------
# 3. necessity: negative curvature breaks log r convexity detectably

def test_acceptance_3_necessity_detection(criterion) -> None:
    with criterion(3, "necessity-detection"):
        curve = growth_curve(builtin_model("hyperbolic"),
                             HoloPoly(1, {(1,): 1.0}),
                             radii=np.array([0.5, 1.0, 1.5]))
        rep = three_circle_check(curve, closed_form_convexifier("nonneg"))
        assert rep.verdict == "violation"
        assert rep.min_second_difference < -1e-3


# ---------------------------------------------------------------------------
# 4. deficit law: the fitted r^2 coefficient equals H(0)/12

def test_acceptance_4_deficit_law(criterion) -> None:
    with criterion(4, "deficit-law"):
        expected = {"flat": 0.0, "cigar": 1.0 / 6.0,
                    "hyperbolic": -1.0 / 12.0, "sphere": 1.0 / 12.0,
                    "poly(1+rho^2)": -1.0 / 3.0}
        for name, model in five_profiles():
            top = 0.19 * min(1.0, model.r_max)
            grid = np.linspace(top / 8.0, top, 12)
            fitted = necessity_deficit(model, grid)
            want = expected[name]
            tol = max(0.05 * abs(want), 1e-3)
            assert abs(fitted - want) <= tol, (name, fitted, want)


# ---------------------------------------------------------------------------
# 5. closed-form ODE catalog vs the numeric Riccati/convexifier solver

def test_acceptance_5_ode_catalog(criterion) -> None:
    with criterion(5, "ode-catalog"):
        checks = SUITES["ode-catalog"]()
        assert len(checks) == 6
        _assert_suite(checks)
        for c in checks:
            assert c.witness["pair_residual"] <= 1e-8
            if "solver_u_gap" in c.witness:
                assert c.witness["solver_u_gap"] <= 1e-7
            assert c.witness["solver_h_gap"] <= 1e-7


# ---------------------------------------------------------------------------
# 6. cross-module oracle: the Riccati equality solution fed the model's
#    own curvature must reproduce the model Hessian (Jacobi identity)

def test_acceptance_6_jacobi_cross_oracle(criterion) -> None:
    with criterion(6, "jacobi-cross-oracle"):
        from growthlab import radial_curvature
        for name, model in five_profiles():
            hi = min(5.0, model.r_max - 0.05)
            g = curvature_bound("custom",
                                g=lambda r, m=model: radial_curvature(m, r))
            # integrate a touch past hi but never into r >= r_max where the
            # model curvature is undefined
            r_end = min(1.02 * hi, 0.5 * (hi + model.r_max))
            u = solve_riccati_equality(g, r_end=r_end)
            rs = np.linspace(0.05, min(hi, 0.995 * u.r_max), 160)
            gap = float(np.max(np.abs(np.asarray(u(rs), dtype=float)
                                      - np.asarray(model_hessian(model, rs),
                                                   dtype=float))))
            assert gap <= 1e-6, (name, gap)


# ---------------------------------------------------------------------------
# 7. the decay supersolution really is a supersolution (sign check)

def test_acceptance_7_decay_supersolution_sign(criterion) -> None:
    with criterion(7, "decay-supersolution-sign"):
        rs = np.geomspace(1e-3, 50.0, 400)
        for A, eps in [(0.05, 0.49), (1.0, 0.4), (2.0, 0.25)]:
            u = closed_form_supersolution("power_decay", A=A, eps=eps)
            g = curvature_bound("power_decay", A=A, eps=eps)
            rep = verify_supersolution(u, g, rs)
            min_res = rep.witness["min_residual"]
            assert min_res >= 0.0, (A, eps, min_res)


# ---------------------------------------------------------------------------
# 8. dimension arithmetic: enumeration, regime table, quadratic roots

def _brute_count(n: int, d: int) -> int:
    return sum(1 for alpha in itertools.product(range(d + 1), repeat=n)
               if sum(alpha) <= d)


def test_acceptance_8_dimension_arithmetic(criterion) -> None:
    with criterion(8, "dimension-arithmetic"):
        for n in range(1, 5):
            for d in range(0, 11):
                assert dim_poly_space(n, d) == _brute_count(n, d)
        rep = power_decay_regimes(0.05, 0.49, 0.7, 2)
        assert rep.regime == "trivial" and rep.bound == 1
        assert 0.05 / 0.49 <= 1.0 / 8.0
        for n in range(1, 5):
            rep = power_decay_regimes(0.05, 0.49, 2.0, n)
            assert rep.regime == "sharp", (n, rep.regime)
            assert rep.bound == math.comb(n + 2, n)
        params = dict(exp_growth_bound(0.18, 1.0, 1, 1.0).params)
        a, b = params["a"], params["b"]
        assert abs(a - 0.38229) <= 5e-6
        assert abs(b - 0.11771) <= 5e-6
        for x in (a, b):
            assert abs(2.0 * x * x - x + 0.5 * 0.18) <= 1e-12
        checks = SUITES["dimension"]()
        _assert_suite(checks)


# ---------------------------------------------------------------------------
# 9. homogeneity at scale and the cone eigenvalue round trip

def test_acceptance_9_homogeneity(criterion) -> None:
    with criterion(9, "homogeneity-at-scale"):
        checks = SUITES["homogeneity"]()
        _assert_suite(checks)
        flat = next(c for c in checks if c.name.startswith("homogeneity flat"))
        values = flat.witness["values"]
        assert values[0] <= 0.05 and values[0] > values[1] > values[2]
        # flat benchmark: degree-d homogeneous harmonics on C^n = R^{2n}
        for n in (1, 2, 3):
            for d in (1, 2, 5):
                lam = separation_eigenvalue(float(d), 2 * n)
                assert lam == d * (2 * n + d - 2)
                assert abs(cone_exponent(lam, 2 * n) - d) <= 1e-12


# ---------------------------------------------------------------------------
# 10. geodesic engine: Clairaut quadrature vs closed forms, symmetry,
# triangles

def _hyperbolic_dist(p, q):
    t = 2 * np.abs(p - q) ** 2 / ((1 - np.abs(p) ** 2) * (1 - np.abs(q) ** 2))
    return np.arccosh(1 + t)


def _sphere_dist(p, q):
    def lift(z):
        d = 1 + np.abs(z) ** 2
        return np.stack([2 * z.real / d, 2 * z.imag / d,
                         (1 - np.abs(z) ** 2) / d])
    a, b = lift(np.asarray(p, dtype=complex)), lift(np.asarray(q, dtype=complex))
    dot = np.sum(a * b, axis=0)
    cross = np.linalg.norm(np.cross(a.T, b.T).T, axis=0)
    return np.arctan2(cross, dot)


def test_acceptance_10_geodesic_engine(criterion) -> None:
    with criterion(10, "geodesic-engine"):
        rng = np.random.default_rng(SEED)

        def draw(rho_lo, rho_hi, k):
            rr = rng.uniform(rho_lo, rho_hi, size=(2, k))
            th = rng.uniform(0, 2 * np.pi, size=(2, k))
            return rr[0] * np.exp(1j * th[0]), rr[1] * np.exp(1j * th[1])

        hyper = builtin_model("hyperbolic")
        ps, qs = draw(0.05, 0.85, 50)
        dh = pair_distances(hyper, ps, qs, method="shoot")
        assert np.max(np.abs(dh - _hyperbolic_dist(ps, qs))) <= 1e-5

        sphere = builtin_model("sphere")
        # chart coordinate tan(r/2); stay inside the convexity radius
        rr = rng.uniform(0.05, 1.5, size=(2, 50))
        th = rng.uniform(0, 2 * np.pi, size=(2, 50))
        ss, ts = (np.tan(rr[i] / 2) * np.exp(1j * th[i]) for i in range(2))
        ds = pair_distances(sphere, ss, ts, method="shoot")
        assert np.max(np.abs(ds - _sphere_dist(ss, ts))) <= 1e-5

        rev = pair_distances(hyper, qs[:10], ps[:10], method="shoot")
        assert np.max(np.abs(dh[:10] - rev)) <= 1e-6

        cigar = builtin_model("cigar")
        a, b = draw(0.05, 3.0, 10)
        c, _ = draw(0.05, 3.0, 10)
        dab = pair_distances(cigar, a, b)
        dbc = pair_distances(cigar, b, c)
        dac = pair_distances(cigar, a, c)
        assert np.all(dac <= dab + dbc + 1e-6)
