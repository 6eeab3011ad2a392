"""Tests for dimension counts and growth-regime bounds."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.comparison_ode import Convexifier, closed_form_convexifier
from growthlab.dimension import (
    DimensionBound,
    dim_bound_from_h,
    dim_poly_space,
    exp_growth_bound,
    power_decay_regimes,
)
from growthlab.errors import DomainError


def brute_count(n: int, k: int) -> int:
    # monomials z^a with a in N^n, sum(a) <= k, counted one by one
    return sum(1 for a in itertools.product(range(k + 1), repeat=n)
               if sum(a) <= k)


# ---------------------------------------------------------------------------
# dim_poly_space

def test_poly_space_examples():
    assert dim_poly_space(1, 5) == 6
    assert dim_poly_space(2, 3) == 10
    assert dim_poly_space(3, 0) == 1


def test_poly_space_brute_force():
    for n in range(1, 5):
        for k in range(0, 11):
            assert dim_poly_space(n, k) == brute_count(n, k)


def test_poly_space_floor_and_snap():
    assert dim_poly_space(2, 2.9) == dim_poly_space(2, 2)
    assert dim_poly_space(2, 3.0) == 10
    # values a hair below an integer snap up; a visible gap does not
    assert dim_poly_space(2, 2.9999999999) == 10
    assert dim_poly_space(2, 2.999999) == 6
    assert dim_poly_space(1, 0.5) == 1


def test_poly_space_validation():
    with pytest.raises(DomainError):
        dim_poly_space(1, -0.5)
    with pytest.raises(DomainError):
        dim_poly_space(0, 2)
    with pytest.raises(DomainError):
        dim_poly_space(1.5, 2)
    with pytest.raises(DomainError):
        dim_poly_space(True, 2)
    with pytest.raises(DomainError):
        dim_poly_space(2, math.inf)


@given(st.integers(1, 4), st.floats(0.0, 10.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_poly_space_matches_enumeration(n, d):
    assert dim_poly_space(n, d) == brute_count(n, math.floor(d + 1e-9))


# ---------------------------------------------------------------------------
# dim_bound_from_h

def test_bound_from_log_r():
    b = dim_bound_from_h(closed_form_convexifier("nonneg"), 3, 2)
    assert b.bound == 10
    assert b.d_eff == pytest.approx(3.0, abs=1e-9)
    assert b.regime == "euclidean_exact"


def test_bound_from_power_decay_h():
    h = closed_form_convexifier("power_decay", A=0.05, eps=0.5)
    b = dim_bound_from_h(h, 2, 2)
    assert b.regime == "h_growth"
    assert b.bound == 6
    assert b.d_eff == pytest.approx(2.0 * math.exp(0.2), rel=1e-2)
    gamma = dict(b.params)["gamma"]
    assert gamma == pytest.approx(math.exp(-0.2), rel=1e-2)


def test_bound_from_superlog_h():
    b = dim_bound_from_h(closed_form_convexifier("cigar"), 3, 1)
    assert b.regime == "exp_growth"
    # log sinh r grows like r, so the linear rate is 1 and the class
    # count is the polynomial count at the same order
    assert dict(b.params)["c1"] == pytest.approx(1.0, abs=1e-9)
    assert b.d_eff == pytest.approx(3.0, abs=1e-8)
    assert b.bound == 4


def test_bound_monotone_in_gamma():
    # larger A means smaller gamma, hence larger effective order
    prev_d_eff, prev_bound = -math.inf, 0
    for A in [0.02, 0.05, 0.1, 0.2, 0.4]:
        h = closed_form_convexifier("power_decay", A=A, eps=0.4)
        b = dim_bound_from_h(h, 4, 2)
        assert b.d_eff >= prev_d_eff
        assert b.bound >= prev_bound
        prev_d_eff, prev_bound = b.d_eff, b.bound


def test_bound_monotone_in_d():
    h = closed_form_convexifier("power_decay", A=0.1, eps=0.3)
    bounds = [dim_bound_from_h(h, d, 2).bound for d in [0, 1, 2.5, 4, 7]]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_bound_d_eff_at_least_d():
    # comparison metrics have gamma <= 1, so the effective order can
    # only grow
    for tag, params in [("nonneg", {}), ("power_decay", dict(A=0.3, eps=0.25))]:
        h = closed_form_convexifier(tag, **params)
        b = dim_bound_from_h(h, 2.5, 3)
        assert b.d_eff >= 2.5 - 1e-12
        assert b.bound == dim_poly_space(3, b.d_eff)


def test_bound_from_h_rejects_gamma_above_one():
    h = Convexifier(h=lambda r: 1.5 * np.log(np.asarray(r, dtype=float)),
                    h_prime=lambda r: 1.5 / np.asarray(r, dtype=float))
    with pytest.raises(DomainError):
        dim_bound_from_h(h, 2, 1)


def test_bound_from_h_window_validation():
    h = closed_form_convexifier("nonneg")
    with pytest.raises(DomainError):
        dim_bound_from_h(h, 2, 1, r_window=(2.0, 5.0))
    with pytest.raises(DomainError):
        dim_bound_from_h(h, -1, 1)
    with pytest.raises(DomainError):
        dim_bound_from_h(h, 2, 0)


# ---------------------------------------------------------------------------
# power_decay_regimes

def test_regimes_sharp_example():
    rep = power_decay_regimes(0.05, 0.49, 2, 2)
    assert rep.regime == "sharp"
    assert rep.bound == 6
    assert dict(rep.params)["witness_ok"] is True
    witness = dict(rep.params)["growth_factor"] * 2
    assert witness == pytest.approx(2.0 * math.exp(0.1 / 0.49), rel=1e-12)
    assert witness == pytest.approx(2.449, abs=5e-3)
    assert witness < 3


def test_regimes_trivial_example():
    rep = power_decay_regimes(0.05, 0.49, 0.7, 2)
    assert rep.regime == "trivial"
    assert rep.bound == 1
    assert rep.d_eff == 0.0
    threshold = dict(rep.params)["trivial_threshold"]
    assert threshold == pytest.approx(math.exp(-0.15 / 0.49), rel=1e-12)
    assert threshold == pytest.approx(0.736, abs=1e-3)


def test_regimes_general_example():
    rep = power_decay_regimes(1.0, 0.4, 5, 3)
    assert rep.regime == "general"
    assert rep.d_eff == pytest.approx(5.0 * math.exp(5.0), rel=1e-12)
    assert rep.bound == dim_poly_space(3, 5.0 * math.exp(5.0))
    assert rep.bound == math.comb(3 + 742, 3)


@pytest.mark.parametrize("A,eps,d,n,regime,bound,d_eff,extra", [
    (0.05, 0.49, 0.7, 2, "trivial", 1, 0.0, {}),
    (0.05, 0.49, 2, 2, "sharp", 6, 2.0,
     {"sharp_cap": 0.125, "witness_ok": True}),
    (1.0, 0.4, 5, 3, "general", math.comb(745, 3), 5.0 * math.exp(5.0), {}),
])
def test_regimes_return_a_dimension_bound(A, eps, d, n, regime, bound,
                                          d_eff, extra):
    rep = power_decay_regimes(A, eps, d, n)
    assert isinstance(rep, DimensionBound)
    assert (rep.n, rep.d, rep.regime) == (n, d, regime)
    assert rep.bound == bound and rep.d_eff == d_eff
    assert dict(rep.params) == {
        "A": A, "eps": eps, "trivial_threshold": math.exp(-3.0 * A / eps),
        "growth_factor": math.exp(2.0 * A / eps), **extra}


def test_regimes_eps_enforced():
    with pytest.raises(DomainError):
        power_decay_regimes(0.05, 0.5, 2, 2)
    with pytest.raises(DomainError):
        power_decay_regimes(0.05, 0.7, 2, 2)


def test_regimes_validation():
    with pytest.raises(DomainError):
        power_decay_regimes(-1, 0.3, 2, 2)
    with pytest.raises(DomainError):
        power_decay_regimes(0.1, 0.3, 0.0, 2)
    with pytest.raises(DomainError):
        power_decay_regimes(0.1, 0.3, 2, 0)


def test_regimes_sharp_consistency_sweep():
    # wherever the sharp clause fires, the general clause must not beat
    # it and the arithmetic witness must hold exactly
    for A in np.geomspace(1e-3, 1.0, 8):
        for eps in [0.1, 0.25, 0.49]:
            for d in [1, 2, 3, 5, 8]:
                rep = power_decay_regimes(float(A), eps, d, 2)
                if rep.regime != "sharp":
                    continue
                assert A / eps <= 0.25 / d + 1e-15
                params = dict(rep.params)
                assert params["witness_ok"] is True
                assert params["growth_factor"] * d < d + 1
                general = dim_poly_space(2, d * params["growth_factor"])
                assert general >= rep.bound


def test_regimes_integer_snap():
    rep = power_decay_regimes(0.01, 0.4, 2 + 5e-10, 2)
    assert rep.regime == "sharp"
    assert rep.bound == 6


def test_regimes_overflow_guard():
    rep = power_decay_regimes(400.0, 0.4, 5, 2)
    assert rep.regime == "general"
    assert math.isinf(rep.bound)
    assert math.isinf(rep.d_eff)


@given(st.floats(1e-3, 2.0), st.floats(0.01, 0.49, exclude_max=True),
       st.floats(0.01, 12.0))
@settings(max_examples=80, deadline=None)
def test_regimes_trichotomy(A, eps, d):
    rep = power_decay_regimes(A, eps, d, 3)
    assert rep.regime in ("trivial", "sharp", "general")
    assert rep.bound >= 1
    if rep.regime == "trivial":
        assert d <= dict(rep.params)["trivial_threshold"]
        assert rep.bound == 1
    elif math.isinf(rep.d_eff):
        assert math.isinf(rep.bound)
    else:
        assert rep.bound == dim_poly_space(3, rep.d_eff)
    if rep.regime == "general" and math.isfinite(rep.d_eff):
        # the inflated order dominates the nominal one
        assert rep.bound >= dim_poly_space(3, d)


# ---------------------------------------------------------------------------
# exp_growth_bound

def test_exp_growth_frozen_roots():
    b = exp_growth_bound(0.18, 3, 1, 1.0)
    p = dict(b.params)
    assert p["a"] == pytest.approx(0.38229, abs=1e-5)
    assert p["b"] == pytest.approx(0.11771, abs=1e-5)
    assert p["A"] == pytest.approx(0.23542, abs=1e-5)
    assert p["k"] == pytest.approx(0.52915, abs=1e-5)
    hi, lo = sorted(np.roots([2.0, -1.0, 0.09]), reverse=True)
    assert p["a"] == pytest.approx(hi, abs=1e-12)
    assert p["b"] == pytest.approx(lo, abs=1e-12)


def test_exp_growth_root_identities():
    for C in np.linspace(0.01, 0.24, 12):
        p = dict(exp_growth_bound(float(C), 1, 1, 1.0).params)
        a, b = p["a"], p["b"]
        assert abs(2 * a * a - a + C / 2) <= 1e-12
        assert abs(2 * b * b - b + C / 2) <= 1e-12
        assert a > 0.25 > b > 0
        assert p["k"] == pytest.approx(2 * (a - b), abs=1e-15)


def test_exp_growth_small_c_limit():
    p = dict(exp_growth_bound(1e-8, 1, 1, 1.0).params)
    assert p["a"] == pytest.approx(0.5, abs=1e-8)
    assert abs(p["A"]) <= 2e-8


def test_exp_growth_bound_value():
    b = exp_growth_bound(0.18, 3, 2, 0.5)
    assert b.d_eff == pytest.approx(6.0, rel=1e-12)
    assert b.bound == math.comb(8, 2)
    assert b.regime == "exp_growth(C=0.18)"


def test_exp_growth_validation():
    for C in [0.3, 0.25, 0.0, -0.1]:
        with pytest.raises(DomainError):
            exp_growth_bound(C, 2, 1, 1.0)
    with pytest.raises(DomainError):
        exp_growth_bound(0.1, 0.5, 1, 1.0)
    with pytest.raises(DomainError):
        exp_growth_bound(0.1, 2, 1, 0.0)
    with pytest.raises(DomainError):
        exp_growth_bound(0.1, 2, 0, 1.0)
