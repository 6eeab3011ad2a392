"""Max-modulus curves and the growth-side predicates."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.interpolate import CubicSpline

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
    rho_of_r,
)
from growthlab.errors import DomainError
from growthlab.growth import (
    HoloPoly,
    _sphere_ascent,
    cone_exponent,
    growth_curve,
    growth_order,
    homogeneity_check,
    max_modulus,
    monotonicity_check,
    necessity_deficit,
    order_at_infinity,
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


@given(st.lists(st.tuples(st.sampled_from(
    [0, 1, -1, 2, -2, 1j, -1j, 1 + 1j, -2 + 1j]), st.integers(1, 3)),
    min_size=1, max_size=3, unique_by=lambda t: t[0]))
@settings(max_examples=60, deadline=None)
def test_vanishing_order_of_products(factors):
    # prod (z - a_j)^m_j vanishes at the origin to the multiplicity of the
    # root 0, and not at all when 0 is not a root; Gaussian-integer roots
    # keep the expansion exact
    f = HoloPoly(1, dict(enumerate(np.polynomial.polynomial.polyfromroots(
        [a for a, m in factors for _ in range(m)]))))
    assert f.vanishing_order() == dict(factors).get(0, 0)


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


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_poly_rejects_non_finite_coefficients(c):
    # a nan term would be dropped as "small", and an inf one would leave
    # every finite term below the cutoff
    with pytest.raises(DomainError, match="not finite"):
        HoloPoly(1, {1: 1.0, 2: c})
    with pytest.raises(DomainError, match="not finite"):
        HoloPoly(2, {(1, 0): c})


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
    # |f| has a local maximum of 5.7762 on this sphere, where a search from
    # too few starts stops; 40 Nelder-Mead runs from the best of 40,000
    # random directions agree with the value below to 1e-15
    f = HoloPoly(3, {(2, 2, 1): 0.6904 + 0.4766j, (1, 0, 4): -1.7628 - 0.3470j,
                     (4, 0, 0): -0.7912 - 0.4659j})
    got = max_modulus(FLAT3, f, 0, 1.60560)
    assert got == pytest.approx(6.102091905397318, rel=1e-9)
    # f is phase-alignable, so its value is the orthant maximum of
    # sum |c_a| z^a, to rounding level
    assert got == pytest.approx(6.102091905397309, rel=1e-14)


def test_max_modulus_c2_global_maximum():
    # a local maximum of 0.096789 sits on this sphere; reference as in the
    # C^3 case above
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
    assert rep.witness["argmin_r"] == 1.0


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
            f, (radii[:, None, None] * zeta[top]).reshape(-1, n))[1]
        ref = ref.reshape(top.shape).max(axis=1)
        assert np.all(got >= ref * (1.0 - 1e-12)), (coeffs, got / ref - 1.0)


# curves on flat C^2 and C^3 with dense values: the best of two independent
# sets of 200,000 random directions, the best 512 of each climbed by
# _sphere_ascent (the sets agree to 5.6e-16).  Both curves lose more than
# 1e-12 with 4 n starts per sphere.
_DENSE_CURVES = [
    (2, {(4, 0): 1.6086 + 0.9j, (3, 2): -0.2545 + 0.413j,
         (2, 0): 0.1197 + 0.127j, (1, 0): 0.1338 + 0.444j,
         (0, 5): -0.0144 + 1.1142j},
     [0.3661, 0.5826, 0.9269, 1.4749, 2.3468, 3.7341, 5.9414],
     [0.22583228486294996, 0.5406349537011963, 1.9375713710252926,
      9.779488507180742, 79.3209738823844, 808.9642734060246,
      8249.799349764475]),
    (3, {(1, 2, 1): -0.5941 + 1.5648j, (0, 1, 3): 0.1602 + 0.5584j,
         (2, 0, 1): 0.7709 - 0.2337j, (4, 0, 1): 0.8345 + 1.1209j,
         (1, 3, 1): 0.6291 + 0.0267j},
     [0.3978, 0.6387, 1.0255, 1.6465, 2.6435, 4.2443, 6.8145],
     [0.023254849442417822, 0.12124191043633026, 0.7737497437980009,
      6.146400465947947, 56.999534164084416, 573.0181611028387,
      5969.0365250699615]),
]


@pytest.mark.parametrize("n,coeffs,radii,want", _DENSE_CURVES)
def test_sphere_starts_keep_whole_curves(n, coeffs, radii, want):
    got = growth_curve(builtin_model("flat", n=n), HoloPoly(n, coeffs), 0,
                       radii).values
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12, got / want - 1.0


def test_second_round_reaches_the_dense_maximum():
    # at r = 3.8050 the first round stops 2.5e-10 low; the climb from the
    # other spheres' best directions reaches the dense value (best 512 of
    # 200,000 random directions climbed by _sphere_ascent)
    f = HoloPoly(3, {(1, 1, 0): -0.105 + 0.141j, (0, 1, 3): -0.793 + 0.844j,
                     (4, 1, 0): -1.164 - 0.902j, (0, 1, 1): -0.039 - 1.711j,
                     (0, 0, 3): 0.777 - 0.760j})
    radii = [0.2535, 0.4358, 0.7491, 1.2877, 2.2135, 3.8050, 6.5408]
    got = growth_curve(FLAT3, f, 0, radii).values[5]
    assert got == pytest.approx(337.21656213430714, rel=1e-13)


def _refused(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")
    return refuse


def test_alignable_curves_skip_the_sphere_ascent(monkeypatch):
    # centered phase-alignable curves on C and C^2 take the aligned route;
    # a non-alignable C^2 curve still climbs, and an alignable C^3 curve
    # climbs g = sum |c_a| z^a on the orthant, never the sphere of f
    monkeypatch.setattr(growth, "_sphere_ascent", _refused("_sphere_ascent"))
    radii = [0.3, 0.8, 1.5, 2.5]
    for name in ("flat", "cigar", "hyperbolic"):
        model = builtin_model(name, n=2)
        for coeffs in ({(2, 0): 1.0 - 0.5j, (0, 1): 0.7j},
                       {(2, 1): 1.0 + 0.3j, (0, 2): -0.7j, (1, 0): 0.2}):
            growth_curve(model, HoloPoly(2, coeffs), 0, radii)
    # two terms on C are a closed form: no circle is refined either
    monkeypatch.setattr(growth, "_circle_peaks", _refused("_circle_peaks"))
    for model in (FLAT, CIGAR, HYPER):
        growth_curve(model, HoloPoly(1, {3: 1.0 - 1.0j, 1: 0.5}), 0, radii)
    f = HoloPoly(2, {(2, 0): 1.0, (1, 1): 0.5 - 1.0j, (0, 2): 1.0j})
    with pytest.raises(AssertionError, match="_sphere_ascent called"):
        growth_curve(FLAT2, f, 0, radii)
    monkeypatch.undo()
    monkeypatch.setattr(growth, "_sphere_max", _refused("_sphere_max"))
    f = HoloPoly(3, {(1, 0, 0): 1.0, (0, 1, 1): 1.0j})
    got = growth_curve(FLAT3, f, 0, radii).values
    # max of s1 + s2 s3 on the unit sphere: 1 + r^2/2 past r = 1, else r
    r = np.array(radii)
    want = np.where(r > 1.0, 0.5 + 0.5 * r ** 2, r)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14, got / want - 1.0


def test_ascent_member_counts(monkeypatch):
    # 8 n starts per sphere and one climb per sphere from every sphere's
    # best direction; an alignable C^3 curve climbs four orthant points of
    # g per sphere, once
    members = []
    climb = growth._sphere_ascent

    def counted(f, z):
        members.append(z.shape[0])
        return climb(f, z)

    monkeypatch.setattr(growth, "_sphere_ascent", counted)
    radii = np.geomspace(0.3, 6.0, 7)
    f = HoloPoly(2, {(2, 0): 1.0, (1, 1): 0.5 - 1.0j, (0, 2): 1.0j})
    growth_curve(FLAT2, f, 0, radii)
    assert members == [7 * 16, 7 * 7]
    members.clear()
    monkeypatch.setattr(growth, "_sphere_max", _refused("_sphere_max"))
    f = HoloPoly(3, {(1, 0, 0): 1.0, (0, 1, 1): 1.0j, (0, 3, 0): 0.4 - 0.2j})
    growth_curve(FLAT3, f, 0, radii)
    assert members == [7 * 4]


_MODELS2 = {name: builtin_model(name, n=2)
            for name in ("flat", "cigar", "hyperbolic")}


def _term(exps):
    """Coefficients of modulus 0.2 to 2 at any phase, one per exponent."""
    polar = st.tuples(st.floats(0.2, 2.0), st.floats(0.0, 2 * math.pi))
    return st.lists(polar, min_size=len(exps), max_size=len(exps)).map(
        lambda mp: {a: m * complex(math.cos(t), math.sin(t))
                    for a, (m, t) in zip(exps, mp)})


@st.composite
def _alignable_c2(draw):
    """2 or 3 terms of total degree <= 5 whose exponent differences are
    linearly independent."""
    k = draw(st.integers(2, 3))
    exps = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                         .filter(lambda a: sum(a) <= 5),
                         min_size=k, max_size=k, unique=True))
    e = np.array(exps)
    assume(np.linalg.matrix_rank(e[1:] - e[0]) == k - 1)
    return HoloPoly(2, draw(_term(exps)))


@given(_alignable_c2(), st.sampled_from(sorted(_MODELS2)),
       st.floats(0.25, 0.4), st.floats(2.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_alignable_c2_matches_sphere_ascent(f, name, lo, hi):
    model = _MODELS2[name]
    radii = np.geomspace(lo, hi, 7)
    got = growth_curve(model, f, 0, radii).values
    rho = np.asarray(rho_of_r(model, radii))
    ref = growth._sphere_max(f, rho)
    assert np.all(got >= ref * (1.0 - 1e-12)), got / ref - 1.0
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, got / ref - 1.0


@st.composite
def _alignable_cn(draw):
    """A C^3 or C^4 polynomial of 2 to n + 1 terms of total degree <= 5
    whose exponent differences are linearly independent."""
    n = draw(st.integers(3, 4))
    k = draw(st.integers(2, n + 1))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n)
                         .filter(lambda a: 0 < sum(a) <= 5),
                         min_size=k, max_size=k, unique=True))
    e = np.array(exps)
    assume(np.linalg.matrix_rank(e[1:] - e[0]) == k - 1)
    return HoloPoly(n, draw(_term(exps)))


@given(_alignable_cn(), st.sampled_from(["flat", "cigar", "hyperbolic"]),
       st.floats(0.25, 0.4), st.floats(2.0, 6.0))
@settings(max_examples=30, deadline=None)
def test_alignable_cn_matches_sphere_ascent(f, name, lo, hi):
    # the orthant route against the ascent on the sphere of f itself, from
    # 16 n starts: with 8 n, 1 of 400 seeded curves read 8.7e-10 low there
    # while the orthant route matched a dense search
    model = builtin_model(name, n=f.n)
    radii = np.geomspace(lo, hi, 7)
    got = growth_curve(model, f, 0, radii).values
    rho = np.asarray(rho_of_r(model, radii))
    with mock.patch.object(growth, "_STARTS", 16):
        ref = growth._sphere_max(f, rho)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, got / ref - 1.0


@given(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True)
       .flatmap(lambda e: _term([(a,) for a in e])),
       st.sampled_from(["flat", "cigar", "hyperbolic", "sphere"]),
       st.floats(0.1, 0.4), st.floats(1.5, 3.0))
@settings(max_examples=40, deadline=None)
def test_two_term_closed_form_matches_circle(coeffs, name, lo, hi):
    # on C two terms always align: sum |c_a| rho^a against the refined
    # circle samples of the general n = 1 route
    f, model = HoloPoly(1, coeffs), builtin_model(name)
    radii = np.geomspace(lo, hi, 7)
    got = growth_curve(model, f, 0, radii).values
    circle = geodesic_circle(model, 0, radii)
    phis = np.linspace(0.0, 2 * math.pi, max(720, 16 * f.degree),
                       endpoint=False)
    ref = growth._circle_peaks(f, circle, np.abs(f.eval(circle(phis))))
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, got / ref - 1.0


@pytest.mark.parametrize("name", sorted(_MODELS2))
def test_aligned_sum_bounds_other_supports(name):
    # max |f| <= max over s >= 0 of sum |c_a| rho^|a| s^a for any support;
    # here 4 or 5 terms, or 3 terms with collinear exponent differences
    model, rng = _MODELS2[name], np.random.default_rng(4200)
    radii = np.geomspace(0.3, 2.5 if name == "hyperbolic" else 5.0, 7)
    rho = np.asarray(rho_of_r(model, radii))
    for k in (3, 3, 4, 4, 5, 5):
        while True:
            if k == 3:
                a, v = rng.integers(0, 3, size=2), rng.integers(-2, 3, size=2)
                exps = [tuple(a + j * v) for j in rng.choice(
                    [-2, -1, 1, 2], size=2, replace=False)] + [tuple(a)]
            else:
                exps = [tuple(rng.integers(0, 6, size=2)) for _ in range(k)]
            e = np.array(exps)
            if (len(set(exps)) == k and e.min() >= 0 and e.sum(1).max() <= 5
                    and np.linalg.matrix_rank(e[1:] - e[0]) < k - 1):
                break
        f = HoloPoly(2, {a: complex(*rng.normal(size=2)) for a in exps})
        got = growth_curve(model, f, 0, radii).values
        bound = growth._aligned_max(f, rho)
        assert np.all(got <= bound * (1.0 + 1e-12)), (exps, got / bound)


def test_c3_corner_maximum_stays_exact():
    # an alignable C^3 polynomial whose aligned maximum sits at the corner
    # s = (1, 0, 0) of the positive orthant: M = |c_100| r + |c_300| r^3.
    # Orthant samples taken through |zeta| of sphere directions rarely land
    # near a corner, so an orthant method for n >= 3 must sample its faces
    c100 = -0.5078162999985072 + 0.13803062220548454j
    c300 = 1.5368289784177398 - 0.08661879376533692j
    f = HoloPoly(3, {(1, 0, 0): c100, (0, 4, 1): -1.544848884159711
                     - 1.9235821272837244j, (3, 0, 0): c300,
                     (1, 3, 0): -1.2055048646158915 - 1.9559957408450315j})
    r = math.sqrt(1.8)
    want = abs(c100) * r + abs(c300) * r ** 3
    assert want == pytest.approx(4.423287347680635, rel=1e-15)
    assert max_modulus(FLAT3, f, 0, r) == pytest.approx(want, rel=1e-12)


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


def test_circle_refinement_makes_few_circle_calls(monkeypatch):
    # after its sampling call, a curve's refinement asks the circle map for
    # seven angles per circle, then for one: exactly two calls
    calls = []
    make_circle = growth.geodesic_circle

    def counted(*args):
        circle = make_circle(*args)

        def at(phi):
            calls.append(phi)
            return circle(phi)
        return at

    monkeypatch.setattr(growth, "geodesic_circle", counted)
    rng = np.random.default_rng(45)
    refinements = []
    for model in (FLAT, CIGAR, HYPER, SPHERE):
        for _ in range(25):
            center = 0.7 * complex(rng.normal(), rng.normal())
            if model is HYPER:
                center *= min(1.0, 0.9 / abs(center))
                top = 4.0
            elif model is SPHERE:
                center *= min(1.0, 2.0 / abs(center))
                top = 0.98 * (math.pi
                              - distance_from_origin(model, abs(center)))
            else:
                top = 3.5
            f = rand_poly(rng, 1, max_deg=7)
            calls.clear()
            growth_curve(model, f, center, np.geomspace(0.1, 1.0, 7) * top)
            refinements.append(len(calls) - 1)
            assert [np.shape(phi) for phi in calls[1:]] == [(7, 7), (7, 1)]
    assert np.mean(refinements) <= 3.0, np.bincount(refinements)


def test_circle_refinement_asks_each_circle_for_its_own_angles(monkeypatch):
    # 600 off-center cigar radii: after sampling, no circle-map call returns
    # more than seven points per circle (no radii x angles array is built
    # to keep its diagonal)
    sizes = []
    make_circle = growth.geodesic_circle

    def counted(*args):
        circle = make_circle(*args)

        def at(phi):
            z = circle(phi)
            sizes.append(z.size)
            return z
        return at

    monkeypatch.setattr(growth, "geodesic_circle", counted)
    f = HoloPoly(1, {0: 0.3, 1: 1.0 - 0.5j, 3: 0.4j})
    radii = np.geomspace(0.05, 3.0, 600)
    curve = growth_curve(CIGAR, f, 0.6 + 0.5j, radii)
    assert np.all(np.isfinite(curve.values))
    assert sizes[0] == 600 * 720
    assert len(sizes) == 3 and max(sizes[1:]) <= 7 * 600, sizes


def test_circle_refinement_does_not_stop_low():
    # an off-center cigar peak that a parabola stop rule can miss by 1e-13
    f = HoloPoly(1, {3: 0.8777901325375698 + 0.7497206522219166j,
                     4: 0.18103458729481264 + 0.2500183974042268j,
                     5: 0.23805901725218487 + 0.2999132827833922j})
    center = 0.24309111832882635 - 0.4998255883430478j
    rs = np.geomspace(0.3, 3.0, 7)
    got = growth_curve(CIGAR, f, center, rs).values[5]
    ref = _scalar_search_max(CIGAR, f, center, rs[5])
    assert abs(got / ref - 1.0) <= 1e-14


def test_aligned_c2_peak_matches_closed_form():
    # |g| on rho (cos, sin) is a x + b x (1 - x) in x = sin^2, with a and b
    # the two terms' |c| rho^|alpha|: the aligned route to rounding level
    c02, c22 = -0.1314 + 1.4203j, 1.4306 - 0.3105j
    a, b = abs(c02) * math.sinh(3.42) ** 2, abs(c22) * math.sinh(3.42) ** 4
    x = min(1.0, (a + b) / (2.0 * b))
    f = HoloPoly(2, {(0, 2): c02, (2, 2): c22})
    got = max_modulus(_MODELS2["cigar"], f, 0, 3.42)
    assert abs(got / (a * x + b * x * (1.0 - x)) - 1.0) <= 4e-15


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
    assert rep.witness["worst"] > 0


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


@pytest.mark.parametrize("model,f,order", [
    (FLAT, {2: 1.0}, 2.0), (CIGAR, {1: 1.0}, math.inf)])
def test_order_from_half_decades(model, f, order):
    # no radius in [6, 60): the slopes come from the two halves of the
    # outer decade instead
    c = growth_curve(model, HoloPoly(1, f), 0, np.geomspace(60, 600, 12))
    assert order_at_infinity(c) == pytest.approx(order, abs=1e-9)


def test_growth_order_refuses_an_edge_at_finite_distance():
    # lam = (1 - rho^2)^2 ends its chart 8/15 from the origin
    model = builtin_model("conformal_poly", coeffs=[1.0, -2.0, 1.0])
    with pytest.raises(DomainError, match="noncompact"):
        growth_order(model, HoloPoly(1, {1: 1.0}))


def test_order_validation():
    f = HoloPoly(1, {1: 1.0})
    with pytest.raises(DomainError):
        order_at_infinity(growth_curve(SPHERE, f, 0, np.linspace(0.1, 3, 30)))
    with pytest.raises(DomainError):
        order_at_infinity(growth_curve(FLAT, f, 0, np.geomspace(1, 50, 30)))
    with pytest.raises(DomainError):
        order_at_infinity(growth_curve(FLAT, f, 0,
                                       np.array([1.0, 2.0, 150.0])))


def _conical(a):
    return model_from_profile(RadialProfile(
        lam=lambda rho: (1.0 + rho * rho) ** (-0.5 * a), rho_max=math.inf,
        name=f"cone a={a:g}"))


def test_growth_order_on_builtin_models():
    assert growth_order(FLAT, HoloPoly(1, {3: 1.0, 0: 1e6})) == 3.0
    assert growth_order(FLAT2, HoloPoly(2, {(2, 1): 1.0, (1, 0): 5.0})) == 3.0
    assert growth_order(HYPER, HoloPoly(1, {4: 1.0})) == 0.0
    # rho = sinh r: infinite order, except for constants (no 0 * inf)
    with pytest.raises(DomainError, match="d explicitly"):
        growth_order(CIGAR, HoloPoly(1, {1: 1.0}))
    assert growth_order(CIGAR, HoloPoly(1, {0: 3.0})) == 0.0
    with pytest.raises(DomainError, match="noncompact"):
        growth_order(SPHERE, HoloPoly(1, {1: 1.0}))


@pytest.mark.parametrize("a, beta", [(0.25, 4 / 3), (0.5, 2.0), (0.75, 4.0)])
def test_growth_order_of_conical_profiles(a, beta):
    # lam = (1 + rho^2)^(-a/2): r ~ rho^(1-a) / (1 - a), so beta = 1/(1 - a)
    model = _conical(a)
    assert model.rho_order == pytest.approx(beta, rel=1e-12)
    assert growth_order(model, HoloPoly(1, {2: 1.0, 1: 1.0})) == \
        pytest.approx(2.0 * beta, rel=1e-12)


@pytest.mark.parametrize("coeffs, beta", [([1.0, 1.0], 1 / 3),
                                          ([1.0, 0.0, 1.0], 1 / 5)])
def test_growth_order_of_conformal_poly(coeffs, beta):
    # lam ~ rho^(2k): r ~ rho^(2k+1) / (2k+1), so beta = 1/(2k+1); the
    # k = 2 chart ends where lam overflows, before rho lam would
    model = builtin_model("conformal_poly", coeffs=coeffs)
    assert growth_order(model, HoloPoly(1, {1: 1.0})) == \
        pytest.approx(beta, rel=1e-12)


def test_bare_profiles_order_like_their_builtins():
    bare_hyper = model_from_profile(HYPER.profile)
    assert bare_hyper.rho_order == HYPER.rho_order == 0.0
    f = HoloPoly(1, {2: 1.0})
    assert growth_order(bare_hyper, f) == growth_order(HYPER, f) == 0.0
    # the bare cigar's r / (rho lam) ~ asinh(rho) grows without a limit
    # the chart resolves: a DomainError, as the built-in cigar's inf is
    assert math.isnan(BARE_CIGAR.rho_order)
    for model in (BARE_CIGAR, CIGAR):
        with pytest.raises(DomainError, match="d explicitly"):
            growth_order(model, f)
    assert growth_order(BARE_CIGAR, HoloPoly(1, {0: 1.0})) == 0.0


@pytest.mark.parametrize("model", [FLAT, _conical(0.5)],
                         ids=["flat", "cone"])
def test_order_fit_approaches_growth_order(model):
    # the fitted slope reads deg f * beta within its lower-order bias,
    # which shrinks as the window moves out
    f = HoloPoly(1, {2: 1.0, 1: 1.0})
    want = growth_order(model, f)
    errs = [abs(order_at_infinity(growth_curve(model, f, 0, radii)) - want)
            for radii in (np.geomspace(1, 1000, 40),
                          np.geomspace(100, 1e4, 24))]
    assert errs[1] < errs[0] <= 1e-2 * want


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
    # log M of 100 + z^2 steepens on the moderate window (2, 200), which a
    # slope fit there reads as exponential growth; the order is deg f
    f = HoloPoly(1, {0: 100.0, 2: 1.0})
    assert growth_order(FLAT, f) == 2.0
    v100 = homogeneity_check(FLAT, f, 2.0, 100.0)
    assert homogeneity_check(FLAT, f, 2.0, 400.0) < v100 <= 0.05


def test_homogeneity_default_order_takes_one_curve(monkeypatch):
    # the default d is arithmetic: the only max-modulus pass is the
    # denominator M_f(r)
    calls = []
    inner = growth._max_moduli

    def counted(*args):
        calls.append(args[3].size)
        return inner(*args)

    monkeypatch.setattr(growth, "_max_moduli", counted)
    f = HoloPoly(1, {0: 100.0, 2: 1.0})
    assert homogeneity_check(FLAT, f, 2.0, 100.0) <= 0.05
    assert calls == [1]


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


@pytest.mark.parametrize("n", [2, 3])
def test_sample_directions_are_spread_over_the_sphere(n):
    # the sphere route's starts: unit vectors whose first and second
    # moments are those of the uniform measure on the unit sphere of C^n
    z = growth._directions(n, 480 * n)
    assert z.shape == (480 * n, n)
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) <= 1e-15
    gram = z.T @ z.conj() / len(z)
    assert np.max(np.abs(z.mean(axis=0))) <= 0.01
    assert np.max(np.abs(gram - np.eye(n) / n)) <= 0.01
