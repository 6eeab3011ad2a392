"""The benchmark's three seeded workloads and their correctness gates.

Each workload draws every input it hands to growthlab (polynomials,
centers, radii, point pairs, profile coefficients) from one seed in its
constructor, builds its models in ``build_models`` (timed as set-up), and
turns them into a fixed list of operations in ``operations``.  An
operation is one call sequence that produces a verdict; it reports every
check it made to a ``Checker``.  Tolerances are the ones the repository
pins in its tests and ROADMAP; each constant says where it comes from.

growthlab is reached only through module attributes (``gl.rho_of_r``,
``cli.main``) looked up at call time, so the tracer can wrap them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import growthlab as gl
from growthlab import cli

HERE = Path(__file__).resolve().parent
TABLE_PATH = HERE / "cigar_61.txt"

# acceptance 1: log M - d h constant to 1e-6; used for every closed-form M
TOL_LOGM = 1e-6
# acceptance 3: the hyperbolic log r violation is at least this deep
TOL_VIOLATION = 1e-3
# acceptance 10: shooting vs closed-form distances, symmetry, triangles
TOL_DIST = 1e-5
TOL_SYM = 1e-6
TOL_TRIANGLE = 1e-6
# test_geodesic.test_symmetry pins the shooting symmetry on the cigar
TOL_SYM_CIGAR = 1e-8
# test_radial_metric: r <-> rho round trip (relative) and the
# numeric-profile curvature oracle
TOL_RHO = 1e-10
TOL_H_GENERIC = 1e-6
# test_radial_metric: closed-form curvature and Hessian (relative)
TOL_CLOSED = 1e-13
# acceptance 6: Riccati equality fed a model's curvature vs its Hessian;
# also the tolerance for the bare-profile Hessian on the seeded grid
TOL_JACOBI = 1e-6
# acceptance 5: solved convexifier vs the closed form (after centering)
TOL_H_SOLVED = 1e-7
# ROADMAP item 2 gate, bare-profile vs built-in cigar on 100 geometric
# radii in [0.05, 5]: "at least as accurate as today (H 3.5e-9, u 8e-12)".
# Today's values are 3.509e-9 and 8.08e-12, so the gate admits anything
# that rounds to the stated figures.  The gate has no margin by design,
# so it is a pass/fail check and stays out of accuracy_digits.
GATE_GRID = (0.05, 5.0, 100)
GATE_H = 3.55e-9
GATE_U = 8.5e-12

EPS = np.finfo(float).eps


def _table_tolerances(r_lo: float, r_hi: float) -> tuple:
    """Spline-error tolerances for the 61-row cigar table on [r_lo, r_hi].

    The table samples lam = (1 + rho^2)^(-1/2) at rho = 0, 0.1, ..., 6 and
    load_profile_table interpolates it with a cubic spline.  Hall and
    Meyer's bounds for cubic spline interpolation with knot spacing k give
    |s - lam| <= 5/384 k^4 M4, |s' - lam'| <= k^3 M4 / 24 and
    |s'' - lam''| <= 3/8 k^2 M4, with M4 = max |lam''''| = 9 (at rho = 0).
    They are carried to first order through r(rho) = int lam, u = (lam +
    rho lam') / (2 lam^2 rho) and H = -(lam lam'' - lam'^2 + lam lam'/rho)
    / lam^4, and the worst value over the radius range is the tolerance.
    Returns (relative rho tolerance, absolute H tolerance, absolute u
    tolerance).
    """
    k, m4 = 0.1, 9.0
    e0, e1, e2 = 5 / 384 * k ** 4 * m4, k ** 3 * m4 / 24, 3 / 8 * k ** 2 * m4
    rho = np.sinh(np.linspace(r_lo, r_hi, 400))
    lam = (1 + rho ** 2) ** -0.5
    l1 = -rho * lam ** 3
    tol_rho = float(np.max(e0 / lam))
    tol_h = float(np.max(e2 / lam ** 3 + e1 / (rho * lam ** 3)
                         + 2 * np.abs(l1) * e1 / lam ** 4))
    tol_u = float(np.max((e0 + rho * e1) / (2 * lam ** 2 * rho)
                         + np.abs(lam + rho * l1) * e0 / (lam ** 3 * rho)))
    return tol_rho, tol_h, tol_u


TABLE_RANGE = (0.1, 1.5)
TOL_TABLE_RHO, TOL_TABLE_H, TOL_TABLE_U = _table_tolerances(*TABLE_RANGE)


class Checker:
    """Collects the checks of one operation.

    ``digits`` is the smallest log10(tolerance / error) over the checks
    that have a reference value; an error below double-precision
    resolution counts as that resolution.
    """

    def __init__(self):
        self.failures: list = []
        self.digits = math.inf

    def close(self, label: str, got, want, tol: float, *,
              rel: bool = False, margin: bool = True) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = np.abs(got - want)
        scale = np.abs(want) if rel else np.maximum(1.0, np.abs(want))
        if rel:
            err = err / scale
        worst = float(np.max(err))
        if not math.isfinite(worst) or worst > tol:
            self.failures.append(f"{label}: error {worst:.3g} > {tol:.3g}")
            return
        if margin:
            floor = float(EPS * (1.0 if rel else np.max(scale)))
            self.digits = min(self.digits, math.log10(tol / max(worst, floor)))

    def true(self, label: str, cond: bool, detail: str = "") -> None:
        if not cond:
            self.failures.append(f"{label}: {detail}".rstrip(": "))


@dataclass(frozen=True)
class Operation:
    label: str
    kind: str          # traffic-mix class
    fn: Callable       # fn(checker, counting) -> None


def identity_counter(name: str, fn: Callable) -> Callable:
    """Untraced runs pass callbacks through unchanged."""
    return fn


# ---------------------------------------------------------------------------
# shared helpers

def _random_poly(rng: np.random.Generator, n: int, k: int = 0) -> dict:
    """k terms (1 to 5 when k = 0), total degree 1 to 5, complex normal
    coefficients."""
    k = k or int(rng.integers(1, 6))
    coeffs = {}
    while len(coeffs) < k:
        alpha = tuple(int(a) for a in rng.integers(0, 6, size=n))
        if 0 < sum(alpha) <= 5:
            re, im = rng.normal(size=2)
            coeffs[alpha] = complex(re, im)
    return coeffs


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float):
    """n sorted draws, one in each n-th of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _power_of_linear(a: np.ndarray, k: int) -> dict:
    """Monomial coefficients of (a . z)^k for a in C^n (multinomial)."""
    n = a.size
    out = {}

    def rec(prefix, left, coef):
        i = len(prefix)
        if i == n - 1:
            alpha = prefix + (left,)
            out[alpha] = coef * a[i] ** left
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e,
                coef * math.comb(left, e) * a[i] ** e)

    rec((), k, 1.0 + 0j)
    return out


def _run_cli(argv: list, json_path: Path) -> tuple:
    """cli.main with stdout captured; returns (exit code, JSON report)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json", str(json_path)])
    with open(json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    json_path.unlink()
    return code, report


def _suite_op(name: str, run_dir: Path, witnesses: dict) -> Callable:
    """`lab suite <name>`; witnesses maps a witness key to a bound on |value|."""
    def fn(ck: Checker, counting) -> None:
        code, report = _run_cli(["suite", name], run_dir / f"suite-{name}.json")
        ck.true(f"suite {name} exit code", code == 0, f"exit {code}")
        for c in report["checks"]:
            ck.true(c["name"], c["passed"], c["verdict"])
            for key, tol in witnesses.items():
                if key in c["witness"]:
                    ck.close(f"{c['name']} {key}", c["witness"][key], 0.0, tol)
    return fn


# ---------------------------------------------------------------------------
# growth-sweep

class GrowthSweep:
    """Growth curves and three-circle verdicts (acceptance 2 and 3).

    Most time goes to growth.max_modulus: the n >= 2 sphere maximizer and
    the off-center exponential-map circles.  Radial coordinates are closed
    forms here and comparison_ode does no work.
    """

    name = "growth-sweep"

    def __init__(self, seed: int, quick: bool, run_dir: Path):
        rng = np.random.default_rng([seed, 1])
        self.run_dir = run_dir
        # Random curves stay on n <= 2: on C^3 the sphere maximizer misses
        # the global maximum for about 1 in 200 random polynomials (see
        # README.md, "Known defect"), which would fail the three-circle
        # gate on about 1 seed in 10.  C^3 is covered by linear references.
        per_n = {1: 2, 2: 6} if quick else {1: 10, 2: 44}
        n_ref = 1 if quick else 3
        # 20 off-center balls, fewer on the cigar: its exp-map circles are
        # radial_metric time, and growth must stay this workload's heaviest
        # layer
        n_off = {"flat": 2, "cigar": 2} if quick else {"flat": 12, "cigar": 8}
        lo, hi = rng.uniform(0.25, 0.4), rng.uniform(5.0, 7.0)
        self.radii = np.geomspace(lo, hi, 7)
        # term counts cycle through 1..5, so every seed has the same share
        # of single-term (closed-form) curves
        self.random = [(n, _random_poly(rng, n, 1 + j % 5))
                       for n, count in per_n.items() for j in range(count)]
        # closed-form references on flat C^n:
        #   n = 1: c (z + a)^k has M(r) = |c| (r + |a|)^k on |z| = r
        #   n >= 2: (a . z)^k has M(r) = (r |a|)^k (Cauchy-Schwarz)
        self.ref_circle = []
        for _ in range(n_ref):
            k = int(rng.integers(1, 5))
            a = complex(*rng.normal(size=2)) * rng.uniform(0.2, 1.5)
            c = complex(*rng.normal(size=2))
            coeffs = {(j,): c * math.comb(k, j) * a ** (k - j)
                      for j in range(k + 1)}
            self.ref_circle.append((coeffs, abs(c), abs(a), k))
        self.ref_sphere = []
        for n, kmax, count in ((2, 4, n_ref), (3, 1, 2 * n_ref)):
            for _ in range(count):
                k = int(rng.integers(1, kmax + 1))
                a = rng.normal(size=n) + 1j * rng.normal(size=n)
                self.ref_sphere.append(
                    (n, _power_of_linear(a, k), float(np.linalg.norm(a)), k))
        # off-center n = 1 balls (acceptance 2's second half), with
        # references: on flat, (z - w)^k about c has M = (|c - w| + r)^k;
        # on the cigar, c z^k has M = |c| sinh(asinh|center| + r)^k, since
        # the outward radial point is the farthest from the origin.  Ball
        # radii are stratified because exp-map cost grows with the radius.
        self.off = []
        for model, count in n_off.items():
            bases = rng.permutation(_strata(rng, count, 0.2, 0.8))
            for j, base in enumerate(bases):
                center = (rng.uniform(0.3, 1.2)
                          * np.exp(2j * np.pi * rng.random()))
                rs = base * np.array([1.0, 1.9, 3.4, 6.1])
                if j % 2 == 0:
                    self.off.append((model, center, rs, _random_poly(rng, 1),
                                     None))
                elif model == "flat":
                    k = int(rng.integers(1, 5))
                    w = complex(*rng.uniform(-1, 1, size=2))
                    coeffs = {(i,): math.comb(k, i) * (-w) ** (k - i)
                              for i in range(k + 1)}
                    ref = lambda r, c=center, w=w, k=k: (abs(c - w) + r) ** k
                    self.off.append((model, center, rs, coeffs, ref))
                else:
                    k = int(rng.integers(1, 4))
                    c = complex(*rng.normal(size=2))
                    ref = (lambda r, z=center, c=c, k=k:
                           abs(c) * np.sinh(math.asinh(abs(z)) + r) ** k)
                    self.off.append((model, center, rs, {(k,): c}, ref))
        # acceptance 3: f = z on the hyperbolic plane, h = log r
        r1 = rng.uniform(0.4, 0.6)
        self.violation_radii = r1 * np.array([1.0, 2.0, 3.0])

    def build_models(self) -> dict:
        models = {f"flat{n}": gl.builtin_model("flat", n=n) for n in (1, 2, 3)}
        models["cigar"] = gl.builtin_model("cigar")
        models["hyperbolic"] = gl.builtin_model("hyperbolic")
        return models

    @staticmethod
    def path_of(n: int, coeffs: dict, off_center_model: str = "") -> str:
        """Which max-modulus path a curve takes."""
        if off_center_model:
            return ("offcenter-flat" if off_center_model == "flat"
                    else "expmap-circle")
        if len(coeffs) == 1:
            return "closed-monomial"
        return "n1-circle" if n == 1 else "sphere"

    def operations(self, models: dict) -> list:
        h = gl.closed_form_convexifier("nonneg")
        radii = self.radii
        ops = []

        def curve_op(model_key, n, coeffs, center=None, rs=radii, ref=None):
            def fn(ck: Checker, counting) -> None:
                f = gl.HoloPoly(n, coeffs)
                curve = gl.growth_curve(models[model_key], f, center=center,
                                        radii=rs)
                rep = gl.three_circle_check(curve, h)
                ck.true("three-circle verdict", rep.verdict == "pass",
                        f"min second difference {rep.min_second_difference}")
                if ref is not None:
                    ck.close("log M vs closed form", curve.log_values,
                             np.log(ref(rs)), TOL_LOGM)
            return fn

        for n, coeffs in self.random:
            ops.append(Operation(f"random n={n}", self.path_of(n, coeffs),
                                 curve_op(f"flat{n}", n, coeffs)))
        for coeffs, c, a, k in self.ref_circle:
            ops.append(Operation("reference n=1", "n1-circle", curve_op(
                "flat1", 1, coeffs,
                ref=lambda r, c=c, a=a, k=k: c * (r + a) ** k)))
        for n, coeffs, norm, k in self.ref_sphere:
            ops.append(Operation(f"reference n={n}", "sphere", curve_op(
                f"flat{n}", n, coeffs,
                ref=lambda r, norm=norm, k=k: (r * norm) ** k)))
        for model, center, rs, coeffs, ref in self.off:
            key = "flat1" if model == "flat" else "cigar"
            ops.append(Operation(
                f"off-center {model}",
                self.path_of(1, coeffs, model),
                curve_op(key, 1, coeffs, center=center, rs=rs, ref=ref)))

        def violation(ck: Checker, counting) -> None:
            rs = self.violation_radii
            curve = gl.growth_curve(models["hyperbolic"],
                                    gl.HoloPoly(1, {(1,): 1.0}), radii=rs)
            rep = gl.three_circle_check(curve, h)
            ck.true("hyperbolic violation detected",
                    rep.verdict == "violation"
                    and rep.min_second_difference < -TOL_VIOLATION,
                    f"min second difference {rep.min_second_difference}")
            # M_z(r) = tanh(r/2) on the unit hyperbolic disk
            logm = np.log(np.tanh(rs / 2))
            slopes = np.diff(logm) / np.diff(np.log(rs))
            ck.close("second difference vs closed form",
                     rep.min_second_difference, float(np.diff(slopes)[0]),
                     TOL_LOGM)

        ops.append(Operation("hyperbolic violation", "closed-monomial",
                             violation))
        ops.append(Operation("suite sharpness", "cli-suite", _suite_op(
            "sharpness", self.run_dir, {"spread": TOL_LOGM})))
        ops.append(Operation("suite monotonicity", "cli-suite", _suite_op(
            "monotonicity", self.run_dir, {})))
        return ops


# ---------------------------------------------------------------------------
# geodesic-pairs

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


class GeodesicPairs:
    """Two-point distances by shooting (acceptance 10).

    Almost all time is two-point shooting in radial_metric; no growth or
    ODE work.  Batches of 1, 10 and 64 pairs separate cost per call from
    cost per pair.  Batches also carry pairs that skip the bracket search
    (one endpoint at the origin, or both on one ray) and pairs at
    dtheta = pi, which are scanned with the broken path through the origin
    as a candidate.

    Shooting cost grows with the swept angle dtheta, and a batch costs as
    much as its hardest pair, so inputs are stratified: a batch of n pairs
    has one pair in each n-th of the angle and radius ranges, single pairs
    sit near a quarter turn, and every triangle triple spans
    0.88-0.92 pi with fixed radius bands.  The seed moves the pairs within
    these bands, which keeps a batch's cost from swinging with the seed.
    """

    name = "geodesic-pairs"

    def __init__(self, seed: int, quick: bool, run_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.batches = []

        def polar(rho, theta):
            return rho * np.exp(1j * theta)

        def shoot_pairs(n, lo, hi, dth_lo, dth_hi):
            """Pair i has dtheta and rho_p in the i-th n-th of their ranges
            and rho_q in the (n - 1 - i)-th, so the longest sweep always
            pairs a far point with a near one."""
            i = np.arange(n)
            cut = (i + rng.random((3, n))) / n
            phi = rng.uniform(0, 2 * np.pi, n)
            dth = (dth_lo + (dth_hi - dth_lo) * cut[0]) * rng.choice([-1, 1], n)
            rho_p = lo + (hi - lo) * cut[1]
            rho_q = lo + (hi - lo) * cut[2][::-1]
            return polar(rho_p, phi), polar(rho_q, phi + dth), ["shoot"] * n

        def skip_pairs(k, lo, hi, kinds):
            ps, qs, out = [], [], []
            for kind in kinds:
                for rp, rq in zip(_strata(rng, k, lo, hi),
                                  rng.permutation(_strata(rng, k, lo, hi))):
                    th = rng.uniform(0, 2 * np.pi)
                    ps.append(0j if kind == "origin" else polar(rp, th))
                    qs.append(polar(rq, th + (np.pi if kind == "dtheta-pi"
                                              else 0.0)))
                    out.append(kind)
            return np.array(ps), np.array(qs), out

        def batch(check, model, parts):
            p = np.concatenate([part[0] for part in parts])
            q = np.concatenate([part[1] for part in parts])
            kinds = [k for part in parts for k in part[2]]
            self.batches.append((check, model, p, q, kinds))

        # single pairs near a quarter turn, the j-th in the j-th fifth of
        # [0.4, 0.6] pi: six of the eight operations cost about the same,
        # so the median operation is one of them
        singles = 1 if quick else 5
        for dth in np.pi * _strata(rng, singles, 0.4, 0.6):
            batch("closed", "hyperbolic", [shoot_pairs(1, 0.3, 0.6, dth, dth)])
        if quick:
            return
        # sphere chart rho = tan(r/2), r in [0.05, 1.5]: inside the
        # convexity radius, as in acceptance 10
        sphere = (math.tan(0.025), math.tan(0.75))
        batch("closed", "sphere",
              [shoot_pairs(52, *sphere, 0.0, np.pi),
               skip_pairs(4, *sphere, ["origin", "same-ray", "dtheta-pi"])])
        # symmetry + triangle batches: triples (a, b, c) sent as the pairs
        # ab, ba, bc, ac in one call, plus an origin and a same-ray pair
        for model, hi in (("cigar", 3.0), ("conformal_poly", 1.5)):
            a, b, c = [], [], []
            for _ in range(2):
                phi = rng.uniform(0, 2 * np.pi)
                span = rng.uniform(0.88, 0.92) * np.pi * rng.choice([-1, 1])
                split = span * rng.uniform(0.4, 0.6)
                # far a, near b, middle c: the long span ac is far-middle
                rb, rc, ra = _strata(rng, 3, 0.05, hi)
                a.append(polar(ra, phi))
                b.append(polar(rb, phi + split))
                c.append(polar(rc, phi + span))
            a, b, c = np.array(a), np.array(b), np.array(c)
            triples = (np.concatenate([a, b, b, a]),
                       np.concatenate([b, a, c, c]), ["shoot"] * 8)
            batch("triangle", model,
                  [triples, skip_pairs(1, 0.05, hi, ["origin", "same-ray"])])

    def build_models(self) -> dict:
        return {"hyperbolic": gl.builtin_model("hyperbolic"),
                "sphere": gl.builtin_model("sphere"),
                "cigar": gl.builtin_model("cigar"),
                "conformal_poly": gl.builtin_model("conformal_poly",
                                                   coeffs=[1.0, 1.0])}

    def mix(self) -> dict:
        pairs = {}
        sizes = {}
        for _, _, p, _, kinds in self.batches:
            sizes[str(p.size)] = sizes.get(str(p.size), 0) + 1
            for kind in kinds:
                pairs[kind] = pairs.get(kind, 0) + 1
        return {"pairs_by_kind": pairs, "batches_by_size": sizes}

    def operations(self, models: dict) -> list:
        ops = []
        for check, model_key, p, q, kinds in self.batches:
            size = p.size

            if check == "closed":
                ref = _hyperbolic_dist if model_key == "hyperbolic" else _sphere_dist

                def fn(ck, counting, m=model_key, p=p, q=q, ref=ref):
                    d = gl.pair_distances(models[m], p, q, method="shoot")
                    ck.close(f"{m} distance vs closed form", d, ref(p, q),
                             TOL_DIST)
            else:
                k = (size - 2) // 4   # pairs per group: ab, ba, bc, ac
                tol_sym = TOL_SYM_CIGAR if model_key == "cigar" else TOL_SYM

                def fn(ck, counting, m=model_key, p=p, q=q, k=k,
                       tol_sym=tol_sym):
                    model = models[m]
                    d = gl.pair_distances(model, p, q, method="shoot")
                    dab, dba, dbc, dac = (d[i * k:(i + 1) * k]
                                          for i in range(4))
                    ck.close(f"{m} symmetry", dab, dba, tol_sym)
                    ck.true(f"{m} triangle inequality",
                            bool(np.all(dac <= dab + dbc + TOL_TRIANGLE)))
                    # radial pairs: |r_p - r_q| from distance_from_origin
                    tail_p, tail_q = p[4 * k:], q[4 * k:]
                    want = np.abs(
                        gl.distance_from_origin(model, np.abs(tail_p))
                        - gl.distance_from_origin(model, np.abs(tail_q)))
                    ck.close(f"{m} radial pairs", d[4 * k:], want, TOL_DIST)
            ops.append(Operation(f"{model_key} x{size}", f"batch-{size}", fn))
        return ops


# ---------------------------------------------------------------------------
# generic-profile

class GenericProfile:
    """Generic numeric routes and the comparison solves.

    The cigar in three forms (closed forms, bare profile, 61-row table)
    through rho_of_r, radial_curvature and model_hessian; the Jacobi
    cross-oracle on conformal_poly models; three-circle checks with the
    curvature-adapted h and the dimension bound that follows; and
    `lab suite ode-catalog`.

    Left out because they do not finish today: the table model's
    auto-h three-circle run (killed at 120 s) and solve_riccati_equality
    on the bare-profile or table cigar's curvature (still running at 30 s).
    """

    name = "generic-profile"

    def __init__(self, seed: int, quick: bool, run_dir: Path):
        rng = np.random.default_rng([seed, 3])
        self.run_dir = run_dir
        self.quick = quick
        k_grid, k_table = (6, 3) if quick else (24, 8)
        # one radius in each k-th of the range: the generic routes' cost
        # depends on the radius
        self.grid = _strata(rng, k_grid, 0.05, 5.0)
        self.table_grid = _strata(rng, k_table, *TABLE_RANGE)
        # lam = 1 + c1 rho^2 + c2 rho^4: complete, negatively curved
        self.poly_coeffs = [1.0, rng.uniform(0.3, 1.5), rng.uniform(0.0, 0.3)]
        self.jacobi_hi = rng.uniform(3.0, 4.0)
        # auto-h curves reach r ~ 9 so the solved h spans the decade that
        # dim_bound_from_h fits; the narrow band keeps the bare cigar's
        # rho_of_r at one bracket-doubling count (sinh(1.25 r) < 2^15.5)
        lo, hi = rng.uniform(0.3, 0.5), rng.uniform(9.0, 9.15)
        self.curve_radii = np.geomspace(lo, hi, 7)
        self.curve_polys = [_random_poly(rng, 1) for _ in range(3)]
        self.growth_order = int(rng.integers(1, 5)) + 0.5

    def build_models(self) -> dict:
        cigar = gl.builtin_model("cigar")
        bare = gl.model_from_profile(gl.RadialProfile(
            lam=cigar.profile.lam, rho_max=cigar.profile.rho_max,
            name="bare-cigar"))
        table = gl.model_from_profile(gl.load_profile_table(str(TABLE_PATH)))
        poly = gl.builtin_model("conformal_poly", coeffs=self.poly_coeffs)
        return {"cigar": cigar, "bare": bare, "table": table, "poly": poly}

    def operations(self, models: dict) -> list:
        ops = []
        # (model, grid, tolerances for rho_of_r, radial_curvature and
        # model_hessian as (tol, relative?))
        forms = [("cigar", self.grid, (TOL_RHO, True), (TOL_CLOSED, True),
                  (TOL_CLOSED, True)),
                 ("bare", self.grid, (TOL_RHO, True), (TOL_H_GENERIC, False),
                  (TOL_JACOBI, False)),
                 ("table", self.table_grid, (TOL_TABLE_RHO, True),
                  (TOL_TABLE_H, False), (TOL_TABLE_U, False))]
        for key, rs, t_rho, t_h, t_u in forms:
            def rho_op(ck, counting, key=key, rs=rs, tol=t_rho):
                ck.close(f"{key} rho_of_r", gl.rho_of_r(models[key], rs),
                         np.sinh(rs), tol[0], rel=tol[1])

            def h_op(ck, counting, key=key, rs=rs, tol=t_h):
                ck.close(f"{key} radial_curvature",
                         gl.radial_curvature(models[key], rs),
                         2.0 / np.cosh(rs) ** 2, tol[0], rel=tol[1])

            def u_op(ck, counting, key=key, rs=rs, tol=t_u):
                ck.close(f"{key} model_hessian",
                         gl.model_hessian(models[key], rs),
                         1.0 / np.sinh(2.0 * rs), tol[0], rel=tol[1])

            kind = "closed-form" if key == "cigar" else f"generic-{key}"
            ops += [Operation(f"{key} rho_of_r", kind, rho_op),
                    Operation(f"{key} radial_curvature", kind, h_op),
                    Operation(f"{key} model_hessian", kind, u_op)]

        def gate(ck, counting):
            rs = np.geomspace(*GATE_GRID)
            ck.close("bare H gate", gl.radial_curvature(models["bare"], rs),
                     2.0 / np.cosh(rs) ** 2, GATE_H, margin=False)
            ck.close("bare u gate", gl.model_hessian(models["bare"], rs),
                     1.0 / np.sinh(2.0 * rs), GATE_U, margin=False)

        if not self.quick:
            ops.append(Operation("bare-cigar gate", "generic-bare", gate))

        def jacobi(ck, counting):
            model, hi = models["poly"], self.jacobi_hi
            g = gl.curvature_bound("custom", g=counting(
                "comparison_ode.g_evals",
                lambda r: gl.radial_curvature(model, r)))
            u = gl.solve_riccati_equality(g, r_end=1.02 * hi)
            rs = np.linspace(0.05, min(hi, 0.995 * u.r_max), 160)
            ck.close("poly Jacobi cross-oracle", u(rs),
                     gl.model_hessian(model, rs), TOL_JACOBI)

        ops.append(Operation("jacobi poly", "riccati", jacobi))

        rs = self.curve_radii
        window = (1.05, 1.25 * 0.99 * rs[-1])
        d = self.growth_order
        for key, coeffs in zip(("poly", "bare", "cigar"), self.curve_polys):
            def auto(ck, counting, key=key, coeffs=coeffs):
                model = models[key]
                h = cli.resolve_h("auto", model, rs)
                curve = gl.growth_curve(model, gl.HoloPoly(1, coeffs), radii=rs)
                rep = gl.three_circle_check(curve, h)
                ck.true(f"{key} auto-h three-circle", rep.verdict == "pass",
                        f"min second difference {rep.min_second_difference}")
                bound = gl.dim_bound_from_h(h, d, 1, r_window=window)
                if key == "poly":
                    # h grows no faster than log r under negative curvature
                    ck.true("poly dimension bound at least Euclidean",
                            bound.d_eff >= d
                            and bound.bound >= gl.dim_poly_space(1, d))
                elif key == "bare":
                    # solved h vs the cigar's closed form log sinh r,
                    # centered like ode-catalog's solver_h_gap
                    delta = (np.asarray(h(rs), dtype=float)
                             - np.log(np.sinh(rs)))
                    ck.close("bare solved h vs log sinh r",
                             delta - np.median(delta), 0.0, TOL_H_SOLVED)
                    want = gl.dim_bound_from_h(
                        gl.closed_form_convexifier("cigar"), d, 1,
                        r_window=window)
                    ck.true("bare cigar bound equals the closed-form one",
                            (bound.bound, bound.regime)
                            == (want.bound, want.regime))
                else:
                    ck.true("cigar h is superlogarithmic",
                            bound.regime == "exp_growth", bound.regime)
            kind = "auto-h-solved" if key != "cigar" else "auto-h-closed"
            ops.append(Operation(f"auto-h {key}", kind, auto))

        ops.append(Operation("suite ode-catalog", "cli-suite", _suite_op(
            "ode-catalog", self.run_dir,
            {"pair_residual": 1e-8, "min_residual": 1e-8,
             "solver_u_gap": 1e-7, "solver_h_gap": 1e-7})))
        return ops


WORKLOADS = {w.name: w for w in (GrowthSweep, GeodesicPairs, GenericProfile)}
