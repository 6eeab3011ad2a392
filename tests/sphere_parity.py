"""Max-modulus parity of the centered growth routes against another checkout.

    python tests/sphere_parity.py PATH_TO_OTHER_CHECKOUT

Runs growth._max_moduli from this tree and from the other checkout (each in
its own process, importing growthlab from that tree's src/) on four curve
sets of balls about the origin, every curve at 7 radii:

  * sweep: the sphere curves of the benchmark's growth-sweep workload for
    seeds 1-5 (random C^2 curves with 2 to 5 terms, plus the (a . z)^k
    references on C^2 and C^3), 44 a seed, drawn here without importing
    perfbench, on flat C^2 and C^3;
  * B: 800 random curves on flat C^2 and C^3, C^2 for even j and C^3 for
    odd j, with 2 + j % 4 terms of total degree 1 to 5, from
    default_rng(77); each polynomial's radii geomspace(U(0.25, 0.4),
    U(5, 7), 7) are drawn after it;
  * circle: 300 curves on C (the circle route), 3 + j % 3 terms of degree
    at most 7 on flat, cigar and hyperbolic in turn, from default_rng(78),
    radii geomspace(U(0.1, 0.4), U(1.5, 3), 7);
  * aligned: 300 phase-alignable C^2 curves (the real-circle route), 2 or
    3 terms of total degree 1 to 5 whose exponent differences are linearly
    independent, on flat, cigar and hyperbolic in turn, from
    default_rng(79), radii geomspace(U(0.25, 0.4), U(2, 6), 7).

For each set it prints the worst relative drop and the worst relative rise
of this tree against the other, and exits 1 if any value drops by more than
1e-14 relative (a curve that fails in this tree only counts as a drop).
pytest does not collect this file.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

TOL = 1e-14


def _random_poly(rng: np.random.Generator, n: int, k: int,
                 top: int = 5) -> dict:
    """k terms of total degree 1 to top, complex normal coefficients."""
    coeffs = {}
    while len(coeffs) < k:
        alpha = tuple(int(a) for a in rng.integers(0, top + 1, size=n))
        if 0 < sum(alpha) <= top:
            coeffs[alpha] = complex(*rng.normal(size=2))
    return coeffs


def _power_of_linear(a: np.ndarray, k: int) -> dict:
    """Monomial coefficients of (a . z)^k, multiplied out in the order the
    benchmark uses, so that they match it bit for bit."""
    out = {}

    def rec(prefix, left, coef):
        i = len(prefix)
        if i == a.size - 1:
            out[prefix + (left,)] = coef * a[i] ** left
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e,
                coef * math.comb(left, e) * a[i] ** e)
    rec((), k, 1.0)
    return out


def sweep_curves(seed: int) -> list:
    """(n, coeffs, radii) of growth-sweep's sphere curves for one seed, in
    the workload's draw order."""
    rng = np.random.default_rng([seed, 1])
    radii = np.geomspace(rng.uniform(0.25, 0.4), rng.uniform(5.0, 7.0), 7)
    curves = []
    for n, count in ((1, 10), (2, 44)):
        for j in range(count):
            coeffs = _random_poly(rng, n, 1 + j % 5)
            if n == 2 and len(coeffs) > 1:
                curves.append(("flat", n, coeffs, radii))
    for _ in range(3):  # the n = 1 references
        rng.integers(1, 5), rng.normal(size=2), rng.uniform(0.2, 1.5)
        rng.normal(size=2)
    for n, kmax, count in ((2, 4, 3), (3, 1, 6)):
        for _ in range(count):
            k = int(rng.integers(1, kmax + 1))
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            curves.append(("flat", n, _power_of_linear(a, k), radii))
    return curves


def set_b_curves() -> list:
    rng = np.random.default_rng(77)
    curves = []
    for j in range(800):
        n = 2 if j % 2 == 0 else 3
        coeffs = _random_poly(rng, n, 2 + j % 4)
        lo, hi = rng.uniform(0.25, 0.4), rng.uniform(5.0, 7.0)
        curves.append(("flat", n, coeffs, np.geomspace(lo, hi, 7)))
    return curves


MODELS = ("flat", "cigar", "hyperbolic")


def circle_curves() -> list:
    rng = np.random.default_rng(78)
    curves = []
    for j in range(300):
        # exponents 0 to 7, so a curve may have a constant term
        coeffs = {(e,): complex(*rng.normal(size=2)) for e in
                  rng.choice(8, size=3 + j % 3, replace=False).tolist()}
        lo, hi = rng.uniform(0.1, 0.4), rng.uniform(1.5, 3.0)
        curves.append((MODELS[j % 3], 1, coeffs, np.geomspace(lo, hi, 7)))
    return curves


def aligned_curves() -> list:
    rng = np.random.default_rng(79)
    curves = []
    while len(curves) < 300:
        coeffs = _random_poly(rng, 2, 2 + len(curves) % 2)
        e = np.array(list(coeffs))
        if np.linalg.matrix_rank(e[1:] - e[0]) == len(coeffs) - 1:
            lo, hi = rng.uniform(0.25, 0.4), rng.uniform(2.0, 6.0)
            curves.append((MODELS[len(curves) % 3], 2, coeffs,
                           np.geomspace(lo, hi, 7)))
    return curves


SETS = {"sweep": [c for s in range(1, 6) for c in sweep_curves(s)],
        "B": set_b_curves(), "circle": circle_curves(),
        "aligned": aligned_curves()}


def values(src: str) -> dict:
    """Every set's curves through growth._max_moduli of the tree at src;
    nan for a curve whose search fails."""
    sys.path.insert(0, src)
    from growthlab import HoloPoly, builtin_model, growth
    from growthlab.errors import MaximizationError
    models = {(m, n): builtin_model(m, n=n) for m in MODELS for n in (1, 2, 3)}
    out = {}
    for name, curves in SETS.items():
        out[name] = []
        for model, n, coeffs, radii in curves:
            f = HoloPoly(n, coeffs)
            try:
                vals = growth._max_moduli(models[model, n], f, 0j, radii)
            except MaximizationError:
                vals = np.full(radii.size, math.nan)
            out[name].append([float(v) for v in vals])
    return out


def run(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--values", str(tree / "src")],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list) -> int:
    if argv[:1] == ["--values"]:
        json.dump(values(argv[1]), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    here, other = run(Path(__file__).resolve().parents[1]), run(Path(argv[0]))
    failed = False
    for name, curves in SETS.items():
        new, old = np.array(here[name]), np.array(other[name])
        rel = new / old - 1.0
        rel[np.isnan(new) & ~np.isnan(old)] = -math.inf
        rel[np.isnan(rel)] = 0.0  # failed in both trees
        drop = np.unravel_index(rel.argmin(), rel.shape)
        rise = np.unravel_index(rel.argmax(), rel.shape)
        print(f"{name}: {len(curves)} curves, {rel.size} values; "
              f"worst drop {max(0.0, -rel[drop]):.2g} (curve {drop[0]}, "
              f"radius {drop[1]}), worst rise {max(0.0, rel[rise]):.2g} "
              f"(curve {rise[0]}, radius {rise[1]})")
        failed |= bool(-rel[drop] > TOL)
    print("FAIL" if failed else f"ok: no value drops by more than {TOL:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
