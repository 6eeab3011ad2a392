"""Batch experiment runner for the laboratory.

Subcommands
-----------
curvature     tabulate H(r) and the radial Hessian on a grid
ode           solve the comparison equation under a curvature floor, verify
three-circle  convexity of log M_f against a reparametrization h
monotonicity  sharp growth monotonicity of log M_f - d h
necessity     quadratic deficit of the chart ratio at small radii
homogeneity   asymptotic homogeneity defect at large radii
dimension     dimension bounds: polynomial counts and growth regimes
suite         pinned check bundles, then a k/N passed count

Functions are monomial sums over ``z`` (one variable) or ``z1..zN``
with complex coefficients written as ``a+bi``; whitespace is ignored.
Radii grids are ``start:stop:count`` (logarithmic unless
``--spacing linear``) or explicit comma lists.

Every run can write a JSON report (``--json``); the commands that
tabulate a curve (all but dimension and suite) also write it as CSV
(``--csv``).  A check passes when its margin, the signed distance to
its threshold, is >= 0.  Exit status: 0 when all selected checks pass,
1 when a check reports a violation or a failure (inverted by
``--expect-violation``: a detected violation is then the desired
outcome), 2 on usage or validation errors.  ``--config FILE`` supplies
defaults from JSON; explicit flags win.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .comparison_ode import (
    closed_form_convexifier,
    closed_form_supersolution,
    curvature_bound,
    make_supersolution,
    solve_convexifier,
    solve_riccati_equality,
    verify_supersolution,
)
from .dimension import (
    dim_bound_from_h,
    dim_poly_space,
    exp_growth_bound,
    power_decay_regimes,
)
from .errors import Check, DomainError, GrowthLabError
from .growth import (
    HoloPoly,
    cone_exponent,
    growth_curve,
    growth_order,
    homogeneity_check,
    monotonicity_check,
    necessity_check,
    separation_eigenvalue,
    three_circle_check,
)
from .radial_metric import (
    builtin_model,
    curvature_at_origin,
    load_profile_table,
    model_from_profile,
    model_hessian,
    radial_curvature,
    rho_of_r,
)

# ---------------------------------------------------------------------------
# input parsing

_MONO_RE = re.compile(r"^z(\d*)(?:\^(\d+))?$")


def parse_complex(text: str) -> complex:
    """Complex literal with `i` notation: 2, -0.5, 1+2i, (3-0.5i), 2e-3i."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(s)
    except ValueError:
        raise DomainError(f"bad complex literal {text!r}") from None


def _split_terms(s: str) -> list:
    terms, depth, start = [], 0, 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > start:
            # keep exponent signs (1e-3) glued to their mantissa
            if s[k - 1] in "eE" and k >= 2 and (s[k - 2].isdigit()
                                                or s[k - 2] == "."):
                continue
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    return [t for t in terms if t not in ("", "+", "-")]


def _parse_term(term: str, n: int) -> tuple:
    sign = 1.0
    if term[0] in "+-":
        sign = -1.0 if term[0] == "-" else 1.0
        term = term[1:]
    if not term:
        raise DomainError("empty term in function expression")
    k = term.find("z")
    coef_text = term[:k].rstrip("*") if k >= 0 else term
    mono_text = term[k:] if k >= 0 else ""
    coef = parse_complex(coef_text) if coef_text else 1.0 + 0.0j
    alpha = [0] * n
    if mono_text:
        for factor in mono_text.split("*"):
            m = _MONO_RE.match(factor)
            if m is None:
                raise DomainError(f"bad monomial factor {factor!r}")
            idx_text, exp_text = m.group(1), m.group(2)
            if idx_text:
                idx = int(idx_text) - 1
                if not 0 <= idx < n:
                    raise DomainError(
                        f"variable z{idx_text} outside z1..z{n}")
            elif n == 1:
                idx = 0
            else:
                raise DomainError("use numbered variables z1..zN when n > 1")
            alpha[idx] += int(exp_text) if exp_text else 1
    return tuple(alpha), sign * coef


def parse_function(text: str, n: int) -> HoloPoly:
    """Monomial-sum expression over z (n = 1) or z1..zN."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise DomainError("empty function expression")
    coeffs: dict = {}
    for term in _split_terms(s):
        alpha, c = _parse_term(term, n)
        coeffs[alpha] = coeffs.get(alpha, 0.0 + 0.0j) + c
    return HoloPoly(n, coeffs)


def _finite(text, kind=float):
    """text as a finite number of type kind; DomainError otherwise."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{text!r} is not a finite {kind.__name__}")


def parse_radii(spec, spacing: str = "log") -> np.ndarray:
    """start:stop:count grid, comma list, or single value."""
    if isinstance(spec, (list, tuple, np.ndarray)):
        radii = np.asarray([_finite(v) for v in spec])
    else:
        s = str(spec).strip()
        if ":" in s:
            parts = s.split(":")
            if len(parts) != 3:
                raise DomainError(f"radii spec {spec!r} is not start:stop:count")
            start, stop, count = map(_finite, parts, (float, float, int))
            if count < 1:
                raise DomainError("radii count must be >= 1")
            if not 0 < start <= stop:
                raise DomainError("radii must satisfy 0 < start <= stop")
            if spacing == "linear":
                radii = np.linspace(start, stop, count)
            else:
                radii = np.geomspace(start, stop, count)
        elif "," in s:
            radii = np.asarray([_finite(p) for p in s.split(",") if p.strip()])
        else:
            radii = np.asarray([_finite(s)])
    if radii.size == 0 or np.any(radii <= 0):
        raise DomainError("radii must be positive")
    return radii


# ---------------------------------------------------------------------------
# model and h resolution

def _require(args, *names) -> None:
    for nm in names:
        if getattr(args, nm, None) in (None, ""):
            flag = "--" + nm.replace("_", "-")
            raise DomainError(f"{flag} is required (flag or config file)")


def build_model(args):
    tag = args.model
    if tag == "poly":
        if not args.coeffs:
            raise DomainError("--model poly needs --coeffs c0,c1,...")
        coeffs = [_finite(p) for p in str(args.coeffs).split(",")]
        return builtin_model("conformal_poly", args.n, coeffs=coeffs)
    if tag == "table":
        if not args.table:
            raise DomainError("--model table needs --table PATH")
        return model_from_profile(load_profile_table(args.table), args.n)
    return builtin_model(tag, args.n, kappa=args.kappa)


# catalog tags of the closed-form convexifiers, by model kind (for --h
# auto; hyperbolic and sphere at unit scale only) and by --h-tag name
_CLOSED_H = {"flat": "nonneg", "cigar": "cigar",
             "hyperbolic": "lower_bound_minus_one",
             "sphere": "lower_bound_plus_one",
             "logr": "nonneg", "power-decay": "power_decay"}


def resolve_h(spec: str, model, radii: np.ndarray):
    """Reparametrization for the convexity checks.

    'logr' is the universal choice for nonnegative curvature; 'auto'
    picks the model's exact closed form when there is one and otherwise
    solves the comparison pair from the model's own radial Hessian.
    """
    if spec == "logr":
        return closed_form_convexifier("nonneg")
    if spec != "auto":
        raise DomainError(f"unknown h spec {spec!r}")
    unit = (not model.params) or model.params[0] == 1.0
    if model.kind in _CLOSED_H and unit:
        return closed_form_convexifier(_CLOSED_H[model.kind])
    u = make_supersolution(lambda r: model_hessian(model, r))
    hi = min(1.25 * float(np.max(radii)), 0.99 * model.conjugate_radius,
             np.nextafter(model.r_max, 0))
    return solve_convexifier(u, r_end=hi)


# ---------------------------------------------------------------------------
# output plumbing

def write_csv(path: str, table: dict) -> None:
    """Write table, {header: column}, as CSV; csv writes each float,
    Python's or numpy's, in its shortest round-trip form."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(zip(*table.values()))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, complex):
        return str(obj)
    return obj


def _echo_config(args) -> dict:
    skip = {"command", "run", "csv", "json", "config"}
    return {k: _jsonable(v) for k, v in vars(args).items() if k not in skip}


def finish(args, checks: list, table, t0: float) -> int:
    """Print the verdicts, write the CSV table and the JSON report.

    table is {header: column} or None; it is written when --csv is given.
    """
    csv_files = []
    if table is not None and args.csv:
        write_csv(args.csv, table)
        csv_files.append(args.csv)
    raw_ok = all(c.passed for c in checks)
    expect = bool(getattr(args, "expect_violation", False))
    ok = (not raw_ok) if expect else raw_ok
    for c in checks:
        line = f"{c.name}: {c.verdict}"
        keys = [k for k in ("min_second_difference", "worst", "value",
                            "fitted", "min_residual", "bound", "spread")
                if k in c.witness]
        if keys:
            line += "  (" + ", ".join(
                f"{k}={c.witness[k]}" for k in keys) + ")"
        print(line)
    if len(checks) > 1:
        print(f"{sum(c.passed for c in checks)}/{len(checks)} passed")
    if expect:
        print("violation-as-expected" if ok
              else "expected a violation but every check passed")
    report = {
        "version": __version__,
        "command": args.command,
        "expected_violation": expect,
        "config": _echo_config(args),
        "checks": _jsonable([
            {"name": c.name, "passed": c.passed, "verdict": c.verdict,
             "margin": c.margin, "witness": c.witness} for c in checks]),
        "csv_files": csv_files,
        "all_passed": ok,
        "elapsed_s": time.perf_counter() - t0,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands: each returns (checks, table) for finish

def _cmd_curvature(args):
    model = build_model(args)
    # by default 0.05 to 5, ending inside r_max on a bounded chart
    top = min(5.0, 0.95 * model.r_max)
    radii = parse_radii(args.radii or f"{min(0.05, top / 10)!r}:{top!r}:40",
                        args.spacing)
    kurv = np.asarray(radial_curvature(model, radii), dtype=float)
    hess = np.asarray(model_hessian(model, radii), dtype=float)
    checks = [Check("curvature-table", 0.0,
                    {"H_min": float(kurv.min()), "H_max": float(kurv.max()),
                     "H_origin": float(curvature_at_origin(model)),
                     "samples": int(radii.size)})]
    return checks, {"r": radii, "H": kurv, "u": hess}


def _bound_from_args(args):
    tag = args.g
    if tag == "constant":
        return curvature_bound("constant", c=args.c)
    if tag == "power_decay":
        return curvature_bound("power_decay", A=args.A, eps=args.eps)
    return curvature_bound("cigar")


def _cmd_ode(args):
    _require(args, "g")
    g = _bound_from_args(args)
    u = solve_riccati_equality(g, r_end=args.r_end)
    # stop short of a blow-down, where rounding in u' + 2u^2 grows like u^2
    hi = min(args.r_end, 0.995 * u.r_max)
    if not 0 < args.grid_lo < hi:
        raise DomainError(f"--grid-lo must lie in (0, {hi:g})")
    grid = np.geomspace(args.grid_lo, hi, 400)
    rep = verify_supersolution(u, g, grid, tol=args.tol)
    return [rep], {"r": grid, "u": u(grid), "residual": rep.residuals}


def _cmd_three_circle(args):
    _require(args, "f", "radii")
    model = build_model(args)
    f = parse_function(args.f, args.n)
    center = parse_complex(args.center) if args.center else 0
    radii = parse_radii(args.radii, args.spacing)
    h = resolve_h(args.h, model, radii)
    curve = growth_curve(model, f, center, radii)
    rep = three_circle_check(curve, h, tol=args.tol)
    return [rep], {"r": radii, "h": h(radii), "M": curve.values,
                   "logM": curve.log_values,
                   "second_difference": ["", *rep.second_differences, ""]}


def _cmd_monotonicity(args):
    _require(args, "f", "radii")
    model = build_model(args)
    f = parse_function(args.f, args.n)
    radii = parse_radii(args.radii, args.spacing)
    h = resolve_h(args.h, model, radii)
    if args.d is not None:
        d = args.d
    elif args.direction == "nondecreasing":
        d = f.vanishing_order()
    else:
        d = growth_order(model, f)
    curve = growth_curve(model, f, 0, radii)
    rep = monotonicity_check(curve, h, d, direction=args.direction,
                             tol=args.tol)
    hv = np.asarray(h(radii), dtype=float)
    return [rep], {"r": radii, "h": hv, "M": curve.values,
                   "logM": curve.log_values, "t": curve.log_values - d * hv}


def _necessity_grid(model) -> np.ndarray:
    """Default fit grid for the deficit, inside (0, 0.2 min(1, r_max))."""
    top = 0.19 * min(1.0, model.r_max)
    return np.linspace(top / 8.0, top, 12)


def _cmd_necessity(args):
    model = build_model(args)
    grid = (parse_radii(args.radii, "linear") if args.radii
            else _necessity_grid(model))
    check = necessity_check(model, grid, args.rtol, args.atol)
    ratio = np.asarray(rho_of_r(model, grid), dtype=float) / grid
    return [check], {"r": grid, "ratio": ratio}


def _cmd_homogeneity(args):
    _require(args, "f")
    model = build_model(args)
    f = parse_function(args.f, args.n)
    radii = parse_radii(args.radii, args.spacing)
    values = [float(homogeneity_check(model, f, args.K, float(r), d=args.d))
              for r in radii]
    checks = [Check(f"homogeneity K={args.K:g}", args.tol - np.max(values),
                    {"value": max(values), "values": values})]
    return checks, {"r": radii, "value": values}


def _cmd_dimension(args):
    _require(args, "regime")
    if args.regime == "poly":
        bound = dim_poly_space(args.n, args.d)
        print(f"bound {bound}")
        return [Check("dimension poly", 0.0,
                      {"bound": bound, "n": args.n, "d": args.d})], None
    if args.regime == "power-decay":
        b = power_decay_regimes(args.A, args.eps, args.d, args.n)
    elif args.regime == "exp-growth":
        b = exp_growth_bound(args.C, args.d, args.n, args.c1)
    else:  # from-h
        params = ({"A": args.A, "eps": args.eps}
                  if args.h_tag == "power-decay" else {})
        h = closed_form_convexifier(_CLOSED_H[args.h_tag], **params)
        b = dim_bound_from_h(h, args.d, args.n)
    print(f"bound {b.bound}, regime {b.regime}")
    # exp-growth's regime repeats C, which the name leaves to the witness
    name = f"dimension {args.regime}" + (
        "" if args.regime == "exp-growth" else f" [{b.regime}]")
    witness = {"bound": b.bound, "regime": b.regime, "d_eff": b.d_eff,
               **dict(b.params)}
    return [Check(name, 0.0, witness)], None


# ---------------------------------------------------------------------------
# suites

def _suite_sharpness() -> list:
    tol = 1e-6
    cases = [
        ("flat d=1", builtin_model("flat"), {(1,): 1.0}, "nonneg", 1,
         (0.1, 50.0)),
        ("flat d=2", builtin_model("flat"), {(2,): 1.0}, "nonneg", 2,
         (0.1, 50.0)),
        ("flat d=5", builtin_model("flat"), {(5,): 1.0}, "nonneg", 5,
         (0.1, 50.0)),
        ("cigar", builtin_model("cigar"), {(1,): 1.0}, "cigar", 1,
         (0.1, 12.0)),
        ("hyperbolic", builtin_model("hyperbolic"), {(1,): 1.0},
         "lower_bound_minus_one", 1, (0.1, 6.0)),
        ("sphere", builtin_model("sphere"), {(1,): 1.0},
         "lower_bound_plus_one", 1, (0.05, math.pi - 0.11)),
    ]
    checks = []
    for name, model, coeffs, h_tag, d, (lo, hi) in cases:
        h = closed_form_convexifier(h_tag)
        radii = np.geomspace(lo, hi, 50)
        curve = growth_curve(model, HoloPoly(1, coeffs), radii=radii)
        t = curve.log_values - d * np.asarray(h(radii), dtype=float)
        spread = float(np.ptp(t))
        checks.append(Check(f"sharpness {name}", tol - spread,
                            {"spread": spread, "d": d}))
    return checks


def five_profiles():
    """(name, model) for the five profiles of the small-radius checks."""
    return [
        ("flat", builtin_model("flat")),
        ("cigar", builtin_model("cigar")),
        ("hyperbolic", builtin_model("hyperbolic")),
        ("sphere", builtin_model("sphere")),
        ("poly(1+rho^2)", builtin_model("conformal_poly", coeffs=[1.0, 1.0])),
    ]


def _suite_necessity() -> list:
    hyper = builtin_model("hyperbolic")
    curve = growth_curve(hyper, HoloPoly(1, {(1,): 1.0}),
                         radii=np.array([0.5, 1.0, 1.5]))
    rep = three_circle_check(curve, closed_form_convexifier("nonneg"))
    msd = rep.min_second_difference
    # detected: the three-circle check fails, by more than 1e-3
    return [Check("necessity hyperbolic violation",
                  np.min([-rep.margin, -1e-3 - msd]),
                  {"min_second_difference": msd})] + [
        dataclasses.replace(necessity_check(model, _necessity_grid(model)),
                            name=f"necessity deficit {name}")
        for name, model in five_profiles()]


def _suite_ode_catalog() -> list:
    tol_res, tol_match = 1e-8, 1e-7
    entries = [
        ("nonneg", "nonneg", {}),
        ("minus_one", "lower_bound_minus_one", {}),
        ("plus_one", "lower_bound_plus_one", {}),
        ("cigar", "cigar", {}),
        ("power_decay(0.05,0.49)", "power_decay", {"A": 0.05, "eps": 0.49}),
        ("power_decay(1,0.4)", "power_decay", {"A": 1.0, "eps": 0.4}),
    ]
    checks = []
    for name, tag, params in entries:
        u = closed_form_supersolution(tag, **params)
        h = closed_form_convexifier(tag, **params)
        hi = 0.98 * min(u.r_max, h.domain[1], 30.0)
        grid = np.geomspace(1e-3, hi, 200)
        uu = np.asarray(u(grid), dtype=float)
        hp = np.asarray(h.h_prime(grid), dtype=float)
        hs = np.asarray(h.h_second(grid), dtype=float)
        pair_res = float(np.max(np.abs(0.5 * hs + hp * uu)))
        margins = [tol_res - pair_res, 1e-3 - u.origin_residual]
        witness = {"pair_residual": pair_res,
                   "origin_residual": u.origin_residual}

        def h_gap(source):
            hsol = solve_convexifier(source, r_end=hi)
            delta = (np.asarray(hsol(grid), dtype=float)
                     - np.asarray(h(grid), dtype=float))
            return float(np.max(np.abs(delta - np.median(delta))))

        # the unit rows solve the Riccati equation of their bound exactly
        if tag != "power_decay":
            g = u.bound
            min_res = verify_supersolution(u, g, grid).witness["min_residual"]
            solved = solve_riccati_equality(g, r_end=1.05 * hi)
            du = float(np.max(np.abs(
                np.asarray(solved(grid), dtype=float) - uu)))
            dh = h_gap(solved)
            margins += [tol_res - abs(min_res), tol_match - du,
                        tol_match - dh]
            witness.update({"min_residual": min_res,
                            "solver_u_gap": du, "solver_h_gap": dh})
        else:
            dh = h_gap(u)
            margins.append(tol_match - dh)
            witness["solver_h_gap"] = dh
        checks.append(Check(f"ode-catalog {name}", np.min(margins), witness))
    return checks


def _suite_monotonicity() -> list:
    tol = 1e-7
    flat, cigar = builtin_model("flat"), builtin_model("cigar")
    h_flat = closed_form_convexifier("nonneg")
    h_cigar = closed_form_convexifier("cigar")
    cases = [
        ("flat z^2 nonincreasing", flat, {(2,): 1.0}, h_flat, 2,
         "nonincreasing", (0.2, 40.0)),
        ("cigar z nonincreasing", cigar, {(1,): 1.0}, h_cigar, 1,
         "nonincreasing", (0.2, 10.0)),
        ("flat z^2 vanishing order", flat, {(2,): 1.0, (3,): 0.25}, h_flat, 2,
         "nondecreasing", (0.2, 40.0)),
        ("cigar z^2 vanishing order", cigar, {(2,): 1.0}, h_cigar, 2,
         "nondecreasing", (0.2, 10.0)),
    ]
    checks = []
    for name, model, coeffs, h, d, direction, (lo, hi) in cases:
        radii = np.geomspace(lo, hi, 40)
        curve = growth_curve(model, HoloPoly(1, coeffs), radii=radii)
        rep = monotonicity_check(curve, h, d, direction=direction, tol=tol)
        checks.append(dataclasses.replace(rep, name=f"monotonicity {name}",
                                          failure="fail"))
    return checks


def _suite_homogeneity() -> list:
    flat = builtin_model("flat")
    f = HoloPoly(1, {(2,): 1.0, (1,): 1.0})
    values = [float(homogeneity_check(flat, f, 2.0, r))
              for r in (100.0, 1000.0, 10000.0)]
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0, 7.0):
        for m in (2, 3, 4, 8):
            back = cone_exponent(separation_eigenvalue(alpha, m), m)
            worst = max(worst, abs(back - alpha))
    benchmark = separation_eigenvalue(1.0, 4)
    # the flat defect: at most 0.05 at r = 100, and decreasing in r
    return [Check("homogeneity flat z^2+z K=2",
                  np.min([0.05 - values[0], *-np.diff(values)]),
                  {"values": values, "value": max(values)}),
            Check("homogeneity cone round-trip",
                  np.min([1e-12 - worst, 0.0 if benchmark == 3.0 else -1.0]),
                  {"worst": worst, "first_eigenvalue_S3": benchmark})]


def _suite_dimension() -> list:
    import itertools
    worst = None
    for n in range(1, 5):
        for d in range(0, 11):
            brute = sum(1 for a in itertools.product(range(d + 1), repeat=n)
                        if sum(a) <= d)
            if dim_poly_space(n, d) != brute:
                worst = (n, d)
    trivial = power_decay_regimes(0.05, 0.49, 0.7, 2)
    sharp = power_decay_regimes(0.05, 0.49, 2, 2)
    ok = ((trivial.regime, trivial.bound, sharp.regime, sharp.bound)
          == ("trivial", 1, "sharp", 6))
    p = dict(exp_growth_bound(0.18, 1, 1, 1.0).params)
    res = max(abs(2 * p["a"] ** 2 - p["a"] + 0.09),
              abs(2 * p["b"] ** 2 - p["b"] + 0.09))
    return [Check("dimension brute-force count",
                  0.0 if worst is None else -1.0, {"first_mismatch": worst}),
            Check("dimension power-decay regimes", 0.0 if ok else -1.0,
                  {"trivial_bound": trivial.bound,
                   "sharp_bound": sharp.bound, "bound": sharp.bound}),
            Check("dimension exp-growth roots",
                  np.min([1e-12 - res, 1e-5 - abs(p["a"] - 0.38229),
                          1e-5 - abs(p["b"] - 0.11771)]),
                  {"a": p["a"], "b": p["b"], "residual": res})]


# the pinned bundles of `lab suite`: name -> () -> list of Checks; a
# compound check takes the smallest margin of its parts (np.min keeps a nan)
SUITES = {
    "sharpness": _suite_sharpness,
    "necessity": _suite_necessity,
    "ode-catalog": _suite_ode_catalog,
    "monotonicity": _suite_monotonicity,
    "homogeneity": _suite_homogeneity,
    "dimension": _suite_dimension,
}


def _cmd_suite(args):
    return SUITES[args.name](), None


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser():
    """The lab parser and its subparsers action (name -> parser in choices)."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--json", help="write the JSON run report here")
    out.add_argument("--config", help="JSON file with default option values")
    # only the commands that return a table accept --csv
    csv_out = argparse.ArgumentParser(add_help=False, parents=[out])
    csv_out.add_argument("--csv", help="write the curve CSV here")

    mod = argparse.ArgumentParser(add_help=False)
    mod.add_argument("--model", default="flat",
                     choices=["flat", "cigar", "hyperbolic", "sphere",
                              "poly", "table"])
    mod.add_argument("--n", type=int, default=1, help="complex dimension")
    mod.add_argument("--kappa", type=float, default=1.0,
                     help="curvature scale for hyperbolic/sphere")
    mod.add_argument("--coeffs", help="conformal profile coefficients c0,c1,..")
    mod.add_argument("--table", help="path to a '# rho lambda' profile table")

    expect = argparse.ArgumentParser(add_help=False)
    expect.add_argument("--expect-violation", dest="expect_violation",
                        action="store_true",
                        help="exit 0 only when a check reports a violation")

    # parents share their action objects: a flag whose default differs by
    # command (--radii) is declared in each command instead
    spacing = argparse.ArgumentParser(add_help=False)
    spacing.add_argument("--spacing", choices=["log", "linear"], default="log")
    curve = argparse.ArgumentParser(add_help=False,
                                    parents=[mod, csv_out, expect, spacing])
    curve.add_argument("--f", help="monomial-sum expression")

    parser = argparse.ArgumentParser(
        prog="lab",
        description="growth laboratory for rotationally invariant metrics")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("curvature", parents=[mod, csv_out, spacing],
                        help="tabulate curvature and radial Hessian")
    p.set_defaults(run=_cmd_curvature)
    p.add_argument("--radii")

    p = subs.add_parser("ode", parents=[csv_out],
                        help="solve and verify the comparison equation")
    p.set_defaults(run=_cmd_ode)
    p.add_argument("--g",
                   choices=["constant", "power_decay", "cigar"])
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--r-end", dest="r_end", type=float, default=50.0)
    p.add_argument("--grid-lo", dest="grid_lo", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-8)

    p = subs.add_parser("three-circle", parents=[curve],
                        help="log M_f convexity in h")
    p.set_defaults(run=_cmd_three_circle)
    p.add_argument("--center",
                   help="basepoint, n = 1 only; write a negative one as "
                        "--center=-0.5+0.2i")
    p.add_argument("--radii")
    p.add_argument("--h", default="auto", help="auto | logr")
    p.add_argument("--tol", type=float, default=1e-6)

    p = subs.add_parser("monotonicity", parents=[curve],
                        help="log M_f - d h monotonicity")
    p.set_defaults(run=_cmd_monotonicity)
    p.add_argument("--radii")
    p.add_argument("--h", default="auto")
    p.add_argument("--d", type=float, default=None,
                   help="growth order; default deg f * model rho_order")
    p.add_argument("--direction", choices=["nonincreasing", "nondecreasing"],
                   default="nonincreasing")
    p.add_argument("--tol", type=float, default=1e-7)

    p = subs.add_parser("necessity", parents=[mod, csv_out, expect],
                        help="small-radius deficit versus H(0)/12")
    p.set_defaults(run=_cmd_necessity)
    p.add_argument("--radii", default=None,
                   help="fit grid; default inside (0, 0.2 min(1, r_max))")
    p.add_argument("--rtol", type=float, default=0.05)
    p.add_argument("--atol", type=float, default=1e-3)

    p = subs.add_parser("homogeneity", parents=[curve],
                        help="asymptotic homogeneity defect")
    p.set_defaults(run=_cmd_homogeneity)
    p.add_argument("--K", type=float, default=2.0)
    p.add_argument("--radii", default="100,1000,10000")
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--tol", type=float, default=0.05)

    p = subs.add_parser("dimension", parents=[out],
                        help="dimension bounds and regimes")
    p.set_defaults(run=_cmd_dimension)
    p.add_argument("--regime",
                   choices=["poly", "power-decay", "exp-growth", "from-h"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--C", type=float, default=0.18)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--h-tag", dest="h_tag", default="logr",
                   choices=["logr", "cigar", "power-decay"],
                   help="power-decay uses --A/--eps")

    p = subs.add_parser("suite", parents=[out],
                        help="pinned check bundles")
    p.set_defaults(run=_cmd_suite)
    p.add_argument("name", choices=list(SUITES))

    return parser, subs


def main(argv=None) -> int:
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                try:
                    cfg = json.load(fh)
                except ValueError as exc:  # bad JSON, or bytes not UTF-8
                    raise DomainError(f"config file: {exc}") from None
            if not isinstance(cfg, dict):
                raise DomainError("config file must hold a JSON object")
            chosen = subs.choices[args.command]
            actions = {a.dest: a for a in chosen._actions}
            unknown = sorted(set(cfg) - set(actions))
            if unknown:
                raise DomainError(f"unknown config keys {unknown}")
            # set_defaults skips a parsed flag's checks: its type (an on/off
            # flag takes only true or false) and its choices
            for key, value in cfg.items():
                action = actions[key]
                if action.nargs == 0 and not isinstance(value, bool):
                    raise DomainError(f"config key {key!r}: {value!r} is "
                                      "not true or false")
                if action.type is not None:
                    try:
                        value = cfg[key] = action.type(str(value))
                    except ValueError:
                        raise DomainError(
                            f"config key {key!r}: {value!r} is not a valid "
                            f"{action.type.__name__}") from None
                if action.choices is not None and value not in action.choices:
                    raise DomainError(f"config key {key!r}: {value!r} is "
                                      f"not one of {list(action.choices)}")
            chosen.set_defaults(**cfg)
            args = parser.parse_args(argv)
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"--{key.replace('_', '-')} must be finite")
        t0 = time.perf_counter()
        checks, table = args.run(args)
        return finish(args, checks, table, t0)
    except (GrowthLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
