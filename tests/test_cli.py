"""End-to-end tests for the lab command line runner."""
import ast
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from growthlab import (Check, RadialProfile, builtin_model, cli,
                       closed_form_convexifier, comparison_ode,
                       dim_bound_from_h, dim_poly_space, distance_from_origin,
                       exp_growth_bound, growth, load_profile_table,
                       make_supersolution, model_from_profile, model_hessian,
                       power_decay_regimes, solve_convexifier)
from growthlab.cli import (SUITES, _CLOSED_H, _jsonable, build_model,
                           build_parser, main, parse_complex, parse_function,
                           parse_radii, resolve_h)
from growthlab.errors import DomainError

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# parsing

def test_parse_complex_forms():
    assert parse_complex("2") == 2
    assert parse_complex("-0.5") == -0.5
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("(1-i)") == 1 - 1j
    assert parse_complex(" 2e-3i ") == 2e-3j
    with pytest.raises(DomainError):
        parse_complex("two")


def test_parse_function_single_variable():
    f = parse_function("z^3", 1)
    assert f.coeffs == {(3,): 1.0 + 0.0j}
    f = parse_function("z^2 + 10z", 1)
    assert f.coeffs[(2,)] == 1.0
    assert f.coeffs[(1,)] == 10.0
    f = parse_function("-z + 0.5", 1)
    assert f.coeffs[(1,)] == -1.0
    assert f.coeffs[(0,)] == 0.5


def test_parse_function_multi_variable():
    f = parse_function("2z1*z2^2 - (1+2i)z2", 2)
    assert f.coeffs[(1, 2)] == 2.0
    assert f.coeffs[(0, 1)] == -(1 + 2j)


def test_parse_function_accumulates_and_scinot():
    f = parse_function("z*z^2", 1)
    assert f.coeffs == {(3,): 1.0 + 0.0j}
    f = parse_function("1e-3z + z", 1)
    assert f.coeffs[(1,)] == pytest.approx(1.001)


def test_parse_function_rejects_garbage():
    with pytest.raises(DomainError):
        parse_function("", 1)
    with pytest.raises(DomainError):
        parse_function("q^2", 1)
    with pytest.raises(DomainError):
        parse_function("z3", 2)
    with pytest.raises(DomainError):
        parse_function("z", 2)  # numbered variables required for n > 1
    with pytest.raises(DomainError):
        parse_function("0z", 1)  # vanishes identically


def test_parse_radii_specs():
    r = parse_radii("0.1:10:5")
    assert r.size == 5
    assert r[0] == pytest.approx(0.1)
    assert r[-1] == pytest.approx(10.0)
    ratios = r[1:] / r[:-1]
    assert np.allclose(ratios, ratios[0])
    r = parse_radii("1:3:3", spacing="linear")
    assert np.allclose(r, [1.0, 2.0, 3.0])
    assert np.allclose(parse_radii("0.5,1,1.5"), [0.5, 1.0, 1.5])
    assert np.allclose(parse_radii("2.5"), [2.5])
    assert np.allclose(parse_radii([0.5, 1.0]), [0.5, 1.0])
    with pytest.raises(DomainError):
        parse_radii("5:1:3")
    with pytest.raises(DomainError):
        parse_radii("-1,2")
    with pytest.raises(DomainError):
        parse_radii("1:2")


# ---------------------------------------------------------------------------
# exit-code contract

def test_flat_three_circle_exit_zero(capsys):
    code = main(["three-circle", "--model", "flat", "--n", "1",
                 "--f", "z^3", "--radii", "0.1:10:50", "--h", "auto"])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    # a negative center is attached to its flag, or argparse reads it as
    # an option
    code = main(["three-circle", "--model", "flat", "--f", "z^3+2z",
                 "--center=-0.5+0.2i", "--radii", "0.3:1.4:9"])
    assert code == 0


def test_hyperbolic_violation_exit_one(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = main(["three-circle", "--model", "hyperbolic", "--f", "z",
                 "--radii", "0.5:1.5:3", "--h", "logr", "--json", str(path)])
    assert code == 1
    assert "violation" in capsys.readouterr().out
    # the margin of the one triple: its second difference plus
    # 1e-6 (1 + |log M|)
    (check,) = json.loads(path.read_text())["checks"]
    assert check["verdict"] == "violation" and check["margin"] < -0.1
    assert check["margin"] == pytest.approx(
        check["witness"]["min_second_difference"], abs=1e-5)


def test_nan_margin_never_passes():
    check = Check("x", float("nan"))
    assert check.passed is False and check.verdict == "fail"
    assert Check("x", 0.0).passed and Check("x", -0.0).passed
    assert Check("x", -1e-300, failure="violation").verdict == "violation"


def test_expect_violation_inverts(capsys):
    args = ["three-circle", "--model", "hyperbolic", "--f", "z",
            "--radii", "0.5:1.5:3", "--h", "logr", "--expect-violation"]
    assert main(args) == 0
    assert "violation-as-expected" in capsys.readouterr().out
    args = ["three-circle", "--model", "flat", "--f", "z^2",
            "--radii", "0.5:5:8", "--h", "logr", "--expect-violation"]
    assert main(args) == 1


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["three-circle", "--model", "marshmallow", "--f", "z",
              "--radii", "1:2:3"])
    assert exc.value.code == 2


def test_validation_error_exit_two(capsys):
    code = main(["three-circle", "--model", "flat", "--f", "q",
                 "--radii", "1:2:3"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    code = main(["three-circle", "--model", "flat", "--f", "z",
                 "--radii", "5:1:3"])
    assert code == 2
    # a ball centered off the hyperbolic disk
    code = main(["three-circle", "--model", "hyperbolic", "--f", "z",
                 "--center", "1.5", "--radii", "0.1,0.2,0.3"])
    assert code == 2
    assert "outside the chart" in capsys.readouterr().err
    # malformed or non-finite numbers: one error line, no traceback
    for argv, said in [
            (["--f", "z", "--radii", "0.1:1:x"], "'x'"),
            (["--f", "z", "--radii", "0.1,abc"], "'abc'"),
            (["--f", "z", "--radii", "0.1:1:2.5"], "'2.5'"),
            (["--f", "z", "--radii", "0.1:inf:3"], "'inf'"),
            (["--model", "poly", "--coeffs", "1,a", "--f", "z",
              "--radii", "0.1:1:3"], "'a'"),
            (["--model", "hyperbolic", "--kappa", "nan", "--f", "z",
              "--radii", "0.1:1:3"], "kappa"),
            (["--f", "z+nanz^2", "--radii", "0.5:2:4"], "not finite")]:
        assert main(["three-circle", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and said in err, argv
    # a non-finite float flag would end in a misleading verdict or a
    # traceback
    for argv, said in [
            (["ode", "--g", "constant", "--c", "1", "--r-end", "inf"],
             "--r-end"),
            (["three-circle", "--f", "z", "--radii", "0.1:1:4", "--tol",
              "nan"], "--tol"),
            (["three-circle", "--model", "hyperbolic", "--f", "z", "--radii",
              "0.5:1.5:3", "--h", "logr", "--tol", "inf"], "--tol"),
            (["monotonicity", "--f", "z^2", "--radii", "0.5:20:12", "--d",
              "inf"], "--d"),
            (["homogeneity", "--f", "z^2", "--K", "nan", "--radii", "100"],
             "--K"),
            (["necessity", "--rtol", "nan"], "--rtol")]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {said} must be finite\n", argv
    # the verify grid starts at --grid-lo and ends short of r_end and of a
    # blow-down (pi/2 for c = 4)
    for argv, end in [(["--c", "0", "--grid-lo", "0"], "49.75"),
                      (["--c", "0", "--grid-lo", "-1"], "49.75"),
                      (["--c", "4", "--grid-lo", "100"], "1.56")]:
        assert main(["ode", "--g", "constant", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --grid-lo must lie in (0, {end}"), argv


def test_every_float_flag_must_be_finite(capsys):
    # walks the parser, so that a new float flag cannot skip the check
    _, subs = build_parser()
    seen = 0
    for command, sub in subs.choices.items():
        for action in sub._actions:
            if action.type is not float:
                continue
            flag = max(action.option_strings, key=len)
            for value in ("nan", "inf", "-inf"):
                assert main([command, f"{flag}={value}"]) == 2, (command, flag)
                err = capsys.readouterr().err
                assert err == f"error: {flag} must be finite\n", (command, flag)
            seen += 1
    assert seen >= 20


def test_radii_and_spacing_defaults(capsys):
    # argparse parents share their actions, so a default set on one command
    # through a shared --radii would reach the others
    _, subs = build_parser()
    radii = {"three-circle": None, "monotonicity": None, "necessity": None,
             "curvature": None, "homogeneity": "100,1000,10000"}
    for command, default in radii.items():
        assert subs.choices[command].get_default("radii") == default, command
    for command in ["curvature", "three-circle", "monotonicity",
                    "homogeneity"]:
        assert subs.choices[command].get_default("spacing") == "log", command
    for command in ["three-circle", "monotonicity"]:
        assert main([command, "--f", "z"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --radii is required (flag or config file)\n"


def test_dimension_example(capsys):
    code = main(["dimension", "--regime", "power-decay", "--A", "0.05",
                 "--eps", "0.49", "--d", "2", "--n", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound 6" in out
    assert "sharp" in out


# one run per regime and clause: poly; power-decay trivial, sharp and
# general; exp-growth; from-h on logr, cigar and power-decay
DIMENSION_RUNS = [
    ["--regime", "poly", "--n", "3", "--d", "4.5"],
    ["--regime", "power-decay", "--A", "0.05", "--eps", "0.49", "--d", "0.7",
     "--n", "2"],
    ["--regime", "power-decay", "--A", "0.05", "--eps", "0.49", "--d", "2",
     "--n", "2"],
    ["--regime", "power-decay", "--A", "1", "--eps", "0.4", "--d", "5",
     "--n", "3"],
    ["--regime", "exp-growth", "--d", "2", "--n", "2"],
    ["--regime", "from-h", "--h-tag", "logr", "--d", "2.5", "--n", "2"],
    ["--regime", "from-h", "--h-tag", "cigar", "--d", "2", "--n", "2"],
    ["--regime", "from-h", "--h-tag", "power-decay", "--A", "0.05",
     "--eps", "0.3", "--d", "2", "--n", "2"],
]


@pytest.mark.parametrize("argv", DIMENSION_RUNS)
def test_dimension_witness_is_the_record(tmp_path, capsys, argv):
    path = tmp_path / "r.json"
    assert main(["dimension", *argv, "--json", str(path)]) == 0
    witness = json.loads(path.read_text())["checks"][0]["witness"]
    opt = dict(zip(argv[::2], argv[1::2]))
    regime, n, d = opt["--regime"], int(opt["--n"]), float(opt["--d"])
    if regime == "poly":
        assert witness == {"bound": dim_poly_space(n, d), "n": n, "d": d}
        assert capsys.readouterr().out.startswith(
            f"bound {witness['bound']}\n")
        return
    if regime == "power-decay":
        b = power_decay_regimes(float(opt["--A"]), float(opt["--eps"]), d, n)
    elif regime == "exp-growth":
        b = exp_growth_bound(0.18, d, n, 1.0)
    else:
        params = ({"A": float(opt["--A"]), "eps": float(opt["--eps"])}
                  if opt["--h-tag"] == "power-decay" else {})
        b = dim_bound_from_h(closed_form_convexifier(
            _CLOSED_H[opt["--h-tag"]], **params), d, n)
    assert witness == _jsonable({"bound": b.bound, "regime": b.regime,
                                 "d_eff": b.d_eff, **dict(b.params)})
    assert capsys.readouterr().out.startswith(
        f"bound {b.bound}, regime {b.regime}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# file outputs

def test_csv_determinism_and_schema(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["three-circle", "--model", "cigar", "--f", "z^2+z",
            "--radii", "0.2:4:10", "--h", "auto"]
    assert main(args + ["--csv", str(out1)]) == 0
    assert main(args + ["--csv", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode("utf-8").splitlines()
    assert lines[0] == "r,h,M,logM,second_difference"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.2)
    assert first[4] == ""  # endpoints carry no second difference


def test_json_report_contents(tmp_path):
    path = tmp_path / "report.json"
    code = main(["three-circle", "--model", "flat", "--f", "z^2",
                 "--radii", "0.5:5:8", "--json", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["command"] == "three-circle"
    assert rep["all_passed"] is True
    assert "seed" not in rep
    assert rep["version"]
    assert rep["config"]["f"] == "z^2"
    (check,) = rep["checks"]
    assert check["verdict"] == "pass"
    assert check["margin"] >= 0
    assert "min_second_difference" in check["witness"]
    assert rep["elapsed_s"] >= 0


def test_three_circle_table_model_auto_h(tmp_path, monkeypatch):
    # auto h on a spline-table model is the table's own log(lam(0) rho(r)):
    # no comparison solve runs
    def no_solve(*args, **kwargs):
        raise AssertionError("--h auto ran a comparison solve")

    for name in ("solve_convexifier", "make_supersolution"):
        monkeypatch.setattr(cli, name, no_solve)
    table = ROOT / "perfbench" / "cigar_61.txt"
    path = tmp_path / "r.json"
    code = main(["three-circle", "--model", "table", "--table", str(table),
                 "--f", "z+z^3", "--radii", "0.2:1.5:6", "--json", str(path)])
    assert code == 0
    (check,) = json.loads(path.read_text())["checks"]
    assert check["verdict"] == "pass"


def _solved_h(model, r_end):
    """The comparison solve from the model's own Hessian."""
    return solve_convexifier(
        make_supersolution(lambda r: model_hessian(model, r)), r_end=r_end)


def _bare_cigar():
    return model_from_profile(RadialProfile(
        lam=builtin_model("cigar").profile.lam, rho_max=math.inf,
        name="bare"))


def _table_model():
    return model_from_profile(load_profile_table(
        str(ROOT / "perfbench" / "cigar_61.txt")))


@pytest.mark.parametrize("kind,kw,tag", [
    ("flat", {}, "nonneg"),
    ("cigar", {}, "cigar"),
    ("hyperbolic", {}, "lower_bound_minus_one"),
    ("sphere", {}, "lower_bound_plus_one"),
    ("hyperbolic", {"kappa": 2.0}, "solved[custom]"),
    ("sphere", {"kappa": 0.5}, "solved[custom]"),
    ("conformal_poly", {"coeffs": [1.0, 1.0]}, "solved[custom]"),
])
def test_auto_h_choice(kind, kw, tag):
    # one h for every model, log(lam(0) rho(r)); tag names the catalog h
    # it equals, or solved[custom] where only a comparison solve gives it
    h = resolve_h("auto", builtin_model(kind, **kw), np.array([1.5]))
    assert h.tag == "model"
    if tag == "solved[custom]":
        return
    grid = np.geomspace(1e-3, 1.8, 60)
    want = closed_form_convexifier(tag)
    if tag == "cigar":
        # log sinh r against the catalog's r + log1p(-e^{-2r}) - log 2
        assert np.max(np.abs(h(grid) - want(grid))) <= 1e-13
    else:
        assert np.array_equal(h(grid), want(grid))
    assert np.max(np.abs(h.h_prime(grid) / want.h_prime(grid) - 1.0)) <= 2e-15


@pytest.mark.parametrize("kind,kappa,h_prime", [
    ("hyperbolic", 2.0, lambda k, r: k / np.sinh(k * r)),
    ("sphere", 0.5, lambda k, r: k / np.sin(k * r)),
])
def test_auto_h_solved_at_other_scales(kind, kappa, h_prime):
    h = _solved_h(builtin_model(kind, kappa=kappa), 1.875)
    grid = np.geomspace(1e-3, 1.8, 60)
    want = h_prime(math.sqrt(kappa), grid)
    assert np.max(np.abs(np.asarray(h.h_prime(grid)) / want - 1.0)) <= 1e-12


def test_table_model_auto_h_prime_matches_quadrature():
    # the comparison solve on the table's u, which is only C^1 (the
    # spline's lam''' jumps at the knots, so u'' does): the panels must
    # split near the knots; the reference V = int (u - 1/2s) is adaptive
    # quad with breakpoints at the knots in r
    table = ROOT / "perfbench" / "cigar_61.txt"
    model = model_from_profile(load_profile_table(str(table)))
    h = _solved_h(model, 1.875)
    assert h.domain[1] == pytest.approx(1.875)
    rho = np.loadtxt(table)[:, 0]
    knots = distance_from_origin(model, rho[1:-1])
    grid = np.geomspace(1e-3, 1.875, 60)
    ends = np.union1d(grid, knots[knots < 1.875])

    def integrand(s):
        return float(model_hessian(model, s)) - 0.5 / s

    pieces = [quad(integrand, 0.0, ends[0], epsabs=1e-15, epsrel=1e-13)[0]]
    pieces += [quad(integrand, x, y, epsabs=1e-15, epsrel=1e-13)[0]
               for x, y in zip(ends[:-1], ends[1:])]
    v = np.cumsum(pieces)[np.searchsorted(ends, grid)]
    want = np.exp(-2.0 * v) / grid
    assert np.max(np.abs(np.asarray(h.h_prime(grid)) / want - 1.0)) <= 1e-9


@pytest.mark.parametrize("name,bound", [
    ("poly", 1e-13), ("bare", 1e-12), ("hyperbolic", 3e-14),
    ("sphere", 5e-14), ("table", 3e-8)])
def test_solved_h_is_the_model_h(name, bound):
    # the comparison solve from the model's own Hessian lands on
    # log(lam(0) rho(r)) up to a constant from its anchor at r0 = 1e-4;
    # each bound is about 10x the spread on this grid
    model = {
        "poly": lambda: builtin_model("conformal_poly", coeffs=[1, 0.8, 0.1]),
        "bare": _bare_cigar,
        "hyperbolic": lambda: builtin_model("hyperbolic", kappa=2.0),
        "sphere": lambda: builtin_model("sphere", kappa=0.5),
        "table": _table_model,
    }[name]()
    hi = min(8.0, 0.99 * model.r_max)
    grid = np.geomspace(1e-3, hi, 80)
    delta = (_solved_h(model, hi)(grid)
             - resolve_h("auto", model, np.array([hi / 1.25]))(grid))
    assert abs(np.median(delta)) <= 1e-8
    assert np.max(np.abs(delta - np.median(delta))) <= bound


def test_auto_h_equality_case():
    # f = z has log M = h - log lam(0) under the model's own h, so its
    # second differences are rounding on every model
    models = [builtin_model("flat"), builtin_model("cigar"),
              builtin_model("hyperbolic"),
              builtin_model("hyperbolic", kappa=2.0), builtin_model("sphere"),
              builtin_model("sphere", kappa=0.5),
              builtin_model("conformal_poly", coeffs=[1.0, 1.0]),
              builtin_model("conformal_poly", coeffs=[1.0, -0.5]),
              _bare_cigar(), _table_model()]
    radii = np.geomspace(0.1, 0.9, 8)
    f = growth.HoloPoly(1, {(1,): 1.0})
    for model in models:
        curve = growth.growth_curve(model, f, 0, radii)
        rep = growth.three_circle_check(curve, resolve_h("auto", model, radii))
        worst = np.max(np.abs(rep.second_differences))
        assert worst <= 1e-13, (model.profile.name, worst)


def test_evaluation_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(comparison_ode, "_MAX_RHS", 10)
    assert main(["ode", "--g", "constant", "--c", "0", "--r-end", "20"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", [
    b"nan 0.5", b"0.5 nan", b"inf 0.5", b"0.5 -inf", b"0.5 abc", b"0.5",
    b"0.5 1 2", b"\xff 0.5"])
def test_bad_table_rows_exit_two(tmp_path, capsys, bad_row):
    # the first bad row is named by its line in the file
    table = tmp_path / "bad.txt"
    table.write_bytes(b"# rho lambda\n0 1\n0.25 0.97\n" + bad_row
                      + b"\n1 0.7\n2 0.45\n")
    assert main(["necessity", "--model", "table", "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and err.count("\n") == 1


def test_out_of_range_radii_make_one_error_line(capsys):
    # 464 radii past the table's r_max: one short stderr line, exit 2
    table = ROOT / "perfbench" / "cigar_61.txt"
    assert main(["curvature", "--model", "table", "--table", str(table),
                 "--radii", "0.1:4:464"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("f", ["z^2+z", "z^5+z"])
def test_monotonicity_exponential_growth_asks_for_d(capsys, f):
    # rho = sinh r on the cigar, so every nonconstant f has infinite
    # order: one stderr line asking for d, exit 2, no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["monotonicity", "--model", "cigar", "--f", f,
                     "--radii", "0.2:8:12"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "d explicitly" in err


@pytest.mark.parametrize("f, d", [("100+z^2", 2), ("z+0.01z^3", 3)])
def test_monotonicity_polynomial_order_from_outer_window(tmp_path, f, d):
    # large lower-order terms steepen log M on the moderate window (2, 200);
    # the order is deg f on the flat model, whatever the lower terms
    out = tmp_path / "r.json"
    code = main(["monotonicity", "--model", "flat", "--f", f,
                 "--radii", "0.5:20:12", "--json", str(out)])
    assert code == 0
    witness = json.loads(out.read_text())["checks"][0]["witness"]
    assert witness["d"] == pytest.approx(d, abs=1e-3)


@pytest.mark.parametrize("f", ["1000+z", "1000000+z"])
def test_monotonicity_order_ignores_a_large_constant(tmp_path, f):
    # the slope of log(1000 + r) still rises at r = 1e4, so a slope fit
    # there reads exponential growth; the order is deg f = 1
    out = tmp_path / "r.json"
    code = main(["monotonicity", "--model", "flat", "--f", f,
                 "--radii", "0.5:20:12", "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["checks"][0]["witness"]["d"] == 1


def test_homogeneity_large_constant_gets_a_verdict(tmp_path, capsys):
    # 1000000 + z is in O_1 but far from homogeneous at r = 100: a failed
    # check, not a usage error
    path = tmp_path / "r.json"
    assert main(["homogeneity", "--model", "flat", "--f", "1000000+z",
                 "--K", "2", "--radii", "100", "--json", str(path)]) == 1
    assert capsys.readouterr().err == ""
    (check,) = json.loads(path.read_text())["checks"]
    assert check["verdict"] == "fail"
    assert check["witness"]["value"] == pytest.approx(1.9998, abs=1e-4)
    assert check["margin"] == 0.05 - check["witness"]["value"]


def test_monotonicity_default_order_takes_one_curve(monkeypatch, capsys):
    # without --d the only max-modulus pass is the checked curve itself
    calls = []
    inner = growth._max_moduli

    def counted(*args):
        calls.append(args[3].size)
        return inner(*args)

    monkeypatch.setattr(growth, "_max_moduli", counted)
    assert main(["monotonicity", "--model", "flat", "--f", "100+z^2",
                 "--radii", "0.5:20:12"]) == 0
    assert calls == [12]


def test_curvature_table(tmp_path):
    path = tmp_path / "curv.csv"
    code = main(["curvature", "--model", "cigar", "--radii", "0.1:3:12",
                 "--csv", str(path), "--json", str(tmp_path / "r.json")])
    assert code == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["checks"][0]["witness"]["H_origin"] == pytest.approx(2.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,H,u"
    assert len(lines) == 13


@pytest.mark.parametrize("argv, header, rows", [
    (["ode", "--g", "constant", "--c", "1", "--r-end", "5"],
     "r,u,residual", 400),
    (["monotonicity", "--model", "flat", "--f", "z^2",
      "--radii", "0.5:20:12", "--d", "2"], "r,h,M,logM,t", 12),
    (["necessity", "--model", "hyperbolic"], "r,ratio", 12),
    (["homogeneity", "--model", "flat", "--f", "z^2+z",
      "--radii", "100,1000"], "r,value", 2),
])
def test_csv_tables(tmp_path, argv, header, rows):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "r.json"
    assert main(argv + ["--csv", str(csv_path), "--json", str(json_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == rows + 1
    radii = [float(line.split(",")[0]) for line in lines[1:]]
    assert np.all(np.diff(radii) > 0)
    assert json.loads(json_path.read_text())["csv_files"] == [str(csv_path)]


# ---------------------------------------------------------------------------
# more subcommands

def test_ode_flat_and_blow_down(tmp_path, capsys):
    assert main(["ode", "--g", "constant", "--c", "0", "--r-end", "20"]) == 0
    path = tmp_path / "r.json"
    code = main(["ode", "--g", "constant", "--c", "1", "--r-end", "5",
                 "--json", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    wit = rep["checks"][0]["witness"]
    assert wit["blow_down_r"] == pytest.approx(math.pi, abs=1e-4)
    assert wit["min_residual"] >= -1e-8


def test_necessity_command(tmp_path):
    path = tmp_path / "r.json"
    # the default threshold is max(0.05 |H(0)/12|, 1e-3); a 1e-9 one is
    # tighter than the fit's error
    for tols, threshold, code in [
            ([], max(0.05 / 12, 1e-3), 0),
            (["--rtol", "0", "--atol", "1e-9"], 1e-9, 1)]:
        assert main(["necessity", "--model", "hyperbolic", *tols,
                     "--json", str(path)]) == code
        (check,) = json.loads(path.read_text())["checks"]
        wit = check["witness"]
        assert wit["expected"] == pytest.approx(-1 / 12, rel=1e-9)
        assert wit["fitted"] == pytest.approx(-1 / 12, rel=0.05)
        assert check["margin"] == pytest.approx(
            threshold - abs(wit["fitted"] + 1 / 12), rel=1e-9)


def test_homogeneity_command():
    code = main(["homogeneity", "--model", "flat", "--f", "z^2+z",
                 "--K", "2", "--radii", "100"])
    assert code == 0


def test_homogeneity_overflow_is_one_error_line(capsys):
    # |f| r^4 overflows on the cigar's shell at r = 100: a usage error,
    # not a verdict read off the rays that stayed finite
    code = main(["homogeneity", "--model", "cigar", "--f", "z^4+z",
                 "--radii", "100", "--d", "4"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "overflows" in err


@pytest.mark.parametrize("argv", [
    ["three-circle", "--model", "cigar", "--f", "z", "--radii", "700:720:3"],
    ["three-circle", "--f", "z^200", "--radii", "10:1000:3"],
    ["three-circle", "--n", "2", "--f", "z1^200", "--radii", "10:1000:3"],
    ["monotonicity", "--f", "z^200", "--radii", "10:1000:3"],
    ["three-circle", "--f", "z^200+z", "--radii", "10:1000:3"],
    ["three-circle", "--model", "cigar", "--f", "z^3+z+1",
     "--radii", "700:720:3"],
])
def test_overflowing_curve_is_one_error_line_without_warnings(capsys, argv):
    # monomials, the aligned route and centered circles overflow like the
    # other routes (rho read from the model's map, not rho_of_r): one
    # error line and exit 2, with no RuntimeWarning (which tier-1 turns
    # into an error) and no verdict read off an infinite or NaN value
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: maximum-modulus search failed\n"


@pytest.mark.parametrize("argv", [
    ["--model", "flat"], ["--model", "cigar"], ["--model", "hyperbolic"],
    ["--model", "sphere"], ["--model", "sphere", "--kappa", "4"],
    ["--model", "sphere", "--kappa", "5000"],
    ["--model", "poly", "--coeffs", "1,0.5"],
    ["--model", "poly", "--coeffs", "1,-0.5"],
    ["--model", "poly", "--coeffs", "1,-2,1"],
    ["--model", "table", "--table",
     str(ROOT / "perfbench" / "cigar_61.txt")],
])
def test_curvature_default_grid_fits_every_model(tmp_path, argv):
    # the bare command runs on every chart: 40 radii from 0.05 to 5, or to
    # inside r_max where the chart ends sooner (sphere r_max pi, pi/2 and
    # 0.044, the table 2.49, the cusped poly 0.943, lam = (1 - rho^2)^2
    # 8/15)
    path = tmp_path / "k.csv"
    assert main(["curvature", *argv, "--csv", str(path)]) == 0
    r = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
    args = build_parser()[0].parse_args(["curvature", *argv])
    r_max = build_model(args).r_max
    assert r.size == 40 and 0 < r[0] <= 0.05 and r[-1] < r_max
    if r_max > 5:
        assert r.tolist() == np.geomspace(0.05, 5, 40).tolist()


@pytest.mark.parametrize("f", ["z1^2+z1*z2+z2^2", "z1^4+z2"])
def test_overflowing_c2_curve_is_one_error_line(capsys, f):
    # rho = sinh r overflows on the cigar by r = 800: the sphere ascent
    # (non-alignable f) and the aligned route both stop with exit 2
    with np.errstate(all="ignore"):
        code = main(["three-circle", "--model", "cigar", "--n", "2",
                     "--f", f, "--radii", "200:800:5"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: maximum-modulus search failed\n"


def test_monotonicity_command():
    code = main(["monotonicity", "--model", "flat", "--f", "z^2",
                 "--radii", "0.5:20:12", "--d", "2"])
    assert code == 0
    code = main(["monotonicity", "--model", "flat", "--f", "z^2",
                 "--radii", "0.5:20:12", "--direction", "nondecreasing"])
    assert code == 0


def test_suite_dimension(capsys):
    assert main(["suite", "dimension"]) == 0
    out = capsys.readouterr().out
    assert "3/3 passed" in out


def test_suite_prints_each_verdict_once(capsys):
    assert main(["suite", "dimension"]) == 0
    out = capsys.readouterr().out
    names = [c.name for c in SUITES["dimension"]()]
    assert len(names) == 3
    for name in names:
        assert out.count(name) == 1, name


@pytest.mark.parametrize("argv", [["suite", "dimension"],
                                  ["dimension", "--regime", "poly"]])
def test_csv_rejected_without_a_table(tmp_path, argv):
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--csv", str(path)])
    assert exc.value.code == 2
    assert not path.exists()


def test_ode_catalog_solver_gaps_stay_at_rounding():
    # the solved h matches every catalog row to within 1e-11, far inside
    # the suite's 1e-7 (the largest gap, on the cigar row, is 8.0e-13): a
    # _rate_tails split threshold of 1e-10 instead of 1e-14 reads 1.6e-11
    # on plus_one and passes every other check
    gaps = {c.name: c.witness["solver_h_gap"]
            for c in SUITES["ode-catalog"]()}
    assert len(gaps) == 6 and max(gaps.values()) <= 1e-11, gaps


def test_suite_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "everything"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config file

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "hyperbolic", "f": "z", "radii": "0.5:1.5:3",
        "h": "logr", "expect_violation": True,
    }))
    assert main(["three-circle", "--config", str(cfg)]) == 0


def test_flags_win_over_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "hyperbolic", "f": "z", "radii": "0.5:1.5:3", "h": "logr",
    }))
    # flat override turns the violation into a pass
    code = main(["three-circle", "--config", str(cfg), "--model", "flat"])
    assert code == 0


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "flat", "frobnicate": 3}))
    code = main(["three-circle", "--config", str(cfg), "--f", "z",
                 "--radii", "1:2:3"])
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_config_errors_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": ')
    assert main(["three-circle", "--config", str(cfg)]) == 2
    assert "config file" in capsys.readouterr().err
    # the seed key was removed with the seed plumbing
    cfg.write_text(json.dumps({"seed": 7}))
    assert main(["dimension", "--regime", "poly", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err
    # set_defaults alone would take a value outside the flag's choices
    cfg.write_text(json.dumps({"spacing": "bogus", "radii": "0.1:1:4"}))
    assert main(["curvature", "--config", str(cfg)]) == 2
    assert "spacing" in capsys.readouterr().err
    # and its type: a string is no on/off value, and a value that its
    # flag would not parse is not taken as it is
    run = {"f": "z^2", "radii": "0.5:5:8", "h": "logr"}
    for bad in [{"expect_violation": "false"}, {"n": 1.5}, {"tol": [1]}]:
        cfg.write_text(json.dumps({**run, **bad}))
        assert main(["three-circle", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key") and next(iter(bad)) in err
    cfg.write_text(json.dumps({**run, "n": 1, "tol": 1e-6}))
    assert main(["three-circle", "--config", str(cfg)]) == 0
    # json reads NaN; a non-finite config value is refused like the flag
    cfg.write_text(json.dumps({**run, "tol": math.nan}))
    assert main(["three-circle", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: --tol must be finite\n"
    # bytes that are not UTF-8 are a config error too, not a traceback
    cfg.write_bytes(b"\xff\xfe{}")
    assert main(["three-circle", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: config file: ")


# ---------------------------------------------------------------------------
# module entry point

def _run_module(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "growthlab.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=False)


def test_module_entry_point(tmp_path):
    path = tmp_path / "r.json"
    res = _run_module("suite", "dimension", "--json", str(path))
    assert res.returncode == 0, res.stderr
    assert len(json.loads(path.read_text())["checks"]) == 3
    res = _run_module("suite", "dimension", "--seed", "3")
    assert res.returncode == 2
    assert "--seed" in res.stderr


# ---------------------------------------------------------------------------
# import path

def test_cli_import_loads_no_scipy_submodule():
    # import is the whole cost of a short lab run: scipy loads only where a
    # route needs it, and the table route runs on numpy alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import growthlab.cli
        from growthlab import (distance_from_origin, load_profile_table,
                               model_from_profile, model_hessian,
                               radial_curvature, rho_of_r)

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        print(scipy_modules())
        model = model_from_profile(load_profile_table(sys.argv[1]))
        r = np.linspace(0.1, 1.5, 9)
        rho_of_r(model, r)
        distance_from_origin(model, r)
        radial_curvature(model, r)
        model_hessian(model, r)
        print(scipy_modules())
    """)
    res = subprocess.run([sys.executable, "-c", code,
                          str(ROOT / "perfbench" / "cigar_61.txt")],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]"]


def test_lab_commands_load_no_scipy(tmp_path):
    # every lab command and suite runs on numpy alone, the n = 1 circle
    # refinement, the n = 2 sphere ascent and the tabulated exp-map circles
    # included, and none loads numpy.random or statistics
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    table = str(ROOT / "perfbench" / "cigar_61.txt")
    runs = [
        ["curvature", "--model", "cigar", "--radii", "0.1:3:12"],
        ["ode", "--g", "constant", "--c", "1", "--r-end", "5"],
        ["three-circle", "--model", "flat", "--f", "z^3+2z",
         "--center=-0.5+0.2i", "--radii", "0.3:1.4:9"],
        ["three-circle", "--model", "cigar", "--f", "z^3+2z",
         "--radii", "0.3:1.4:9"],
        ["three-circle", "--model", "table", "--table", table,
         "--f", "z+z^3", "--center=0.3+0.1i", "--radii", "0.2:1.2:5",
         "--h", "auto"],
        ["monotonicity", "--model", "flat", "--f", "z^2+z",
         "--radii", "0.5:20:12"],
        ["monotonicity", "--model", "flat", "--f", "1000+z",
         "--radii", "0.5:20:12"],
        ["necessity", "--model", "table", "--table", table],
        ["homogeneity", "--model", "flat", "--f", "z^2+z",
         "--radii", "100,1000"],
        # --h auto reads the table's h = log(lam(0) rho(r)) up to its
        # r_max of 2.49
        ["three-circle", "--model", "table", "--table", table, "--f", "z",
         "--radii", "0.2:2:8"],
        # not alignable: the n = 2 sphere route and its sample directions
        ["three-circle", "--model", "cigar", "--n", "2",
         "--f", "z1^2*z2+z1*z2^2+0.5z1^3", "--radii", "0.3:3:7"],
    ] + [["dimension", *argv] for argv in DIMENSION_RUNS] + [
        ["suite", name] for name in SUITES]
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from growthlab.cli import main

        codes = []
        for k, argv in enumerate(json.loads(sys.argv[1])):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv + ["--json", f"r{k}.json"]))
        print(codes)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        print([m for m in ("numpy.random", "statistics") if m in sys.modules])
    """)
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [str([0] * len(runs)), "[]", "[]"]
    for k in range(len(runs)):
        for check in json.loads((tmp_path / f"r{k}.json").read_text())[
                "checks"]:
            assert set(check) == {"name", "passed", "verdict", "margin",
                                  "witness"}
            assert check["passed"] == (check["margin"] >= 0), check


def test_no_scipy_import_in_library():
    # scipy is a test dependency: the library may name it only inside the
    # module __getattr__ functions that resolve the tracer-bound names
    found = []
    for path in sorted((ROOT / "src" / "growthlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for top in tree.body
                   if isinstance(top, ast.FunctionDef)
                   and top.name == "__getattr__" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                names = [node.value]
            else:
                continue
            if (id(node) not in allowed
                    and any(n.split(".")[0] == "scipy" for n in names)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


@pytest.mark.parametrize("module,name", [
    ("growth", "optimize"), ("radial_metric", "integrate"),
    ("radial_metric", "optimize"), ("comparison_ode", "integrate")])
def test_lazy_scipy_names_resolve(module, name):
    mod = importlib.import_module(f"growthlab.{module}")
    assert getattr(mod, name) is importlib.import_module(f"scipy.{name}")
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_name")
