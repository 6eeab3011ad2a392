"""Smoke test of the benchmark harness in perfbench/.

One quick geodesic-pairs pass, untraced and traced, and traced quick
growth-sweep and generic-profile passes.  The traced runs bind growthlab's
functions by name (the growth layer, geodesic circles, the
exponential-map integrator and the comparison solves among them), so a
rename that breaks the tracer fails here.  growth-sweep's off-center
circles are all closed forms, so its pass runs no ODE stepper, and the
comparison solves of generic-profile run none either.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_geodesic_pairs_quick(trace):
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "geodesic-pairs", "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    if trace:
        pairs = out["metrics"]["radial_metric.pair_distances.pairs"]
        assert pairs["value"] > 0


def test_growth_sweep_quick_traced():
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "growth-sweep", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["metrics"]["radial_metric.geodesic_circle.calls"]["value"] > 0
    assert out["metrics"]["radial_metric.integrate_batch.calls"]["value"] == 0


def test_generic_profile_quick_traced():
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "generic-profile", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["metrics"]["comparison_ode.ivp_calls"]["value"] == 0
    # the Jacobi oracle's g, one array call per panel round
    assert out["metrics"]["comparison_ode.g_evals"]["value"] <= 20
