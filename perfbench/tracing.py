"""Spans and counters around growthlab's layers, from outside the program.

Nothing in growthlab's source is edited.  ``Tracer.install`` replaces
each layer's public functions wherever a module of the package binds
them (the package namespace, the layer's own module, and every module
that imported the name), so calls from the benchmark and calls between
layers both open a span.  scipy's ``quad``, ``brentq``, ``minimize``,
``minimize_scalar`` and ``solve_ivp`` are counted through the
``integrate`` and ``optimize`` names that each module binds, and profile
evaluations through a counting ``lam`` put into each model with
``dataclasses.replace``.

A span is [name, layer, start, end, parent index, operation id]; spans
stay in memory and are written out once, when the run ends.  A layer's
self time is the summed duration of its spans minus the time their child
spans cover.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

import growthlab
from growthlab import (_numdiff, _shooting, cli, comparison_ode, dimension,
                       growth, radial_metric)

LAYERS = {
    "radial_metric": (radial_metric, (
        "builtin_model", "model_from_profile", "load_profile_table",
        "distance_from_origin", "rho_of_r", "radial_curvature",
        "curvature_at_origin", "model_hessian", "geodesic_distance",
        "pair_distances", "geodesic_circle")),
    "comparison_ode": (comparison_ode, (
        "curvature_bound", "make_supersolution", "closed_form_supersolution",
        "closed_form_convexifier", "solve_riccati_equality",
        "verify_supersolution", "solve_convexifier", "growth_exponent")),
    "growth": (growth, (
        "max_modulus", "growth_curve", "three_circle_check",
        "monotonicity_check", "order_at_infinity", "necessity_deficit",
        "homogeneity_check", "cone_exponent", "separation_eigenvalue")),
    "dimension": (dimension, (
        "dim_poly_space", "dim_bound_from_h", "power_decay_regimes",
        "exp_growth_bound")),
    "cli": (cli, ("main", "resolve_h", "build_model")),
}
# private helpers of radial_metric, bound only inside growthlab._shooting
SHOOTING = ("connect_lengths", "circle_interpolator", "integrate_batch")
MODULES = (growthlab, radial_metric, comparison_ode, growth, dimension, cli)

# per-layer metrics: (name, unit); see perfbench/README.md for what each
# one should move
METRICS = (
    [(f"{layer}.{kind}", unit) for layer in
     ("radial_metric", "comparison_ode", "growth", "dimension", "cli")
     for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [("radial_metric.pair_distances.s", "s"),
       ("radial_metric.pair_distances.pairs", "count"),
       ("radial_metric.lam_calls", "count"),
       ("radial_metric.lam_points", "count"),
       ("radial_metric.geodesic_circle.s", "s"),
       ("radial_metric.geodesic_circle.calls", "count"),
       ("radial_metric.rho_of_r.s", "s"),
       ("radial_metric.radial_curvature.s", "s"),
       ("radial_metric.model_hessian.s", "s"),
       ("radial_metric.quad_calls", "count"),
       ("radial_metric.brentq_calls", "count"),
       ("radial_metric.integrate_batch.calls", "count"),
       ("radial_metric.numdiff_calls", "count"),
       ("comparison_ode.solve_riccati_equality.s", "s"),
       ("comparison_ode.solve_convexifier.s", "s"),
       ("comparison_ode.g_evals", "count"),
       ("comparison_ode.u_evals", "count"),
       ("comparison_ode.ivp_calls", "count"),
       ("comparison_ode.ivp_nfev", "count"),
       ("growth.max_modulus.s", "s"),
       ("growth.max_modulus.calls", "count"),
       ("growth.optimizer_starts", "count"),
       ("growth.optimizer_nfev", "count"),
       ("cli.main.calls", "count"),
       ("bench.self_s", "s"),
       ("trace.wall_s", "s"),
       ("trace.overhead_frac", "ratio")])
# inclusive times and call counts reported per function
TIMED = ("radial_metric.pair_distances", "radial_metric.geodesic_circle",
         "radial_metric.rho_of_r", "radial_metric.radial_curvature",
         "radial_metric.model_hessian", "comparison_ode.solve_riccati_equality",
         "comparison_ode.solve_convexifier", "growth.max_modulus")


class _Proxy:
    """Stands in for a module object; listed attributes are replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, layer: str, count_arg=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_arg is not None:
                count_arg(counts, args, kwargs)
            rec = [name, layer, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
        return wrapper

    def counting(self, key: str, fn):
        """Wrap a callback so that each evaluation adds one to ``key``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_result(self, key: str, fn, nfev_key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            counts[nfev_key] += int(getattr(out, "nfev", 0))
            return out
        return wrapper

    def count_model(self, model):
        """The same model with a ``lam`` that counts calls and points."""
        counts = self.counts
        lam = model.profile.lam

        def counted(rho):
            counts["radial_metric.lam_calls"] += 1
            counts["radial_metric.lam_points"] += int(np.size(rho))
            return lam(rho)

        return dataclasses.replace(
            model, profile=dataclasses.replace(model.profile, lam=counted))

    # -- install / remove ---------------------------------------------------

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        def pairs(counts, args, kwargs):
            counts["radial_metric.pair_distances.pairs"] += int(
                np.size(args[1] if len(args) > 1 else kwargs["ps"]))

        def counted_model(fn):
            return lambda *a, **k: self.count_model(fn(*a, **k))

        def counted_u(fn):
            def wrapper(u, *a, **k):
                return fn(self.counting("comparison_ode.u_evals", u), *a, **k)
            return wrapper

        for layer, (module, names) in LAYERS.items():
            for name in names:
                original = getattr(module, name)
                wrapped = self._span(
                    original, name, layer,
                    pairs if name == "pair_distances" else None)
                for mod in MODULES:
                    if getattr(mod, name, None) is original:
                        self._set(mod, name, wrapped)
        # the CLI builds its own models and u callbacks inside suites and
        # resolve_h: count their lam and u evaluations too
        self._set(cli, "builtin_model", counted_model(cli.builtin_model))
        self._set(cli, "make_supersolution",
                  counted_u(cli.make_supersolution))
        for name in SHOOTING:
            self._set(_shooting, name, self._span(
                getattr(_shooting, name), name, "radial_metric"))

        rm_integrate, rm_optimize = radial_metric.integrate, radial_metric.optimize
        self._set(radial_metric, "integrate", _Proxy(
            rm_integrate, quad=self.counting("radial_metric.quad_calls",
                                             rm_integrate.quad)))
        self._set(radial_metric, "optimize", _Proxy(
            rm_optimize, brentq=self.counting("radial_metric.brentq_calls",
                                              rm_optimize.brentq)))
        self._set(radial_metric, "_numdiff", _Proxy(
            _numdiff,
            first_derivative=self.counting("radial_metric.numdiff_calls",
                                           _numdiff.first_derivative),
            second_derivative=self.counting("radial_metric.numdiff_calls",
                                            _numdiff.second_derivative)))
        g_optimize = growth.optimize
        self._set(growth, "optimize", _Proxy(
            g_optimize,
            minimize=self._counting_result(
                "growth.optimizer_starts", g_optimize.minimize,
                "growth.optimizer_nfev"),
            minimize_scalar=self._counting_result(
                "growth.optimizer_starts", g_optimize.minimize_scalar,
                "growth.optimizer_nfev")))
        c_integrate = comparison_ode.integrate
        self._set(comparison_ode, "integrate", _Proxy(
            c_integrate, solve_ivp=self._counting_result(
                "comparison_ode.ivp_calls", c_integrate.solve_ivp,
                "comparison_ode.ivp_nfev")))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- per-pass summary ---------------------------------------------------

    def begin_pass(self) -> int:
        self.counts.clear()
        return len(self.spans)

    def summarize(self, first: int, wall: float) -> dict:
        """Per-layer metrics for the spans recorded since index ``first``."""
        spans = self.spans
        child = {}
        for i in range(first, len(spans)):
            parent = spans[i][4]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + spans[i][3] - spans[i][2]
        out = {name: 0 for name, _ in METRICS}
        covered = 0.0
        for i in range(first, len(spans)):
            name, layer, start, end, parent, _ = spans[i]
            dur = end - start
            out[f"{layer}.self_s"] += dur - child.get(i, 0.0)
            if parent < first:
                covered += dur
            if parent < first or spans[parent][1] != layer:
                out[f"{layer}.calls"] += 1
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
            if key in TIMED and not self._inside(i, name, first):
                out[f"{key}.s"] += dur
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        out["bench.self_s"] = wall - covered
        out["trace.wall_s"] = wall
        return {name: out[name] for name, _ in METRICS}

    def _inside(self, i: int, name: str, first: int) -> bool:
        parent = self.spans[i][4]
        while parent >= first:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "op"], "spans": self.spans}, fh)
