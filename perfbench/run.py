"""growthlab benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload growth-sweep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all            # all three, summary table
    python3 perfbench/run.py --workload all --quick    # smoke test, both modes

One process runs one operation at a time (a closed loop with one client)
against the growthlab package in ``src/``, imported from source.  With
``--trace 0`` it repeats passes over the workload's operations for
``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
runs half of that time untraced and half traced, and prints the
per-layer metrics of the traced pass with the median wall time.  The last
line of standard output is one JSON object; the lines before it give the
seed, run metadata, the traffic mix and every metric with its unit.  The
exit code is 1 when any operation raised or returned a wrong result, 2
when there is no growthlab package under ``src/`` and 3 on a stall.
"""
import os

# single-threaded BLAS, set before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("growth-sweep", "geodesic-pairs", "generic-profile")
SETUP_PROBES = 4        # child processes timing set-up, besides this one
DEADLINE_S = 170        # a run that has not finished by then is a stall
E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "failed_frac": "ratio", "accuracy_digits": "digits",
             "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_growthlab() -> float:
    """Import growthlab and growthlab.cli from ``src/``; returns seconds."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import growthlab
    import growthlab.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(growthlab.__file__).resolve().parent != SRC / "growthlab":
        fail(f"imported growthlab from {growthlab.__file__}, not from {SRC}")
    return elapsed


def set_up(name: str, seed: int, quick: bool) -> tuple:
    """Import growthlab, build the workload's models.

    Returns (set-up seconds, the workloads module, workload, models); the
    seconds cover the import of growthlab and growthlab.cli and the model
    builds, not the benchmark's own modules or input generation.
    """
    t_import = import_growthlab()
    import workloads
    wl = workloads.WORKLOADS[name](seed, quick, RUN_DIR)
    t0 = time.perf_counter()
    models = wl.build_models()
    return t_import + time.perf_counter() - t0, workloads, wl, models


# ---------------------------------------------------------------------------
# metadata

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy
    import scipy
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "src_lines": lines,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# passes

class Tally:
    """Operation outcomes pooled over the passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits = math.inf
        self.latencies: list = []
        self.walls: list = []
        self.kind_seconds: dict = {}

    def run_pass(self, ops, workloads, counting, tracer=None) -> float:
        t_pass = time.perf_counter()
        for op_id, op in enumerate(ops):
            ck = workloads.Checker()
            if tracer is not None:
                tracer.op_id = op_id
            t0 = time.perf_counter()
            try:
                op.fn(ck, counting)
            except Exception:
                ck.failures.append("raised:\n" + traceback.format_exc())
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            self.kind_seconds[op.kind] = self.kind_seconds.get(op.kind, 0.0) + dt
            self.attempted += 1
            if ck.failures:
                self.failed += 1
                for msg in ck.failures:
                    print(f"FAILED {op.label}: {msg}", file=sys.stderr)
            self.digits = min(self.digits, ck.digits)
        wall = time.perf_counter() - t_pass
        self.walls.append(wall)
        return wall

    def run_for(self, budget: float, ops, workloads, counting,
                tracer=None, on_pass=None) -> None:
        """Passes until another one would overrun ``budget`` seconds."""
        start = time.perf_counter()
        while True:
            first = tracer.begin_pass() if tracer is not None else None
            wall = self.run_pass(ops, workloads, counting, tracer)
            if on_pass is not None:
                on_pass(first, wall)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.walls) > budget:
                return


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples above it: (value, pct)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def mix_lines(wl, ops, tally: Tally) -> dict:
    counts = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    total = sum(tally.kind_seconds.values())
    mix = {kind: {"ops": c, "op_share": round(c / len(ops), 4),
                  "time_share": round(tally.kind_seconds.get(kind, 0.0)
                                      / total, 4)}
           for kind, c in sorted(counts.items())}
    if hasattr(wl, "mix"):
        mix.update(wl.mix())
    return mix


# ---------------------------------------------------------------------------
# one workload

def probe_setups(args, count: int) -> list:
    out = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"] + (["--quick"] if args.quick else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=False)
        if res.returncode != 0:
            fail(f"set-up probe failed:\n{res.stderr}", 1)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def run_workload(args) -> int:
    signal.signal(signal.SIGALRM, lambda *_: fail(
        f"stalled: no result after {DEADLINE_S} s", 3))
    signal.alarm(DEADLINE_S)
    RUN_DIR.mkdir(exist_ok=True)
    setup, workloads, wl, models = set_up(args.workload, args.seed, args.quick)
    setups = [setup]
    print("meta " + json.dumps(metadata()))
    if not args.trace:
        setups += probe_setups(args, 1 if args.quick else SETUP_PROBES)

    ops = wl.operations(models)
    budget = 0.0 if args.quick else args.seconds
    tally = Tally()
    if args.trace:
        import tracing
        tally.run_for(budget / 2, ops, workloads, workloads.identity_counter)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_ops = wl.operations(
                {k: tracer.count_model(m) for k, m in models.items()})
            passes = []
            traced = Tally()
            traced.run_for(budget / 2, traced_ops, workloads, tracer.counting,
                           tracer, lambda first, wall: passes.append(
                               tracer.summarize(first, wall)))
        finally:
            tracer.uninstall()
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.digits = min(tally.digits, traced.digits)
        # the traced pass with the median wall time; its times add up
        passes.sort(key=lambda p: p["trace.wall_s"])
        metrics = dict(passes[(len(passes) - 1) // 2])
        metrics["trace.overhead_frac"] = (
            statistics.median(traced.walls) / statistics.median(tally.walls)
            - 1.0)
        stable = all({k: v for k, v in p.items() if _is_count(k)}
                     == {k: v for k, v in passes[0].items() if _is_count(k)}
                     for p in passes)
        tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        units = dict(tracing.METRICS)
        print(f"traced passes: {len(passes)}, untraced passes: "
              f"{len(tally.walls)}, counts identical across traced passes: "
              f"{stable}")
    else:
        tally.run_for(budget, ops, workloads, workloads.identity_counter)
        pooled = tally.latencies
        lat_tail, pct = tail(pooled)
        metrics = {
            "wall_s": statistics.median(tally.walls),
            "op_p50_ms": 1e3 * statistics.median(pooled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # printed, not in BENCHMARK.json: see perfbench/README.md
        printed = {
            "op_tail_ms": 1e3 * lat_tail,
            "failed_frac": tally.failed / tally.attempted,
            "accuracy_digits": tally.digits,
        }
        units = E2E_UNITS
        print(f"passes: {len(tally.walls)}, pass walls (s): "
              + ", ".join(f"{w:.3f}" for w in tally.walls))
        print(f"op_tail_ms is p{pct:.2f} of {len(pooled)} operations")
        print("setup samples (s): " + ", ".join(f"{s:.3f}" for s in setups))
        for name, value in printed.items():
            print(f"{name} = {value:.6g} {units[name]}")
    print("mix " + json.dumps(mix_lines(wl, ops, tally)))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed {tally.failed} of {tally.attempted} operations")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    signal.alarm(0)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def _is_count(name: str) -> bool:
    return not (name.endswith("_s") or name.endswith(".s")
                or name.startswith("trace."))


# ---------------------------------------------------------------------------
# all workloads

def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    modes = (0, 1) if args.quick else (args.trace,)
    rows, merged, ok = [], {}, True
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        for trace in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            cmd += ["--quick"] if args.quick else []
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=DEADLINE_S + 10,
                                 check=False)
            sys.stderr.write(res.stderr)
            lines = res.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            try:
                out = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"[{name} trace={trace}] no result, exit "
                      f"{res.returncode}")
                ok = False
                continue
            ok = ok and res.returncode == 0 and out["correct"]
            attempted += out["attempted"]
            failed += out["failed"]
            # every metric the run printed, gated or not
            metrics = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[1] == "=":
                    metrics[parts[0]] = {"value": float(parts[2]),
                                         "unit": parts[3]}
            rows.append((name, trace, metrics))
            for key, val in metrics.items():
                merged[f"{name}.{key}"] = val
    print(f"seed {args.seed}")
    for name, trace, metrics in rows:
        if trace == 0:
            print(f"{name}: " + ", ".join(
                f"{k} {v['value']:.4g} {v['unit']}" for k, v in
                metrics.items()))
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if ok and failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one pass: the benchmark's smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "growthlab" / "__init__.py").is_file():
        fail(f"no growthlab package under {SRC}; run from a full checkout")
    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed, args.quick)[0]))
        return 0
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} quick={args.quick}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)

if __name__ == "__main__":
    sys.exit(main())
