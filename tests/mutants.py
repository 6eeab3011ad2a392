"""One-line mutants of the engines, each run against the tier-1 suite.

    python tests/mutants.py [NAME ...]

For each mutant (all of them, or the NAMEs given) it copies the tree to a
temporary directory, replaces one line's text in one file of src/ (the old
text must occur there exactly once), runs the tier-1 suite in the copy
with -x and prints the first failing test, or "survived".  A mutant that
no test catches marks an accuracy that nothing pins, or a knob with slack
(ROADMAP item 22).  The tree itself is never changed.  pytest does not
collect this file.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name, file under src/growthlab, old text, new text
MUTANTS = [
    ("starts 8 -> 4", "growth.py",
     "_STARTS = 8 ", "_STARTS = 4 "),
    ("no second sphere round", "growth.py",
     "if peaks is not None and rho.size > 1:",
     "if False and peaks is not None and rho.size > 1:"),
    ("ascent stop 1e-14 -> 1e-8", "growth.py",
     "<= 1e-14 * val[a]", "<= 1e-8 * val[a]"),
    ("circle peaks: one pass", "growth.py",
     "for nodes in (_NODES, np.zeros(1)):", "for nodes in (np.zeros(1),):"),
    ("rate tails 1e-14 -> 1e-10", "comparison_ode.py",
     "return f, tail > 1e-14 * (1.0 + scale)",
     "return f, tail > 1e-10 * (1.0 + scale)"),
    ("jacobi tails 1e-13 -> 1e-9", "comparison_ode.py",
     "> 1e-13 * np.abs(full).max(axis=(1, 2))",
     "> 1e-9 * np.abs(full).max(axis=(1, 2))"),
    ("rho(r) Newton 1e-12 -> 1e-8", "radial_metric.py",
     "size >= 0.5 * prev, 1e-12, 2e-15", "size >= 0.5 * prev, 1e-8, 2e-15"),
    ("moebius rho x (1 + 1e-9)", "radial_metric.py",
     "rho = f_rho_of_r(np.asarray(r, dtype=float))",
     "rho = f_rho_of_r(np.asarray(r, dtype=float)) * (1 + 1e-9)"),
    ("connect_lengths x (1 + 1e-9)", "_shooting.py",
     "    return best\n", "    return best * (1 + 1e-9)\n"),
    ("auto h without lam(0)", "cli.py",
     "np.log(lam0 * rho_of_r(model, r))", "np.log(rho_of_r(model, r))"),
    ("auto h' x (1 + 1e-9)", "cli.py",
     "return 1.0 / (lam(rho) * rho)", "return (1 + 1e-9) / (lam(rho) * rho)"),
]


def run_mutant(path: str, old: str, new: str) -> str:
    """The first failing test of the suite with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".perfbench"))
        target = tree / "src" / "growthlab" / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=tree, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 0:
        return "survived"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return failed.group(1) if failed else f"exit {proc.returncode}"


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    if len(chosen) != len(argv or MUTANTS):
        names = ", ".join(m[0] for m in MUTANTS)
        print(f"unknown mutant; choose from: {names}", file=sys.stderr)
        return 2
    for name, path, old, new in chosen:
        count = (ROOT / "src" / "growthlab" / path).read_text().count(old)
        if count != 1:
            print(f"{name}: {old!r} occurs {count} times in {path}, not once",
                  file=sys.stderr)
            return 2
    for name, path, old, new in chosen:
        start = time.perf_counter()
        caught = run_mutant(path, old, new)
        print(f"{name:32s} {caught}  ({time.perf_counter() - start:.0f} s)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
