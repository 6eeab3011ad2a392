"""The verdict ledger: every pinned lab run keeps its verdicts.

tests/verdicts.json holds one entry per run: its argv ("{root}" stands for
the repository), an optional config file, the exit code, and for each check
its name, verdict and signed margin.  A run that stops with exit 2 writes
no report: its entry has no checks and pins its one stderr line as
"error".  Exit codes, error lines, names and verdicts must match exactly,
and margins within 1e-9 + 1e-6 |margin|; non-finite margins are compared
as the strings the JSON report writes.  A change that moves a
margin past that, or a verdict, rewrites the entry and says so.
"""
import json
from pathlib import Path

import pytest

from growthlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "tests" / "verdicts.json").read_text())


@pytest.mark.parametrize("entry", LEDGER,
                         ids=[" ".join(e["argv"] + ["--config"] * ("config" in e))
                              for e in LEDGER])
def test_verdict_ledger(tmp_path, monkeypatch, capsys, entry):
    monkeypatch.chdir(tmp_path)  # README runs write their --csv here
    argv = [a.replace("{root}", str(ROOT)) for a in entry["argv"]]
    if "config" in entry:
        (tmp_path / "cfg.json").write_text(json.dumps(entry["config"]))
        argv += ["--config", "cfg.json"]
    path = tmp_path / "ledger.json"
    assert main(argv + ["--json", str(path)]) == entry["exit"]
    if "error" in entry:
        assert capsys.readouterr().err == entry["error"] + "\n"
        assert not path.exists()
    got = json.loads(path.read_text())["checks"] if path.exists() else []
    assert ([(c["name"], c["verdict"]) for c in got]
            == [(c["name"], c["verdict"]) for c in entry["checks"]])
    for check, want in zip(got, entry["checks"]):
        margin, pinned = check["margin"], want["margin"]
        if isinstance(margin, str) or isinstance(pinned, str):
            assert str(margin) == str(pinned), check["name"]
        else:
            assert abs(margin - pinned) <= 1e-9 + 1e-6 * abs(pinned), (
                check["name"], margin, pinned)
