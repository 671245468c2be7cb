"""Byte identity of `reproduce --all --format csv`, and its behaviour at small budgets.

data/reproduce_digest.json pins the sha256 of stdout and the exit code at
budget 2^23 (the benchmark's reproduction budget: every row is built, and
maximal-q8 m=9 passes on its certified bound).  Re-record it only for an
intended output change:

    PYTHONPATH=src python tests/test_reproduce_digest.py --record
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

from castleqec import cli, repro
from helpers import count_enumerations

DATA = Path(__file__).resolve().parent / "data" / "reproduce_digest.json"
BUDGET = str(1 << 23)


def reproduce_all():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["reproduce", "--all", "--format", "csv"])
    return code, out.getvalue(), err.getvalue()


def digest():
    code, out, _ = reproduce_all()
    return {"sha256": hashlib.sha256(out.encode()).hexdigest(), "exit": code}


def test_reproduce_output_is_pinned(monkeypatch):
    monkeypatch.setenv("CASTLEQEC_BUDGET", BUDGET)
    assert digest() == json.loads(DATA.read_text())


def test_reproduction_enumerates_no_partner_code(monkeypatch):
    """Each CSS distance enumerates its stabilizer alone: 26 codes, 34 with the partners built."""
    monkeypatch.setenv("CASTLEQEC_BUDGET", BUDGET)
    seen = count_enumerations(monkeypatch)
    assert reproduce_all()[0] == 0
    assert len(seen) <= 26


def test_budget_1_fails_rows_instead_of_the_run(monkeypatch):
    """Budget 1 is valid input: every row is printed, and the ones it starves FAIL."""
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    code, out, err = reproduce_all()
    assert code == 1
    assert "Traceback" not in err and "error:" not in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == sum(len(t.rows) for t in repro.TARGETS.values()) == 38
    trace = [r for r in rows if r["target"] == "hermitian-trace"]
    assert len(trace) == 3
    for row in trace:
        assert row["status"] == "FAIL"
        assert "over budget" in row["detail"]
        assert row["computed"] == "" and row["d_provenance"] == ""
    assert any(r["status"] == "PASS" for r in rows)  # the bound-mode rows still pass


def test_small_budget_gives_certified_bounds(monkeypatch):
    """Below the reproduction budgets, nested and hermitian rows carry the certified bound."""
    rows = {
        "elliptic-gf9": ["nested pair, i=4", "nested pair, i=5", "nested pair, i=6", "nested pair, i=7"],
        "hyper-even": ["(q,u)=(4,5), m=5"],
        "normtrace": ["quotient (2,4,3), m=8", "norm-trace (2,3,7), m=14"],
    }
    monkeypatch.setenv("CASTLEQEC_BUDGET", "4096")
    for identifier, labels in rows.items():
        results = {r.row.label: r for r in repro.run_target(identifier).results}
        for label in labels:
            params = results[label].params
            assert params.d_provenance == "lower-bound", (identifier, label)
            assert params.d is not None and "?" not in str(params), (identifier, label)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import os

    os.environ["CASTLEQEC_BUDGET"] = BUDGET
    DATA.write_text(json.dumps(digest(), indent=1, sort_keys=True) + "\n")
