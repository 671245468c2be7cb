"""Byte identity of `build --format csv`, plain and traced, on every curve file.

The curve files are those of test_scan_digests.  Each is built at m = 0, at
the middle pole of its dimension set, at the top pole and 5 past it, plainly
and traced to every proper subfield, at budget 65536.  The digests in
data/build_digests.json pin the stdout and the exit code of each command.
All of them run in one process, one after the other, as a benchmark pass
does, so later builds reuse the evaluation sets of earlier ones.  Re-record
them only for an intended output change:

    PYTHONPATH=src python tests/test_build_digests.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from castleqec import cli
from castleqec.curves import evaluation_set_from_json

from test_scan_digests import FILES

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "build_digests.json"
BUDGET = "65536"


def commands():
    """(curve file relative to the root, m, trace field order or None) for every pinned build."""
    out = []
    for path in FILES.values():
        ev = evaluation_set_from_json(json.loads(path.read_text()))
        D, F = ev.dimension_set(), ev.field
        subfields = [F.p ** j for j in range(1, F.k) if F.k % j == 0]
        for m in (0, D[len(D) // 2], D[-1], D[-1] + 5):
            for small in (None, *subfields):
                out.append((str(path.relative_to(ROOT)), m, small))
    return out


def build_digest(path, m, small):
    argv = ["build", "--curve-file", str(ROOT / path), "--m", str(m), "--format", "csv"]
    if small is not None:
        argv += ["--trace-to", str(small)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}, err.getvalue()


def test_build_outputs_are_pinned_in_one_process(monkeypatch):
    monkeypatch.setenv("CASTLEQEC_BUDGET", BUDGET)
    expected = json.loads(DATA.read_text())
    assert [(e["file"], e["m"], e["trace_to"]) for e in expected] == commands()
    for entry in expected:
        got, err = build_digest(entry["file"], entry["m"], entry["trace_to"])
        assert got == {"sha256": entry["sha256"], "exit": entry["exit"]}, entry
        assert "Traceback" not in err, entry


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import os

    os.environ["CASTLEQEC_BUDGET"] = BUDGET
    table = [
        {"file": path, "m": m, "trace_to": small, **build_digest(path, m, small)[0]}
        for path, m, small in commands()
    ]
    DATA.write_text(json.dumps(table, indent=1) + "\n")
