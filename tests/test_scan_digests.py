"""Byte identity of `scan --format csv` on every curve file and construction.

The curve files are those in curves/ and perfbench/curves/, plus those in
data/twisted/, whose flags are self-dual only up to a nonconstant twist.  The
digests in data/scan_digests.json pin the stdout and the exit code of each
command at budget 1 (bound mode: the linear algebra runs, no word is
enumerated).  Re-record them only for an intended output change:

    PYTHONPATH=src python tests/test_scan_digests.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from castleqec import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "scan_digests.json"
TWISTED = DATA.parent / "twisted"
CONSTRUCTIONS = ("A", "B", "C", "hermitian")
FILES = (
    {path.name: path for path in sorted((ROOT / "curves").glob("*.json"))}
    | {f"perfbench/{path.name}": path for path in sorted((ROOT / "perfbench" / "curves").glob("*.json"))}
    | {f"twisted/{path.name}": path for path in sorted(TWISTED.glob("*.json"))}
)
CASES = [(curve, c) for curve in FILES for c in CONSTRUCTIONS]


def scan_digest(curve, construction):
    out, err = io.StringIO(), io.StringIO()
    argv = ["scan", "--curve-file", str(FILES[curve]), "--construction", construction, "--format", "csv"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}, err.getvalue()


@pytest.mark.parametrize("curve,construction", CASES)
def test_scan_output_is_pinned(monkeypatch, curve, construction):
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    expected = json.loads(DATA.read_text())[f"{curve}:{construction}"]
    got, err = scan_digest(curve, construction)
    assert got == expected
    assert "Traceback" not in err


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import os

    os.environ["CASTLEQEC_BUDGET"] = "1"
    table = {f"{curve}:{c}": scan_digest(curve, c)[0] for curve, c in CASES}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
