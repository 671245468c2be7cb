"""The benchmark's workloads and the golden outputs every run is checked against.

Each workload is a fixed list of castleqec CLI commands (csv output) run with
a pinned CASTLEQEC_BUDGET.  golden.json holds, per workload, the argv of every
command with byte digests of its header and of each output row, recorded at
the commit that defined the benchmark (see record()).
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
CURVES = os.path.relpath(os.path.join(HERE, "curves"), ROOT)

REPRO_TARGETS = (
    "suzuki8",
    "elliptic-gf4",
    "elliptic-gf9",
    "hyper-even",
    "normtrace",
    "hermitian-trace",
    "maximal-q8",
    "maximal-q9",
    "maximal-2-6",
)


@dataclass(frozen=True)
class Workload:
    why: str
    budget: int  # CASTLEQEC_BUDGET, in codewords
    fields: tuple  # GF orders the commands use; set-up builds their tables
    repro: bool  # reproduce output: every row must also have status PASS


WORKLOADS = {
    # 2^23 is the default budget halved: it refuses only the two 64^4-word
    # enumerations of maximal-q8 m=9 (53 s of a 62 s pass on a 2-core Xeon),
    # which would not fit a run, and that row passes on its certified bound.
    "reproduce": Workload(
        "reproduce --all: the paper's 9 tables, 38 rows; kernel-bound, many small enumerations",
        1 << 23,
        (2, 3, 4, 8, 9, 16, 64, 81),
        True,
    ),
    # budget 1 refuses every enumeration, so each distance is a certified
    # bound and the time is sequence building, duality and containment.  The
    # two hermitian scans stop after 8 levels, which keeps a pass near 12 s
    # on a 2-core Xeon instead of 21 s, so that a run holds two or three.
    "scan-bound": Workload(
        "bound-mode scans on GF(64), GF(81) (8 levels each) and y^2+y=x^9: linalg-bound, the kernel visits no words",
        1,
        (64, 81),
        False,
    ),
    "trace-binary": Workload(
        "128 builds traced to GF(2): binary kernel in direct and MacWilliams mode, trace descent",
        1 << 24,
        (2, 8, 16),
        False,
    ),
}


def commands(name):
    """The argv lists of one workload, derived from the program at record time."""
    from castleqec import evaluation_set_from_json  # only the worker has the package on its path

    if name == "reproduce":
        return [["reproduce", "--all", "--format", "csv"]]
    if name == "scan-bound":
        scans = (
            ("maximal-gf64", "hermitian", ["--max-i", "8"]),
            ("maximal-gf81", "hermitian", ["--max-i", "8"]),
            ("maximal-2-6", "C", []),
        )
        return [
            ["scan", "--curve-file", f"{CURVES}/{curve}.json", "--construction", construction, *levels,
             "--format", "csv"]
            for curve, construction, levels in scans
        ]
    out = []
    for path in ("curves/suzuki8.json", "curves/hermitian-gf16.json"):
        with open(os.path.join(ROOT, path)) as handle:
            ev = evaluation_set_from_json(json.load(handle))
        for m in ev.dimension_set():
            out.append(["build", "--curve-file", path, "--m", str(m), "--trace-to", "2", "--format", "csv"])
    return out


def digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def expected_output(stdout):
    lines = stdout.splitlines()
    return {"header": digest(lines[0]), "rows": [digest(line) for line in lines[1:]]}


def failed_rows(expected, code, stdout, repro):
    """Rows of one command that are missing, differ from golden, or FAIL.

    A nonzero exit, a changed header or a changed row count fails every row.
    """
    want = expected["rows"]
    lines = stdout.splitlines()
    if code != 0 or len(lines) != len(want) + 1 or digest(lines[0]) != expected["header"]:
        return len(want)
    rows = lines[1:]
    status = [row["status"] for row in csv.DictReader(lines)] if repro else ["PASS"] * len(rows)
    return sum(digest(line) != d or s != "PASS" for line, d, s in zip(rows, want, status))


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)
