"""End-to-end CLI coverage: every subcommand, both formats, exit codes."""

import collections
import functools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from castleqec import cli, curves, linalg
from castleqec.agcodes import CodeSequence
from castleqec.curves import CATALOGUE
from castleqec.quantum import gv_terms
from helpers import count_enumerations, spy

ROOT = Path(__file__).resolve().parent.parent
CURVES = ROOT / "curves"
SUZUKI = str(CURVES / "suzuki8.json")
ELLIPTIC4 = str(CURVES / "elliptic-gf4.json")
HERMITIAN9 = str(CURVES / "hermitian-gf9.json")
HERMITIAN16 = str(CURVES / "hermitian-gf16.json")
TWISTED9 = str(CURVES / "twisted-gf9.json")
HYPER45 = str(CURVES / "hyper-even-45.json")
NTQ = str(CURVES / "ntq-2-4-3.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(out):
    return [json.loads(line) for line in out.splitlines()]


# -- build --------------------------------------------------------------------


def test_build_suzuki(capsys):
    code, out, _ = run_cli(capsys, "build", "--curve-file", SUZUKI, "--m", "13")
    assert code == 0
    (row,) = json_rows(out)
    assert row == {
        "curve": "suzuki8",
        "n": 64,
        "m": 13,
        "k": 5,
        "abundance": 0,
        "goppa": 51,
        "order": 3,
        "d_exact": 51,
        "self_orth": {"euclidean": True, "hermitian": None},
    }


def test_build_elliptic_gf4(capsys):
    code, out, _ = run_cli(capsys, "build", "--curve-file", ELLIPTIC4, "--m", "0")
    assert code == 0
    (row,) = json_rows(out)
    assert (row["n"], row["k"], row["d_exact"]) == (8, 1, 8)
    assert row["self_orth"] == {"euclidean": True, "hermitian": True}


def test_build_hermitian_containment_threshold(capsys):
    code, out, _ = run_cli(capsys, "build", "--curve-file", NTQ, "--m", "8")
    (row,) = json_rows(out)
    assert code == 0 and row["k"] == 4
    assert row["self_orth"]["hermitian"] is True
    code, out, _ = run_cli(capsys, "build", "--curve-file", NTQ, "--m", "9")
    (row,) = json_rows(out)
    assert code == 0 and row["self_orth"]["hermitian"] is False


def test_build_trace(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--curve-file", SUZUKI, "--m", "10", "--trace-to", "2"
    )
    assert code == 0
    (row,) = json_rows(out)
    assert row == {
        "curve": "suzuki8",
        "n": 64,
        "m": 10,
        "trace_field": 2,
        "k": 7,
        "d_exact": 32,
        "self_orth": {"euclidean": True, "hermitian": None},
    }


def test_a_trace_sweep_prints_the_rows_of_fresh_builds_and_snapshots_each_rank_once(capsys, monkeypatch):
    # every m of two curves, shuffled: built on a fresh set each (an empty record), then in one sweep
    argvs = [
        ["build", "--curve-file", path, "--m", str(m), "--trace-to", "2", "--format", "csv"]
        for path in (SUZUKI, HERMITIAN16)
        for m in curves.evaluation_set_from_text(Path(path).read_text()).dimension_set()
    ]
    random.Random(29).shuffle(argvs)
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(curves, "_EVALUATION_SETS", collections.OrderedDict())
        fresh.append(run_cli(capsys, *argv))
    monkeypatch.setattr(curves, "_EVALUATION_SETS", collections.OrderedDict())
    snapshots = []
    spy(monkeypatch, linalg.GF2Echelon, "snapshot", snapshots)
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    echelons = [ev.trace_tables[2].echelon for ev in curves._EVALUATION_SETS.values()]
    ranks = {(row[0], row[4]) for _, out, _ in fresh for row in [out.splitlines()[1].split(",")]}  # (curve, k)
    assert len(echelons) == 2 and len(ranks) == 42
    assert sum(args[0] is echelon for _, args in snapshots for echelon in echelons) == 42


def test_a_trace_report_is_kept_per_budget(capsys, monkeypatch):
    monkeypatch.setattr(curves, "_EVALUATION_SETS", collections.OrderedDict())
    argv = ("build", "--curve-file", SUZUKI, "--m", "20", "--trace-to", "2")
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    (at_one,) = json_rows(run_cli(capsys, *argv)[1])
    monkeypatch.delenv("CASTLEQEC_BUDGET")
    (at_default,) = json_rows(run_cli(capsys, *argv)[1])
    assert "d_exact" not in at_one and at_default.pop("d_exact") == 16
    assert at_one == at_default


def test_build_csv(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--curve-file", SUZUKI, "--m", "13", "--format", "csv"
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "curve,n,m,k,abundance,goppa,order,d_exact,self_orth_euclidean,self_orth_hermitian"
    assert row.split(",") == ["suzuki8", "64", "13", "5", "0", "51", "3", "51", "true", ""]


def test_build_huge_m_terminates(capsys):
    # the basis enumeration is capped at the last dimension jump, so an
    # absurd pole order degenerates to the full code instead of hanging
    code, out, _ = run_cli(capsys, "build", "--curve-file", SUZUKI, "--m", "9999")
    assert code == 0
    (row,) = json_rows(out)
    assert (row["k"], row["d_exact"], row["abundance"]) == (64, 1, 9922)
    code, out, _ = run_cli(
        capsys, "build", "--curve-file", SUZUKI, "--m", "9999", "--trace-to", "2"
    )
    assert code == 0
    (row,) = json_rows(out)
    assert (row["k"], row["d_exact"]) == (64, 1)
    # past int64 the semigroup counts stay exact: l(m) = m + 1 - g from the conductor on
    n, g = 64, 14
    for m in (2**63 - 1, 2**63, 2**70):
        code, out, _ = run_cli(capsys, "build", "--curve-file", SUZUKI, "--m", str(m))
        assert code == 0
        (row,) = json_rows(out)
        assert (row["m"], row["k"], row["d_exact"]) == (m, 64, 1)
        assert (row["abundance"], row["order"]) == (m - n + 1 - g, m + 2 - 2 * g)
        code, out, _ = run_cli(capsys, "build", "--curve-file", SUZUKI, "--m", str(m), "--trace-to", "2")
        assert code == 0
        (row,) = json_rows(out)
        assert (row["m"], row["k"], row["d_exact"]) == (m, 64, 1)


def test_build_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    code, out, _ = run_cli(capsys, "build", "--curve-file", ELLIPTIC4, "--m", "0")
    assert code == 0
    (row,) = json_rows(out)
    assert "d_exact" not in row  # enumeration suppressed by the tiny budget
    assert row["goppa"] == 8


# -- reproduce ----------------------------------------------------------------


def test_reproduce_single_target(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--target", "elliptic-gf4")
    assert code == 0
    assert "elliptic-gf4: 1/1 rows pass" in err
    (row,) = json_rows(out)
    assert row["status"] == "PASS"
    assert row["expected"] == row["computed"] == "[[8,6,2]]_2"
    assert row["tag"] == "ddagger" and row["gv"] == "exceeds"
    assert row["detail"] == ""


def test_reproduce_surfaces_the_gv_note(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--target", "normtrace")
    assert code == 0
    rows = {r["expected"]: r for r in json_rows(out)}
    row = rows["[[32,26,3]]_8"]
    assert row["status"] == "PASS" and row["gv"] == "meets"
    assert "exact arithmetic gives meets" in row["detail"]


def test_reproduce_trace_target(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--target", "hermitian-trace")
    assert code == 0
    rows = json_rows(out)
    assert [r["status"] for r in rows] == ["PASS"] * 3
    assert rows[0]["expected"] == "[[8,0,4]]_2"


# -- scan ---------------------------------------------------------------------


def test_scan_construction_a(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", HERMITIAN9, "--construction", "A"
    )
    assert code == 0
    rows = json_rows(out)
    assert rows[0] == {
        "i": 0, "m": None, "n": 27, "k": 27, "d": 1, "q": 3,
        "d_provenance": "exact", "construction": "A", "gv": "na",
    }
    got = [(r["i"], r["m"], r["k"], r["d"], r["gv"]) for r in rows[1:]]
    assert got == [
        (1, 0, 25, 2, "exceeds"),
        (2, 3, 23, 2, "meets"),
        (3, 4, 21, 3, "exceeds"),
        (4, 6, 19, 3, "meets"),
        (5, 7, 17, 3, "meets"),
    ]
    assert all(r["d_provenance"] == "exact" and r["q"] == 3 for r in rows)


def test_scan_construction_b(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", TWISTED9, "--construction", "B"
    )
    assert code == 0
    rows = json_rows(out)
    assert [r["i"] for r in rows] == list(range(8))
    assert [r["m"] for r in rows] == [None, 0, 2, 4, 6, 8, 9, 10]
    assert [r["k"] for r in rows] == [18, 16, 14, 12, 10, 8, 6, 4]
    assert [r["d"] for r in rows] == [1, 2, 2, 2, 2, 2, 4, 4]
    assert all(r["q"] == 3 and r["construction"] == "B" for r in rows)


def test_scan_construction_b_reduces_to_a_when_self_dual(capsys):
    key = lambda r: (r["i"], r["m"], r["n"], r["k"], r["d"], r["gv"])
    _, out_a, _ = run_cli(capsys, "scan", "--curve-file", HERMITIAN9, "--construction", "A")
    _, out_b, _ = run_cli(capsys, "scan", "--curve-file", HERMITIAN9, "--construction", "B")
    assert [key(r) for r in json_rows(out_a)] == [key(r) for r in json_rows(out_b)]


def test_scan_construction_c(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", SUZUKI, "--construction", "C", "--max-i", "6"
    )
    assert code == 0
    rows = json_rows(out)
    assert [r["m"] for r in rows] == [None, 0, 8, 10, 12, 13, 16]
    assert [r["k"] for r in rows] == [64, 62, 60, 58, 56, 54, 52]
    assert [r["d"] for r in rows] == [1, 2, 2, 3, 3, 4, 4]
    assert all(r["d_provenance"] == "exact" and r["q"] == 8 for r in rows)


def test_scan_hermitian(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", HYPER45, "--construction", "hermitian"
    )
    assert code == 0
    rows = json_rows(out)
    assert [r["i"] for r in rows] == [0, 1, 2, 3, 4, 5]  # containment stops at i=5
    assert [r["m"] for r in rows] == [None, 0, 2, 4, 5, 6]
    assert [r["k"] for r in rows] == [32, 30, 28, 26, 24, 22]
    assert [r["d"] for r in rows] == [1, 2, 2, 2, 4, 4]
    assert all(r["q"] == 4 for r in rows)


def test_scan_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", HERMITIAN9, "--construction", "A",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,m,n,k,d,q,d_provenance,construction,gv"
    assert lines[1] == "0,,27,27,1,3,exact,A,na"


def test_scan_is_deterministic(capsys):
    args = ("scan", "--curve-file", SUZUKI, "--construction", "C", "--max-i", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_scan_max_i_zero_gives_only_the_trivial_row(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", HERMITIAN9, "--construction", "A", "--max-i", "0"
    )
    assert code == 0
    assert [r["i"] for r in json_rows(out)] == [0]


def test_scan_hermitian_builds_no_hermitian_dual(capsys, monkeypatch):
    from castleqec.codes import LinearCode

    original = LinearCode.hermitian_dual
    visited = []

    def counting(self):
        visited.append(self.dimension)
        return original(self)

    monkeypatch.setattr(LinearCode, "hermitian_dual", counting)
    code, out, _ = run_cli(capsys, "scan", "--curve-file", HYPER45, "--construction", "hermitian")
    assert code == 0
    assert len(json_rows(out)) == 6
    # levels 1-5 give rows from C_i's weights alone; level 6 fails the Gram gate
    assert visited == []


def test_scan_construction_c_enumerates_each_code_once(capsys, monkeypatch):
    seen = count_enumerations(monkeypatch)
    code, out, _ = run_cli(
        capsys, "scan", "--curve-file", SUZUKI, "--construction", "C", "--max-i", "6"
    )
    assert code == 0 and len(json_rows(out)) == 7
    # one enumeration per level: the partner's weights are the MacWilliams transform of C_i's
    assert seen == [(i, 64) for i in range(1, 7)]


@pytest.mark.parametrize(
    "path", [ROOT / "tests" / "data" / "hermitian256.json", ROOT / "perfbench" / "curves" / "maximal-gf81.json"],
    ids=lambda p: p.stem,
)
def test_a_certified_scan_builds_the_basis_table_once(path, capsys, monkeypatch):
    # the duality certificate's Apery rows and the code sequence read one table, to the last dimension jump
    monkeypatch.setattr(curves, "_EVALUATION_SETS", collections.OrderedDict())  # the curve is built anew
    original, built = curves.PointedCurve._build_basis_table, []
    monkeypatch.setattr(curves.PointedCurve, "_build_basis_table", lambda c, m: built.append(m) or original(c, m))
    code, out, _ = run_cli(capsys, "scan", "--curve-file", str(path), "--construction", "C", "--max-i", "5")
    assert code == 0 and len(json_rows(out)) == 6
    ev = curves.evaluation_set_from_text(path.read_text())
    assert built == [ev.dimension_set()[-1]]


def test_scan_hermitian_tests_each_containment_once(capsys, monkeypatch):
    from castleqec.codes import LinearCode

    original = LinearCode.contains_code
    tested = []

    def counting(self, other):
        tested.append(other.dimension)
        return original(self, other)

    monkeypatch.setattr(LinearCode, "contains_code", counting)
    code, out, _ = run_cli(capsys, "scan", "--curve-file", HYPER45, "--construction", "hermitian")
    assert code == 0 and len(json_rows(out)) == 6
    assert tested == []  # every gate is a Gram product


# -- gv -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "nkdq, expected",
    [
        ((8, 6, 2, 2), "[[8,6,2]]_2: exceeds\nlhs = 5\nrhs = 8\n"),
        ((64, 62, 2, 8), "[[64,62,2]]_8: meets\nlhs = 65\nrhs = 64\n"),
        ((15, 14, 2, 9), "[[15,14,2]]_9: not-applicable\nlhs = 9\nrhs = 15\n"),
    ],
)
def test_gv_output(capsys, nkdq, expected):
    n, k, d, q = nkdq
    code, out, _ = run_cli(
        capsys, "gv", "--n", str(n), "--k", str(k), "--d", str(d), "--q", str(q)
    )
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("q", ["6", "1", "2048"])
def test_gv_unsupported_field_exits_3(capsys, q):
    code, out, err = run_cli(capsys, "gv", "--n", "10", "--k", "2", "--d", "3", "--q", q)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("d", ["0", "12", "30"])
def test_gv_distance_outside_1_to_n_plus_1_exits_2(capsys, d):
    code, out, err = run_cli(capsys, "gv", "--n", "10", "--k", "2", "--d", d, "--q", "4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_gv_accepts_the_ends_of_the_distance_range(capsys):
    for d in ("1", "11"):
        code, _, _ = run_cli(capsys, "gv", "--n", "10", "--k", "2", "--d", d, "--q", "4")
        assert code == 0


@pytest.mark.parametrize("n,k", [("5", "-1"), ("5", "6"), ("5", "9"), ("0", "0"), ("-3", "0")])
def test_gv_length_below_1_or_dimension_outside_0_to_n_exits_2(capsys, n, k):
    code, out, err = run_cli(capsys, "gv", "--n", n, "--k", k, "--d", "1", "--q", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_gv_accepts_the_ends_of_the_dimension_range(capsys):
    for k in ("0", "5"):
        code, out, _ = run_cli(capsys, "gv", "--n", "5", "--k", k, "--d", "2", "--q", "2")
        assert code == 0 and len(out.splitlines()) == 3


def test_gv_prints_every_line_with_its_exact_integers_at_any_length(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "gv", "--n", "1000", "--k", "2", "--d", "1000", "--q", "1024")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit  # the command restores the interpreter's setting
    status, lhs, rhs = out.splitlines()
    assert status == "[[1000,2,1000]]_1024: exceeds"
    assert lhs.startswith("lhs = ") and rhs.startswith("rhs = ")
    sys.set_int_max_str_digits(0)  # the integers have more digits than the default limit
    try:
        assert (int(lhs[6:]), int(rhs[6:])) == gv_terms(1000, 2, 1000, 1024)
    finally:
        sys.set_int_max_str_digits(limit)


# -- error paths --------------------------------------------------------------


def test_unknown_family_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "nope", "params": {}}))
    code, _, err = run_cli(capsys, "build", "--curve-file", str(bad), "--m", "0")
    assert code == 2
    assert err.startswith("error:")


def test_unsupported_field_exits_3(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"family": "hypereven", "field": {"p": 2, "k": 11}, "params": {"f": [0, 0, 0, 1]}})
    )
    code, _, err = run_cli(capsys, "build", "--curve-file", str(big), "--m", "0")
    assert code == 3
    assert "error:" in err


def test_broken_json_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "build", "--curve-file", str(broken), "--m", "0")
    assert code == 2
    assert "not valid JSON" in err


NESTED = {
    "brackets": "[" * 100_000 + "]" * 100_000,
    "sep-f": '{"family": "sep", "field": {"p": 3, "k": 2}, "params": {"f": '
    + "[" * 5_000 + "0" + "]" * 5_000
    + ', "g": [0, 1, 0, 1]}}',
}


@pytest.mark.parametrize("text", NESTED.values(), ids=NESTED.keys())
def test_deeply_nested_json_exits_2_without_a_traceback(tmp_path, text):
    path = tmp_path / "nested.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "castleqec.cli", "scan", "--curve-file", str(path), "--construction", "C"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_a_rewritten_curve_file_builds_its_new_content(tmp_path, capsys):
    path = tmp_path / "curve.json"
    contents = [
        CATALOGUE["elliptic-gf4"],
        {**CATALOGUE["elliptic-gf4"], "tag": "renamed"},
        CATALOGUE["hermitian-gf9"],
        {"family": "nope", "params": {}},
        CATALOGUE["elliptic-gf4"],
    ]
    runs = []
    for obj in contents:
        path.write_text(json.dumps(obj))
        runs.append(run_cli(capsys, "build", "--curve-file", str(path), "--m", "3"))
    rows = [json_rows(out)[0] if code == 0 else None for code, out, _ in runs]
    assert [(row["curve"], row["n"]) for row in rows[:3]] == [("elliptic-gf4", 8), ("renamed", 8), ("hermitian-gf9", 27)]
    assert runs[3] == (2, "", "error: unknown curve family 'nope'\n")
    assert runs[4] == runs[0]


DROP = object()
MUTATIONS = {
    "dropped": DROP, "null": None, "bool": True, "float": 1.5, "huge int": 1 << 80, "string": "x", "list": [1],
    "dict": {"a": 1},
}


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutant(obj, path, value):
    out = json.loads(json.dumps(obj))
    *parents, last = path
    target = functools.reduce(lambda node, key: node[key], parents, out)
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return out


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_each_mutated_catalogue_descriptor_builds_alike_twice_in_one_process(tmp_path, capsys, name):
    # one key dropped or given another JSON type; the second build may reuse what the first one built
    path = tmp_path / "mutant.json"
    for key_path in _key_paths(CATALOGUE[name]):
        for kind, value in MUTATIONS.items():
            path.write_text(json.dumps(_mutant(CATALOGUE[name], key_path, value)))
            first, second = (run_cli(capsys, "build", "--curve-file", str(path), "--m", "3") for _ in range(2))
            assert first == second and first[0] in (0, 2, 3), (key_path, kind, first)
            assert "Traceback" not in first[2], (key_path, kind)


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "--curve-file", "/no/such/file.json", "--m", "0")
    assert code == 2


def test_bad_trace_field_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "build", "--curve-file", SUZUKI, "--m", "10", "--trace-to", "4"
    )
    assert code == 2
    assert "does not embed" in err


def test_negative_m_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "--curve-file", SUZUKI, "--m", "-1")
    assert code == 2


def test_unknown_target_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--target", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_main_calls_share_one_parser(tmp_path, capsys):
    cli.build_parser.cache_clear()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    for _ in range(2):  # the same exit codes from a fresh parser and from the shared one
        assert run_cli(capsys, "build", "--curve-file", str(broken), "--m", "0")[0] == 2
        assert run_cli(capsys, "gv", "--n", "8", "--k", "6", "--d", "2", "--q", "6")[0] == 3
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--curve-file", SUZUKI, "--construction", "D"])
        assert exc.value.code == 2
        capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert cli.build_parser() is cli.build_parser()


def test_scan_a_rejects_twisted_sequences(capsys, monkeypatch):
    """A nonconstant twist fails construction A at the first pole order, with no level built."""
    built = []
    original = CodeSequence.level
    monkeypatch.setattr(CodeSequence, "level", lambda seq, i: built.append(i) or original(seq, i))
    code, _, err = run_cli(
        capsys, "scan", "--curve-file", TWISTED9, "--construction", "A"
    )
    assert code == 2
    assert "construction A needs an exactly self-dual sequence" in err
    assert "first fails at m=0" in err
    assert built == []


def test_scan_negative_max_i_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--curve-file", HERMITIAN9, "--construction", "A", "--max-i", "-1"
    )
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize("construction", ["A", "B", "hermitian"])
def test_scan_hermitian_constructions_need_a_square_field(capsys, construction):
    code, out, err = run_cli(capsys, "scan", "--curve-file", SUZUKI, "--construction", construction)
    assert code == 2
    assert out == ""
    assert "square field order" in err
    assert "Traceback" not in err


# -- malformed descriptors ----------------------------------------------------

GF9 = {"p": 3, "k": 2}
ELLIPTIC9 = {"family": "sep", "field": GF9, "params": {"f": [0, 0, 1], "g": [0, 1, 0, 1]}, "fibration": "y"}
MALFORMED = [
    # (id, descriptor, exit code): each must be refused, never truncated or crashed on
    ("suzuki-q0-list", {"family": "suzuki", "params": {"q0": [2]}}, 2),
    ("suzuki-q0-str", {"family": "suzuki", "params": {"q0": "2"}}, 2),
    ("suzuki-q0-float", {"family": "suzuki", "params": {"q0": 2.0}}, 2),
    ("suzuki-q0-bool", {"family": "suzuki", "params": {"q0": True}}, 2),
    ("suzuki-q0-not-power-of-2", {"family": "suzuki", "params": {"q0": 3}}, 2),
    ("suzuki-q0-huge", {"family": "suzuki", "params": {"q0": 2 ** 40}}, 3),
    ("suzuki-no-q0", {"family": "suzuki", "params": {}}, 2),
    ("subset-float", {**ELLIPTIC9, "subset": [1.5]}, 2),
    ("subset-str", {**ELLIPTIC9, "subset": ["1"]}, 2),
    ("subset-bool", {**ELLIPTIC9, "subset": [True]}, 2),
    ("subset-not-a-list", {**ELLIPTIC9, "subset": 1}, 2),
    ("field-p-float", {**ELLIPTIC9, "field": {"p": 3.0, "k": 2}}, 2),
    ("field-k-str", {**ELLIPTIC9, "field": {"p": 3, "k": "2"}}, 2),
    ("field-modulus-float", {**ELLIPTIC9, "field": {**GF9, "modulus": [1, 0.0, 1]}}, 2),
    ("field-p-huge", {**ELLIPTIC9, "field": {"p": 10 ** 30 + 57, "k": 1}}, 3),
    ("field-k-huge", {**ELLIPTIC9, "field": {"p": 3, "k": 10 ** 9}}, 3),
    ("poly-float", {**ELLIPTIC9, "params": {"f": [0, 0, 1.5], "g": [0, 1, 0, 1]}}, 2),
    ("poly-not-a-list", {**ELLIPTIC9, "params": {"f": 7, "g": [0, 1, 0, 1]}}, 2),
    ("ntq-q-1", {"family": "ntq", "params": {"q": 1, "r": 3, "u": 1}}, 2),
    ("ntq-r-huge", {"family": "ntq", "params": {"q": 2, "r": 10 ** 9, "u": 1}}, 3),
    ("ntq-u-float", {"family": "ntq", "params": {"q": 2, "r": 3, "u": 7.0}}, 2),
    ("ntq-no-u", {"family": "ntq", "params": {"q": 2, "r": 3}}, 2),
    ("sep-no-g", {**ELLIPTIC9, "params": {"f": [0, 0, 1]}}, 2),
    ("hypereven-no-f", {"family": "hypereven", "field": {"p": 2, "k": 2}, "params": {}}, 2),
    ("params-list", {"family": "suzuki", "params": [2]}, 2),
    ("params-null", {"family": "suzuki", "params": None}, 2),
    ("descriptor-list", [], 2),
    ("descriptor-str", "suzuki", 2),
    ("fibration-int", {**ELLIPTIC9, "fibration": 3}, 2),
]


@pytest.mark.parametrize("name,descriptor,expected", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_descriptor_is_refused(tmp_path, capsys, name, descriptor, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(descriptor))
    code, out, err = run_cli(capsys, "build", "--curve-file", str(path), "--m", "0")
    assert code == expected
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    if "-no-" in name:  # a missing parameter is named, with its family
        family, key = name.split("-no-")
        assert err == f"error: {family} descriptor needs params.{key}\n"


def test_malformed_descriptor_exits_2_from_a_process(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "suzuki", "params": {"q0": [2]}}))
    proc = subprocess.run(
        [sys.executable, "-m", "castleqec.cli", "build", "--curve-file", str(path), "--m", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_out_of_memory_exits_2_without_a_traceback(tmp_path, monkeypatch):
    resource = pytest.importorskip("resource")
    path = tmp_path / "suzuki128.json"  # n = 16,384: the code C(16000Q) is a 1.8 GiB array
    path.write_text(json.dumps({"family": "suzuki", "params": {"q0": 8}}))
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # per-thread BLAS buffers would count against the cap
    monkeypatch.setenv("OMP_NUM_THREADS", "1")

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "castleqec.cli", "build", "--curve-file", str(path), "--m", "16000"],
        capture_output=True,
        text=True,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory:") and "Traceback" not in proc.stderr


# -- module entry point -------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "castleqec.cli", "gv", "--n", "8", "--k", "6", "--d", "2", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[[8,6,2]]_2: exceeds\nlhs = 5\nrhs = 8\n"
