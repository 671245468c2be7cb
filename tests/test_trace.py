import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from castleqec import codes, fields, linalg
from castleqec.agcodes import (
    OnePointCode,
    incomplete_trace_search,
    report_fields,
    trace_code,
    trace_report,
    trace_rows,
)
from castleqec.codes import LinearCode
from castleqec.curves import CATALOGUE, curve_from_json, evaluation_set_from_json
from castleqec.fields import GF, embedding
from helpers import elliptic_gf4, evset, hermitian_gf9, hermitian_gf16, spy, suzuki8


def closed_form_trace_range(ev, small):
    r = embedding(small, ev.field).ratio
    factor = small.order ** (r // 2)
    top = ev.n + 2 * ev.curve.genus - 2
    return max(m for m in ev.dimension_set() if factor * m <= top - m)


def test_trace_rows_structure_suzuki():
    ev = evset(suzuki8)
    poles, rows = trace_rows(ev, 30, GF(2))
    # poles twice a nongap are dropped: 16 = 8*2, 20, 24, 26
    assert poles.tolist() == [8, 10, 12, 13, 18, 21, 22, 23, 25, 28, 29, 30]
    assert rows.shape == (1 + 3 * len(poles), 64)  # the all-ones row, then 3 rows per pole
    assert (rows[0] == 1).all()


@pytest.mark.parametrize(
    "builder,small,ms",
    [
        (suzuki8, 2, [0, 10, 13, 21, 30]),
        (hermitian_gf9, 3, [0, 3, 4, 7]),
        (hermitian_gf16, 4, [0, 4, 5, 9]),
    ],
    ids=["suzuki-gf2", "hermitian9-gf3", "hermitian16-gf4"],
)
def test_trace_matches_generator_descent(builder, small, ms):
    # descending the monomial basis and descending the RREF generators agree
    ev = evset(builder)
    for m in ms:
        direct = trace_code(ev, m, GF(small))
        via_code = OnePointCode(ev, m).code.trace_code(GF(small))
        assert direct == via_code


def test_trace_of_low_pole_functions_does_not_vanish():
    # pole rho with rho * q0^(r-1) < n guarantees a nonzero trace evaluation
    ev = evset(suzuki8)
    emb = embedding(GF(2), ev.field)
    poles, rows = trace_rows(ev, 15, GF(2))
    for t, rho in enumerate(poles.tolist()):
        assert rho * 2 ** (emb.ratio - 1) < ev.n
        assert rows[1 + t * emb.ratio : 1 + (t + 1) * emb.ratio].any(axis=1).all()


@pytest.mark.parametrize(
    "builder,small",
    [(suzuki8, 2), (hermitian_gf9, 3)],
    ids=["suzuki", "hermitian9"],
)
def test_trace_is_frobenius_invariant(builder, small):
    # ev(Tr f) = ev(Tr f^q0), the reason q0-th powers are redundant
    ev = evset(builder)
    F = ev.field
    emb = embedding(GF(small), F)
    frob = F.pow_table(small)
    _, mat = ev.basis_rows(20)
    for row in mat:
        assert (emb.trace_vec(row) == emb.trace_vec(frob[row])).all()


def test_trace_dimensions_suzuki():
    ev = evset(suzuki8)
    assert trace_code(ev, 10, GF(2)).dimension == 7
    full = trace_code(ev, 30, GF(2))
    assert full.dimension == 32
    assert full == full.dual()


@pytest.mark.parametrize(
    "builder,small,expected",
    [(suzuki8, 2, 30), (hermitian_gf9, 3, 7), (elliptic_gf4, 2, 2)],
    ids=["suzuki", "hermitian9", "elliptic4"],
)
def test_trace_self_orthogonal_range(builder, small, expected):
    ev = evset(builder)
    assert expected == closed_form_trace_range(ev, GF(small))
    assert expected in ev.dimension_set()
    assert trace_code(ev, expected, GF(small)).is_self_orthogonal("euclidean")
    # sharpness: the very next level must fail the matrix test; the trace
    # codes are nested, so expected is the largest self-orthogonal pole
    nxt = min(m for m in ev.dimension_set() if m > expected)
    assert not trace_code(ev, nxt, GF(small)).is_self_orthogonal("euclidean")


def test_suzuki_descent_sharp_at_31():
    ev = evset(suzuki8)
    assert 31 in ev.dimension_set()
    assert not trace_code(ev, 31, GF(2)).is_self_orthogonal("euclidean")


def test_incomplete_trace_elliptic_gf4():
    ev = evset(elliptic_gf4)
    full = trace_code(ev, 3, GF(2))
    assert full.dimension == 5
    code, dropped = incomplete_trace_search(ev, 3, GF(2))
    assert len(dropped) == 1
    assert code.dimension == 4
    assert code == code.dual()
    d, status = code.dual().min_weight()
    assert (d, status) == (4, "exact")
    assert incomplete_trace_search(ev, -1, GF(2)) == (LinearCode(GF(2), ev.n), ())  # C(-Q) = 0 drops nothing


def test_incomplete_trace_hermitian_gf9():
    ev = evset(hermitian_gf9)
    full = trace_code(ev, 4, GF(3))
    assert full.dimension == 5
    code, dropped = incomplete_trace_search(ev, 4, GF(3))
    assert len(dropped) == 1
    assert code.dimension == 4
    assert code <= code.dual()
    d, status = code.dual().min_weight()
    assert (d, status) == (3, "exact")


def test_incomplete_trace_hermitian_gf16():
    ev = evset(hermitian_gf16)
    full = trace_code(ev, 5, GF(4))
    assert full.dimension == 5
    code, dropped = incomplete_trace_search(ev, 5, GF(4))
    assert len(dropped) == 1
    assert code.dimension == 4
    assert code <= code.dual()
    d, status = code.dual().min_weight()
    assert (d, status) == (3, "exact")


@pytest.mark.parametrize(
    "builder,small,m",
    [(elliptic_gf4, 2, 0), (elliptic_gf4, 2, 1), (hermitian_gf9, 3, 0), (hermitian_gf16, 4, 1), (elliptic_gf4, 2, 3)],
    ids=["elliptic4-m0", "elliptic4-m1", "hermitian9-m0", "hermitian16-m1", "elliptic4-m3"],
)
def test_every_incomplete_trace_candidate_keeps_the_all_ones_row(monkeypatch, builder, small, m):
    # candidates drop rows of the last function's block only; with the constant alone, nothing
    ev, small = evset(builder), GF(small)
    candidates, original = [], LinearCode.is_self_orthogonal
    monkeypatch.setattr(LinearCode, "is_self_orthogonal", lambda c, mode: candidates.append(c) or original(c, mode))
    code, dropped = incomplete_trace_search(ev, m, small)
    ones = LinearCode(small, ev.n, np.ones((1, ev.n), dtype=np.uint16))
    assert candidates and all(c.contains_code(ones) for c in candidates)
    if len(trace_rows(ev, m, small)[0]) == 0:
        assert (candidates, dropped) == ([code], ()) and code == trace_code(ev, m, small)


ROOT = Path(__file__).resolve().parent.parent
CURVE_FILES = [
    *sorted(ROOT.glob("curves/*.json")),
    *sorted(ROOT.glob("perfbench/curves/*.json")),
    *sorted(ROOT.glob("tests/data/twisted/*.json")),
]
BINARY_FILES = [path for path in CURVE_FILES if curve_from_json(json.loads(path.read_text())).field.p == 2]


@pytest.mark.parametrize("path", BINARY_FILES, ids=lambda p: p.stem)
def test_trace_rows_eliminate_alike_on_the_packed_and_table_paths(path):
    # a 0/1 matrix has the same RREF over GF(2) (rows as packed integers) and GF(4) (table path):
    # the trace rows to GF(2), and the digit planes of those to a larger subfield, stacked
    ev = evaluation_set_from_json(json.loads(path.read_text()))
    F, n, ms = ev.field, ev.n, ev.dimension_set()
    subfields = [GF(2 ** j) for j in range(1, F.k) if F.k % j == 0]
    assert subfields
    for small in subfields:
        for m in sorted({ms[0], ms[len(ms) // 4], ms[len(ms) // 2], ms[-1]}):
            _, rows = trace_rows(ev, m, small)
            binary = small.digits[rows].transpose(2, 0, 1).reshape(-1, n)
            R2, p2 = linalg.rref(GF(2), binary, n)
            R4, p4 = linalg.rref(GF(4), binary, n)
            assert p2 == p4 and R2.shape == R4.shape and (R2 == R4).all(), (small, m)
        assert len(binary) > n  # at the top of the dimension set the rows outnumber n


@pytest.mark.parametrize("block", [1, 200, None], ids=["row", "200", "default"])
def test_trace_rows_in_row_blocks_match_row_by_row_traces(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(fields, "_BLOCK", block)  # entries scaled at once: one row of M, or a few
    for path in CURVE_FILES:
        ev = evaluation_set_from_json(json.loads(path.read_text()))
        F = ev.field
        _, M = ev.basis_rows(ev.dimension_set()[-1])
        for small in (GF(F.p ** j) for j in range(1, F.k) if F.k % j == 0):
            emb = embedding(small, F)
            want = [emb.trace_vec(F.mul_table[F.exp[j], g]) for g in M for j in range(emb.ratio)]
            got = emb.trace_rows(M)
            assert got.dtype == np.uint16 and (got == np.array(want)).all(), (path.stem, small)


def test_the_trace_rows_of_a_64_point_curve_are_traced_at_once(monkeypatch):
    calls, original = [], fields.Embedding.trace_vec
    monkeypatch.setattr(fields.Embedding, "trace_vec", lambda emb, arr: calls.append(arr.shape) or original(emb, arr))
    for name in ("suzuki8", "hermitian-gf16"):
        for m in evaluation_set_from_json(CATALOGUE[name]).dimension_set():
            ev = evaluation_set_from_json(CATALOGUE[name])  # a fresh set: its trace table starts empty
            calls.clear()
            _, rows = trace_rows(ev, m, GF(2))
            assert len(calls) == (len(rows) > 1), (name, m)


def proper_subfields(F):
    return [GF(F.p ** j) for j in range(1, F.k) if F.k % j == 0]


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_trace_code_is_the_trace_of_the_one_point_code_on_every_curve_file(path):
    # C(-Q) = 0, so its trace is the zero code, not the span of the all-ones row; on the curves
    # of up to 64 points every m of the dimension set, so every dropped pole, is compared
    ev = evaluation_set_from_json(json.loads(path.read_text()))
    ms = ev.dimension_set()
    assert proper_subfields(ev.field)
    for small in proper_subfields(ev.field):
        for m in [-1, *ms] if ev.n <= 64 else (-1, 0, ms[1], ms[len(ms) // 2], ms[-1]):
            assert trace_code(ev, m, small) == OnePointCode(ev, m).code.trace_code(small), (small, m)
        poles, rows = trace_rows(ev, -1, small)
        assert trace_code(ev, -1, small).dimension == 0 and len(poles) == 0 and rows.shape == (0, ev.n)


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_codes_from_a_shared_trace_table_equal_codes_from_a_fresh_set(path):
    # ascending, descending and shuffled m on one set, against a fresh set (a new table and echelon) per m
    text = path.read_text()
    ev = evaluation_set_from_json(json.loads(text))
    ms, subfields = ev.dimension_set(), proper_subfields(ev.field)
    asked = sorted({-1, *ms[:: max(1, len(ms) // 6)], ms[3] + 1, ms[-2], ms[-1], ms[-1] + 1, ms[-1] + 40})
    want = {}
    for m in asked:
        for small in subfields:
            fresh = evaluation_set_from_json(json.loads(text))
            want[m, small.order] = trace_rows(fresh, m, small)[1].copy(), trace_code(fresh, m, small)
    shuffled = random.Random(path.stem).sample(asked, len(asked))
    for order in (asked, asked[::-1], shuffled):
        ev = evaluation_set_from_json(json.loads(text))
        for m in order:
            for small in subfields:
                rows, code = want[m, small.order]
                got = trace_rows(ev, m, small)[1]
                assert got.shape == rows.shape and (got == rows).all(), (small, m)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[:1] = 0
                assert trace_code(ev, m, small) == code, (small, m)
        # one table and, over GF(2), one echelon per subfield, each its own array, grown to the largest m
        assert sorted(ev.trace_tables) == [small.order for small in subfields]
        for small in subfields:
            table = ev.trace_tables[small.order]
            assert table.rows.base is None and not table.rows.flags.writeable
            assert len(table.rows) == len(want[asked[-1], small.order][0])
            assert (table.echelon is not None) == (small.order == 2)


@pytest.mark.parametrize("builder,q", [(suzuki8, 2), (hermitian_gf16, 2), (hermitian_gf16, 4)])
def test_a_repeated_rank_is_reported_from_the_record(monkeypatch, builder, q):
    # every m, shuffled, on one set: each report is the one of its code built on a set of its own, and an m
    # whose rank was reported before weighs, Gram-tests and (over GF(2)) snapshots nothing
    ev, small = evset(builder), GF(q)
    ms = ev.dimension_set()
    want = {}
    for m in ms:
        code = trace_code(evset(builder), m, small)
        want[m] = code.dimension, report_fields(code)
    calls = []
    for owner, name in [
        (linalg, "matmul"), (codes, "macwilliams_coefficient"), (linalg.GF2Echelon, "snapshot"), (LinearCode, "weights")
    ]:
        spy(monkeypatch, owner, name, calls)
    reported, first_calls = set(), set()
    for m in random.Random(q).sample(ms, len(ms)):
        calls.clear()
        assert trace_report(ev, m, small) == want[m], m
        if want[m][0] in reported:
            assert calls == [], m
        first_calls.update(name for name, _ in calls)
        reported.add(want[m][0])
    assert len(reported) < len(ms) and {"matmul", "weights"} <= first_calls
    assert ev.trace_tables[q].reports.keys() == {(k, codes.work_budget()) for k in reported}


def test_a_sweep_holds_one_table_per_subfield_not_one_per_m(monkeypatch):
    # what the set holds after 40 builds per subfield (codes over GF(2), which extend the echelon, and
    # their reports, which hold ints and bools only: at budget 1, no weight memo keeps a code)
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    ev = evaluation_set_from_json(CATALOGUE["maximal-gf64"])
    ms, subfields = ev.dimension_set(), proper_subfields(ev.field)
    ev.curve.basis_table(ms[-1])  # the curve's basis table and the embeddings, which outlive any table
    for small in subfields:
        embedding(small, ev.field)
    tracemalloc.start()
    try:
        for m in random.Random(5).sample(ms, 40):
            for small in subfields:
                if small.order == 2:
                    trace_code(ev, m, small)
                    trace_report(ev, m, small)
                else:
                    trace_rows(ev, m, small)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tables = sum(table.rows.nbytes + table.poles.nbytes for table in ev.trace_tables.values())
    assert tables < held < tables + (256 << 10), (tables, held)
