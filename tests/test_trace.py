import numpy as np
import pytest

from castleqec.agcodes import (
    OnePointCode,
    incomplete_trace_search,
    trace_code,
    trace_rows,
)
from castleqec.fields import GF, embedding
from helpers import elliptic_gf4, evset, hermitian_gf9, hermitian_gf16, suzuki8


def closed_form_trace_range(ev, small):
    r = embedding(small, ev.field).ratio
    factor = small.order ** (r // 2)
    top = ev.n + 2 * ev.curve.genus - 2
    return max(m for m in ev.dimension_set() if factor * m <= top - m)


def test_trace_rows_structure_suzuki():
    ev = evset(suzuki8)
    rows, blocks = trace_rows(ev, 30, GF(2))
    assert blocks[0] == (0, [0])
    kept = [rho for rho, _ in blocks[1:]]
    # powers of smaller basis functions are dropped: 16 = 8*2, 20, 24, 26
    assert kept == [8, 10, 12, 13, 18, 21, 22, 23, 25, 28, 29, 30]
    assert all(len(idxs) == 3 for _, idxs in blocks[1:])
    assert rows.shape == (1 + 3 * len(kept), 64)


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
    rows, blocks = trace_rows(ev, 15, GF(2))
    for rho, idxs in blocks[1:]:
        assert rho * 2 ** (emb.ratio - 1) < ev.n
        for i in idxs:
            assert rows[i].any()


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
