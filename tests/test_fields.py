import numpy as np
import pytest

from castleqec.fields import (
    GF,
    UnsupportedFieldError,
    embedding,
    field_from_json,
)
from helpers import decompose_vec, is_subfield_order

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64]


def test_bad_orders_rejected():
    for q in [0, 1, 6, 12, 100, 2048, 1025]:
        with pytest.raises(UnsupportedFieldError):
            GF(q)


def test_field_cache_identity():
    assert GF(9) is GF(9)
    assert GF(8) is not GF(9)


def test_canonical_moduli_frozen():
    # lex-smallest monic irreducible, constant term most significant
    assert GF(2).modulus == (0, 1)
    assert GF(4).modulus == (1, 1, 1)
    assert GF(8).modulus == (1, 0, 1, 1)
    assert GF(9).modulus == (1, 0, 1)
    assert GF(5).modulus == (0, 1)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms(q):
    F = GF(q)
    a = F.add_table.astype(np.int64)
    m = F.mul_table.astype(np.int64)
    idx = np.arange(q)

    assert (a == a.T).all() and (m == m.T).all()
    assert (a[0] == idx).all() and (m[1] == idx).all()
    assert (m[0] == 0).all()
    # additive inverses and multiplicative inverses
    assert (a[idx, F.neg_table] == 0).all()
    nz = idx[1:]
    assert (m[nz, F.inv_table[nz]] == 1).all()
    # associativity and distributivity, exhaustively (q^3 table lookups)
    lhs_add = a[a[:, :, None], idx[None, None, :]]
    rhs_add = a[idx[:, None, None], a[None, :, :]]
    assert (lhs_add == rhs_add).all()
    lhs_mul = m[m[:, :, None], idx[None, None, :]]
    rhs_mul = m[idx[:, None, None], m[None, :, :]]
    assert (lhs_mul == rhs_mul).all()
    dist_l = m[idx[:, None, None], a[None, :, :]]
    dist_r = a[m[:, :, None], m[:, None, :]]
    assert (dist_l == dist_r).all()


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_frobenius_fixes_field(q):
    F = GF(q)
    for x in range(q):
        assert F.pow(x, q) == x


def test_power_map_counts_subfield():
    # solutions of a^8 = a inside GF(64) form the GF(8) subfield: exactly 8
    F = GF(64)
    sols = [x for x in range(64) if F.pow(x, 8) == x]
    assert len(sols) == 8


def test_pow_edge_cases():
    F = GF(9)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    for x in range(1, 9):
        assert F.pow(x, 8) == 1
        assert F.mul(F.pow(x, 3), F.pow(x, 5)) == 1
        assert F.pow(x, -1) == F.inv(x)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_pow_table_matches_scalar(q):
    F = GF(q)
    for e in [0, 1, 2, q - 2, q - 1, q, q + 3, 3 * q]:
        P = F.pow_table(e)
        for x in range(q):
            assert int(P[x]) == F.pow(x, e)


def test_primitive_element_order():
    for q in SMALL_ORDERS:
        F = GF(q)
        g = F.primitive
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert x == 1 and len(seen) == q - 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_squares_odd_characteristic(q):
    # Euler's criterion: the nonzero squares are the even powers of the primitive element
    F = GF(q)
    squares = {F.mul(x, x) for x in range(q)}
    assert len(squares) == (q + 1) // 2
    assert squares == {0} | {x for x in range(1, q) if F.pow(x, (q - 1) // 2) == 1}
    assert squares == {0} | {int(F.exp[t]) for t in range(0, q - 1, 2)}


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
def test_squares_even_characteristic(q):
    # squaring is the Frobenius automorphism, inverted by x -> x^(q/2)
    F = GF(q)
    assert sorted(F.mul(x, x) for x in range(q)) == list(range(q))
    for x in range(q):
        root = F.pow(x, q // 2)
        assert F.mul(root, root) == x


def test_division_errors():
    F = GF(4)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_poly_with_roots(q):
    F = GF(q)
    # every element is a root of t^q - t, each once
    assert F.poly_with_roots(range(q)) == [0, F.neg(1)] + [0] * (q - 2) + [1]
    assert F.poly_with_roots([]) == [1]
    assert F.poly_with_roots([1, 1]) == [1, F.neg(F.add(1, 1)), 1]  # (t - 1)^2 = t^2 - 2t + 1


def test_minimal_polynomial_examples():
    F4 = GF(4)
    # X itself generates, so its minimal polynomial is the modulus
    assert F4.minimal_polynomial(2) == F4.modulus
    assert F4.minimal_polynomial(0) == (0, 1)
    assert F4.minimal_polynomial(1) == (1, 1)
    F64 = GF(64)
    for x in range(64):
        mp = F64.minimal_polynomial(x)
        deg = len(mp) - 1
        assert 6 % deg == 0
        # x is a root of its own minimal polynomial
        acc = 0
        for i, c in enumerate(mp):
            acc = F64.add(acc, F64.mul(c, F64.pow(x, i)))
        assert acc == 0


def test_trace_gf4_to_gf2():
    F = GF(4)
    emb = embedding(GF(2), F)
    traces = [int(emb.trace_table[x]) for x in range(4)]
    assert traces == [0, 0, 1, 1]
    # the fibers of the trace map have size q^(r-1) = 2 each
    assert traces.count(0) == 2 and traces.count(1) == 2
    w = F.primitive
    assert int(emb.trace_table[w]) == 1


SUBFIELD_PAIRS = [(q0, q) for q in (4, 8, 16, 64, 81) for q0 in range(2, q + 1) if is_subfield_order(GF(q), q0)]


@pytest.mark.parametrize("q0,q", SUBFIELD_PAIRS + [(3, 9), (3, 27), (5, 25)])
def test_embedding_properties(q0, q):
    S, B = GF(q0), GF(q)
    emb = embedding(S, B)
    r = emb.ratio
    fwd = emb.fwd

    # injective ring homomorphism fixing the prime field
    assert fwd[0] == 0 and fwd[1] == 1
    assert len(set(int(v) for v in fwd)) == q0
    for a in range(q0):
        for b in range(q0):
            assert int(fwd[S.add_table[a, b]]) == B.add(int(fwd[a]), int(fwd[b]))
            assert int(fwd[S.mul_table[a, b]]) == B.mul(int(fwd[a]), int(fwd[b]))

    # image of the small primitive has multiplicative order q0 - 1
    h = int(fwd[S.primitive])
    if q0 > 2:
        t = int(B.log[h])
        assert (q - 1) // int(np.gcd(q - 1, t)) == q0 - 1

    # trace is small-field valued, GF(q0)-linear, Frobenius invariant
    import random

    rng = random.Random(1234)
    xs = [rng.randrange(q) for _ in range(50)] + [0, 1]
    for x in xs:
        t = int(emb.trace_table[x])
        assert 0 <= t < q0
        assert int(emb.trace_table[B.pow(x, q0)]) == t
        y = rng.randrange(q)
        assert int(emb.trace_table[B.add(x, y)]) == S.add(int(emb.trace_table[x]), int(emb.trace_table[y]))
        c = rng.randrange(q0)
        assert int(emb.trace_table[B.mul(int(fwd[c]), x)]) == S.mul(c, int(emb.trace_table[x]))

    # trace of an embedded element is the degree ratio times the element
    scale = r % S.p
    for s in range(q0):
        expected = 0
        for _ in range(scale):
            expected = S.add(expected, s)
        assert int(emb.trace_table[int(fwd[s])]) == expected

    # the trace table is the Frobenius sum x + x^q0 + ... + x^(q0^(r-1)), projected
    for x in range(q):
        acc = 0
        for i in range(r):
            acc = B.add(acc, B.pow(x, q0 ** i))
        assert int(emb.trace_table[x]) == int(emb.project_vec(np.array([acc]))[0])
    arr = np.arange(q, dtype=np.uint16)
    assert [int(v) for v in emb.trace_vec(arr)] == [int(emb.trace_table[x]) for x in range(q)]
    # the trace rows of M are Tr(alpha^j g), row g of M, then j
    M = np.array([[rng.randrange(q) for _ in range(5)] for _ in range(3)], dtype=np.uint16)
    expected = [[int(emb.trace_table[B.mul(B.pow(B.primitive, j), int(x))]) for x in g] for g in M for j in range(r)]
    assert emb.trace_rows(M).tolist() == expected
    assert emb.trace_rows(M[:0]).shape == (0, 5)


def test_embedding_surjectivity_of_trace():
    # trace fibers all have size q0^(r-1)
    for (q0, q) in [(2, 8), (3, 9), (4, 16), (2, 16)]:
        emb = embedding(GF(q0), GF(q))
        counts = np.bincount(emb.trace_vec(np.arange(q, dtype=np.uint16)), minlength=q0)
        assert (counts == q // q0).all()


def test_embedding_rejects_non_subfield():
    with pytest.raises(ValueError):
        embedding(GF(16), GF(64))  # 4 does not divide 6
    with pytest.raises(ValueError):
        embedding(GF(4), GF(27))


@pytest.mark.parametrize("q0,q", [(2, 8), (3, 9), (4, 16), (4, 64), (2, 16)])
def test_decompose_roundtrip(q0, q):
    S, B = GF(q0), GF(q)
    emb = embedding(S, B)
    r = emb.ratio
    alpha = B.primitive
    arr = np.arange(q, dtype=np.int64)
    comps = decompose_vec(emb, arr)
    assert comps.shape == (r, q)
    for x in range(q):
        acc = 0
        for j in range(r):
            term = B.mul(int(emb.fwd[comps[j, x]]), B.pow(alpha, j))
            acc = B.add(acc, term)
        assert acc == x
    # embedded elements decompose onto the first coordinate
    c = decompose_vec(emb, emb.fwd)
    assert c[0].tolist() == list(range(q0)) and not c[1:].any()


def test_project_errors_outside_image():
    emb = embedding(GF(2), GF(4))
    with pytest.raises(ValueError, match="outside the embedded subfield"):
        emb.project_vec(np.array([1, 2]))
    assert emb.project_vec(np.array([0, 1, 1])).tolist() == [0, 1, 1]


def test_identity_embedding():
    F = GF(9)
    emb = embedding(F, F)
    assert emb.ratio == 1
    assert emb.fwd.tolist() == list(range(9))
    assert [int(emb.trace_table[x]) for x in range(9)] == list(range(9))


def test_json_roundtrip():
    for q in [2, 4, 9, 16, 27]:
        F = GF(q)
        obj = F.to_json()
        assert field_from_json(obj) is F
    with pytest.raises(ValueError):
        field_from_json({"p": 2, "k": 2, "modulus": [1, 0, 1]})  # reducible, non-canonical
    with pytest.raises(UnsupportedFieldError):
        field_from_json({"p": 4, "k": 1, "modulus": [0, 1]})
    with pytest.raises(UnsupportedFieldError):
        field_from_json({"p": 2, "k": 11, "modulus": [1] * 12})
    with pytest.raises(ValueError):
        field_from_json({"p": 2})
