import itertools
import random

import numpy as np
import pytest

from castleqec import linalg
from castleqec.codes import LinearCode
from castleqec.fields import GF
from castleqec.linalg import RREFAccumulator, kernel_basis, matmul, reduce_row, rref
from helpers import contains_vector


def random_matrix(rng, q, k, n):
    return np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)], dtype=np.uint16)


@pytest.mark.parametrize("q", [2, 4, 9, 16])
def test_rref_structure_and_rowspace(q):
    F = GF(q)
    rng = random.Random(17 * q)
    for _ in range(25):
        k, n = rng.randrange(1, 7), rng.randrange(1, 10)
        M = random_matrix(rng, q, k, n)
        R, pivots = rref(F, M)
        assert R.shape[0] == len(pivots)
        assert list(pivots) == sorted(pivots)
        for i, c in enumerate(pivots):
            col = R[:, c]
            assert col[i] == 1 and (np.delete(col, i) == 0).all()
        # every original row reduces to zero against R
        for row in M:
            assert not reduce_row(F, R, pivots, row).any()
        # idempotent
        R2, p2 = rref(F, R)
        assert p2 == pivots and (R2 == R).all()


@pytest.mark.parametrize("q", [2, 4, 9])
def test_kernel_rank_nullity(q):
    F = GF(q)
    rng = random.Random(5 * q)
    for _ in range(25):
        k, n = rng.randrange(1, 6), rng.randrange(1, 9)
        M = random_matrix(rng, q, k, n)
        K = kernel_basis(F, M)
        assert K.shape[0] == n - len(rref(F, M)[1])
        if K.shape[0]:
            prod = matmul(F, M, K.T)
            assert not prod.any()


def test_kernel_of_empty_matrix_is_full_space():
    F = GF(4)
    K = kernel_basis(F, [], n=5)
    assert K.shape == (5, 5)
    assert (K == np.eye(5)).all()


def test_matmul_matches_scalar():
    F = GF(8)
    rng = random.Random(99)
    A = random_matrix(rng, 8, 3, 4)
    B = random_matrix(rng, 8, 4, 5)
    assert (matmul(F, A, B) == scalar_matmul(F, A, B)).all()


@pytest.mark.parametrize("q", [2, 9])
def test_accumulator_matches_batch_rref(q):
    F = GF(q)
    rng = random.Random(q + 1)
    n = 8
    acc = RREFAccumulator(F, n)
    rows = []
    for _ in range(12):
        v = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint16)
        rows.append(v)
        grew = acc.insert(v)
        R, pivots = rref(F, np.array(rows), n)
        assert acc.dimension == len(pivots)
        assert (acc.snapshot() == R).all()
        assert grew == (len(pivots) != len(rref(F, np.array(rows[:-1]), n)[1]) if len(rows) > 1 else len(pivots) == 1)


# -- oracles for the whole-matrix layer ------------------------------------------


def scalar_matmul(F, A, B):
    """The product through F.add / F.mul one entry at a time."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint16)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = F.add(acc, F.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def brute_force_kernel_size(F, M, n):
    """How many of the q^n vectors v have M v^T = 0, by table arithmetic on all of them."""
    V = np.array(list(itertools.product(range(F.order), repeat=n)), dtype=np.uint16).reshape(-1, n)
    zero = np.ones(len(V), dtype=bool)
    for row in M:
        acc = np.zeros(len(V), dtype=np.uint16)
        for t in range(n):
            acc = F.add_table[acc, F.mul_table[row[t], V[:, t]]]
        zero &= acc == 0
    return int(zero.sum())


def kernel_cases(rng, q, n):
    yield np.zeros((0, n), dtype=np.uint16)  # no rows: the kernel is everything
    yield np.zeros((2, n), dtype=np.uint16)  # zero rows
    full = random_matrix(rng, q, n, n)
    yield full  # usually full rank
    yield np.eye(n, dtype=np.uint16)  # full rank: the kernel is zero
    base = random_matrix(rng, q, 2, n)
    yield np.vstack([base, GF(q).mul_table[rng.randrange(1, q), base[0]][None, :]])  # rank deficient
    yield matmul(GF(q), random_matrix(rng, q, n + 2, 2), random_matrix(rng, q, 2, n))  # rank <= 2, tall
    for _ in range(4):
        yield random_matrix(rng, q, rng.randrange(1, n + 2), n)


@pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4), (8, 4), (9, 4), (27, 3)])
def test_kernel_basis_matches_brute_force(q, n):
    F = GF(q)
    rng = random.Random(1000 + q)
    for M in kernel_cases(rng, q, n):
        K = kernel_basis(F, M, n)
        assert K.shape[1] == n
        R, pivots = rref(F, K, n)
        assert R.shape == K.shape and (R == K).all()  # canonical already, rows independent
        if len(K):
            assert not matmul(F, M, K.T).any() if len(M) else True
        assert F.order ** K.shape[0] == brute_force_kernel_size(F, M, n)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 130])
def test_gf2_elimination_matches_generic_path(n):
    # a 0/1 matrix has the same RREF and kernel over GF(4), which takes the table path
    F2, F4 = GF(2), GF(4)
    rng = random.Random(n)
    for M in [*kernel_cases(rng, 2, n), random_matrix(rng, 2, n + 9, n), np.eye(n, dtype=np.uint16)[::-1]]:
        R2, p2 = rref(F2, M, n)
        R4, p4 = rref(F4, M, n)
        assert p2 == p4 and R2.dtype == R4.dtype and R2.shape == R4.shape and (R2 == R4).all()
        assert all(type(c) is int for c in p2)
        K2, K4 = kernel_basis(F2, M, n), kernel_basis(F4, M, n)
        assert K2.shape == K4.shape and (K2 == K4).all()


MATMUL_FIELDS = [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 64, 81, 243, 1021, 1024]


@pytest.mark.parametrize("q", MATMUL_FIELDS)
def test_matmul_matches_scalar_oracle(q):
    F = GF(q)
    rng = random.Random(77 + q)
    shapes = [(1, 1, 1), (3, 5, 7), (7, 5, 3), (6, 9, 6), (1, 8, 5), (5, 8, 1), (0, 3, 4), (4, 3, 0), (3, 0, 4)]
    if q == 1021:
        shapes.append((3, 40, 4))  # k t (p-1)^2 >= 2^24: the float64 path
    for m, t, n in shapes:
        A, B = random_matrix(rng, q, m, t).reshape(m, t), random_matrix(rng, q, t, n).reshape(t, n)
        assert (matmul(F, A, B) == scalar_matmul(F, A, B)).all(), (m, t, n)


@pytest.mark.parametrize("q", [4, 81])
def test_matmul_column_blocks_match_scalar_oracle(monkeypatch, q):
    F = GF(q)
    rng = random.Random(q)
    A, B = random_matrix(rng, q, 9, 6), random_matrix(rng, q, 6, 7)
    monkeypatch.setattr(linalg, "_BLOCK", 1)  # one column of B at a time
    assert (matmul(F, A, B) == scalar_matmul(F, A, B)).all()
    assert (matmul(F, B.T, A.T) == scalar_matmul(F, B.T, A.T)).all()


@pytest.mark.parametrize("q", [2, 3, 8, 9, 81])
def test_contains_code_matches_contains_vector(q):
    F = GF(q)
    rng = random.Random(300 + q)
    n = 7
    for _ in range(20):
        big = LinearCode(F, n, random_matrix(rng, q, rng.randrange(0, 6), n).reshape(-1, n))
        picks = np.array([[rng.randrange(q) for _ in range(big.dimension)] for _ in range(3)], dtype=np.uint16)
        sub = LinearCode(F, n, matmul(F, picks, big.matrix))
        other = LinearCode(F, n, random_matrix(rng, q, rng.randrange(0, 4), n).reshape(-1, n))
        for a, b in [(big, sub), (sub, big), (big, other), (other, big), (LinearCode.zero(F, n), other)]:
            assert a.contains_code(b) == all(contains_vector(a, row) for row in b.matrix)
        assert big.contains_code(sub)


def test_dual_and_levels_run_no_second_elimination(monkeypatch):
    F = GF(9)
    rng = random.Random(4)
    code = LinearCode(F, 8, random_matrix(rng, 9, 3, 8))
    calls = []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or original(*args))
    dual = code.dual()
    assert len(calls) == 1  # the right-to-left echelon form inside kernel_basis
    code.hermitian_dual()
    assert len(calls) == 2  # the Frobenius image keeps its RREF
    R, pivots = original(F, dual.matrix)
    assert (R == dual.matrix).all() and pivots == dual.pivots
