"""Dense linear algebra over small finite fields.

Matrices are numpy uint16 arrays of element indices; all arithmetic goes
through the owning field's add/mul tables via fancy indexing, so everything
stays exact.  Products run in floating-point BLAS on base-p digit planes,
used only as an exact integer accumulator.  Shapes follow the coding
convention: rows are vectors.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

_BLOCK = 1 << 16  # entries of the right-hand digit planes held at once


def as_matrix(rows, n=None):
    """Coerce to a 2-D uint16 array; row-less input needs the ambient length n."""
    M = np.asarray(rows, dtype=np.uint16)
    if M.ndim == 2:
        return M
    if M.size == 0:
        return np.zeros((0, 0 if n is None else n), dtype=np.uint16)
    return M[None, :]


def rref(field, rows, n=None):
    """Reduced row echelon form with zero rows dropped.

    Returns (R, pivots); R[i, pivots[i]] = 1, pivot columns are zero
    elsewhere, pivots strictly increase.  This is the canonical form used for
    code equality.  A pivot row is zero left of its pivot, so each update
    touches only the columns from the pivot on.  Over GF(2) each row is one
    Python integer instead (see _rref_gf2).
    """
    if field.order == 2:
        return _rref_gf2(as_matrix(rows, n))
    R = as_matrix(rows, n).copy()
    k, ncols = R.shape
    mul, neg, inv = field.mul_table, field.neg_table, field.inv_table
    pivots = []
    r = 0
    for col in range(ncols):
        if r == k:
            break
        nz = np.flatnonzero(R[r:, col])
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        pivot_row = mul[inv[R[r, col]], R[r, col:]]
        R[r, col:] = pivot_row
        others = np.flatnonzero(R[:, col])
        others = others[others != r]
        R[others, col:] = add(field, R[others, col:], np.take(mul[neg[R[others, col]]], pivot_row, axis=1))
        pivots.append(col)
        r += 1
    return np.ascontiguousarray(R[:r]), tuple(pivots)


def _rref_gf2(M):
    """rref over GF(2) with each row one Python integer, column 0 the top bit.

    An XOR basis keyed by leading bit takes the rows in turn; clearing the
    lower pivot bits of each basis row, lowest first, then reduces it.
    """
    width = -(-M.shape[1] // 8)  # bytes per packed row; column c is bit 8 width - 1 - c
    basis = {}
    for row in np.packbits(M.astype(np.uint8), axis=1):
        v = int.from_bytes(row.tobytes(), "big")
        while v and v.bit_length() - 1 in basis:
            v ^= basis[v.bit_length() - 1]
        if v:
            basis[v.bit_length() - 1] = v
    leads = sorted(basis)
    for i, lead in enumerate(leads):
        for low in leads[:i]:
            if basis[lead] >> low & 1:
                basis[lead] ^= basis[low]
    leads.reverse()  # pivot columns ascending
    data = b"".join(basis[lead].to_bytes(width, "big") for lead in leads)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(len(leads), width), axis=1)
    return bits[:, : M.shape[1]].astype(np.uint16), tuple(8 * width - 1 - lead for lead in leads)


def add(field, X, Y):
    """Entrywise field sum: XOR in characteristic 2, else one flat table lookup."""
    if field.p == 2:
        return X ^ Y
    return np.take(field.add_table, X.astype(np.intp) * field.order + Y)


def kernel_basis(field, rows, n=None):
    """Rows spanning {v : M v^T = 0}, already in reduced echelon form.

    One elimination gives the right-to-left echelon form G of M (the rref of
    the column-reversed matrix), with pivots P: G[j, P_j] = 1, G is zero in
    the other columns of P and right of P_j.  The kernel's pivots are the
    free columns f, and its row for f is e_f - sum_j G[j, f] e_(P_j), whose
    other entries all lie right of f: the kernel's canonical RREF.
    """
    M = as_matrix(rows, n)
    ncols = M.shape[1]
    G, reversed_pivots = rref(field, M[:, ::-1])
    P = ncols - 1 - np.array(reversed_pivots, dtype=np.intp)
    free = np.setdiff1d(np.arange(ncols), P)
    H = np.zeros((len(free), ncols), dtype=np.uint16)
    H[np.arange(len(free)), free] = 1
    H[:, P] = field.neg_table[G[:, ::-1][:, free].T]
    return H


@functools.cache
def _digit_tables(field):
    """digits[a, j]: coefficient of X^j in a; shifted[a, i, j]: the same for X^i a."""
    p, k = field.p, field.k
    weights = p ** np.arange(k)
    digits = (np.arange(field.order)[:, None] // weights % p).astype(np.uint16)
    x_pows = [field.pow(p, i) if i else 1 for i in range(k)]  # X^i; index p is X
    shifted = np.stack([digits[field.mul_table[x]] for x in x_pows], axis=1)
    return digits, shifted, weights.astype(np.uint16)


def matmul(field, A, B):
    """Matrix product over the field; A is (m, t), B is (t, n).

    With A = sum_i X^i A_i over its digit planes A_i (GF(p)-valued), digit
    j of AB is sum_i A_i D_ij mod p, where D_ij is digit plane j of X^i B.
    So one BLAS product [A_0 .. A_(k-1)] [D_ij] gives every digit at once.
    Its entries are integers at most k t (p-1)^2, exact in float32 below
    2^24 and in float64 below 2^53: nothing is ever rounded.  The shifted
    planes are built for the smaller outer side, a block of columns at a
    time to bound the temporaries.
    """
    A, B = as_matrix(A), as_matrix(B)
    assert A.shape[1] == B.shape[0], f"shape mismatch {A.shape} x {B.shape}"
    swap = A.shape[0] < B.shape[1]
    if swap:  # AB = (B^T A^T)^T
        A, B = B.T, A.T
    (m, t), n = A.shape, B.shape[1]
    p, k = field.p, field.k
    largest = k * t * (p - 1) ** 2
    assert largest < 2 ** 53, "digit-plane products must stay exact in float64"
    dtype = np.float32 if largest < 2 ** 24 else np.float64
    digits, shifted, weights = _digit_tables(field)
    A_planes = digits[A].transpose(0, 2, 1).reshape(m, k * t).astype(dtype)
    out = np.empty((m, n), dtype=np.uint16)
    step = max(1, _BLOCK // (k * k * max(t, 1)))
    for c in range(0, n, step):
        Bc = B[:, c : c + step]
        D = shifted[Bc].transpose(2, 0, 3, 1).reshape(k * t, k * Bc.shape[1]).astype(dtype)
        planes = (A_planes @ D % p).astype(np.uint16).reshape(m, k, Bc.shape[1])
        out[:, c : c + step] = np.tensordot(weights, planes, axes=(0, 1))
    return out.T if swap else out


def reduce_row(field, R, pivots, v):
    """Reduce v against an RREF basis: v - v[P] R, zero iff v is in the row space."""
    v = np.asarray(v, dtype=np.uint16)
    return add(field, v, field.neg_table[matmul(field, v[None, list(pivots)], R)[0]])


class RREFAccumulator:
    """Maintains a canonical RREF basis under one-row-at-a-time insertion.

    Used to build strictly increasing code sequences: after every successful
    insert, snapshot() equals rref() of all rows inserted so far.
    """

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = np.zeros((0, n), dtype=np.uint16)  # sorted by pivot column
        self.pivots = []

    def insert(self, v):
        """Add one vector; returns True if it enlarged the span.

        Two whole-array steps: reduce v against the basis, then clear the
        new pivot column from every row.
        """
        f = self.field
        v = np.asarray(v, dtype=np.uint16)
        assert v.shape == (self.n,)
        v = reduce_row(f, self.rows, self.pivots, v)
        nz = np.flatnonzero(v)
        if len(nz) == 0:
            return False
        col = int(nz[0])
        v = f.mul_table[f.inv_table[v[col]], v]
        rows = add(f, self.rows, np.take(f.mul_table[f.neg_table[self.rows[:, col]]], v, axis=1))
        pos = bisect.bisect(self.pivots, col)
        self.rows = np.insert(rows, pos, v, axis=0)
        self.pivots.insert(pos, col)
        return True

    @property
    def dimension(self):
        return len(self.pivots)

    def snapshot(self):
        return self.rows.copy()
