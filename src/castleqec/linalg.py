"""Dense linear algebra over small finite fields.

Matrices are numpy uint16 arrays of element indices; all arithmetic goes
through the owning field's add/mul tables via fancy indexing, so everything
stays exact.  In characteristic 2 a product with one row or one column is
one mul_table gather and an XOR reduction.  Every other product runs in
floating-point BLAS on base-p digit planes, used only as an exact integer
accumulator.  Shapes follow the coding convention: rows are vectors.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

_BLOCK = 1 << 16  # entries of a product's gather or right-hand digit planes, or of GF(2) rows packed, held at once


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
    Python integer instead, taken by a fresh GF2Echelon.
    """
    if field.order == 2:
        M = as_matrix(rows, n)
        (k, ncols), echelon = M.shape, GF2Echelon(M.shape[1])
        step = max(1, _BLOCK // max(ncols, 1))  # rows packed at once
        for b in range(0, k, step):
            if len(echelon.entries) == ncols:
                break
            echelon.extend(GF2Echelon.pack(M[b : b + step]))
        return echelon.snapshot()
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


class GF2Echelon:
    """An XOR basis of GF(2) rows, each row one Python integer with column 0 the top bit.

    extend() takes rows in turn: each is reduced by the entries so far and,
    if anything is left, becomes an entry keyed by its leading bit that
    records the index of the row that created it.  Entries are never
    modified after they are created, so the entries from the first c rows
    span exactly those rows, and snapshot(c) is the rref of that prefix.
    Once the entries span all n columns, later rows are taken unreduced.
    """

    def __init__(self, n):
        self.n = n
        self.taken = 0  # rows taken so far
        self.entries = {}  # leading bit -> the entry
        self.sources = []  # the row that created each entry, ascending
        self.leads = []  # the leading bit of each entry, in the same order

    @staticmethod
    def pack(M):
        """Rows of 0/1 entries as np.packbits lays them out: column c is bit 7 - c % 8 of byte c // 8."""
        return np.packbits(as_matrix(M).astype(np.uint8), axis=1)

    def extend(self, packed):
        """Take the next rows, given packed (see pack)."""
        entries, n = self.entries, self.n
        for i, row in enumerate(packed, start=self.taken):
            if len(entries) == n:
                break
            v = int.from_bytes(row.tobytes(), "big")  # column c is bit 8 w - 1 - c, for w bytes a row
            while v and (lead := v.bit_length() - 1) in entries:
                v ^= entries[lead]
            if v:
                entries[lead] = v
                self.sources.append(i)
                self.leads.append(lead)
        self.taken += len(packed)

    def snapshot(self, c=None):
        """(R, pivots): the rref of the first c rows taken (all of them by default), as rref returns it.

        Back-substitution takes the leads in ascending order: the rows of the
        lower leads (done) are reduced already, so they are zero at every
        other pivot, and one XOR per set bit of v & done reduces v.
        """
        n = self.n
        count = len(self.sources) if c is None else bisect.bisect_left(self.sources, c)
        reduced, done = {}, 0
        for lead in sorted(self.leads[:count]):
            v = self.entries[lead]
            hits = v & done
            while hits:
                low = hits.bit_length() - 1
                v, hits = v ^ reduced[low], hits ^ 1 << low
            reduced[lead], done = v, done | 1 << lead
        leads = sorted(reduced, reverse=True)  # pivot columns ascending
        width = -(-n // 8)
        step = max(1, _BLOCK // max(n, 1))  # rows unpacked at once
        R = np.empty((len(leads), n), dtype=np.uint16)
        for b in range(0, len(leads), step):
            data = b"".join(reduced[lead].to_bytes(width, "big") for lead in leads[b : b + step])
            bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(-1, width), axis=1)
            R[b : b + step] = bits[:, :n]
        return R, tuple(8 * width - 1 - lead for lead in leads)


def add(field, X, Y):
    """Entrywise field sum: XOR in characteristic 2, else one flat table lookup."""
    if field.p == 2:
        return X ^ Y
    index = np.multiply(X, field.order, dtype=np.intp)
    index += Y  # in place, so Y broadcasts to X's shape: one intp temporary, not two
    return np.take(field.add_table, index)


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
    free = np.delete(np.arange(ncols), P)  # not np.setdiff1d, whose np.unique imports numpy.ma
    H = np.zeros((len(free), ncols), dtype=np.uint16)
    H[np.arange(len(free)), free] = 1
    H[:, P] = field.neg_table[G[:, ::-1][:, free].T]
    return H


@functools.cache
def _digit_tables(field):
    """field.digits; shifted[a, i, j]: digit j of X^i a, where X^i is the index p^i."""
    weights = field.p ** np.arange(field.k)
    shifted = np.stack([field.digits[field.mul_table[w]] for w in weights], axis=1)
    return field.digits, shifted, weights.astype(np.uint16)


def matmul(field, A, B):
    """Matrix product over the field; A is (m, t), B is (t, n).

    In characteristic 2 field addition is XOR of element indices, so a
    product with one row or one column is a mul_table gather and an XOR
    reduction, _BLOCK gathered entries at a time.  Every other product runs
    in BLAS: with A = sum_i X^i A_i over its digit planes A_i (GF(p)-valued),
    digit j of AB is sum_i A_i D_ij mod p, where D_ij is digit plane j of
    X^i B.  So one BLAS product [A_0 .. A_(k-1)] [D_ij] gives every digit.
    Its entries are integers at most k t (p-1)^2, exact in float32 below
    2^24 and in float64 below 2^53: nothing is ever rounded.  The shifted
    planes are built for the smaller outer side, a block of columns at a
    time to bound the temporaries.
    """
    A, B = as_matrix(A), as_matrix(B)
    assert A.shape[1] == B.shape[0], f"shape mismatch {A.shape} x {B.shape}"
    if field.p == 2 and 1 in (A.shape[0], B.shape[1]):
        row = A.shape[0] == 1
        a, M = (A[0], B) if row else (B[:, 0], A.T)  # out = sum_r a[r] M[r]
        out = np.zeros(M.shape[1], dtype=np.uint16)
        step = max(1, _BLOCK // max(M.shape[1], 1))
        for r in range(0, len(a), step):
            out ^= np.bitwise_xor.reduce(field.mul_table[a[r : r + step, None], M[r : r + step]], axis=0)
        return out[None, :] if row else out[:, None]
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


# reduce_row and RREFAccumulator have no caller in castleqec; perfbench/tracer.py patches both by name.
def reduce_row(field, R, pivots, v):
    """Reduce v against an RREF basis: v - v[P] R, zero iff v is in the row space."""
    v = np.asarray(v, dtype=np.uint16)
    return add(field, v, field.neg_table[matmul(field, v[None, list(pivots)], R)[0]])


class RREFAccumulator:
    """Maintains a canonical RREF basis under one-row-at-a-time insertion.

    After every successful insert, snapshot() equals rref() of all rows
    inserted so far.
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
