"""Linear codes over small finite fields, with exact distance machinery.

A LinearCode is identified with its row space and stored as the reduced row
echelon form of any spanning set, so structural equality is literal matrix
equality.  Weight distributions are exact: full enumeration when q^k fits the
work budget, otherwise enumeration of the dual followed by the MacWilliams
transform in unbounded integers.  Nothing is ever estimated.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from . import kernels, linalg
from .fields import embedding

DEFAULT_BUDGET = 1 << 24
MEMO_CODES = 128  # weight distributions kept, least recently used dropped first


def work_budget():
    """The one enumeration budget, in codewords, that every enumeration gate reads: CASTLEQEC_BUDGET."""
    raw = os.environ.get("CASTLEQEC_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CASTLEQEC_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("CASTLEQEC_BUDGET must be positive")
    return value


class OverBudget(ValueError):
    """An exact distance that a construction cannot do without is over budget."""


class LinearCode:
    """An [n, k] linear code over a small finite field, canonically presented."""

    def __init__(self, field, n, rows=None):
        self.field = field
        self.n = n
        M = linalg.as_matrix([] if rows is None else rows, n)
        if M.shape[1] != n:
            raise ValueError(f"rows of length {M.shape[1]} in a length-{n} code")
        if M.size and int(M.max()) >= field.order:
            raise ValueError(f"entry out of range for {field!r}")
        self.matrix, self.pivots = linalg.rref(field, M, n)

    @classmethod
    def from_rref(cls, field, n, R, pivots=None):
        """The code of a matrix already in RREF, kept as it is: no elimination."""
        code = cls.__new__(cls)
        code.field, code.n, code.matrix = field, n, R
        code.pivots = tuple(int(c) for c in (np.argmax(R != 0, axis=1) if pivots is None else pivots))
        return code

    @classmethod
    def zero(cls, field, n):
        return cls.from_rref(field, n, np.zeros((0, n), dtype=np.uint16), ())

    @classmethod
    def full(cls, field, n):
        return cls(field, n, np.eye(n, dtype=np.uint16))

    @property
    def dimension(self):
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and other.field is self.field
            and other.n == self.n
            and other.matrix.shape == self.matrix.shape
            and bool((other.matrix == self.matrix).all())
        )

    def __hash__(self):
        return hash((id(self.field), self.n, self.matrix.tobytes()))

    def __repr__(self):
        return f"[{self.n}, {self.dimension}] code over {self.field!r}"

    # -- membership and containment -----------------------------------------

    def contains_code(self, other):
        """One product: other's rows V lie in this code iff V[:, P] R == V."""
        self._check_peer(other)
        V = other.matrix
        return bool((linalg.matmul(self.field, V[:, list(self.pivots)], self.matrix) == V).all())

    def __le__(self, other):
        return other.contains_code(self)

    def _check_peer(self, other):
        if other.field is not self.field or other.n != self.n:
            raise ValueError("codes live in different ambient spaces")

    # -- derived codes --------------------------------------------------------

    def dual(self):
        return LinearCode.from_rref(self.field, self.n, linalg.kernel_basis(self.field, self.matrix, self.n))

    def frobenius_power(self, e):
        """The code {c^e : c in C} for e a power of the characteristic."""
        p = self.field.p
        m = e
        while m > 1 and m % p == 0:
            m //= p
        if m != 1:
            raise ValueError(f"{e} is not a power of the characteristic {p}")
        P = self.field.pow_table(e)  # a field automorphism: it keeps the RREF shape
        return LinearCode.from_rref(self.field, self.n, P[self.matrix], self.pivots)

    def hermitian_dual(self):
        """Dual under <u, v>_H = sum u_i v_i^sqrt(q); field order must be a square."""
        return self.frobenius_power(self.field.sqrt_order()).dual()

    def star(self, x):
        """Coordinatewise scaling {x * c : c in C} by a fixed vector x."""
        x = np.asarray(x, dtype=np.uint16)
        if x.shape != (self.n,):
            raise ValueError("scaling vector length mismatch")
        return LinearCode(self.field, self.n, self.field.mul_table[self.matrix, x[None, :]])

    def is_self_orthogonal(self, mode="euclidean"):
        """Whether C is contained in its (Euclidean or Hermitian) dual."""
        if self.dimension == 0:
            return True
        if mode == "euclidean":
            other = self.matrix
        elif mode == "hermitian":
            other = self.field.pow_table(self.field.sqrt_order())[self.matrix]
        else:
            raise ValueError(f"unknown orthogonality mode {mode!r}")
        return not linalg.matmul(self.field, self.matrix, other.T).any()

    def trace_code(self, small):
        """The code {(Tr(c_1), ..., Tr(c_n)) : c in C} over the subfield."""
        return LinearCode(small, self.n, embedding(small, self.field).trace_rows(self.matrix))

    # -- weights ---------------------------------------------------------------

    def weights(self):
        """Exact weights: direct if q^k is in budget, else MacWilliams of the dual's q^(n-k), else None."""
        q, n, k = self.field.order, self.n, self.dimension
        budget = work_budget()
        if q ** k <= budget:
            return _Weights(_enumerated(self), q)
        if q ** (n - k) <= budget:
            return _Weights(_enumerated_dual(self), q, q ** (n - k))
        return None

    def weight_distribution(self):
        """Exact [A_0, ..., A_n] as python ints, or None if over budget."""
        w = self.weights()
        if w is None:
            return None
        return [w.coeff(j) for j in range(self.n + 1)]

    def min_weight(self):
        """(d, "exact"), (None, "empty") for the zero code, or (None, "not-computed")."""
        if self.dimension == 0:
            return None, "empty"
        return _first_excess(self.weights(), _Weights((1,) + (0,) * self.n, self.field.order))


def relative_min_weight(sub, sup):
    """Smallest weight in sup minus sub, as (d, status).

    Statuses: "exact" when computed, "empty" when the codes coincide,
    "not-computed" when either weight distribution is over budget.
    """
    sup._check_peer(sub)
    if sub.dimension == sup.dimension:
        return None, "empty"
    return _first_excess(sup.weights(), sub.weights())


def normalizer_min_weight(code):
    """Smallest weight in N minus C for a CSS pair C <= N from C's weights alone, as (d, status).

    Premise: N^perp has C's weights.  It holds for every self-orthogonal
    pair the constructions build: N^perp is C, its Frobenius image C^[q~],
    or x * C for a twist x with no zero entry.  So A(N) is the MacWilliams
    transform of A(C), and one enumeration of C's q^k words gives both.
    For 2k = n, N = C and d is the least nonzero weight of N.  Statuses as
    relative_min_weight: "exact", or "not-computed" when q^k is over budget.
    """
    q, n, k = code.field.order, code.n, code.dimension
    if q ** k > work_budget():
        return None, "not-computed"
    counts = _enumerated(code)
    lower = counts if 2 * k < n else (1,) + (0,) * n  # the zero code's, for 2k = n
    return _first_excess(_Weights(counts, q, q ** k), _Weights(lower, q))


def _first_excess(upper, lower):
    """The least weight in upper minus lower < upper from their weights (None: over budget), as (d, status)."""
    if upper is None or lower is None:
        return None, "not-computed"
    for j in range(1, upper.n + 1):
        if upper.coeff(j) > lower.coeff(j):
            return j, "exact"
    raise AssertionError("a larger code with no word outside the smaller one")


class _Weights:
    """Exact weight-distribution coefficients of one code, from enumerated counts.

    mode "direct": vec is the code's own counts.  mode "mac": vec is the
    counts of a dual of dual_size words, and each coefficient is their
    MacWilliams transform, cached, so asking for the first few A_j of a
    huge code stays cheap.
    """

    def __init__(self, vec, q, dual_size=None):
        self.vec, self.q, self.dual_size = vec, q, dual_size
        self.n = len(vec) - 1
        self.mode = "direct" if dual_size is None else "mac"
        self.cache = {}

    def coeff(self, j):
        if self.mode == "direct":
            return self.vec[j]
        if j not in self.cache:
            self.cache[j] = macwilliams_coefficient(
                self.n, self.q, self.vec, self.dual_size, j
            )
        return self.cache[j]


@functools.lru_cache(maxsize=MEMO_CODES)
def _enumerated(code):
    """Weight counts of code, memoized on the canonical code (LinearCode hashes its RREF).

    A code built again costs no enumeration.  Tuples keep the counts immutable.
    """
    return tuple(int(c) for c in kernels.enumerate_weights(code.field, code.matrix))


@functools.lru_cache(maxsize=MEMO_CODES)
def _enumerated_dual(code):
    """Weight counts of code's dual; a hit skips the dual's RREF too."""
    return _enumerated(code.dual())


def krawtchouk(n, q, j, i):
    """The Krawtchouk polynomial value K_j(i) over GF(q), exactly."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(min(i, j) + 1)
    )


def macwilliams_coefficient(n, q, dual_counts, dual_size, j):
    """A_j of a code from the weight distribution of its dual, exactly."""
    total = sum(B_i * krawtchouk(n, q, j, i) for i, B_i in enumerate(dual_counts) if B_i)
    assert total % dual_size == 0, "MacWilliams transform must be integral"
    value = total // dual_size
    assert value >= 0, "weight counts are nonnegative"
    return value
