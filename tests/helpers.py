"""Curve builders, small utilities and test oracles shared across the test suite.

The oracles at the bottom compute, along routes of their own, what tests
compare the package against; no command runs them.
"""

import functools
import itertools

import numpy as np

from castleqec import codes, kernels, linalg
from castleqec.codes import LinearCode
from castleqec.curves import CATALOGUE, EvaluationSet, curve_from_json, hyperelliptic_odd
from castleqec.fields import GF, UnsupportedFieldError, embedding, prime_power

# One builder per named curve of CATALOGUE, each with its own __name__: test
# ids and the keys of per-curve tables come from it.  They build the curve
# alone, so callers choose the fibration and the subset.


def elliptic_gf4():
    return curve_from_json(CATALOGUE["elliptic-gf4"])


def elliptic_gf9():
    return curve_from_json(CATALOGUE["elliptic-gf9"])


def elliptic_gf3():
    return hyperelliptic_odd(GF(3), [1, 2, 0, 1], tag="elliptic-gf3")  # y^2 = x^3 - x + 1


def hermitian_gf9():
    return curve_from_json(CATALOGUE["hermitian-gf9"])


def hermitian_gf16():
    return curve_from_json(CATALOGUE["hermitian-gf16"])


def hyper_even_45():
    return curve_from_json(CATALOGUE["hyper-even-45"])


def maximal_gf81():
    return curve_from_json(CATALOGUE["maximal-gf81"])


def maximal_gf64():
    return curve_from_json(CATALOGUE["maximal-gf64"])


def maximal_2_6():
    return curve_from_json(CATALOGUE["maximal-2-6"])


def twisted_gf9():
    return curve_from_json(CATALOGUE["twisted-gf9"])


def suzuki8():
    return curve_from_json(CATALOGUE["suzuki8"])


def ntq_gf16():
    return curve_from_json(CATALOGUE["ntq-2-4-3"])


def nt_gf8():
    return curve_from_json(CATALOGUE["norm-trace-2-3-7"])


def evset(builder, **kwargs):
    return EvaluationSet(builder(), **kwargs)


def random_code(rng, q, k, n):
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return LinearCode(GF(q), n, rows)


def count_enumerations(monkeypatch):
    """Empty the weight memo; returns the list of G shapes the engine is given from now on."""
    codes._enumerated.cache_clear()
    codes._enumerated_dual.cache_clear()
    seen = []
    original = kernels.enumerate_weights

    def counting(field, G):
        seen.append(G.shape)
        return original(field, G)

    monkeypatch.setattr(kernels, "enumerate_weights", counting)
    return seen


# -- oracles -----------------------------------------------------------------------


def is_subfield_order(field, q0):
    """True iff GF(q0) sits inside field: q0 = p^j with j | k."""
    try:
        p0, j = prime_power(q0)
    except UnsupportedFieldError:
        return False
    return p0 == field.p and field.k % j == 0


def contains_vector(code, v):
    v = np.asarray(v, dtype=np.uint16)
    if v.shape != (code.n,):
        raise ValueError("vector length mismatch")
    return not linalg.reduce_row(code.field, code.matrix, code.pivots, v).any()


@functools.cache
def _coords(emb):
    """Coordinates over the small field in the basis {alpha^j}, alpha the big
    field's primitive element: evaluate all q0^r = q coordinate vectors once
    and invert the bijection by indexing."""
    big, q0, r = emb.big, emb.small.order, emb.ratio
    coords = np.array(list(itertools.product(range(q0), repeat=r)), dtype=np.uint16)
    elems = np.zeros(big.order, dtype=np.uint16)
    for j, a in enumerate(big.exp[:r]):
        elems = big.add_table[elems, big.mul_table[emb.fwd[coords[:, j]], a]]
    table = np.zeros((big.order, r), dtype=np.uint16)
    table[elems] = coords
    return table


def decompose_vec(emb, arr):
    """Coordinates over the small field in basis {alpha^j}: shape (ratio, len(arr))."""
    return _coords(emb)[np.asarray(arr)].T


def subfield_subcode(code, small):
    """The code C intersected with small^n, as a code over the subfield.

    Computed directly: each dual constraint over the big field splits into
    ratio-many constraints over the subfield once the codeword entries are
    known to be subfield-valued.
    """
    emb = embedding(small, code.field)
    H = code.dual().matrix
    if H.shape[0] == 0:
        return LinearCode.full(small, code.n)
    small_rows = np.concatenate([decompose_vec(emb, h.astype(np.int64)) for h in H], axis=0)
    return LinearCode.from_rref(small, code.n, linalg.kernel_basis(small, small_rows, code.n))


def phi_coefficients(ev):
    """Coefficients of phi(t) = prod over U of (t - alpha): the function
    cutting out D as the fibration's totally split fibers."""
    return ev.field.poly_with_roots(ev.U)


def kernel_functions(ev, m):
    """Basis of ker(ev) on L(mQ): phi times a basis of L((m - n)Q).

    Each function is a list of (coefficient, exponent tuple) monomial
    terms; there are exactly abundance(m) of them.
    """
    phi, j = phi_coefficients(ev), ev._fib_idx
    return [
        [(c, expo[:j] + (expo[j] + d,) + expo[j + 1 :]) for d, c in enumerate(phi) if c]
        for _, expo in ev.curve.basis_exponents(m - ev.n)
    ]


def evaluate_function(ev, terms):
    """Evaluate a list of (coefficient, exponent tuple) terms at the points."""
    coeffs = np.array([[c for c, _ in terms]], dtype=np.uint16)
    return linalg.matmul(ev.field, coeffs, ev.monomial_rows([e for _, e in terms]))[0]
