"""Curve builders, small utilities and test oracles shared across the test suite.

The oracles at the bottom compute, along routes of their own, what tests
compare the package against; no command runs them.
"""

import functools
import itertools
import math

import numpy as np

from castleqec import codes, kernels, linalg
from castleqec.agcodes import DualityCertificate
from castleqec.codes import LinearCode
from castleqec.curves import CATALOGUE, EvaluationSet, curve_from_json, hyperelliptic_odd
from castleqec.fields import GF, UnsupportedFieldError, embedding, prime_power
from castleqec.quantum import gv_terms

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


def star(code, x):
    """Coordinatewise scaling {x * c : c in C} by a fixed vector x."""
    x = np.asarray(x, dtype=np.uint16)
    if x.shape != (code.n,):
        raise ValueError("scaling vector length mismatch")
    return LinearCode(code.field, code.n, code.field.mul_table[code.matrix, x[None, :]])


def twist_root(F, cert, qt):
    """y with y^(q~+1) = x entrywise for the certified twist x, or None.

    An exactly self-dual flag is the twist-free case and gives None.  The
    root exists only when x takes values in the index-(q~+1) subfield.
    Construction B's code is y * C_i; the package never builds it.
    """
    if cert.status == "self-dual":
        return None
    x = cert.twist
    if not (F.pow_table(qt)[x] == x).all():
        raise ValueError("twist is not valued in the hermitian base field")
    y = x.copy()
    y[x != 0] = F.exp[F.log[x[x != 0]] // (qt + 1)]
    return y


def poly_with_roots(F, roots):
    """Coefficients of prod over roots c of (t - c), low degree first."""
    poly = [1]
    for c in roots:
        nxt = [0] * (len(poly) + 1)
        nc = F.neg(c)
        for i, coef in enumerate(poly):
            nxt[i + 1] = F.add(nxt[i + 1], coef)
            nxt[i] = F.add(nxt[i], F.mul(nc, coef))
        poly = nxt
    return poly


def minimal_polynomial(F, a):
    """Minimal polynomial of a over GF(p), as an integer tuple, low degree first."""
    conjugates = []
    c = a
    while c not in conjugates:
        conjugates.append(c)
        c = F.pow(c, F.p)
    poly = poly_with_roots(F, conjugates)
    assert all(c < F.p for c in poly), "minimal polynomial must be prime-field valued"
    return tuple(int(c) for c in poly)


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
    return poly_with_roots(ev.field, ev.U)


def kernel_functions(ev, m):
    """Basis of ker(ev) on L(mQ): phi times a basis of L((m - n)Q).

    Each function is a list of (coefficient, exponent tuple) monomial
    terms; there are exactly abundance(m) of them.
    """
    phi, j = phi_coefficients(ev), ev.fibration_index
    return [
        [(c, expo[:j] + (expo[j] + d,) + expo[j + 1 :]) for d, c in enumerate(phi) if c]
        for _, expo in ev.curve.basis_exponents(m - ev.n)
    ]


def evaluate_function(ev, terms):
    """Evaluate a list of (coefficient, exponent tuple) terms at the points."""
    coeffs = np.array([[c for c, _ in terms]], dtype=np.uint16)
    return linalg.matmul(ev.field, coeffs, ev.monomial_rows([e for _, e in terms]))[0]


def certify_duality_by_rows(evset):
    """certify_duality row by row: the dimension complements at each element
    of the dimension set, then every basis row of L((n + 2g - 2)Q), a block
    at a time, against the residue twist."""
    S = evset.curve.semigroup
    n, g = evset.n, S.genus
    top = n + 2 * g - 2
    for m in S.dimension_set(n):
        if m <= top and S.ell(m) - S.ell(m - n) + S.ell(top - m) - S.ell(top - m - n) != n:
            return DualityCertificate("unverified", reason=f"dim C({m}Q) + dim C({top - m}Q) != n = {n}")
    x = evset.residue_twist()
    if x is None:
        return DualityCertificate("unverified", reason=f"the curve records no side for fibration {evset.fibration}")
    expos = [e for _, e in evset.curve.basis_exponents(min(top, evset.dimension_set()[-1]))]
    block = max(1, (1 << 22) // (8 * n))
    for b in range(0, len(expos), block):
        if linalg.matmul(evset.field, evset.monomial_rows(expos[b : b + block]), x[:, None]).any():
            return DualityCertificate("unverified", reason=f"the residue twist is not orthogonal to C({top}Q)")
    if (x == 1).all():
        return DualityCertificate("self-dual")
    return DualityCertificate("formally-self-dual", x)


def self_orthogonal_by_gram(code, mode):
    """Whether the whole Gram product of C's rows with their (conjugated, for hermitian) copies vanishes, whatever k."""
    M = code.matrix
    other = M if mode == "euclidean" else code.field.pow_table(code.field.sqrt_order())[M]
    return not linalg.matmul(code.field, M, other.T).any()


def gv_status_by_summing(n, k, d, q):
    """gv_status recomputed term by term: the sum grows with d' until it
    reaches the left side, so d_max is the last d' whose sum stays below."""
    if not (n > k >= 2 and d >= 2 and (n - k) % 2 == 0):
        return "not-applicable", None
    lhs, _ = gv_terms(n, k, 1, q)
    d_max = 1
    rhs = 0
    for dp in range(2, n + 2):
        rhs += (q * q - 1) ** (dp - 2) * math.comb(n, dp - 1)
        if lhs > rhs:
            d_max = dp
        else:
            break
    if d < d_max:
        return "below", d_max
    if d == d_max:
        return "meets", d_max
    return "exceeds", d_max
