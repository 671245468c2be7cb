"""Exact arithmetic in small finite fields GF(p^k), order at most 1024.

An element is an integer index in 0..q-1: the index sum(c_i * p^i) stands for
the residue class sum(c_i * X^i) modulo the defining polynomial.  This module
alone reads indices as base-p digits (Field.digits); every table and every
embedding is built from them.  Every presentation detail is canonical --
lexicographically smallest monic irreducible modulus, smallest-index
primitive element, smallest-index embedding image -- so that anything
serialized (generator matrices, twist vectors) reproduces bit for bit across
runs and machines.

Arithmetic is table-based: full add/mul tables plus discrete log/antilog
tables, all small numpy arrays.  That caps the supported order but makes
every operation O(1) and trivially auditable.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 1024
_BLOCK = 1 << 18  # scaled big-field entries that Embedding.trace_rows traces at once


class UnsupportedFieldError(ValueError):
    """Requested field order is not a prime power within the supported range."""


def _factor(n):
    """Prime factorization as {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q):
    """Split q into (p, k) with q = p^k, p prime; gate on MAX_ORDER."""
    if not isinstance(q, int) or q < 2:
        raise UnsupportedFieldError(f"field order must be an integer >= 2, got {q!r}")
    if q > MAX_ORDER:
        raise UnsupportedFieldError(f"field order {q} exceeds supported bound {MAX_ORDER}")
    fac = _factor(q)
    if len(fac) != 1:
        raise UnsupportedFieldError(f"field order {q} is not a prime power")
    (p, k), = fac.items()
    return p, k


# Polynomials over GF(p) are coefficient tuples, lowest degree first.

def _poly_mod(a, b, p):
    """Remainder of a modulo monic b, coefficients mod p."""
    a = [c % p for c in a]
    db = len(b) - 1
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
    return tuple(a[:db])


def _is_irreducible(poly, p):
    """Trial division of a monic polynomial by all monic divisors of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_mod(poly, tail + (1,), p)):
                return False
    return True


def _canonical_modulus(p, k):
    """Lex-smallest monic irreducible of degree k over GF(p).

    Coefficient tuples (c_0, ..., c_{k-1}) are compared with the constant term
    most significant, which is exactly itertools.product iteration order.
    """
    for tail in itertools.product(range(p), repeat=k):
        poly = tail + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class Field:
    """GF(p^k) with canonical presentation and table-based arithmetic.

    digits[a, i] is the coefficient of X^i in a.  Multiplying by X is a shift
    of the digits and one subtraction of the modulus, done for every element
    at once; c a for every a is then the sum of c_i X^i a.  The primitive
    element is the first c whose orbit through 1 has length q - 1, and that
    orbit is the exp table; every other table follows from exp and the digits.

    Do not instantiate directly; use GF(q) so that equal orders share one
    object (field identity is object identity everywhere downstream).
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.order = q = p ** k
        self.modulus = _canonical_modulus(p, k)
        weights = p ** np.arange(k)
        self.digits = (np.arange(q)[:, None] // weights % p).astype(np.uint16)  # digits[a, i]: X^i in a
        d = self.digits.astype(np.int64)

        # X a for every a: shift the digits up one place, then subtract the top digit times the modulus
        times_x = (np.pad(d[:, :-1], ((0, 0), (1, 0))) - d[:, -1:] * self.modulus[:k]) % p @ weights
        x_pow_times = [np.arange(q)]  # X^i a for every a, i < k
        for _ in range(k - 1):
            x_pow_times.append(times_x[x_pow_times[-1]])
        shifted = d[np.stack(x_pow_times)]  # shifted[i, a, j]: digit j of X^i a

        # the canonical primitive element: the first c whose orbit through 1 has length q - 1
        for c in range(1, q):
            times_c = (np.tensordot(d[c], shifted, axes=1) % p @ weights).tolist()  # c a = sum c_i X^i a
            orbit = [1]
            while (e := times_c[orbit[-1]]) != 1:
                orbit.append(e)
            if len(orbit) == q - 1:
                break
        self.primitive = c
        self.exp = exp = np.array(orbit, dtype=np.uint16)
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        self.log = log

        add = np.zeros((q, q), dtype=np.int64)
        for w, di in zip(weights, d.T):
            add += w * ((di[:, None] + di[None, :]) % p)
        self.add_table = add.astype(np.uint16)
        self.neg_table = (-d % p @ weights).astype(np.uint16)

        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        self.mul_table = mul

        inv = np.zeros(q, dtype=np.uint16)
        inv[exp] = exp[(q - 1 - np.arange(q - 1)) % (q - 1)]
        self.inv_table = inv

    # -- scalar arithmetic on element indices -------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return int(self.inv_table[a])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return int(self.exp[(int(self.log[a]) * e) % (self.order - 1)])

    def pow_table(self, e):
        """Array P with P[a] = a^e for every element index a (0^0 = 1)."""
        q = self.order
        if e == 0:
            return np.ones(q, dtype=np.uint16)
        P = np.zeros(q, dtype=np.uint16)
        nz = np.arange(1, q)
        P[nz] = self.exp[(self.log[nz].astype(np.int64) * (e % (q - 1))) % (q - 1)]
        return P

    def sqrt_order(self):
        """sqrt(q) for a square order q: the hermitian conjugation exponent."""
        if self.k % 2:
            raise ValueError(f"hermitian duality needs a square field order, not {self.order}")
        return self.p ** (self.k // 2)

    def poly_values(self, coeffs):
        """Array V with V[a] = sum of coeffs[e] a^e for every element index a, by Horner's rule."""
        t = np.arange(self.order)
        vals = np.zeros(self.order, dtype=np.uint16)
        for c in reversed(coeffs):
            vals = self.add_table[self.mul_table[vals, t], c]
        return vals

    def __repr__(self):
        return f"GF({self.order})"


_FIELDS = {}


def GF(q):
    """The field of order q (cached; field identity is object identity)."""
    p, k = prime_power(q)
    if q not in _FIELDS:
        _FIELDS[q] = Field(p, k)
    return _FIELDS[q]


def json_int(value, what):
    """A descriptor integer: a JSON int, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_ints(values, what):
    """A descriptor list of integers, each checked by json_int."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return [json_int(v, what) for v in values]


def field_from_json(obj):
    """Rebuild a field from its JSON descriptor, validating the canonical modulus."""
    try:
        p, k = json_int(obj["p"], "p"), json_int(obj["k"], "k")
        modulus = None if "modulus" not in obj else json_ints(obj["modulus"], "modulus")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed field descriptor: {obj!r}") from exc
    if k < 1:
        raise UnsupportedFieldError(f"extension degree must be >= 1, got {k}")
    if p ** min(k, MAX_ORDER.bit_length()) > MAX_ORDER:  # before factoring p
        raise UnsupportedFieldError(f"field order {p}^{k} exceeds supported bound {MAX_ORDER}")
    if _factor(p) != {p: 1}:
        raise UnsupportedFieldError(f"{p} is not prime")
    F = GF(p ** k)
    if modulus is not None and tuple(modulus) != F.modulus:
        raise ValueError(
            f"modulus {modulus} is not the canonical modulus {list(F.modulus)} for GF({p}^{k})"
        )
    return F


class Embedding:
    """The canonical embedding GF(p^j) -> GF(p^k) for j | k.

    Each root r of the small field's modulus in the big field gives one
    embedding, a -> sum of digit_i(a) r^i.  The canonical one maps the small
    field's primitive element to the smallest index: the smallest element of
    the big field sharing its minimal polynomial.  Into itself a field embeds
    by the identity, since its primitive element is the smallest of its
    conjugates.  Also provides the trace back down, as one lookup table.
    """

    def __init__(self, small, big):
        if small.p != big.p or big.k % small.k != 0:
            raise ValueError(f"{small!r} does not embed into {big!r}")
        self.small = small
        self.big = big
        self.ratio = big.k // small.k
        q0, q = small.order, big.order

        def image(r):  # the embedding sending X to the root r: a -> sum of digit_i(a) r^i
            out = np.zeros(q0, dtype=np.uint16)
            for i, d in enumerate(small.digits.T):
                out = big.add_table[out, big.mul_table[d, big.pow(int(r), i)]]
            return out

        roots = np.flatnonzero(big.poly_values(small.modulus) == 0)
        self.fwd = fwd = min(map(image, roots), key=lambda f: f[small.primitive])

        back = np.full(q, -1, dtype=np.int32)
        back[fwd] = np.arange(q0, dtype=np.int32)
        self._back = back

        self._alpha_pows = big.exp[: self.ratio]  # alpha^j for j < ratio

        # trace_table[a] = Tr(a) = sum of a^(q0^i) for i < ratio, as a small-field index
        frob = big.pow_table(q0)
        acc = t = np.arange(q, dtype=np.uint16)
        for _ in range(self.ratio - 1):
            t = frob[t]
            acc = big.add_table[acc, t]
        self.trace_table = self.project_vec(acc)

    def project_vec(self, arr):
        s = self._back[arr]
        if (s < 0).any():
            raise ValueError("vector has entries outside the embedded subfield")
        return s.astype(np.uint16)

    def trace_vec(self, arr):
        """Coordinatewise trace of an array of big-field indices, as small-field indices."""
        return self.trace_table[np.asarray(arr)]

    def trace_rows(self, M):
        """Rows Tr(alpha^j g) for each row g of M and each j < ratio, g-major.

        The rows of M are scaled and traced a block at a time, at most
        _BLOCK scaled entries at once.
        """
        M = np.asarray(M, dtype=np.uint16)
        (k, n), r = M.shape, self.ratio
        out = np.empty((k * r, n), dtype=np.uint16)
        step = max(1, _BLOCK // max(r * n, 1))
        for b in range(0, k, step):
            scaled = self.big.mul_table[self._alpha_pows[None, :, None], M[b : b + step, None, :]]
            out[b * r : (b + step) * r] = self.trace_vec(scaled).reshape(-1, n)
        return out


_EMBEDDINGS = {}


def embedding(small, big):
    """Cached canonical embedding of one field into another."""
    key = (small.order, big.order)
    if key not in _EMBEDDINGS:
        _EMBEDDINGS[key] = Embedding(small, big)
    return _EMBEDDINGS[key]
