"""Exact arithmetic in small finite fields GF(p^k), order at most 1024.

An element is an integer index in 0..q-1: the index sum(c_i * p^i) stands for
the residue class sum(c_i * X^i) modulo the defining polynomial.  Every
presentation detail is canonical -- lexicographically smallest monic
irreducible modulus, smallest-index primitive element, smallest-index
embedding image -- so that anything serialized (generator matrices, twist
vectors) reproduces bit for bit across runs and machines.

Arithmetic is table-based: full add/mul tables plus discrete log/antilog
tables, all small numpy arrays.  That caps the supported order but makes
every operation O(1) and trivially auditable.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 1024


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

    Do not instantiate directly; use GF(q) so that equal orders share one
    object (field identity is object identity everywhere downstream).
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = _canonical_modulus(p, k)
        q = self.order

        digit_pows = [p ** i for i in range(k)]

        def decode(i):
            return [(i // w) % p for w in digit_pows]

        def encode(cs):
            return sum((c % p) * w for c, w in zip(cs, digit_pows))

        def rawmul(a, b):
            # schoolbook product of two element indices, reduced mod modulus
            da, db = decode(a), decode(b)
            prod = [0] * (2 * k - 1)
            for i, ca in enumerate(da):
                if ca:
                    for j, cb in enumerate(db):
                        prod[i + j] += ca * cb
            return encode(_poly_mod(prod, self.modulus, p))

        def rawpow(a, e):
            r = 1
            while e:
                if e & 1:
                    r = rawmul(r, a)
                a = rawmul(a, a)
                e >>= 1
            return r

        if q == 2:
            g = 1
        else:
            fac = _factor(q - 1)
            g = None
            for cand in range(2, q):
                if all(rawpow(cand, (q - 1) // r) != 1 for r in fac):
                    g = cand
                    break
            assert g is not None, "multiplicative group of a finite field is cyclic"
        self.primitive = g

        exp = np.zeros(q - 1, dtype=np.uint16)
        e = 1
        for i in range(q - 1):
            exp[i] = e
            e = rawmul(e, g)
        assert e == 1, "primitive element order must be q-1"
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        self.exp = exp
        self.log = log

        idx = np.arange(q, dtype=np.int64)
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for i, w in enumerate(digit_pows):
            di = (idx // w) % p
            add += w * ((di[:, None] + di[None, :]) % p)
            neg += w * ((p - di) % p)
        self.add_table = add.astype(np.uint16)
        self.neg_table = neg.astype(np.uint16)

        if q == 2:
            mul = np.array([[0, 0], [0, 1]], dtype=np.uint16)
        else:
            mul = exp[(log[:, None] + log[None, :]) % (q - 1)].copy()
            mul[0, :] = 0
            mul[:, 0] = 0
        self.mul_table = mul

        inv = np.zeros(q, dtype=np.uint16)
        inv[exp] = exp[(q - 1 - np.arange(q - 1)) % (q - 1)]
        self.inv_table = inv

    # -- scalar arithmetic on element indices -------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    def sub(self, a, b):
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a):
        return int(self.neg_table[a])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return int(self.inv_table[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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

    def poly_with_roots(self, roots):
        """Coefficients of prod over roots c of (t - c), low degree first."""
        poly = [1]
        for c in roots:
            nxt = [0] * (len(poly) + 1)
            nc = self.neg(c)
            for i, coef in enumerate(poly):
                nxt[i + 1] = self.add(nxt[i + 1], coef)
                nxt[i] = self.add(nxt[i], self.mul(nc, coef))
            poly = nxt
        return poly

    def minimal_polynomial(self, a):
        """Minimal polynomial over GF(p), as an integer tuple, low degree first."""
        conjugates = []
        c = a
        while c not in conjugates:
            conjugates.append(c)
            c = self.pow(c, self.p)
        poly = self.poly_with_roots(conjugates)
        assert all(c < self.p for c in poly), "minimal polynomial must be prime-field valued"
        return tuple(int(c) for c in poly)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {"p": self.p, "k": self.k, "modulus": [int(c) for c in self.modulus]}

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

    The small field's primitive element maps to the smallest-index element of
    the big field sharing its minimal polynomial; that pins the embedding
    uniquely and reproducibly.  Also provides the trace back down, as one
    lookup table.
    """

    def __init__(self, small, big):
        if small.p != big.p or big.k % small.k != 0:
            raise ValueError(f"{small!r} does not embed into {big!r}")
        self.small = small
        self.big = big
        self.ratio = big.k // small.k
        q0, q = small.order, big.order

        fwd = np.zeros(q0, dtype=np.uint16)
        if small is big:
            fwd = np.arange(q0, dtype=np.uint16)
        else:
            target = small.minimal_polynomial(small.primitive)
            image = None
            for h in range(1, q):
                # cheap prefilter: h must lie in the order-q0 subfield at all
                if (int(big.log[h]) * (q0 - 1)) % (q - 1) != 0:
                    continue
                # sharing g0's (irreducible) minimal polynomial forces h to be a
                # conjugate of the true image, hence of multiplicative order q0-1
                if big.minimal_polynomial(h) == target:
                    image = h
                    break
            assert image is not None, "subfield generator with matching minimal polynomial"
            t = int(big.log[image])
            for i in range(q0 - 1):
                fwd[small.exp[i]] = big.exp[(t * i) % (q - 1)]
        self.fwd = fwd

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
        """Rows Tr(alpha^j g) for each row g of M and each j < ratio, g-major."""
        M = np.asarray(M, dtype=np.uint16)
        scaled = self.big.mul_table[self._alpha_pows[None, :, None], M[:, None, :]]
        return self.trace_vec(scaled).reshape(M.shape[0] * self.ratio, M.shape[1])


_EMBEDDINGS = {}


def embedding(small, big):
    """Cached canonical embedding of one field into another."""
    key = (small.order, big.order)
    if key not in _EMBEDDINGS:
        _EMBEDDINGS[key] = Embedding(small, big)
    return _EMBEDDINGS[key]
