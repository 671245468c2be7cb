"""Quantum stabilizer codes derived from classical linear codes.

One CSS step serves every construction: nested pairs, self-orthogonal
codes, and hermitian self-orthogonal codes over square-order fields.  One
scan runs it along a certified (twisted) self-dual flag for the sequence
constructions A, B and C; its per-level step, level_step, also builds every
sequence row of the reproduction manifest.  Classification against the
quantum Gilbert-Varshamov threshold uses exact integer arithmetic.

Distances are exact whenever the enumeration budget allows; otherwise the
parameter object carries d = None and callers substitute a certified lower
bound, flagging the provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .agcodes import dual_distance_bound
from .codes import normalizer_min_weight, relative_min_weight


@dataclass
class QuantumParams:
    """An [[n, k, d]]_q stabilizer code's parameters.

    d is None when the distance could not be computed exactly within budget;
    d_provenance is "exact" or "lower-bound" accordingly.
    """

    n: int
    k: int
    d: int | None
    q: int
    d_provenance: str
    construction: str

    def __str__(self):
        d = "?" if self.d is None else self.d
        return f"[[{self.n},{self.k},{d}]]_{self.q}"

    def with_bound(self, bound):
        """Fill in a certified lower bound when the exact distance is missing."""
        if self.d is not None:
            return self
        return QuantumParams(self.n, self.k, int(bound), self.q, "lower-bound", self.construction)


def _css(n, k, q, found, construction):
    """The CSS step behind every construction: parameters from its sides.

    found yields (d, status) per side, the X side first and then the Z side
    when it differs; d is their least.  A side not computed leaves d
    uncomputed, so the sides after it are never built.
    """
    d = None
    for w, status in found:
        if status != "exact":
            d = None
            break
        d = w if d is None else min(d, w)
    return QuantumParams(n, k, d, q, "exact" if d is not None else "lower-bound", construction)


def _nested_sides(c1, c2):
    """d over C2 minus C1, then over C1^perp minus C2^perp, whose duals are built only if asked for."""
    yield relative_min_weight(c1, c2)
    yield relative_min_weight(c2.dual(), c1.dual())


def css_nested(c1, c2):
    """CSS code of a nested pair C1 <= C2 over F_q: [[n, k2 - k1]]_q.

    d = min weight over (C2 minus C1) and (C1^perp minus C2^perp); for k = 0
    the convention is the minimum weight of the normalizer, d(C1^perp).
    """
    if c1.field is not c2.field or c1.n != c2.n:
        raise ValueError("CSS needs two codes on the same space")
    if not c1 <= c2:
        raise ValueError("CSS needs nested codes")
    k = c2.dimension - c1.dimension
    found = _nested_sides(c1, c2) if k else [c1.dual().min_weight()]  # C2^perp = C1^perp
    return _css(c1.n, k, c1.field.order, found, "css")


def _stabilizer_css(code, q, construction):
    """The CSS code of stabilizer C in a normalizer N with C's weights on N^perp: d costs C's q^k words."""
    n = code.n
    return _css(n, n - 2 * code.dimension, q, [normalizer_min_weight(code)], construction)


def css_self_orthogonal(code):
    """CSS code of a self-orthogonal C <= C^perp: [[n, n - 2k, wt(C^perp - C)]]_q."""
    if not code.is_self_orthogonal():
        raise ValueError("code is not self-orthogonal")
    return _stabilizer_css(code, code.field.order, "css")


def css_hermitian(code):
    """Hermitian construction: C <= C^perpH over F_{q~^2} gives [[n, n-2k]]_{q~}."""
    if not code.is_self_orthogonal("hermitian"):
        raise ValueError("code is not hermitian self-orthogonal")
    return _stabilizer_css(code, code.field.sqrt_order(), "hermitian")


def _twist_root(F, cert, qt):
    """y with y^(q~+1) = x entrywise for the certified twist x, or None.

    An exactly self-dual flag is the twist-free case and gives None.  The
    root exists only when x takes values in the index-(q~+1) subfield.
    """
    if cert.status == "self-dual":
        return None
    x = cert.twist
    if not (F.pow_table(qt)[x] == x).all():
        raise ValueError("twist is not valued in the hermitian base field")
    y = x.copy()
    y[x != 0] = F.exp[F.log[x[x != 0]] // (qt + 1)]
    return y


def _twisted_rows(level, twist):
    """Generator rows of x * C_i; C_i's own rows on an exactly self-dual flag."""
    if twist is None:
        return level.matrix
    return level.field.mul_table[level.matrix, twist[None, :]]


def _in_certified_partner(level, twist):
    """C_i <= C_(n-i) = x^-1 * C_i^perp as one i x i Gram product: x * C_i is orthogonal to C_i."""
    return not linalg.matmul(level.field, _twisted_rows(level, twist), level.matrix.T).any()


def level_step(seq, cert, construction):
    """The per-level step of a sequence construction.

    Returns step(i): the quantum code at level i, or None once the gate of
    the construction closes.  scan_sequence runs it level by level; the
    reproduction manifest calls it at the levels its rows list.
    construction picks the code at level i and its gate:
      "A"          C_i from an exactly self-dual flag, while i + q(i) <= n,
                   with q(i) the least j such that C_i^[q~] <= C_j;
      "B"          y * C_i from a (twisted) self-dual flag, y^(q~+1) = x for
                   the twist x, while it is hermitian self-orthogonal;
      "hermitian"  C_i while it is hermitian self-orthogonal;
    each giving the hermitian construction over F_{q~}, and
      "C"          the nested pair C_i <= C_(n-i) while 2i <= n, over F_q
                   itself (scalar extension to F_{q^2} fixes every C_i).
    The gate of A is tested as hermitian self-orthogonality too: with
    C_(n-i) = C_i^perp, i + q(i) <= n says C_i^[q~] <= C_i^perp, which is
    C_i <= C_i^perpH.  Every gate is one i x i Gram product.

    A step builds no code but C_i, and asks the sequence for no other
    level.  C_(n-i) is the certified dual x^-1 * C_i^perp, and C_i <= C_(n-i)
    says x * C_i is orthogonal to C_i.  The Z side (C_(n-i)^perp, C_i^perp)
    = x * (C_i, C_(n-i)) has the X side's weights, so the X side alone gives
    d.  The partner, C_(n-i) or C_i^perpH, is never built: its dual, x * C_i
    or C_i^[q~], has C_i's weights, so its own are their MacWilliams
    transform.  step(0) is the trivial [[n, n, 1]] code.  Distances are
    exact when C_i's q^i words are in budget, else the certified lower
    bound on d(C_i^perp).
    """
    if construction not in ("A", "B", "C", "hermitian"):
        raise ValueError(f"unknown construction {construction!r}")
    ev, n = seq.evset, seq.n
    F = ev.field
    euclidean = construction == "C"
    q = F.order if euclidean else F.sqrt_order()
    if construction != "hermitian" and cert.status == "unverified":
        raise ValueError(f"duality certification failed for {ev.curve.tag}: {cert.reason}")
    if construction == "A" and cert.status != "self-dual":
        # a nonconstant twist x already separates C_1^perp = 1^perp from
        # C_(n-1) = x^perp, so the flag fails at its first pole order
        raise ValueError(
            f"construction A needs an exactly self-dual sequence; "
            f"{ev.curve.tag} first fails at m={seq.ms[0]}"
        )
    y = _twist_root(F, cert, q) if construction == "B" else None

    def step(i):
        if i == 0:
            return QuantumParams(n, n, 1, q, "exact", construction)
        if 2 * i > n:  # C_i <= C_(n-i) and C_i <= C_i^perpH both need 2i <= n
            return None
        level = seq.level(i) if y is None else seq.level(i).star(y)
        if euclidean:
            if not _in_certified_partner(level, cert.twist):
                raise ValueError(f"{ev.curve.tag}: C_{i} is not in its certified partner C_{n - i}")
        elif not level.is_self_orthogonal("hermitian"):
            return None
        params = _stabilizer_css(level, q, construction)
        return params.with_bound(dual_distance_bound(ev, seq.pole_of_level(i), cert))

    return step


def scan_sequence(seq, cert, construction, max_i=None):
    """One quantum code per admissible level of a code sequence, in level order.

    Runs level_step from i = 0 until its gate closes; levels past max_i are
    not visited.  Returns [(i, QuantumParams)], starting with the trivial
    [[n, n, 1]] code at i = 0.
    """
    if max_i is None:
        max_i = seq.n
    elif max_i < 0:
        raise ValueError(f"max_i must be nonnegative, got {max_i}")
    step = level_step(seq, cert, construction)
    out = []
    for i in range(min(max_i, seq.n) + 1):
        params = step(i)
        if params is None:
            break
        out.append((i, params))
    return out


def gv_terms(n, k, d, q):
    """The exact integers compared by the GV threshold at distance d.

    Returns (lhs, rhs) with lhs = (q^(n-k+2) - 1)/(q^2 - 1) and
    rhs = sum_{i=1}^{d-1} (q^2-1)^(i-1) C(n, i); the existence bound asks for
    lhs > rhs.
    """
    lhs = (q ** (n - k + 2) - 1) // (q * q - 1)
    rhs = sum((q * q - 1) ** (i - 1) * math.comb(n, i) for i in range(1, d))
    return lhs, rhs


def gv_status(n, k, d, q):
    """Classify [[n, k, d]]_q against the quantum Gilbert-Varshamov threshold.

    Applicable when n > k >= 2, d >= 2 and n = k (mod 2).  d' is feasible when
    (q^(n-k+2) - 1)/(q^2 - 1) > sum_{i=1}^{d'-1} (q^2-1)^(i-1) C(n, i); d_max
    is the largest feasible d' (or 1 when even d' = 2 fails).  Returns
    (status, d_max) with status "below", "meets", "exceeds" or
    "not-applicable".
    """
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
