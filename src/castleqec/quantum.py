"""Quantum stabilizer codes derived from classical linear codes.

One CSS step serves every construction: nested pairs, self-orthogonal
codes, and hermitian self-orthogonal codes over square-order fields.  One
scan runs it along a certified (twisted) self-dual flag for the sequence
constructions A, B and C; its per-level step, level_step, also builds every
sequence row of the reproduction manifest.  Construction B's code y * C_i
is never built: its gate is the x-twisted hermitian form on C_i, and its
weights are C_i's.  Classification against the
quantum Gilbert-Varshamov threshold uses exact integer arithmetic.

Distances are exact whenever the enumeration budget allows; otherwise the
parameter object carries d = None and callers substitute a certified lower
bound, flagging the provenance.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import linalg
from .agcodes import dual_distance_bound, past_top
from .codes import normalizer_min_weight, relative_min_weight, work_budget


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


def level_step(seq, construction):
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
    C_i <= C_i^perpH.  The gate of B is the x-twisted hermitian form on C_i,
    since <y a, y b>_H = sum x a b^q~: y exists iff x is valued in F_{q~},
    and y * C_i has C_i's weights, as y has no zero entry.  So every gate is
    one form B(a, b) = a . b', with b' = x * b for C, x * b^q~ for B and
    b^q~ for A and "hermitian" (x = 1 on an exactly self-dual flag).  The
    flag's certificate, seq.cert, gives B(f_s, f_t) = 0 for basis functions
    with m_s + e m_t <= n + 2g - 2, e = 1 for C and q~ otherwise
    (agcodes.past_top), so only the rows and columns of the other pairs are
    multiplied, and the C gate multiplies none; "hermitian" on a twisted
    flag pairs all rows.  Every gate is incremental too: the step keeps the
    highest level j whose gate held, so a level at or below it passes with
    no product (a subcode of a self-orthogonal code is self-orthogonal), and
    a level above it pairs only its new rows B[j:i] with B[:i], in any order
    of calls.

    A step builds no code but C_i, for every construction, and only when
    its q^i words are in budget; it asks the sequence for no other level.
    C_(n-i) is the certified dual x^-1 * C_i^perp, and C_i <= C_(n-i) says
    x * C_i is orthogonal to C_i.  The Z side (C_(n-i)^perp, C_i^perp) =
    x * (C_i, C_(n-i)) has the X side's weights, so the X side alone gives
    d.  The partner, C_(n-i) or C_i^perpH, is never built: its dual, x * C_i
    or C_i^[q~], has C_i's weights, so its own are their MacWilliams
    transform.  step(0) is the trivial [[n, n, 1]] code.  Distances are
    exact when C_i's q^i words are in budget, else the certified lower
    bound on d(C_i^perp).
    """
    if construction not in ("A", "B", "C", "hermitian"):
        raise ValueError(f"unknown construction {construction!r}")
    ev, n, cert = seq.evset, seq.n, seq.cert
    F = ev.field
    euclidean = construction == "C"
    q = F.order if euclidean else F.sqrt_order()
    if construction == "A" and cert.status != "self-dual":
        # a nonconstant twist x already separates C_1^perp = 1^perp from
        # C_(n-1) = x^perp, so the flag fails at its first pole order
        raise ValueError(
            f"construction A needs an exactly self-dual sequence; "
            f"{ev.curve.tag} first fails at m={seq.ms[0]}"
        )
    x = cert.twist if construction in ("B", "C") else None
    if construction == "B" and x is not None and not (F.pow_table(q)[x] == x).all():
        # y with y^(q~+1) = x exists only when x takes values in F_{q~}
        raise ValueError("twist is not valued in the hermitian base field")
    certified = construction != "hermitian" or cert.status == "self-dual"
    ms = np.array(seq.ms)
    held = 0  # the highest level whose gate held

    def step(i):
        nonlocal held
        if i == 0:
            return QuantumParams(n, n, 1, q, "exact", construction)
        if 2 * i > n:  # C_i <= C_(n-i) and C_i <= C_i^perpH both need 2i <= n
            return None
        if i > held:
            rows = seq.rows(i)
            s0, t0 = held, 0  # the new rows B[s0:i] are paired with B[t0:i]
            if certified:  # the pairs past top fill a trailing block, as the pole orders increase
                live = past_top(ev, ms[held:i], ms[:i], 1 if euclidean else q)
                s0, t0 = i - int(live[:, -1].sum()), i - int(live[-1].sum())
            if s0 < i:
                partner_dual = rows[t0:] if euclidean else F.pow_table(q)[rows[t0:]]
                if x is not None:
                    partner_dual = F.mul_table[partner_dual, x[None, :]]
                if linalg.matmul(F, rows[s0:], partner_dual.T).any():
                    if euclidean:
                        raise ValueError(f"{ev.curve.tag}: C_{i} is not in its certified partner C_{n - i}")
                    return None
            held = i
        if F.order**i > work_budget():  # C_i's words are over budget: no code is built
            params = QuantumParams(n, n - 2 * i, None, q, "lower-bound", construction)
        else:
            params = _stabilizer_css(seq.level(i), q, construction)
        return params.with_bound(dual_distance_bound(ev, seq.pole_of_level(i), cert))

    return step


def scan_sequence(seq, construction, max_i=None):
    """One quantum code per admissible level of a code sequence, in level order.

    Runs level_step from i = 0 until its gate closes; levels past max_i are
    not visited.  Returns [(i, QuantumParams)], starting with the trivial
    [[n, n, 1]] code at i = 0.
    """
    if max_i is None:
        max_i = seq.n
    elif max_i < 0:
        raise ValueError(f"max_i must be nonnegative, got {max_i}")
    step = level_step(seq, construction)
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
    rhs, term = 0, n  # term = (q^2-1)^(i-1) C(n, i), updated by the ratio of consecutive terms
    for i in range(1, d):
        rhs += term
        term = term * (q * q - 1) * (n - i) // (i + 1)
    return lhs, rhs


_GV_SUMS = {}  # (n, q) -> the partial sums gv_status has needed so far, and the next summand


def gv_status(n, k, d, q):
    """Classify [[n, k, d]]_q against the quantum Gilbert-Varshamov threshold.

    Applicable when n > k >= 2, d >= 2 and n = k (mod 2).  d' is feasible when
    (q^(n-k+2) - 1)/(q^2 - 1) > sum_{i=1}^{d'-1} (q^2-1)^(i-1) C(n, i); d_max
    is the largest feasible d' (or 1 when even d' = 2 fails), found by bisecting
    the sums for (n, q), kept and extended as far as a left side needs them.
    Returns (status, d_max) with status "below", "meets", "exceeds" or
    "not-applicable".
    """
    if not (n > k >= 2 and d >= 2 and (n - k) % 2 == 0):
        return "not-applicable", None
    lhs, _ = gv_terms(n, k, 1, q)
    # sums[j] = sum_{i=1}^{j} (q^2-1)^(i-1) C(n, i), and term is the summand for i = len(sums)
    sums, term = _GV_SUMS.get((n, q), ([0], n))
    while len(sums) <= n and sums[-1] < lhs:
        i = len(sums)
        sums.append(sums[-1] + term)
        term = term * (q * q - 1) * (n - i) // (i + 1)
    _GV_SUMS[(n, q)] = sums, term
    d_max = bisect.bisect_left(sums, lhs, 1)
    if d < d_max:
        return "below", d_max
    if d == d_max:
        return "meets", d_max
    return "exceeds", d_max
