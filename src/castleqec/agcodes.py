"""One-point algebraic-geometry codes and everything built on top of them.

Central objects: the code C(mQ) = ev(L(mQ)) on an evaluation set, the full
nested sequence C_0 < C_1 < ... < C_n, a certificate that the sequence is
(possibly twisted) self-dual, two exact lower bounds on minimum distances,
and descent to subfields by traces.

Everything here is certified by matrix arithmetic over the field; closed-form
expectations (thresholds, genus formulas) live in the tests as oracles.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .codes import LinearCode, OverBudget, work_budget
from .fields import embedding


class OnePointCode:
    """The evaluation code C(mQ) plus its combinatorial metadata."""

    def __init__(self, evset, m):
        self.evset = evset
        self.m = int(m)
        _, rows = evset.basis_rows(self.m)
        self.code = LinearCode(evset.field, evset.n, rows)
        S = evset.curve.semigroup
        expected = S.ell(self.m) - S.ell(self.m - evset.n)
        assert self.code.dimension == expected, "evaluation must drop exactly the kernel"
        self.abundance = evset.abundance(self.m)

    @property
    def n(self):
        return self.evset.n

    @property
    def dimension(self):
        return self.code.dimension

    def order_bound(self):
        return order_bound(self.evset, self.m)

    def goppa_bound(self):
        return goppa_bound(self.evset, self.m)

    def report_row(self):
        """One JSON-friendly summary row for the build CLI."""
        return {
            "curve": self.evset.curve.tag,
            "n": self.n,
            "m": self.m,
            "k": self.dimension,
            "abundance": self.abundance,
            "goppa": self.goppa_bound(),
            "order": self.order_bound(),
            **report_fields(self.code),
        }


def report_fields(code):
    """The closing fields of a build row: d_exact when in budget, then self_orth."""
    row = {}
    d, status = code.min_weight()
    if status == "exact":
        row["d_exact"] = d
    row["self_orth"] = {
        "euclidean": code.is_self_orthogonal("euclidean"),
        "hermitian": code.is_self_orthogonal("hermitian") if code.field.k % 2 == 0 else None,
    }
    return row


def order_bound(evset, m):
    """Feng-Rao floor on d(C(mQ)^perp) from the Weierstrass semigroup."""
    return evset.curve.semigroup.order_bound(m)


def goppa_bound(evset, m):
    """Goppa floor on d(C(mQ)) improved by the gonality sequence.

    d >= n - m' + gamma_(a+1) where a = l(m' - n) counts the kernel, gamma is
    the gonality sequence (gamma_1 = 0, gamma_2 at least ceil(N/(q+1)) because
    a degree-d map to the line covers at most d(q+1) rational points, and
    gamma increases by at least 1 afterwards).  The code C(mQ) equals C(m'Q)
    for every m' up to the next dimension jump, so the best representative in
    that window is taken.  Always at least 1.
    """
    S = evset.curve.semigroup
    n = evset.n
    g = S.genus
    q = evset.field.order
    N = evset.curve.num_rational_points
    gamma2 = max(2, -(-N // (q + 1)))

    def one(mp):
        a = S.ell(mp - n)
        if a == 0:
            gamma = 0
        elif g == 0:
            gamma = a
        else:
            gamma = gamma2 + a - 1
        return n - mp + gamma

    dim_here = S.ell(m) - S.ell(m - n)
    end = m
    while S.ell(end + 1) - S.ell(end + 1 - n) == dim_here:
        end += 1
        if end > m + 2 * g + S.multiplicity + 1:
            break  # full code reached; bounds only degrade beyond
    return max(1, max(one(mp) for mp in range(m, end + 1)))


class CodeSequence:
    """The complete flag C_0 < C_1 < ... < C_n with C_i = C(m_i Q).

    D is the zero divisor of h(phi), whose pole divisor is nQ, so evaluation
    on L(mQ) has kernel h(phi) L((m - n)Q) and the flag grows exactly at the
    dimension set of the semigroup: C_i is spanned by the basis rows B[:i]
    with poles m_1 .. m_i.  Rows are evaluated when first asked for, and no
    level is kept: level(i) builds C_i on each call.

    The flag certifies itself: cert is certify_duality(evset), run once, and
    a set it does not prove is refused with a ValueError.  Under it,
    G = B diag(x) B^T vanishes below its anti-diagonal (m_a + m_b <= n + 2g - 2
    for a + b <= n - 2, from 0), so B[:i] has rank i iff G[a, n - 1 - a] != 0
    for a < i: one product with the mirror row B[n - 1 - a] each, and
    a < n/2 covers all (G = G^T).
    """

    def __init__(self, evset):
        self.evset = evset
        self.cert = certify_duality(evset)
        if self.cert.status == "unverified":
            raise ValueError(f"duality certification failed for {evset.curve.tag}: {self.cert.reason}")
        self.ms = evset.dimension_set()
        poles, expos = evset.curve.basis_table(self.ms[-1])
        self._exponents = list(map(tuple, expos[np.searchsorted(poles, self.ms)].tolist()))
        self._rows = np.zeros((0, evset.n), dtype=np.uint16)  # the basis rows evaluated so far
        self._twist = np.ones(evset.n, dtype=np.uint16) if self.cert.twist is None else self.cert.twist

    @property
    def n(self):
        return self.evset.n

    def rows(self, i):
        """B[:i] in pole order; missing rows are evaluated and proven in one block, at least as many as are held."""
        evaluated = len(self._rows)
        if i > evaluated:
            rows = np.concatenate(
                [self._rows, self.evset.monomial_rows(self._exponents[evaluated : max(i, 2 * evaluated)])]
            )
            self._prove(rows, evaluated, min(len(rows), (self.n + 1) // 2))
            self._rows = rows
        return self._rows[:i]

    def _prove(self, rows, a, count):
        """Check that G[b, n - 1 - b] != 0 for a <= b < count."""
        if a >= count:
            return
        F = self.evset.field
        mirrors = self.evset.monomial_rows([self._exponents[self.n - 1 - b] for b in range(a, count)])
        entries = linalg.matmul(F, F.mul_table[rows[a:count], mirrors], self._twist[:, None])[:, 0]
        if not entries.all():
            j = a + int(np.flatnonzero(entries == 0)[0])
            raise AssertionError(f"{self.evset.curve.tag}: level {j + 1} does not grow at pole {self.ms[j]}")

    def level(self, i):
        """C_i: B[:i] eliminated anew."""
        return LinearCode(self.evset.field, self.n, self.rows(i))

    def pole_of_level(self, i):
        """m_i: the pole order at which the sequence reaches dimension i."""
        if i == 0:
            raise ValueError("C_0 is the zero code; it has no growth pole")
        return self.ms[i - 1]


class DualityCertificate:
    """Outcome of certify_duality: how C(mQ)^perp relates to C(m^perp Q).

    status "self-dual": C_i^perp == C_(n-i) exactly, twist is None.
    status "formally-self-dual": C_i^perp == x * C_(n-i) for the stored
    residue twist x, which is all nonzero and normalized to x[0] = 1.
    status "unverified": the curve gives no twist, or the twist fails; reason
    says which check failed.
    """

    def __init__(self, status, twist=None, reason=None):
        self.status = status
        self.twist = twist
        self.reason = reason

    def __repr__(self):
        return f"<duality {self.status}>"


def certify_duality(evset):
    """Certify that the dual of every C(mQ) is x * C(m^perp Q), m^perp = n + 2g - 2 - m.

    x is the residue twist of the evaluation set.  The certificate is the
    dimension complements, dim C(mQ) + dim C(m^perp Q) = n, plus x being
    orthogonal to C(top Q), top = n + 2g - 2: products of L(mQ) with
    L(m^perp Q) lie in L(top Q), so x * C(mQ) is orthogonal to C(m^perp Q).
    An all-ones x is exact self-duality.  L(top Q) has the basis phi^a M_r,
    a v + w_r <= top, for the fibration phi of pole order v and the Apery
    monomials M_r (EvaluationSet.apery_basis), and phi is U_u on fiber u: so
    sum_j x_j phi^a M_r(P_j) = (T V^T)[r, a], with T[r, u] the sum of x M_r
    over fiber u (EvaluationSet.fiber_sums), V[a, u] = U_u^a: v rows in all.
    """
    S, n = evset.curve.semigroup, evset.n
    top = n + 2 * S.genus - 2

    m = np.arange(top + 1)
    dims = S.ell(m) - S.ell(m - n)  # dim C(mQ); it grows at the dimension set
    bad = np.flatnonzero((np.diff(dims, prepend=0) > 0) & (dims + dims[::-1] != n))
    if len(bad):
        return DualityCertificate("unverified", reason=f"dim C({bad[0]}Q) + dim C({top - bad[0]}Q) != n = {n}")

    x = evset.residue_twist()
    if x is None:
        return DualityCertificate("unverified", reason=f"the curve records no side for fibration {evset.fibration}")
    F, v, U = evset.field, evset.fiber_size, np.array(evset.U)
    w, expos = zip(*evset.apery_basis())
    block = max(1, (1 << 22) // (8 * n))  # rows whose int64 exponent products take 4 MB
    Y = np.concatenate([F.mul_table[evset.monomial_rows(expos[b : b + block]), x] for b in range(0, v, block)])
    a = np.arange(top // v + 1)
    V = F.exp[np.outer(a, F.log[U]) % (F.order - 1)]
    V[:, U == 0] = (a == 0)[:, None]  # 0^0 = 1
    if linalg.matmul(F, evset.fiber_sums(Y), V.T)[np.add.outer(w, v * a) <= top].any():  # l(top Q) entries
        return DualityCertificate("unverified", reason=f"the residue twist is not orthogonal to C({top}Q)")
    if (x == 1).all():
        return DualityCertificate("self-dual")
    return DualityCertificate("formally-self-dual", x)


def past_top(evset, row_poles, column_poles, e=1):
    """mask[a, b]: m_a + e m_b > n + 2g - 2; elsewhere sum x f_a f_b^e = 0 under a proven certificate."""
    top = evset.n + 2 * evset.curve.semigroup.genus - 2
    return np.add.outer(np.asarray(row_poles), e * np.asarray(column_poles)) > top


def dual_distance_bound(evset, m, cert):
    """Lower bound on d(C(mQ)^perp): the order bound, improved by the Goppa
    bound on the dual's own pole order when duality is certified."""
    bound = order_bound(evset, m)
    if cert is not None and cert.status in ("self-dual", "formally-self-dual"):
        mperp = evset.n + 2 * evset.curve.semigroup.genus - 2 - m
        if mperp >= 0:
            bound = max(bound, goppa_bound(evset, mperp))
    return bound


# -- trace descent -----------------------------------------------------------------


class TraceTable:
    """The trace rows of one evaluation set over one subfield, shared by every m.

    The rows are the all-ones row, then Tr(alpha^j f) for alpha^j over a
    basis of the big field over the small one and f over the nonconstant
    monomial basis functions whose pole is not q0 times a nongap (their
    traces lie in the span of the rows below, see _grow), in pole order;
    poles holds the pole of each f.  The table covers the poles up to top.
    A row depends on its pole, never on m (see PointedCurve.basis_table), so
    every m takes a prefix, and a larger m replaces the table by one that
    evaluates only the new poles.  rows is read-only; over GF(2) it holds the rows packed
    (linalg.GF2Echelon.pack), an eighth of the bytes, and echelon is their
    GF2Echelon, extended only as far as a code has asked for: its entries
    from a prefix are that prefix's echelon.  reports holds trace_report's
    fields per (rank, budget), ints and bools only, never a code.
    One table per (evaluation set, subfield): EvaluationSet.trace_tables.
    """

    def __init__(self, evset, small):
        self.evset, self.small = evset, small
        self.emb = embedding(small, evset.field)
        self.top = -1
        self.poles = np.zeros(0, dtype=np.int64)
        self.echelon = linalg.GF2Echelon(evset.n) if small.order == 2 else None
        self.rows = self._stored(np.ones((1, evset.n), dtype=np.uint16))
        self.rows.setflags(write=False)
        self.reports = {}

    def _stored(self, rows):
        return rows if self.echelon is None else linalg.GF2Echelon.pack(rows)

    def _extent(self, m):
        """(functions, rows) of the table that belong to C(mQ), once the table covers m; none for m < 0."""
        if m > self.top:
            self._grow(m)
        count = int(np.searchsorted(self.poles, m, side="right"))
        return count, (1 + count * self.emb.ratio if m >= 0 else 0)

    def prefix(self, m):
        """(poles, rows): the kept functions of L(mQ) and the read-only rows that span its trace."""
        count, end = self._extent(m)
        rows = self.rows[:end]
        if self.echelon is not None:
            rows = np.unpackbits(rows, axis=1, count=self.evset.n).astype(np.uint16)
            rows.setflags(write=False)
        return self.poles[:count], rows

    def _grow(self, m):
        ev, q0 = self.evset, self.small.order
        poles, expos = ev.curve.basis_table(ev.dimension_set()[-1])  # capped where the code stabilizes
        new = slice(np.searchsorted(poles, self.top, side="right"), np.searchsorted(poles, m, side="right"))
        rho = poles[new]
        # at a pole q0 s, s a nongap with basis function f, the basis function is c f^q0 plus functions
        # of lower pole, whatever the basis, and Tr(beta f^q0) = Tr(beta^(1/q0) f): its trace rows lie
        # in the span of the rows kept below it
        keep = (rho > 0) & ~((rho % q0 == 0) & np.isin(rho // q0, poles))
        if keep.any():
            rows = self._stored(self.emb.trace_rows(ev.monomial_rows(expos[new][keep])))
            self.rows = np.concatenate([self.rows, rows])  # a new array: rows handed out before stay as they were
            self.rows.setflags(write=False)
            self.poles = np.concatenate([self.poles, rho[keep]])
        self.top = m

    def _taken(self, m):
        """The end of C(mQ)'s rows, once the echelon has taken them: it takes only rows it has not taken."""
        _, end = self._extent(m)
        self.echelon.extend(self.rows[self.echelon.taken : end])
        return end

    def code(self, m):
        """The trace code of C(mQ); over GF(2) from the echelon."""
        if self.echelon is None:
            return LinearCode(self.small, self.evset.n, self.prefix(m)[1])
        R, pivots = self.echelon.snapshot(self._taken(m))
        return LinearCode.from_rref(self.small, self.evset.n, R, pivots)


def _trace_table(evset, small):
    table = evset.trace_tables.get(small.order)
    if table is None:
        table = evset.trace_tables[small.order] = TraceTable(evset, small)
    return table


def trace_rows(evset, m, small):
    """(poles, rows) of the descended code, read-only, from the set's trace table (see TraceTable).

    Row 0 is the all-ones row, then ratio-many rows per pole in poles, function
    by function.  For m < 0, C(mQ) = 0: no poles, no rows.
    """
    return _trace_table(evset, small).prefix(m)


def trace_code(evset, m, small):
    """The trace of C(mQ) down to the subfield, as a LinearCode."""
    return _trace_table(evset, small).code(m)


def trace_report(evset, m, small):
    """(k, fields): the dimension and report_fields of trace_code(evset, m, small), worked out once per code.

    Prefixes of equal rank span one code, so the table keeps the fields per
    (rank, work_budget()).  Over GF(2) the echelon gives the rank with no
    back-substitution; over other subfields it is the built code's dimension.
    """
    table = _trace_table(evset, small)
    code = None if table.echelon is not None else trace_code(evset, m, small)
    k = table.echelon.rank(table._taken(m)) if code is None else code.dimension
    key = (k, work_budget())
    if key not in table.reports:
        table.reports[key] = report_fields(trace_code(evset, m, small) if code is None else code)
    return k, table.reports[key]


def incomplete_trace_search(evset, m, small):
    """Self-orthogonal subcode of the descended code by dropping trace rows.

    Keeps the all-ones row and all earlier blocks; removes up to ratio-1 rows
    from the last function's block, the last ratio rows, and none when the
    only kept function of L(mQ) is the constant.  Fewer trace rows mean a
    smaller stabilizer, so the most removals are tried first, each removal
    count in deterministic lexicographic order.  A candidate wins if it is self-orthogonal and its
    dual distance still equals the full descended code's.  Returns
    (code, dropped_row_indices) or None if no subset works; raises
    OverBudget when the full descended code's dual distance is over budget.
    """
    poles, rows = trace_rows(evset, m, small)
    full = LinearCode(small, evset.n, rows)
    target_d, target_status = full.dual().min_weight()
    if target_status != "exact":
        raise OverBudget("full trace code's dual distance is over budget; raise CASTLEQEC_BUDGET")
    r = embedding(small, evset.field).ratio
    last = range(len(rows) - r, len(rows)) if len(poles) else ()  # no function block: nothing to drop
    for t in range(r - 1, -1, -1):
        for dropped in itertools.combinations(last, t):
            keep = [i for i in range(rows.shape[0]) if i not in dropped]
            cand = LinearCode(small, evset.n, rows[keep])
            if not cand.is_self_orthogonal("euclidean"):
                continue
            d, status = cand.dual().min_weight()
            if status == "exact" and d == target_d:
                return cand, dropped
    return None
