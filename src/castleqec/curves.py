"""Pointed curves with one place at infinity, and their evaluation sets.

A PointedCurve bundles what one-point AG codes actually consume: the base
field, a generating set of functions regular away from the distinguished
place Q (with their pole orders at Q), the coordinates of every affine
rational point, and its sides: for a fibration generator, the other generator
and the coefficients of the side of the curve equation written in it, whose
derivative is F_y.  The Weierstrass semigroup at Q is generated by those pole
orders for every family constructed here.

An EvaluationSet picks the divisor D: it fixes a fibration function, keeps
only totally split fibers, and orders the points canonically.  Riemann-Roch
spaces L(mQ) get monomial bases indexed by pole order.  CATALOGUE holds the
descriptors of the named curves, one per file of curves/ and perfbench/curves/.
"""

from __future__ import annotations

import collections
import json
import math
import operator

import numpy as np

from . import linalg
from .fields import GF, MAX_ORDER, UnsupportedFieldError, field_from_json, json_int, json_ints
from .semigroups import NumericalSemigroup, accumulate_classes

MEMO_EVALUATION_SETS = 16  # evaluation sets kept, least recently used dropped first
_EVALUATION_SETS = collections.OrderedDict()  # descriptor text -> its EvaluationSet


class PointedCurve:
    def __init__(self, field, tag, generator_names, pole_orders, affine_coords, sides=None):
        self.field = field
        self.tag = tag
        self.generator_names = tuple(generator_names)
        self.pole_orders = tuple(int(v) for v in pole_orders)
        self.affine_coords = np.array(affine_coords, dtype=np.uint16)  # a copy: it is made read-only
        self.affine_coords.setflags(write=False)
        self.sides = {name: (other, tuple(coeffs)) for name, (other, coeffs) in (sides or {}).items()}
        assert self.affine_coords.shape[0] == len(self.generator_names)
        self.semigroup = NumericalSemigroup(self.pole_orders)
        self.genus = self.semigroup.genus
        self._basis_table = None  # (top, poles, exponents), see basis_table

    @property
    def num_affine_points(self):
        return self.affine_coords.shape[1]

    @property
    def num_rational_points(self):
        return self.num_affine_points + 1  # the one place at infinity

    def generator_index(self, name):
        try:
            return self.generator_names.index(name)
        except ValueError:
            raise ValueError(f"curve {self.tag!r} has no generator {name!r}") from None

    def basis_exponents(self, m):
        """Monomial basis of L(mQ) as [(pole order, exponent tuple)], pole ascending (see basis_table)."""
        poles, expos = self.basis_table(m)
        return list(zip(poles.tolist(), map(tuple, expos.tolist())))

    def basis_table(self, m):
        """(poles, exponents) of the monomial basis of L(mQ): read-only arrays, row i for the i-th nongap.

        One monomial per nongap: the first exponent tuple in product order
        realizing that pole order, i.e. each exponent in turn as small as the
        later generators allow: generator j, of pole order v, takes (s - t)/v
        of the remainder s, for the largest t <= s, t = s (mod v), they reach.

        A row depends only on its pole s, never on m: t runs over the reach
        below s, so a table to any top >= s settles it.  So the curve keeps
        one table, built again only for a larger m, and every m takes its
        prefix with pole <= m.
        """
        if self._basis_table is None or self._basis_table[0] < m:
            self._basis_table = self._build_basis_table(max(m, 0))
        _, poles, expos = self._basis_table
        end = np.searchsorted(poles, m, side="right")
        return poles[:end], expos[:end]

    def _build_basis_table(self, m):
        s = np.arange(m + 1)
        reach = [s == 0]  # reach[j][s]: s is a sum of multiples of pole_orders[j:]; built last first
        for v in reversed(self.pole_orders):
            reach.insert(0, accumulate_classes(np.logical_or, reach[0], v))
        nongaps = np.flatnonzero(reach[0])
        assert nongaps.tolist() == self.semigroup.elements_up_to(m), "pole orders must generate the semigroup"
        rest = nongaps.copy()
        expos = np.empty((len(nongaps), len(self.pole_orders)), dtype=np.int64)
        for j, v in enumerate(self.pole_orders):
            below = accumulate_classes(np.maximum, np.where(reach[j + 1], s, -1), v)  # the t of each s
            expos[:, j] = (rest - below[rest]) // v
            rest -= v * expos[:, j]
        nongaps.setflags(write=False)
        expos.setflags(write=False)
        return m, nongaps, expos

    def __repr__(self):
        return f"<curve {self.tag}: genus {self.genus} over {self.field!r}, {self.num_rational_points} points>"


# -- families ------------------------------------------------------------------


def _validate_poly(field, coeffs, name):
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) < 2 or coeffs[-1] == 0:
        raise ValueError(f"{name} must have positive degree and a nonzero leading coefficient")
    if any(not 0 <= c < field.order for c in coeffs):
        raise ValueError(f"{name} has coefficients outside {field!r}")
    return coeffs


def sep_variable_curve(field, f_coeffs, g_coeffs, tag=None):
    """The curve F(y) = G(x) with coprime degrees; x and y generate at Q.

    Pole orders at the unique place at infinity: v(x) = deg F, v(y) = deg G.
    """
    f = _validate_poly(field, f_coeffs, "F")
    g = _validate_poly(field, g_coeffs, "G")
    a, b = len(f) - 1, len(g) - 1
    if math.gcd(a, b) != 1:
        raise ValueError(f"deg F = {a} and deg G = {b} must be coprime for one place at infinity")
    fv = field.poly_values(f)  # value of F at each y
    gv = field.poly_values(g)  # value of G at each x
    coords = np.array(np.nonzero(gv[:, None] == fv[None, :]), dtype=np.uint16)  # (x, y) pairs, sorted
    if tag is None:
        tag = f"sep-gf{field.order}"
    return PointedCurve(field, tag, ("x", "y"), (a, b), coords, sides={"x": ("y", f), "y": ("x", g)})


def hyperelliptic_odd(field, f_coeffs, tag=None):
    """y^2 = F(x) in odd characteristic, deg F odd."""
    if field.p == 2:
        raise ValueError("use hyperelliptic_even in characteristic 2")
    f = _validate_poly(field, f_coeffs, "F")
    if (len(f) - 1) % 2 == 0:
        raise ValueError("deg F must be odd for one place at infinity")
    return sep_variable_curve(
        field, [0, 0, 1], f, tag=tag or f"hyperelliptic-gf{field.order}"
    )


def hyperelliptic_even(field, f_coeffs, tag=None):
    """y^2 + y = F(x) in characteristic 2, deg F odd."""
    if field.p != 2:
        raise ValueError("use hyperelliptic_odd in odd characteristic")
    f = _validate_poly(field, f_coeffs, "F")
    if (len(f) - 1) % 2 == 0:
        raise ValueError("deg F must be odd for one place at infinity")
    return sep_variable_curve(
        field, [0, 1, 1], f, tag=tag or f"hyperelliptic-gf{field.order}"
    )


def suzuki_curve(q0, tag=None):
    """The Suzuki curve y^q + y = x^q0 (x^q + x) over GF(q), q = 2 q0^2.

    Four functions generate the semigroup at Q: x, y, and the derived
    z = x^(2q0+1) - y^(2q0), w = x y^(2q0) - z^(2q0), with pole orders
    q, q + q0, q + 2q0, q + 2q0 + 1.
    """
    q0 = int(q0)
    if q0 < 2 or q0 & (q0 - 1):
        raise ValueError("q0 must be a power of 2, at least 2")
    q = 2 * q0 * q0
    field = GF(q)
    # every affine pair is a rational point: x^q + x = 0 on GF(q), so both
    # sides of the equation vanish identically
    xs = np.repeat(np.arange(q, dtype=np.uint16), q)
    ys = np.tile(np.arange(q, dtype=np.uint16), q)
    lhs = field.add_table[field.pow_table(q)[ys], ys]
    xq = field.add_table[field.pow_table(q)[xs], xs]
    rhs = field.mul_table[field.pow_table(q0)[xs], xq]
    assert (lhs == rhs).all()
    zs = field.add_table[
        field.pow_table(2 * q0 + 1)[xs], field.neg_table[field.pow_table(2 * q0)[ys]]
    ]
    ws = field.add_table[
        field.mul_table[xs, field.pow_table(2 * q0)[ys]],
        field.neg_table[field.pow_table(2 * q0)[zs]],
    ]
    coords = np.stack([xs, ys, zs, ws])
    return PointedCurve(
        field,
        tag or f"suzuki-gf{q}",
        ("x", "y", "z", "w"),
        (q, q + q0, q + 2 * q0, q + 2 * q0 + 1),
        coords,
        sides={"x": ("y", [0, 1] + [0] * (q - 2) + [1])},  # y^q + y
    )


def norm_trace_quotient(q, r, u, tag=None):
    """The quotient curve Tr(y) = x^u over GF(q^r), with Tr the trace polynomial.

    u must divide (q^r - 1)/(q - 1); u equal to the quotient itself gives the
    norm-trace curve.
    """
    q, r, u = int(q), int(r), int(u)
    if q < 2 or r < 2:
        raise ValueError("need q >= 2 and an extension degree r >= 2")
    if q ** min(r, MAX_ORDER.bit_length()) > MAX_ORDER:  # before q^r gets huge
        raise UnsupportedFieldError(f"field order {q}^{r} exceeds supported bound {MAX_ORDER}")
    quotient = (q ** r - 1) // (q - 1)
    if u < 1 or quotient % u:
        raise ValueError(f"u = {u} must divide (q^r - 1)/(q - 1) = {quotient}")
    field = GF(q ** r)
    f = [0] * (q ** (r - 1) + 1)
    for i in range(r):
        f[q ** i] = 1
    g = [0] * u + [1]
    return sep_variable_curve(field, f, g, tag=tag or f"normtrace-{q}-{r}-{u}")


# -- evaluation sets --------------------------------------------------------------


class EvaluationSet:
    """A totally split divisor D for one-point codes on a pointed curve.

    Points are grouped into fibers of one generating function; only full
    fibers (size = the function's pole order) are kept.  With no explicit
    subset, every totally split fiber is used.  Point order is canonical:
    sort by fiber value, then by coordinate tuple.
    """

    def __init__(self, curve, fibration=None, subset=None):
        self.curve = curve
        name = curve.generator_names[0] if fibration is None else fibration
        self.fibration = name
        idx = curve.generator_index(name)
        self.fiber_size = curve.pole_orders[idx]

        values = curve.affine_coords[idx]
        counts = np.bincount(values, minlength=curve.field.order)
        if subset is None:
            U = [int(v) for v in np.nonzero(counts == self.fiber_size)[0]]
        else:
            U = sorted(operator.index(v) for v in set(subset))
            for alpha in U:
                if not 0 <= alpha < curve.field.order:
                    raise ValueError(f"fiber value {alpha} outside {curve.field!r}")
                if counts[alpha] != self.fiber_size:
                    raise ValueError(
                        f"fiber of {name} over {alpha} has {counts[alpha]} points, "
                        f"need {self.fiber_size}: not totally split"
                    )
        if not U:
            raise ValueError(f"no totally split fibers of {name} on {curve.tag!r}")
        self.U = tuple(U)

        keep = np.isin(values, np.array(U, dtype=values.dtype))
        cols = curve.affine_coords[:, keep]
        order = np.lexsort(tuple(cols[::-1]) + (cols[idx],))  # the last key sorts first
        self.coords = np.ascontiguousarray(cols[:, order])
        self.coords.setflags(write=False)
        self.n = self.coords.shape[1]
        assert self.n == self.fiber_size * len(self.U)
        self.fibration_index = idx
        self._dimension_set = None
        self.trace_tables = {}  # subfield order -> the agcodes.TraceTable every trace code of this set reads

    @property
    def field(self):
        return self.curve.field

    def abundance(self, m):
        """dim L(mQ - D) = number of basis functions evaluating inside the kernel."""
        return self.curve.semigroup.ell(m - self.n)

    def dimension_set(self):
        """Pole orders where the evaluation code strictly grows; computed once, a new list each call."""
        if self._dimension_set is None:
            self._dimension_set = tuple(self.curve.semigroup.dimension_set(self.n))
        return list(self._dimension_set)

    def apery_basis(self):
        """[(w_r, exponents of M_r)] over the classes r mod v = fiber_size, w_r the least nongap
        in class r, ascending.  w_r - v is a gap, so M_r is free of the fibration.  v divides n, so
        n + S lies in v + S and the w_r, S minus (v + S), lie in the dimension set S minus (n + S):
        they are read from the curve's table to its last jump, which CodeSequence reads too."""
        S, v = self.curve.semigroup, self.fiber_size
        poles, expos = self.curve.basis_table(self.dimension_set()[-1])
        end = np.searchsorted(poles, S.conductor + v - 1, side="right")  # every w_r - v is a gap, so w_r < c + v
        rows = zip(poles[:end].tolist(), map(tuple, expos[:end].tolist()))
        return [(s, e) for s, e in rows if not S.contains(s - v)]

    def basis_rows(self, m):
        """(pole orders, evaluation matrix) for the monomial basis of L(mQ).

        m is capped at the last dimension jump: the evaluated code never
        changes past it.  The basis is the prefix with pole <= m of the
        curve's table to that jump, which every m shares.
        """
        poles, expos = self.curve.basis_table(self.dimension_set()[-1])
        end = np.searchsorted(poles, m, side="right")
        return poles[:end].tolist(), self.monomial_rows(expos[:end])

    def fiber_sums(self, rows):
        """(len(rows), |U|): the sum of each row over each fiber; points run fiber by fiber, U ascending."""
        U, v, F = np.array(self.U), self.fiber_size, self.field
        assert (self.coords[self.fibration_index] == np.repeat(U, v)).all(), "points must run fiber by fiber"
        return linalg.matmul(F, rows.reshape(-1, v), np.ones((v, 1), dtype=np.uint16)).reshape(len(rows), len(U))

    def monomial_rows(self, expos):
        """Row i holds the monomial prod(gen_j^expos[i][j]) at each point.

        All at once in the log domain: exp[(E @ log(coords)) mod (q - 1)],
        then 0 wherever a zero coordinate has a positive exponent (0^0 = 1).
        """
        F = self.field
        E = np.asarray(expos, dtype=np.int64).reshape(-1, self.coords.shape[0])
        zero = self.coords == 0
        out = F.exp[(E @ np.where(zero, 0, F.log[self.coords]).astype(np.int64)) % (F.order - 1)]
        out[np.matmul(E > 0, zero)] = 0
        return out

    def residue_twist(self):
        """The twist x with C(mQ)^perp = x * C((n + 2g - 2 - m)Q), or None.

        x_j is the residue at P_j of d(phi)/(F_y * h(phi)), h = prod over U of
        (t - alpha), F_y the derivative of the curve's side for the fibration:
        x_j = 1/(F_y(P_j) * h'(phi(P_j))), h'(alpha) = prod of (alpha - beta)
        over the other beta in U.  Normalized to x_0 = 1; None when the curve
        records no side for the fibration.
        """
        side = self.curve.sides.get(self.fibration)
        if side is None:
            return None
        other, coeffs = side
        F, U = self.field, np.array(self.U)
        f_y = F.poly_values([F.mul(e % F.p, c) for e, c in enumerate(coeffs)][1:])  # the side's derivative
        diffs = F.add_table[U[:, None], F.neg_table[U][None, :]]
        np.fill_diagonal(diffs, 1)
        h_prime = np.zeros(F.order, dtype=np.uint16)
        h_prime[U] = F.exp[F.log[diffs].astype(np.int64).sum(axis=1) % (F.order - 1)]
        y = self.coords[self.curve.generator_index(other)]
        denominator = F.mul_table[f_y[y], h_prime[self.coords[self.fibration_index]]]
        assert denominator.all(), "totally split fibers have no ramified point"
        return F.mul_table[denominator[0], F.inv_table[denominator]]


# -- serialization ------------------------------------------------------------------


def curve_from_json(obj):
    """Build a curve from {"family", "field", "params", "tag"?}; its integers go through json_int."""
    if not isinstance(obj, dict) or not isinstance(obj.get("params", {}), dict):
        raise ValueError("malformed curve descriptor")
    family, params, tag = obj.get("family"), obj.get("params", {}), obj.get("tag")

    def param(name):
        if name not in params:
            raise ValueError(f"{family} descriptor needs params.{name}")
        return params[name]

    def ints(*names):
        return [json_int(param(name), name) for name in names]

    if family == "suzuki":
        curve = suzuki_curve(*ints("q0"), tag=tag)
    elif family == "ntq":
        curve = norm_trace_quotient(*ints("q", "r", "u"), tag=tag)
    elif family in ("sep", "hyperodd", "hypereven"):
        if "field" not in obj:
            raise ValueError(f"family {family!r} needs an explicit field")
        field = field_from_json(obj["field"])
        f = json_ints(param("f"), "f")
        if family == "sep":
            curve = sep_variable_curve(field, f, json_ints(param("g"), "g"), tag=tag)
        elif family == "hyperodd":
            curve = hyperelliptic_odd(field, f, tag=tag)
        else:
            curve = hyperelliptic_even(field, f, tag=tag)
    else:
        raise ValueError(f"unknown curve family {family!r}")

    if "field" in obj and family in ("suzuki", "ntq"):
        declared = field_from_json(obj["field"])
        if declared is not curve.field:
            raise ValueError(
                f"declared field GF({declared.order}) does not match family field GF({curve.field.order})"
            )
    return curve


def evaluation_set_from_json(obj):
    """Curve descriptor plus optional "fibration" and "subset" keys."""
    curve = curve_from_json(obj)
    subset = None if obj.get("subset") is None else json_ints(obj["subset"], "subset")
    return EvaluationSet(curve, fibration=obj.get("fibration"), subset=subset)


def evaluation_set_from_text(text, source="descriptor"):
    """The evaluation set of a descriptor given as JSON text, shared within a process.

    The last MEMO_EVALUATION_SETS sets built are kept, keyed by the text
    itself, so the same text gets the same object back, with its curve,
    semigroup, basis table and trace tables.  Nothing may write to it: its
    arrays are read-only.  Only built sets are kept; an error is raised anew on every
    call.  The sharing pays only when one process loads a curve twice.
    """
    ev = _EVALUATION_SETS.pop(text, None)
    if ev is None:
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{source} is not valid JSON: {exc}") from exc
        ev = evaluation_set_from_json(obj)
    _EVALUATION_SETS[text] = ev  # the most recently used last
    while len(_EVALUATION_SETS) > MEMO_EVALUATION_SETS:
        _EVALUATION_SETS.popitem(last=False)
    return ev


# -- the named curves -----------------------------------------------------------------

# Every named curve, defined once: each entry is the descriptor its file in curves/
# or perfbench/curves/ holds, and a test pins the two together.  The reproduction
# manifest builds them with evaluation_set_from_json(CATALOGUE[name]).
CATALOGUE = {
    "elliptic-gf4": {  # y^2 + y = x^3
        "family": "hypereven", "field": {"p": 2, "k": 2}, "params": {"f": [0, 0, 0, 1]}, "tag": "elliptic-gf4",
    },
    "elliptic-gf9": {  # y^2 = x^3 + x, fibred by y
        "family": "sep", "field": {"p": 3, "k": 2}, "params": {"f": [0, 0, 1], "g": [0, 1, 0, 1]},
        "tag": "elliptic-gf9", "fibration": "y",
    },
    "hermitian-gf9": {
        "family": "sep", "field": {"p": 3, "k": 2}, "params": {"f": [0, 1, 0, 1], "g": [0, 0, 0, 0, 1]},
        "tag": "hermitian-gf9",
    },
    "hermitian-gf16": {
        "family": "sep", "field": {"p": 2, "k": 4}, "params": {"f": [0, 1, 0, 0, 1], "g": [0, 0, 0, 0, 0, 1]},
        "tag": "hermitian-gf16",
    },
    "hyper-even-45": {  # y^2 + y = x^5
        "family": "hypereven", "field": {"p": 2, "k": 4}, "params": {"f": [0, 0, 0, 0, 0, 1]},
        "tag": "hyper-even-45",
    },
    "norm-trace-2-3-7": {"family": "ntq", "params": {"q": 2, "r": 3, "u": 7}, "tag": "norm-trace-2-3-7"},
    "ntq-2-4-3": {"family": "ntq", "params": {"q": 2, "r": 4, "u": 3}, "tag": "ntq-2-4-3"},
    "suzuki8": {"family": "suzuki", "params": {"q0": 2}, "tag": "suzuki8"},
    "twisted-gf9": {  # y^2 = x^9 - x + 1: Castle, self-dual only up to a nonconstant twist
        "family": "hyperodd", "field": {"p": 3, "k": 2}, "params": {"f": [1, 2, 0, 0, 0, 0, 0, 0, 0, 1]},
        "tag": "twisted-gf9",
    },
    "maximal-2-6": {  # y^2 + y = x^9
        "family": "hypereven", "field": {"p": 2, "k": 6}, "params": {"f": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
        "tag": "maximal-2-6",
    },
    "maximal-gf64": {
        "family": "sep", "field": {"p": 2, "k": 6},
        "params": {"f": [0, 1, 1, 0, 1], "g": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}, "tag": "maximal-gf64",
    },
    "maximal-gf81": {  # y^3 + y = a x^10, a = 28 the fifth power of the primitive element: a^9 + a = 0
        "family": "sep", "field": {"p": 3, "k": 4},
        "params": {"f": [0, 1, 0, 1], "g": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 28]}, "tag": "maximal-gf81",
    },
}
