import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from castleqec import curves
from castleqec.curves import (
    CATALOGUE,
    EvaluationSet,
    curve_from_json,
    evaluation_set_from_json,
    evaluation_set_from_text,
    hyperelliptic_even,
    hyperelliptic_odd,
    norm_trace_quotient,
    sep_variable_curve,
    suzuki_curve,
)
from castleqec.fields import GF
from helpers import (
    elliptic_gf3,
    elliptic_gf4,
    elliptic_gf9,
    evaluate_function,
    hermitian_gf9,
    hermitian_gf16,
    is_subfield_order,
    kernel_functions,
    maximal_2_6,
    maximal_gf64,
    maximal_gf81,
    phi_coefficients,
)

POINT_COUNTS = [
    (suzuki_curve(2), 65, 14, True),
    (elliptic_gf4(), 9, 1, True),
    (elliptic_gf9(), 16, 1, False),
    (hermitian_gf9(), 28, 3, True),
    (hermitian_gf16(), 65, 6, True),
    (norm_trace_quotient(2, 4, 3), 33, 7, False),
    (norm_trace_quotient(2, 3, 7), 33, 9, True),
    (maximal_gf81(), 244, 9, True),
    (maximal_gf64(), 257, 12, True),
    (maximal_2_6(), 129, 4, True),
    (elliptic_gf3(), 7, 1, True),  # y^2 = x^3 - x + 1
]


@pytest.mark.parametrize("curve,N,g,castle", POINT_COUNTS, ids=lambda v: getattr(v, "tag", str(v)))
def test_point_counts_genus_castle(curve, N, g, castle):
    assert curve.num_rational_points == N
    assert curve.genus == g
    assert curve.is_castle == castle


def test_genus_matches_family_formulas():
    assert suzuki_curve(2).genus == 2 * (8 - 1)  # q0 (q - 1)
    c = norm_trace_quotient(2, 4, 3)
    assert c.genus == (3 - 1) * (2 ** 3 - 1) // 2
    assert c.semigroup.generators == (3, 8)
    s = sep_variable_curve(GF(9), [0, 1, 0, 1], [0, 0, 0, 0, 1])
    assert s.genus == (3 - 1) * (4 - 1) // 2


def test_suzuki_semigroup_and_coordinates():
    c = suzuki_curve(2)
    assert c.pole_orders == (8, 10, 12, 13)
    assert c.semigroup.generators == (8, 10, 12, 13)
    F = c.field
    xs, ys, zs, ws = c.affine_coords
    for j in range(c.num_affine_points):
        x0, y0, z0, w0 = (int(v[j]) for v in (xs, ys, zs, ws))
        assert z0 == F.sub(F.pow(x0, 5), F.pow(y0, 4))
        assert w0 == F.sub(F.mul(x0, F.pow(y0, 4)), F.pow(z0, 4))


def test_constructor_validation():
    with pytest.raises(ValueError):
        sep_variable_curve(GF(4), [0, 0, 1], [0, 0, 0, 0, 1])  # degrees 2 and 4
    with pytest.raises(ValueError):
        sep_variable_curve(GF(4), [0, 1, 0], [0, 0, 0, 1])  # trailing zero coefficient
    with pytest.raises(ValueError):
        sep_variable_curve(GF(4), [0, 0, 1], [0, 0, 0, 5])  # coefficient out of range
    with pytest.raises(ValueError):
        hyperelliptic_odd(GF(4), [0, 0, 0, 1])  # wrong characteristic
    with pytest.raises(ValueError):
        hyperelliptic_even(GF(3), [0, 0, 0, 1])
    with pytest.raises(ValueError):
        hyperelliptic_even(GF(4), [0, 0, 1])  # even degree
    with pytest.raises(ValueError):
        suzuki_curve(3)
    with pytest.raises(ValueError):
        norm_trace_quotient(2, 3, 5)  # 5 does not divide 7
    with pytest.raises(ValueError):
        norm_trace_quotient(2, 1, 1)


def test_hypereven_matches_sep_constructor():
    a = hyperelliptic_even(GF(4), [0, 0, 0, 1])
    b = sep_variable_curve(GF(4), [0, 1, 1], [0, 0, 0, 1])
    assert a.pole_orders == b.pole_orders
    assert (a.affine_coords == b.affine_coords).all()


def test_basis_exponents_small():
    c = elliptic_gf4()
    basis = c.basis_exponents(5)
    assert basis == [(0, (0, 0)), (2, (1, 0)), (3, (0, 1)), (4, (2, 0)), (5, (1, 1))]
    assert c.basis_exponents(-1) == []
    assert c.basis_exponents(0) == [(0, (0, 0))]


def test_basis_power_base_override():
    c = elliptic_gf4()
    plain = dict(c.basis_exponents(8))
    powered = dict(c.basis_exponents(8, power_base=2))
    assert plain[8] == (1, 2)  # x y^2 comes first in product order
    assert powered[8] == (4, 0)  # but as a square it must be (x^2)^2
    assert powered[6] == (0, 2)
    assert powered[4] == (2, 0)
    # pole orders are untouched
    assert sorted(plain) == sorted(powered)


ROOT = Path(__file__).resolve().parent.parent
CURVE_FILES = sorted(ROOT.glob("curves/*.json")) + sorted(ROOT.glob("perfbench/curves/*.json"))


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_curve_file_is_its_catalogue_entry(path):
    assert json.loads(path.read_text()) == CATALOGUE[path.stem]


def test_every_catalogue_entry_has_a_curve_file():
    assert sorted(path.stem for path in CURVE_FILES) == sorted(CATALOGUE)
    assert len(CATALOGUE) == 12


def box_walk_basis(curve, m, power_base=None):
    """Reference basis: walk the whole exponent box in itertools.product order."""
    if m < 0:
        return []
    expo_of = {}
    for tup in itertools.product(*[range(m // v + 1) for v in curve.pole_orders]):
        pole = sum(e * v for e, v in zip(tup, curve.pole_orders))
        if pole <= m and pole not in expo_of:
            expo_of[pole] = tup
    nongaps = sorted(expo_of)
    if power_base is not None and power_base > 1:
        for rho in nongaps:
            if rho % power_base == 0 and curve.semigroup.contains(rho // power_base):
                expo_of[rho] = tuple(power_base * e for e in expo_of[rho // power_base])
    return [(rho, expo_of[rho]) for rho in nongaps]


def scalar_monomial(F, expo, point):
    """prod(coord_i^e_i) through F.pow and F.mul one factor at a time."""
    acc = 1
    for c, e in zip(point, expo):
        acc = F.mul(acc, F.pow(c, e))
    return acc


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_basis_matches_box_walk_and_scalar_evaluation(path):
    ev = evaluation_set_from_json(json.loads(path.read_text()))
    curve, F = ev.curve, ev.field
    # canonical point order: fiber value, then the coordinate tuple
    key = [(pt[ev.fibration_index], pt) for pt in ev.points]
    assert key == sorted(key)
    top = ev.dimension_set()[-1]
    subfields = [q0 for q0 in range(2, F.order) if is_subfield_order(F, q0)]
    for power_base in [None, *subfields]:
        for m in (-1, 0, top // 3, top):
            assert curve.basis_exponents(m, power_base) == box_walk_basis(curve, m, power_base), (m, power_base)
        # a pole's first tuple and its chain of q0-th powers depend only on lower
        # poles, so the box walk to top, cut at m, is the basis of L(mQ) for every m
        walked = box_walk_basis(curve, top, power_base)
        for m in range(-1, top + 1):
            assert curve.basis_exponents(m, power_base) == [b for b in walked if b[0] <= m], (m, power_base)
    # the points include zero coordinates, where 0^0 = 1 and 0^e = 0
    assert (ev.coords == 0).any()
    scalar_rows = {}
    for power_base in [None, *subfields]:
        poles, rows = ev.basis_rows(top, power_base)
        basis = curve.basis_exponents(top, power_base)
        assert poles == [rho for rho, _ in basis] and rows.shape == (len(basis), ev.n)
        for row, (_, expo) in zip(rows.tolist(), basis):
            if expo not in scalar_rows:
                scalar_rows[expo] = [scalar_monomial(F, expo, pt) for pt in ev.points]
            assert row == scalar_rows[expo], expo
    assert ev.basis_rows(-1)[1].shape == (0, ev.n)


def test_basis_poles_are_exact():
    # independence proxy: all pole orders distinct and every monomial's pole
    # is the weighted degree
    c = suzuki_curve(2)
    basis = c.basis_exponents(40)
    poles = [rho for rho, _ in basis]
    assert poles == sorted(set(poles))
    for rho, expo in basis:
        assert rho == sum(e * v for e, v in zip(expo, c.pole_orders))


def test_evaluation_set_suzuki():
    ev = EvaluationSet(suzuki_curve(2), "x")
    assert ev.fiber_size == 8
    assert len(ev.U) == 8 and ev.n == 64
    pts = ev.points
    assert pts == sorted(pts)
    assert len(set(pts)) == 64


def test_evaluation_set_elliptic_gf9_fibrations():
    c = elliptic_gf9()
    by_y = EvaluationSet(c, "y")
    assert by_y.fiber_size == 3
    assert len(by_y.U) == 5 and by_y.n == 15
    by_x = EvaluationSet(c, "x")
    assert by_x.fiber_size == 2
    assert len(by_x.U) == 6 and by_x.n == 12


def test_evaluation_set_explicit_subset():
    c = elliptic_gf9()
    full = EvaluationSet(c, "y")
    alpha = full.U[0]
    partial = EvaluationSet(c, "y", subset=[alpha])
    assert partial.n == 3
    # a ramified fiber value is rejected with a useful message
    bad = next(v for v in range(9) if v not in full.U)
    with pytest.raises(ValueError, match="not totally split"):
        EvaluationSet(c, "y", subset=[bad])
    with pytest.raises(ValueError):
        EvaluationSet(c, "y", subset=[100])


def test_evaluation_set_no_split_fibers():
    # the y-fibration of the Suzuki curve has fibers of size 8, not 10
    with pytest.raises(ValueError, match="totally split"):
        EvaluationSet(suzuki_curve(2), "y")
    with pytest.raises(ValueError):
        EvaluationSet(suzuki_curve(2), "t")


@pytest.mark.parametrize(
    "builder,fibration,derivative",
    [
        (hermitian_gf16, "y", lambda F, x, y: F.pow(x, 4)),  # y^4 + y = x^5: F_y = 5x^4 = x^4
        (elliptic_gf3, "x", lambda F, x, y: F.mul(2, y)),  # y^2 = x^3 - x + 1: F_y = 2y
    ],
)
def test_residue_twist_is_the_residue_formula_pointwise(builder, fibration, derivative):
    ev = EvaluationSet(builder(), fibration)
    F, fib = ev.field, ev.curve.generator_index(fibration)
    want = []
    for point in ev.points:
        alpha = point[fib]
        h_prime = 1
        for beta in ev.U:
            if beta != alpha:
                h_prime = F.mul(h_prime, F.sub(alpha, beta))
        want.append(F.inv(F.mul(derivative(F, *point), h_prime)))
    want = [F.div(w, want[0]) for w in want]
    assert ev.residue_twist().tolist() == want
    assert len(set(want)) > 1


def test_phi_vanishes_exactly_on_selected_points():
    c = elliptic_gf9()
    ev = EvaluationSet(c, "y")
    F = c.field
    phi = phi_coefficients(ev)
    assert len(phi) == len(ev.U) + 1 and phi[-1] == 1
    # phi(t) = 0 exactly for t in U
    for t in range(9):
        val = 0
        for d, coef in enumerate(phi):
            val = F.add(val, F.mul(coef, F.pow(t, d)))
        assert (val == 0) == (t in ev.U)


KERNEL_SETS = [
    pytest.param(lambda: EvaluationSet(suzuki_curve(2)), id="suzuki_curve-None"),
    pytest.param(lambda: EvaluationSet(elliptic_gf9(), "y"), id="elliptic_gf9-y"),
] + [
    pytest.param(lambda path=path: evaluation_set_from_json(json.loads(path.read_text())), id=path.stem)
    for path in CURVE_FILES + sorted(ROOT.glob("tests/data/twisted/*.json"))
]


@pytest.mark.parametrize("make", KERNEL_SETS)
def test_kernel_functions(make):
    """ker(ev) on L(mQ) is h(phi) L((m - n)Q): the reason the flag grows at the dimension set."""
    ev = make()
    n, g = ev.n, ev.curve.genus
    assert kernel_functions(ev, n - 1) == []
    for m in [n, n + 3, n + 2 * g + 1]:
        funcs = kernel_functions(ev, m)
        assert len(funcs) == ev.abundance(m)
        for terms in funcs:
            assert not evaluate_function(ev, terms).any()


def test_abundance_and_dimension_set():
    ev = EvaluationSet(suzuki_curve(2), "x")
    S = ev.curve.semigroup
    assert ev.abundance(63) == 0
    assert ev.abundance(64) == 1
    M = ev.dimension_set()
    assert len(M) == 64
    assert M == S.dimension_set(64)


def test_curve_json():
    obj = {
        "family": "sep",
        "field": GF(9).to_json(),
        "params": {"f": [0, 0, 1], "g": [0, 1, 0, 1]},
        "tag": "elliptic-gf9",
        "fibration": "y",
    }
    ev = evaluation_set_from_json(obj)
    assert ev.n == 15 and ev.curve.tag == "elliptic-gf9"

    suz = curve_from_json({"family": "suzuki", "params": {"q0": 2}})
    assert suz.num_rational_points == 65

    with pytest.raises(ValueError):
        curve_from_json({"family": "suzuki", "params": {"q0": 2}, "field": GF(4).to_json()})
    with pytest.raises(ValueError):
        curve_from_json({"family": "mystery", "params": {}})
    with pytest.raises(ValueError):
        curve_from_json({"family": "sep", "params": {"f": [0, 1], "g": [0, 1]}})

    ntq = curve_from_json({"family": "ntq", "params": {"q": 2, "r": 4, "u": 3}})
    assert ntq.genus == 7


# -- shared evaluation sets and basis tables ----------------------------------------


def _error(text):
    """(type name, message) of what evaluation_set_from_text raises on text, or None."""
    try:
        evaluation_set_from_text(text)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_one_descriptor_text_gives_one_shared_evaluation_set():
    text = json.dumps(CATALOGUE["hermitian-gf9"])
    ev = evaluation_set_from_text(text)
    assert evaluation_set_from_text("".join(text)) is ev  # the same text, another string
    assert evaluation_set_from_text(text + "\n") is not ev  # other text builds its own set
    retagged = evaluation_set_from_text(json.dumps({**CATALOGUE["hermitian-gf9"], "tag": "hermitian-gf9-again"}))
    assert retagged is not ev and retagged.curve.tag == "hermitian-gf9-again"
    assert evaluation_set_from_json(CATALOGUE["hermitian-gf9"]) is not ev  # a parsed descriptor is built anew


@pytest.mark.parametrize("name", ["hermitian-gf9", "suzuki8", "ntq-2-4-3", "elliptic-gf4"])
def test_a_malformed_variant_of_a_cached_descriptor_raises_on_every_call(name):
    obj = CATALOGUE[name]
    ev = evaluation_set_from_text(json.dumps(obj))
    params, key = obj["params"], next(iter(obj["params"]))
    value = params[key]  # its last entry, if a list, as a bool and a float: true and 1.0 where 1 is valid
    if isinstance(value, list):
        variants = [value[:-1] + [bool(value[-1])], value[:-1] + [float(value[-1])]]
    else:
        variants = [bool(value), float(value)]
    for text in [json.dumps({**obj, "params": {**params, key: v}}) for v in variants] + [json.dumps(obj)[:-1]]:
        first = _error(text)
        assert first is not None and _error(text) == first, text  # an error is never kept
        assert evaluation_set_from_text(json.dumps(obj)) is ev, text
    assert first[1].startswith("descriptor is not valid JSON: ")


def test_the_shared_evaluation_sets_stay_within_their_bound():
    made = [json.dumps({**CATALOGUE["elliptic-gf4"], "tag": f"bound-{i}"}) for i in range(curves.MEMO_EVALUATION_SETS + 3)]
    evs = [evaluation_set_from_text(text) for text in made]
    assert len(curves._EVALUATION_SETS) == curves.MEMO_EVALUATION_SETS
    assert evaluation_set_from_text(made[-1]) is evs[-1]
    assert evaluation_set_from_text(made[3]) is evs[3]  # kept, and now the most recently used
    assert evaluation_set_from_text(made[0]) is not evs[0]  # dropped first
    assert len(curves._EVALUATION_SETS) == curves.MEMO_EVALUATION_SETS
    assert evaluation_set_from_text(made[3]) is evs[3]  # made[4], the least recently used, went instead


def test_shared_arrays_refuse_writes():
    ev = evaluation_set_from_text(json.dumps(CATALOGUE["suzuki8"]))
    poles, expos = ev.curve.basis_table(ev.dimension_set()[-1], 2)
    S = ev.curve.semigroup
    for array in (ev.coords, ev.curve.affine_coords, poles, expos, S._member, S._gaps, S._nu):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(TypeError):
        ev.U[0] = 1
    ev.dimension_set().append(-1)  # a new list each call
    assert ev.dimension_set()[-1] == 91


SUZUKI32 = ROOT / "tests" / "data" / "suzuki32.json"


@pytest.mark.parametrize(
    "path", CURVE_FILES + sorted(ROOT.glob("tests/data/twisted/*.json")) + [SUZUKI32], ids=lambda p: p.stem
)
def test_the_shared_basis_table_matches_an_uncached_curve_at_every_m(path):
    obj = json.loads(path.read_text())
    ev = evaluation_set_from_json(obj)
    fresh = EvaluationSet(curve_from_json(obj), obj.get("fibration"), obj.get("subset"))
    assert fresh.curve is not ev.curve
    top, F = ev.dimension_set()[-1], ev.field
    row_stride = 1 if ev.n < 1000 else 41  # every basis_rows(m) of suzuki32 would evaluate 10^9 entries
    for power_base in [None, *(q0 for q0 in range(2, F.order) if is_subfield_order(F, q0))]:
        ev.basis_rows(top, power_base)
        for m in range(-1, top + 6):
            fresh.curve._basis_tables.clear()  # the fresh curve builds its table to m alone
            assert ev.curve.basis_exponents(m, power_base) == fresh.curve.basis_exponents(m, power_base), m
            if m % row_stride == 0 or m >= top:
                fresh.curve._basis_tables.clear()
                (poles, rows), (want_poles, want_rows) = ev.basis_rows(m, power_base), fresh.basis_rows(m, power_base)
                assert poles == want_poles and rows.shape == want_rows.shape and (rows == want_rows).all(), m
