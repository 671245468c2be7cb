import json
from pathlib import Path

import numpy as np
import pytest

from castleqec import linalg

from castleqec.agcodes import (
    CodeSequence,
    OnePointCode,
    certify_duality,
    dual_distance_bound,
    goppa_bound,
    order_bound,
)
from castleqec.codes import LinearCode
from castleqec.curves import EvaluationSet, PointedCurve, evaluation_set_from_json, sep_variable_curve
from castleqec.fields import GF
from castleqec.quantum import level_step, scan_sequence
from helpers import (
    elliptic_gf3,
    elliptic_gf4,
    elliptic_gf9,
    evset,
    hermitian_gf9,
    hermitian_gf16,
    hyper_even_45,
    maximal_2_6,
    maximal_gf64,
    maximal_gf81,
    nt_gf8,
    ntq_gf16,
    suzuki8,
    twisted_gf9,
)

SMALL = [suzuki8, elliptic_gf4, elliptic_gf9, elliptic_gf3, hermitian_gf9, hyper_even_45, ntq_gf16, nt_gf8]


@pytest.mark.parametrize("builder", SMALL, ids=lambda b: b.__name__)
def test_dimension_and_abundance(builder):
    ev = evset(builder)
    S = ev.curve.semigroup
    n, g = ev.n, S.genus
    for m in [0, 1, 3, n - 1, n, n + 1, n + 2 * g - 2, n + 2 * g + 3]:
        c = OnePointCode(ev, m)
        assert c.dimension == S.ell(m) - S.ell(m - n)
        assert c.abundance == S.ell(m - n)


def test_sequence_structure():
    for builder in (suzuki8, elliptic_gf9):
        ev = evset(builder)
        seq = CodeSequence(ev)
        n = ev.n
        assert len(seq.ms) == n
        assert seq.level(0).dimension == 0
        assert seq.level(n).dimension == n
        for i in range(1, n + 1):
            assert seq.level(i).dimension == i
            assert seq.level(i - 1) <= seq.level(i)


def test_sequence_levels_are_onepoint_codes():
    ev = evset(elliptic_gf4)
    seq = CodeSequence(ev)
    for i, m in enumerate(ev.dimension_set(), start=1):
        assert seq.level(i) == OnePointCode(ev, m).code
    # a pole between dimension jumps yields the same code as the jump below it
    assert 8 not in seq.ms
    assert OnePointCode(ev, 8).code == seq.level(seq.ms.index(7) + 1)


ROOT = Path(__file__).resolve().parent.parent
CURVE_FILES = sorted((ROOT / "curves").glob("*.json"))
ALL_CURVE_FILES = CURVE_FILES + sorted((ROOT / "perfbench" / "curves").glob("*.json"))
TWISTED_FILES = sorted((ROOT / "tests" / "data" / "twisted").glob("*.json"))
SUZUKI32 = ROOT / "tests" / "data" / "suzuki32.json"


def _from_file(path):
    return lambda: evaluation_set_from_json(json.loads(path.read_text()))


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES + [SUZUKI32], ids=lambda p: p.stem)
def test_sequence_levels_are_the_first_independent_basis_rows(path):
    ev = _from_file(path)()
    F, n = ev.field, ev.n
    poles, rows = ev.basis_rows(ev.dimension_set()[-1])
    _, grew = linalg.rref(F, rows.T)  # the rank profile of all n + g basis rows: the oracle
    assert [poles[j] for j in grew] == ev.dimension_set()
    seq = CodeSequence(ev)
    for i in range((40 if path == SUZUKI32 else n) + 1):  # an rref of its own per level
        assert seq.level(i) == LinearCode(F, n, rows[list(grew[:i])])


@pytest.mark.parametrize("construction,max_i", [("hermitian", 3), ("A", 2), ("C", 0)])
def test_a_max_i_scan_builds_no_level_above_those_it_visits(monkeypatch, construction, max_i):
    dimensions = []
    original = linalg.RREFAccumulator.snapshot

    def recording(acc):
        dimensions.append(acc.dimension)
        return original(acc)

    monkeypatch.setattr(linalg.RREFAccumulator, "snapshot", recording)
    ev = evset(hermitian_gf16)
    seq = CodeSequence(ev)
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    rows = scan_sequence(seq, certify_duality(ev), construction, max_i=max_i)
    assert [i for i, _ in rows] == list(range(max_i + 1))
    assert dimensions == list(range(1, max_i + 1))  # each visited level once, nothing above


SELF_DUAL = [
    suzuki8,
    elliptic_gf4,
    hermitian_gf9,
    hermitian_gf16,
    hyper_even_45,
    ntq_gf16,
    nt_gf8,
    maximal_gf81,
    maximal_gf64,
    maximal_2_6,
]


@pytest.mark.parametrize("builder", SELF_DUAL, ids=lambda b: b.__name__)
def test_duality_certificate_self_dual(builder):
    cert = certify_duality(evset(builder))
    assert cert.status == "self-dual"
    assert cert.twist is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: evset(elliptic_gf3),
        lambda: evset(elliptic_gf9, fibration="y"),
        lambda: evset(elliptic_gf9, fibration="x"),
        *[_from_file(path) for path in TWISTED_FILES],
    ],
    ids=["elliptic_gf3", "elliptic_gf9_y", "elliptic_gf9_x", *[path.stem for path in TWISTED_FILES]],
)
def test_duality_certificate_twisted(make):
    ev = make()
    cert = certify_duality(ev)
    assert cert.status == "formally-self-dual"
    assert cert.twist is not None
    assert cert.twist[0] == 1
    assert (cert.twist != 0).all()
    assert len(set(cert.twist.tolist())) > 1  # genuinely not a scalar twist
    # explicit per-level verification of the certified identity
    seq = CodeSequence(ev)
    for i in range(ev.n + 1):
        assert seq.level(i).dual() == seq.level(ev.n - i).star(cert.twist)


def constrained_pair_gram_ok(ev, x):
    """The oracle: <x * f_i, f_j> = 0 for every pair of basis functions duality constrains.

    Pair (rho_i, rho_j) is constrained iff some dimension-set element m with
    m <= n + 2g - 2 has rho_i <= m and rho_j <= n + 2g - 2 - m.
    """
    F, S = ev.field, ev.curve.semigroup
    top = ev.n + 2 * S.genus - 2
    ms = [m for m in S.dimension_set(ev.n) if m <= top]
    poles, rows = ev.basis_rows(top)
    limits = [max([top - m for m in ms if m >= rho], default=-1) for rho in poles]
    constrained = np.asarray(poles)[None, :] <= np.asarray(limits)[:, None]
    return not linalg.matmul(F, F.mul_table[rows, x[None, :]], rows.T)[constrained].any()


def _fibred(builder, fibration, half=False):
    def make():
        ev = evset(builder, fibration=fibration)
        return EvaluationSet(ev.curve, fibration, subset=ev.U[: len(ev.U) // 2]) if half else ev

    return make


TWIST_SETS = {
    **{path.stem: _from_file(path) for path in ALL_CURVE_FILES + TWISTED_FILES},
    "suzuki32": _from_file(SUZUKI32),
    "elliptic_gf3": lambda: evset(elliptic_gf3),
    **{
        f"{builder.__name__}_{fibration}{'_half' if half else ''}": _fibred(builder, fibration, half)
        for builder in (elliptic_gf9, hermitian_gf9, hermitian_gf16, hyper_even_45, nt_gf8, twisted_gf9)
        for fibration in ("x", "y")
        for half in (False, True)
    },
}


@pytest.mark.parametrize("name", TWIST_SETS)
def test_residue_twist_agrees_with_the_constrained_pair_gram_test(name):
    ev = TWIST_SETS[name]()
    cert, x = certify_duality(ev), ev.residue_twist()
    ones = np.ones(ev.n, dtype=np.uint16)
    if constrained_pair_gram_ok(ev, ones):
        status, twist = "self-dual", None
    else:
        status, twist = ("formally-self-dual", x) if constrained_pair_gram_ok(ev, x) else ("unverified", None)
    assert status != "unverified"
    assert cert.status == status
    assert (cert.twist is None and twist is None) or np.array_equal(cert.twist, twist)


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES, ids=lambda p: p.stem)
def test_a_twist_with_one_entry_changed_fails_the_oracle_and_the_certificate(monkeypatch, path):
    ev = _from_file(path)()
    F, x = ev.field, ev.residue_twist()
    bad = x.copy()
    j = ev.n // 2
    bad[j] = F.mul_table[x[j], F.exp[1]]
    assert bad[j] not in (0, x[j])
    assert constrained_pair_gram_ok(ev, x) and not constrained_pair_gram_ok(ev, bad)
    monkeypatch.setattr(ev, "residue_twist", lambda: bad)
    cert = certify_duality(ev)
    top = ev.n + 2 * ev.curve.genus - 2
    assert (cert.status, cert.reason) == ("unverified", f"the residue twist is not orthogonal to C({top}Q)")


def test_certify_duality_is_one_product_against_the_top_code(monkeypatch):
    calls = []
    original = linalg.matmul

    def spy(field, A, B):
        calls.append((A.shape, B.shape))
        return original(field, A, B)

    monkeypatch.setattr(linalg, "matmul", spy)
    monkeypatch.setattr(linalg, "kernel_basis", None)
    ev = evset(hermitian_gf16, fibration="y")
    g = ev.curve.genus
    assert certify_duality(ev).status == "formally-self-dual"
    assert calls == [((ev.n + g - 1, ev.n), (ev.n, 1))]  # l((n + 2g - 2)Q) = n + g - 1 rows


def test_a_curve_without_a_side_for_its_fibration_is_unverified():
    c = twisted_gf9()
    ev = EvaluationSet(PointedCurve(c.field, c.tag, c.generator_names, c.pole_orders, c.affine_coords))
    assert ev.residue_twist() is None
    cert = certify_duality(ev)
    assert cert.status == "unverified" and cert.twist is None
    assert cert.reason == "the curve records no side for fibration x"
    message = "duality certification failed for twisted-gf9: the curve records no side for fibration x"
    for construction in ("A", "B", "C"):
        with pytest.raises(ValueError, match=message):
            level_step(CodeSequence(ev), cert, construction)


def test_self_dual_certificate_matches_explicit_duals():
    for builder in (elliptic_gf4, suzuki8):
        ev = evset(builder)
        seq = CodeSequence(ev)
        assert certify_duality(ev).status == "self-dual"
        for i in range(ev.n + 1):
            assert seq.level(i).dual() == seq.level(ev.n - i)


def test_goppa_bound_suzuki_dual_poles():
    ev = evset(suzuki8)
    assert [goppa_bound(ev, m) for m in (67, 66, 65, 64)] == [5, 6, 7, 8]
    # below the kernel threshold the plain n - m floor rules
    assert goppa_bound(ev, 13) == 64 - 13
    assert goppa_bound(ev, 45) == 64 - 45


def test_goppa_bound_elliptic():
    ev = evset(elliptic_gf4)
    assert goppa_bound(ev, 3) == 5
    c = OnePointCode(ev, 3)
    d, status = c.code.min_weight()
    assert status == "exact" and d >= 5


def test_goppa_bound_genus_zero():
    # y = x^2 parametrizes a line; C(mQ) are Reed-Solomon codes with d = n - m
    line = sep_variable_curve(GF(4), [0, 1], [0, 0, 1], tag="line")
    assert line.genus == 0
    ev = EvaluationSet(line)
    for m in (1, 2, 3):
        assert goppa_bound(ev, m) == 4 - m
        d, status = OnePointCode(ev, m).code.min_weight()
        assert status == "exact" and d == 4 - m
    assert goppa_bound(ev, 4) == 1


def test_order_bound_delegates_to_semigroup():
    ev = evset(suzuki8)
    for m, want in {0: 2, 13: 3, 16: 4, 23: 4, 24: 4, 25: 6, 26: 6}.items():
        assert order_bound(ev, m) == want


def test_dual_distance_bound_suzuki():
    ev = evset(suzuki8)
    cert = certify_duality(ev)
    want = {0: 2, 13: 3, 16: 4, 23: 5, 24: 6, 25: 7, 26: 8}
    for m, b in want.items():
        assert dual_distance_bound(ev, m, cert) == b
    # without a certificate only the order bound survives
    assert dual_distance_bound(ev, 26, None) == 6


def closed_form_range(ev, factor):
    top = ev.n + 2 * ev.curve.genus - 2
    return max(m for m in ev.dimension_set() if factor * m <= top)


EUCLIDEAN_RANGES = [
    (suzuki8, 45),
    (elliptic_gf4, 4),
    (nt_gf8, 24),
    (hermitian_gf9, 15),
    (hyper_even_45, 17),
]

HERMITIAN_RANGES = [
    (elliptic_gf4, 2),
    (hyper_even_45, 6),
    (ntq_gf16, 8),
    (hermitian_gf9, 7),
    (maximal_gf81, 25),
    (maximal_gf64, 30),
    (maximal_2_6, 14),
]


def assert_range_ends_at(ev, m, mode):
    """C(mQ) is self-orthogonal and C at the next dimension-set pole is not.

    The codes are nested, so m is the largest self-orthogonal pole.
    """
    assert m in ev.dimension_set()
    assert OnePointCode(ev, m).code.is_self_orthogonal(mode)
    nxt = min(mm for mm in ev.dimension_set() if mm > m)
    assert not OnePointCode(ev, nxt).code.is_self_orthogonal(mode)


@pytest.mark.parametrize("builder,expected", EUCLIDEAN_RANGES, ids=lambda v: getattr(v, "__name__", str(v)))
def test_euclidean_self_orthogonality_range(builder, expected):
    ev = evset(builder)
    assert expected == closed_form_range(ev, 2)
    assert_range_ends_at(ev, expected, "euclidean")


@pytest.mark.parametrize("builder,expected", HERMITIAN_RANGES, ids=lambda v: getattr(v, "__name__", str(v)))
def test_hermitian_self_orthogonality_range(builder, expected):
    ev = evset(builder)
    qt = ev.field.p ** (ev.field.k // 2)
    assert expected == closed_form_range(ev, qt + 1)
    assert_range_ends_at(ev, expected, "hermitian")


def test_hermitian_range_requires_square_field():
    with pytest.raises(ValueError, match="square"):
        OnePointCode(evset(suzuki8), 0).code.is_self_orthogonal("hermitian")


def test_range_is_certified_by_containment():
    ev = evset(elliptic_gf4)
    m = closed_form_range(ev, 2)
    code = OnePointCode(ev, m).code
    assert code <= code.dual()
    nxt = min(mm for mm in ev.dimension_set() if mm > m)
    above = OnePointCode(ev, nxt).code
    assert not above <= above.dual()


# -- the flag without an elimination, and the bounds against exact distances -------


def test_a_sequence_and_its_levels_run_no_elimination(monkeypatch):
    ev = evset(hermitian_gf16)
    calls = []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or original(*args))
    seq = CodeSequence(ev)
    for i in (0, 1, 5, 12):
        seq.level(i)
    assert calls == []


def test_a_level_that_does_not_grow_is_an_error():
    ev = evset(elliptic_gf4)
    seq = CodeSequence(ev)
    seq._exponents[2] = seq._exponents[1]  # level 3 repeats the function of level 2
    seq.level(2)
    with pytest.raises(AssertionError, match=f"elliptic-gf4: level 3 does not grow at pole {seq.ms[2]}"):
        seq.level(3)


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES, ids=lambda p: p.stem)
def test_the_certified_dual_distance_bound_never_exceeds_the_exact_distance(monkeypatch, path):
    ev = _from_file(path)()
    seq, cert = CodeSequence(ev), certify_duality(ev)
    levels = [i for i in range(1, ev.n) if ev.field.order ** i <= 2 ** 16]
    assert levels
    monkeypatch.setenv("CASTLEQEC_BUDGET", str(2 ** 16))
    for i in levels:
        d, status = seq.level(i).dual().min_weight()
        assert status == "exact"
        assert dual_distance_bound(ev, seq.pole_of_level(i), cert) <= d
