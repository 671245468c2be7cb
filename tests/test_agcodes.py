import collections
import copy
import functools
import itertools
import json
import math
import random
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
    past_top,
    report_fields,
    trace_code,
)
from castleqec.codes import LinearCode
from castleqec.curves import EvaluationSet, PointedCurve, evaluation_set_from_json, sep_variable_curve
from castleqec.fields import GF
from castleqec.quantum import scan_sequence
from helpers import (
    certify_duality_by_rows,
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
    self_orthogonal_by_gram,
    star,
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
        levels = [seq.level(i) for i in range(n + 1)]  # one ascending sweep
        assert levels[0].dimension == 0
        assert levels[n].dimension == n
        for i in range(1, n + 1):
            assert levels[i].dimension == i
            assert levels[i - 1] <= levels[i]


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
    top = 40 if path == SUZUKI32 else n
    # the rows are handed out once the anti-diagonal proves their rank, in blocks that double
    seq = CodeSequence(ev)
    for i in range(top + 1):
        assert (seq.rows(i) == rows[list(grew[:i])]).all()
    for i in (0, 1, 2, top // 2, top):
        assert seq.level(i) == LinearCode(F, n, rows[list(grew[:i])])


@pytest.mark.parametrize("construction,max_i", [("hermitian", 3), ("A", 2), ("C", 0)])
def test_a_max_i_scan_builds_no_level_above_those_it_visits(monkeypatch, construction, max_i):
    levels, eliminated = [], []
    original_level, original_rref = CodeSequence.level, linalg.rref
    monkeypatch.setattr(CodeSequence, "level", lambda seq, i: levels.append(i) or original_level(seq, i))
    monkeypatch.setattr(linalg, "rref", lambda F, M, n=None: eliminated.append(len(M)) or original_rref(F, M, n))
    ev = evset(hermitian_gf16)
    for budget, built in ((16**max_i, list(range(1, max_i + 1))), (1, [])):  # each visited level once, or none
        levels.clear()
        eliminated.clear()
        monkeypatch.setenv("CASTLEQEC_BUDGET", str(budget))
        rows = scan_sequence(CodeSequence(ev), construction, max_i=max_i)
        assert [i for i, _ in rows] == list(range(max_i + 1))
        assert levels == eliminated == built  # nothing above, and no elimination over budget


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
    levels = [seq.level(i) for i in range(ev.n + 1)]  # one ascending sweep
    for i in range(ev.n + 1):
        assert levels[i].dual() == star(levels[ev.n - i], cert.twist)


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
    # v evaluated rows, their fiber sums T and one product T V^T, of which the l((n + 2g - 2)Q) = n + g - 1
    # entries within n + 2g - 2 must vanish: each one alone made nonzero fails the certificate
    ev = evset(hermitian_gf16, fibration="y")
    n, g, v, u = ev.n, ev.curve.genus, ev.fiber_size, len(ev.U)
    width = (n + 2 * g - 2) // v + 1
    asked, calls, poke = [], [], []
    original_rows, original_matmul = ev.monomial_rows, linalg.matmul

    def spy(field, A, B):
        calls.append((A.shape, B.shape))
        out = original_matmul(field, A, B)
        if A.shape == (v, u) and poke:
            out[poke[-1]] = 1
        return out

    monkeypatch.setattr(ev, "monomial_rows", lambda expos: asked.append(len(expos)) or original_rows(expos))
    monkeypatch.setattr(linalg, "matmul", spy)
    monkeypatch.setattr(linalg, "kernel_basis", None)
    assert certify_duality(ev).status == "formally-self-dual"
    assert asked == [v]
    assert calls == [((v * u, v), (v, 1)), ((v, u), (u, width))]
    required = 0
    for entry in itertools.product(range(v), range(width)):
        poke.append(entry)
        required += certify_duality(ev).status == "unverified"
    assert required == n + g - 1


def test_certify_duality_evaluates_its_rows_in_4_mb_blocks(monkeypatch):
    ev = evaluation_set_from_json({"family": "suzuki", "params": {"q0": 8}})  # n = 16,384, v = 128
    asked, original_rows = [], ev.monomial_rows
    monkeypatch.setattr(ev, "monomial_rows", lambda expos: asked.append(len(expos)) or original_rows(expos))
    assert certify_duality(ev).status == "self-dual"
    assert asked == [(1 << 22) // (8 * ev.n)] * 4


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES + [SUZUKI32], ids=lambda p: p.stem)
def test_the_fiber_sums_give_the_row_by_row_certificate(monkeypatch, path):
    # the true twist, the true twist with one entry scaled, and all ones where the flag is only
    # formally self-dual
    ev = _from_file(path)()
    F, x = ev.field, ev.residue_twist()
    twists = {"true": x}
    if F.order > 2:
        twists["scaled"] = x.copy()
        twists["scaled"][ev.n // 2] = F.mul_table[x[ev.n // 2], F.exp[1]]
    if (x != 1).any():
        twists["ones"] = np.ones(ev.n, dtype=np.uint16)
    for name, twist in twists.items():
        monkeypatch.setattr(ev, "residue_twist", lambda: twist)
        cert, oracle = certify_duality(ev), certify_duality_by_rows(ev)
        assert (cert.status, cert.reason) == (oracle.status, oracle.reason), name
        assert (cert.twist is None and oracle.twist is None) or np.array_equal(cert.twist, oracle.twist), name
        assert (oracle.status == "unverified") == (name != "true"), name


def test_a_point_order_that_does_not_run_fiber_by_fiber_fails_the_layout_assertion():
    ev = evset(hermitian_gf16)
    shuffled, v = copy.copy(ev), ev.fiber_size
    order = np.arange(ev.n)
    order[[v - 1, v]] = order[[v, v - 1]]  # the last point over U_0 trades places with the first over U_1
    shuffled.coords = ev.coords[:, order]
    with pytest.raises(AssertionError, match="points must run fiber by fiber"):
        certify_duality(shuffled)
    assert certify_duality(ev).status == "self-dual"


def sideless_twisted_gf9():
    """twisted-gf9 without the sides of its generators: its evaluation set has no residue twist."""
    c = twisted_gf9()
    return EvaluationSet(PointedCurve(c.field, c.tag, c.generator_names, c.pole_orders, c.affine_coords))


def test_a_curve_without_a_side_for_its_fibration_is_unverified():
    ev = sideless_twisted_gf9()
    assert ev.residue_twist() is None
    cert = certify_duality(ev)
    assert cert.status == "unverified" and cert.twist is None
    assert cert.reason == "the curve records no side for fibration x"


@pytest.mark.parametrize("construction", ["A", "B", "C", "hermitian"])
def test_a_flag_that_certify_duality_does_not_prove_is_refused(construction):
    message = "duality certification failed for twisted-gf9: the curve records no side for fibration x"
    with pytest.raises(ValueError, match=message):
        scan_sequence(CodeSequence(sideless_twisted_gf9()), construction)


FIELD_ORDERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def sampled_descriptors(rng, count):
    """Suzuki curves over GF(8) and GF(32), every norm-trace quotient Tr(y) = x^u for q^r <= 32 on
    both fibrations, then random sep, hyperodd and hypereven curves over fields of order 3 to 32
    up to count descriptors."""
    out = [{"family": "suzuki", "params": {"q0": q0}} for q0 in (2, 4)]
    for q, r in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2)]:
        quotient = (q**r - 1) // (q - 1)
        for u in (u for u in range(1, quotient + 1) if quotient % u == 0):
            out += [{"family": "ntq", "params": {"q": q, "r": r, "u": u}, "fibration": f} for f in "xy"]
    while len(out) < count:
        F = GF(rng.choice(FIELD_ORDERS))
        poly = lambda degree: [rng.randrange(F.order) for _ in range(degree)] + [rng.randrange(1, F.order)]
        family = rng.choice(["sep", "hyperodd" if F.p > 2 else "hypereven"])
        if family == "sep":
            a = rng.randrange(2, 6)
            params = {"f": poly(a), "g": poly(rng.choice([b for b in range(2, 8) if math.gcd(a, b) == 1]))}
        else:
            params = {"f": poly(rng.choice([3, 5, 7]))}
        out.append({"family": family, "field": {"p": F.p, "k": F.k}, "params": params, "fibration": rng.choice("xy")})
    return out


def test_certify_duality_proves_every_sampled_descriptor_that_loads():
    # the premise of a flag that certifies itself: no set the CLI can load is refused; a descriptor
    # with no totally split fiber does not load, and each that does also gives four random subsets
    rng = random.Random(2027)
    statuses, fibrations = collections.Counter(), collections.Counter()
    for descriptor in sampled_descriptors(rng, 1000):
        try:
            ev = evaluation_set_from_json(descriptor)
        except ValueError:
            continue
        subsets = [rng.sample(ev.U, rng.randrange(1, len(ev.U))) for _ in range(4)] if len(ev.U) > 1 else []
        for one in [ev] + [EvaluationSet(ev.curve, ev.fibration, subset) for subset in subsets]:
            cert = certify_duality(one)
            assert cert.status != "unverified", (descriptor, one.U, cert.reason)
            statuses[cert.status] += 1
            fibrations[one.fibration] += 1
    assert sum(statuses.values()) >= 2000
    assert set(statuses) == {"self-dual", "formally-self-dual"} and min(statuses.values()) > 100
    assert set(fibrations) == {"x", "y"} and min(fibrations.values()) > 100


def test_self_dual_certificate_matches_explicit_duals():
    for builder in (elliptic_gf4, suzuki8):
        ev = evset(builder)
        seq = CodeSequence(ev)
        assert certify_duality(ev).status == "self-dual"
        levels = [seq.level(i) for i in range(ev.n + 1)]  # one ascending sweep
        for i in range(ev.n + 1):
            assert levels[i].dual() == levels[ev.n - i]


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


# -- the flag's rank proof and pole sums, and the bounds against exact distances ----


@pytest.mark.parametrize("path", [CURVE_FILES[0], TWISTED_FILES[0], ALL_CURVE_FILES[-1]], ids=lambda p: p.stem)
def test_levels_asked_for_in_descending_order_equal_the_ascending_ones(path):
    ev = _from_file(path)()
    top = min(ev.n, 40)
    descending = CodeSequence(ev)
    down = [descending.level(i) for i in range(top, -1, -1)]  # the first call evaluates every row the later ones take
    ascending = CodeSequence(ev)
    assert down[::-1] == [ascending.level(i) for i in range(top + 1)]


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES + [SUZUKI32], ids=lambda p: p.stem)
def test_the_pole_sum_mask_skips_only_zero_gram_entries(path):
    # the whole Gram matrix of the flag's basis functions, sum x f_s f_t^e, against past_top:
    # every pair it leaves out vanishes, and the rank certificate's anti-diagonal does not
    ev = _from_file(path)()
    F, n, ms = ev.field, ev.n, ev.dimension_set()
    cert = certify_duality(ev)
    assert cert.status != "unverified"
    x = np.ones(n, dtype=np.uint16) if cert.twist is None else cert.twist
    poles, rows = ev.basis_rows(ms[-1])
    B = rows[[poles.index(m) for m in ms]]  # f_1 .. f_n, one per level
    twisted = F.mul_table[B, x[None, :]]
    forms = [1] + ([F.sqrt_order()] if F.k % 2 == 0 else [])  # euclidean, and hermitian over a square field
    grams = {e: linalg.matmul(F, twisted, F.pow_table(e)[B].T) for e in forms}
    for e, gram in grams.items():
        assert not gram[~past_top(ev, ms, ms, e)].any(), e
    half = np.arange((n + 1) // 2)
    assert grams[1][half, n - 1 - half].all()
    a, b = np.indices((n, n))
    assert not past_top(ev, ms, ms)[a + b <= n - 2].any()  # the zeros below the anti-diagonal are the mask's


def test_a_level_that_does_not_grow_is_an_error():
    seq = CodeSequence(evset(elliptic_gf4))
    seq._exponents[2] = seq._exponents[1]  # level 3 repeats the function of level 2
    seq.level(2)
    with pytest.raises(AssertionError, match=f"elliptic-gf4: level 3 does not grow at pole {seq.ms[2]}"):
        seq.level(3)


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES, ids=lambda p: p.stem)
def test_a_misordered_basis_fails_the_rank_certificate(path):
    # the anti-diagonal sees the pole orders, not only the span: the function of level a + 1 moved to
    # level a + 2 has a pole sum within n + 2g - 2 with its mirror row, if the function moved down has
    # not already failed at level a + 1
    ev = _from_file(path)()
    for a in sorted({0, 1, ev.n // 4, (ev.n + 1) // 2 - 2}):
        seq = CodeSequence(ev)
        seq._exponents[a], seq._exponents[a + 1] = seq._exponents[a + 1], seq._exponents[a]
        with pytest.raises(AssertionError, match=f"level ({a + 1} .* {seq.ms[a]}|{a + 2} .* {seq.ms[a + 1]})$"):
            seq.rows(a + 2)


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


# -- self-orthogonality: the Gram product only where the dimension does not decide ----------


def _last_true(pred, count):
    """The largest i < count with pred(i), pred true on a prefix of range(count); -1 if none."""
    lo, hi = -1, count
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("path", ALL_CURVE_FILES + TWISTED_FILES, ids=lambda p: p.stem)
def test_is_self_orthogonal_matches_the_whole_gram_product(path):
    # the flag C(mQ) and the trace codes to each subfield are nested, so self-orthogonality and 2k <= n
    # hold on a prefix: sampled codes, and the last code of each prefix and the next, in both modes
    # where the field is square
    ev = _from_file(path)()
    F, n, ms = ev.field, ev.n, ev.dimension_set()
    seq = CodeSequence(ev)
    families = [(F, n + 1, functools.cache(seq.level))]
    for j in range(1, F.k):
        if F.k % j == 0:
            small = GF(F.p**j)
            families.append((small, len(ms), functools.cache(lambda i, small=small: trace_code(ev, ms[i], small))))
    for field, count, code in families:
        half = _last_true(lambda i: 2 * code(i).dimension <= n, count)
        for mode in ("euclidean", "hermitian") if field.k % 2 == 0 else ("euclidean",):
            last = _last_true(lambda i: self_orthogonal_by_gram(code(i), mode), count)
            picks = {*range(0, count, max(1, count // 4)), count - 1, last, last + 1, half, half + 1}
            for i in sorted(picks & set(range(count))):
                assert code(i).is_self_orthogonal(mode) == self_orthogonal_by_gram(code(i), mode), (field, mode, i)


def test_report_fields_forms_no_gram_product_past_half_length(monkeypatch):
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")  # no weight enumeration: every product is a Gram product
    products = []
    original = linalg.matmul
    monkeypatch.setattr(linalg, "matmul", lambda *args: products.append(1) or original(*args))
    ev = evset(hermitian_gf16)
    seq = CodeSequence(ev)
    big = trace_code(ev, ev.dimension_set()[-1], GF(2))
    for code, expected in ((seq.level(32), 2), (seq.level(33), 0), (seq.level(64), 0), (big, 0)):
        products.clear()
        report_fields(code)
        assert len(products) == expected, code
