"""End-to-end acceptance runs: full pipelines, thresholds, and property sweeps.

Each pipeline test rebuilds its codes from scratch, checks them against the
expected rows, and asserts a wall-clock budget.  The property sweeps at the
bottom check theorem-level identities exhaustively at desk scale.
"""

import random
import time

import numpy as np

import helpers
from castleqec import repro
from castleqec.agcodes import (
    CodeSequence,
    OnePointCode,
    certify_duality,
    incomplete_trace_search,
    trace_code,
)
from castleqec.codes import LinearCode
from castleqec.fields import GF
from castleqec.kernels import enumerate_weights
from castleqec.quantum import css_nested, css_self_orthogonal, gv_status
from castleqec.repro import ExpectedRow, check_row
from castleqec.quantum import QuantumParams
from helpers import evset, is_castle, is_symmetric, random_code, star


def _under(start, cap):
    elapsed = time.monotonic() - start
    assert elapsed < cap, f"took {elapsed:.1f}s, budget {cap}s"


# -- elliptic curve over GF(4) -------------------------------------------------


def test_elliptic_gf4_pipeline():
    start = time.monotonic()
    ev = evset(helpers.elliptic_gf4)
    assert ev.dimension_set() == [0, 2, 3, 4, 5, 6, 7, 9]
    assert certify_duality(ev).status == "self-dual"
    # C(mQ)^perp = C((8-m)Q) for every m in the dimension set up to n+2g-2 = 8
    for m in (0, 2, 3, 4, 5, 6, 7):
        assert OnePointCode(ev, m).code.dual() == OnePointCode(ev, 8 - m).code

    report = repro.run_target("elliptic-gf4")
    assert report.passed
    (result,) = report.results
    assert str(result.params) == "[[8,6,2]]_2"
    assert result.params.d_provenance == "exact"
    assert gv_status(8, 6, 2, 2)[0] == "exceeds"
    _under(start, 1)


# -- Suzuki curve over GF(8) -----------------------------------------------------


def test_suzuki_pipeline():
    start = time.monotonic()
    curve = helpers.suzuki8()
    assert curve.num_rational_points == 65
    assert curve.genus == 14
    # NOTE: 9 is a gap at this place; the genus-14 symmetric Weierstrass
    # semigroup here is generated by (8, 10, 12, 13), not by any set with a 9.
    assert curve.semigroup.generators == (8, 10, 12, 13)
    assert 9 in curve.semigroup.gaps
    assert is_symmetric(curve.semigroup)

    ev = evset(helpers.suzuki8)
    # the euclidean self-orthogonality range ends at 45: the codes are
    # nested, and C(45Q) passes the matrix test while the next level fails it
    assert 45 in ev.dimension_set()
    assert OnePointCode(ev, 45).code.is_self_orthogonal("euclidean")
    m_next = min(m for m in ev.dimension_set() if m > 45)
    assert m_next == 46
    assert not OnePointCode(ev, m_next).code.is_self_orthogonal("euclidean")

    report = repro.run_target("suzuki8")
    assert report.passed
    by_label = {r.row.label: r for r in report.results}
    for i in (1, 5, 6):  # n - k <= 12: dual-side enumeration is in budget
        assert by_label[f"construction C, i={i}"].params.d_provenance == "exact"
    # NOTE: the listed distance at i=5 is 3, but exact enumeration gives 4
    assert by_label["construction C, i=5"].params.d == 4
    for i in (11, 12, 13, 14):
        result = by_label[f"construction C, i={i}"]
        assert result.params.d >= result.row.d  # certified bound reaches the listed d

    assert gv_status(64, 62, 2, 8)[0] == "meets"
    assert gv_status(64, 52, 4, 8)[0] == "meets"
    _under(start, 120)


# -- elliptic curve over GF(9) ---------------------------------------------------


def test_elliptic_gf9_pipeline():
    start = time.monotonic()
    curve = helpers.elliptic_gf9()
    assert curve.num_rational_points == 16
    assert is_symmetric(curve.semigroup)
    ev = evset(helpers.elliptic_gf9, fibration="y")
    assert ev.n == 15  # complete: every fiber of y is totally split

    report = repro.run_target("elliptic-gf9")
    assert report.passed
    for result in report.results:
        assert result.params.d_provenance == "exact"
    tagged = [r for r in report.results if r.row.tag == "dagger"]
    assert len(tagged) == 4
    for result in tagged:
        assert result.gv == "meets"
    _under(start, 120)


# -- even hyperelliptic curves ---------------------------------------------------


def test_hyperelliptic_even_pipeline():
    start = time.monotonic()
    report = repro.run_target("hyper-even")
    assert report.passed
    assert [str(r.params) for r in report.results] == [
        "[[8,6,2]]_2",
        "[[32,30,2]]_4",
        "[[32,24,4]]_4",
    ]
    for result in report.results:
        assert result.params.d_provenance == "exact" and result.gv == "exceeds"

    # hermitian self-orthogonality threshold (q+1)m <= 2q^2 + u - 3,
    # checked against matrix tests at every level of the sequence
    for q, u, builder in ((2, 3, helpers.elliptic_gf4), (4, 5, helpers.hyper_even_45)):
        ev = evset(builder)
        seq = CodeSequence(ev)
        for i, m in enumerate(seq.ms, start=1):
            predicted = (q + 1) * m <= 2 * q * q + u - 3
            assert seq.level(i).is_self_orthogonal("hermitian") == predicted
        assert (2 * q * q + u - 3) // (q + 1) in seq.ms
    _under(start, 60)


# -- norm-trace curves -----------------------------------------------------------


def test_norm_trace_pipeline():
    start = time.monotonic()
    ntq = evset(helpers.ntq_gf16)
    # the self-orthogonality ranges end at 8 and 24: the codes are nested
    assert 8 in ntq.dimension_set()
    assert OnePointCode(ntq, 8).code.is_self_orthogonal("hermitian")
    assert not OnePointCode(ntq, 9).code.is_self_orthogonal("hermitian")

    nt = evset(helpers.nt_gf8)
    assert 24 in nt.dimension_set()
    assert OnePointCode(nt, 24).code.is_self_orthogonal("euclidean")
    assert not OnePointCode(nt, 25).code.is_self_orthogonal("euclidean")

    report = repro.run_target("normtrace")
    assert report.passed
    for result in report.results:
        assert result.params.d_provenance == "exact"
    # NOTE: the [[32,26,3]]_8 row is listed as exceeding the GV threshold,
    # but the exact integers say it meets the threshold; the run surfaces that.
    noted = {r.row.triple(): r.notes for r in report.results}
    assert any("meets" in n for n in noted["[[32,26,3]]_8"])
    _under(start, 180)


# -- trace descent ---------------------------------------------------------------


def test_trace_descent_pipeline():
    start = time.monotonic()
    ev = evset(helpers.suzuki8)
    assert 30 in ev.dimension_set()
    assert trace_code(ev, 30, GF(2)).is_self_orthogonal("euclidean")
    m_next = min(m for m in ev.dimension_set() if m > 30)
    assert not trace_code(ev, m_next, GF(2)).is_self_orthogonal("euclidean")

    descended = trace_code(ev, 30, GF(2))
    assert descended.dimension == 32
    assert descended.dual() == descended  # self-dual binary [64, 32]

    for m, expect in ((0, (64, 62, 2)), (10, (64, 50, 4))):
        params = css_self_orthogonal(trace_code(ev, m, GF(2)))
        assert (params.n, params.k, params.d) == expect
        assert params.q == 2 and params.d_provenance == "exact"
        assert gv_status(params.n, params.k, params.d, 2)[0] == "exceeds"

    found = incomplete_trace_search(evset(helpers.elliptic_gf4), 3, GF(2))
    assert found is not None
    code, _ = found
    assert (code.n, code.dimension) == (8, 4)
    assert code.dual() == code
    params = css_self_orthogonal(code)
    assert (params.n, params.k, params.d, params.d_provenance) == (8, 0, 4, "exact")

    report = repro.run_target("hermitian-trace")
    assert report.passed
    assert gv_status(27, 19, 3, 3)[0] == "meets"
    assert gv_status(64, 56, 3, 4)[0] == "meets"
    _under(start, 180)


# -- large maximal curves ----------------------------------------------------------


def test_maximal_curves_pipeline():
    start = time.monotonic()
    for builder, threshold in (
        (helpers.maximal_gf81, 25),
        (helpers.maximal_gf64, 30),
        (helpers.maximal_2_6, 14),
    ):
        ev = evset(builder)
        assert threshold in ev.dimension_set()
        assert OnePointCode(ev, threshold).code.is_self_orthogonal("hermitian")
        m_next = min(m for m in ev.dimension_set() if m > threshold)
        assert not OnePointCode(ev, m_next).code.is_self_orthogonal("hermitian")

    for identifier in ("maximal-q9", "maximal-q8", "maximal-2-6"):
        report = repro.run_target(identifier)
        assert report.passed, [r.failures for r in report.results if not r.passed]
        for result in report.results:
            assert result.params.d >= result.row.d
            assert not any("bound-gap" in f for f in result.failures)

    # a shortfall must be reported as a bound gap, never silently passed
    gap = check_row(
        ExpectedRow("fabricated", 243, 213, 9, 9, "dagger", "bound"),
        QuantumParams(243, 213, 6, 9, "lower-bound", "hermitian"),
    )
    assert not gap.passed
    assert gap.failures == ("bound-gap: certified bound 6 < listed 9",)
    _under(start, 300)


# -- GV classifier over every tagged triple ----------------------------------------


DAGGER_TRIPLES = (
    (15, 3, 6, 9),
    (15, 5, 5, 9),
    (15, 7, 4, 9),
    (15, 13, 2, 9),
    (27, 19, 3, 3),
    (32, 24, 3, 4),
    (32, 28, 2, 8),
    (64, 52, 4, 4),
    (64, 52, 4, 8),
    (64, 54, 3, 4),
    (64, 56, 3, 4),
    (64, 62, 2, 8),
    (125, 117, 3, 5),
    (128, 116, 4, 8),
    (176, 146, 9, 8),
    (176, 150, 8, 8),
    (243, 213, 9, 9),
    (243, 233, 3, 9),
    (256, 248, 3, 8),
    (343, 335, 3, 7),
    (512, 504, 3, 8),
    (729, 715, 3, 3),
    (729, 721, 3, 9),
)

DDAGGER_TRIPLES = (
    (8, 6, 2, 2),
    (32, 20, 4, 2),
    (32, 24, 4, 4),
    (32, 30, 2, 4),
    (64, 50, 4, 2),
    (64, 62, 2, 2),
    (128, 108, 8, 8),
    (128, 112, 4, 2),
    (128, 112, 6, 8),
    (128, 126, 2, 8),
    (243, 241, 2, 9),
    (256, 254, 2, 8),
    (512, 492, 4, 2),
)


def test_gv_tags_recomputed():
    start = time.monotonic()
    assert len(DAGGER_TRIPLES) + len(DDAGGER_TRIPLES) + 1 >= 25
    for n, k, d, q in DAGGER_TRIPLES:
        assert gv_status(n, k, d, q)[0] == "meets", (n, k, d, q)
    for n, k, d, q in DDAGGER_TRIPLES:
        assert gv_status(n, k, d, q)[0] == "exceeds", (n, k, d, q)
    # NOTE: [[32,26,3]]_8 is listed with the "exceeds" mark, but the exact
    # comparison gives equality, i.e. "meets"; see the normtrace pipeline note.
    assert gv_status(32, 26, 3, 8)[0] == "meets"
    _under(start, 5)


# -- property sweeps ---------------------------------------------------------------


def test_delsarte_identity_sweep():
    for q, q0 in ((4, 2), (8, 2), (9, 3), (16, 2), (16, 4)):
        small = GF(q0)
        rng = random.Random(q * 100 + q0)
        for _ in range(100):
            n = rng.randrange(1, 13)
            k = rng.randrange(0, n + 1)
            C = random_code(rng, q, k, n)
            assert helpers.subfield_subcode(C, small) == C.dual().trace_code(small).dual()


SMALL_EVSETS = (
    ("elliptic-gf3", lambda: evset(helpers.elliptic_gf3)),
    ("elliptic-gf4", lambda: evset(helpers.elliptic_gf4)),
    ("elliptic-gf9/x", lambda: evset(helpers.elliptic_gf9)),
    ("elliptic-gf9/y", lambda: evset(helpers.elliptic_gf9, fibration="y")),
    ("twisted-gf9", lambda: evset(helpers.twisted_gf9)),
    ("hermitian-gf9", lambda: evset(helpers.hermitian_gf9)),
    ("ntq-2-4-3", lambda: evset(helpers.ntq_gf16)),
    ("normtrace-2-3-7", lambda: evset(helpers.nt_gf8)),
    ("hyper-even-45", lambda: evset(helpers.hyper_even_45)),
    ("suzuki8", lambda: evset(helpers.suzuki8)),
    ("hermitian-gf16", lambda: evset(helpers.hermitian_gf16)),
)


def test_dual_ag_duality_sweep():
    # C(mQ)^perp = x * C((n + 2g - 2 - m)Q) for every curve with n <= 64,
    # at every m in the dimension set; x is the certified twist (or all ones)
    for label, build in SMALL_EVSETS:
        ev = build()
        assert ev.n <= 64
        cert = certify_duality(ev)
        assert cert.status != "unverified", label
        x = cert.twist if cert.twist is not None else np.ones(ev.n, dtype=np.uint16)
        top = ev.n + 2 * ev.curve.genus - 2
        for m in ev.dimension_set():
            mperp = top - m
            if mperp < 0:
                expected = LinearCode(ev.field, ev.n)
            else:
                expected = OnePointCode(ev, mperp).code
            assert OnePointCode(ev, m).code.dual() == star(expected, x), (label, m)


ALL_CURVES = (
    (helpers.elliptic_gf3, 1, True),
    (helpers.elliptic_gf4, 1, True),
    (helpers.elliptic_gf9, 1, False),  # complete weak Castle: 16 points, not 19
    (helpers.twisted_gf9, 4, True),
    (helpers.hermitian_gf9, 3, True),
    (helpers.hermitian_gf16, 6, True),
    (helpers.hyper_even_45, 2, True),
    (helpers.suzuki8, 14, True),
    (helpers.ntq_gf16, 7, False),  # proper quotient: 33 points, not 49
    (helpers.nt_gf8, 9, True),
    (helpers.maximal_gf81, 9, True),
    (helpers.maximal_gf64, 12, True),
    (helpers.maximal_2_6, 4, True),
)


def test_genus_is_gap_count():
    for builder, genus, _ in ALL_CURVES:
        curve = builder()
        assert curve.genus == genus
        assert len(curve.semigroup.gaps) == genus
        # gap count recomputed from scratch by membership
        conductor = curve.semigroup.conductor
        assert sum(not curve.semigroup.contains(i) for i in range(conductor)) == genus


def test_castle_point_count_identity():
    for builder, _, castle in ALL_CURVES:
        curve = builder()
        assert is_castle(curve) == castle, curve.tag
        if castle:
            expected = curve.field.order * curve.semigroup.multiplicity + 1
            assert curve.num_rational_points == expected


def test_star_weight_distribution_invariance():
    rng = random.Random(2026)
    for q in (2, 4, 9):
        F = GF(q)
        for _ in range(25):
            n = rng.randrange(2, 9)
            k = rng.randrange(1, min(n, 4) + 1)
            C = random_code(rng, q, k, n)
            x = np.array([rng.randrange(1, q) for _ in range(n)], dtype=np.uint16)
            before = enumerate_weights(F, C.matrix)
            after = enumerate_weights(F, star(C, x).matrix)
            assert (before == after).all()


def test_css_self_orthogonal_matches_nested():
    cases = (
        OnePointCode(evset(helpers.elliptic_gf4), 2).code,
        OnePointCode(evset(helpers.suzuki8), 10).code,
        OnePointCode(evset(helpers.nt_gf8), 14).code,
        trace_code(evset(helpers.suzuki8), 10, GF(2)),
    )
    for C in cases:
        a = css_self_orthogonal(C)
        b = css_nested(C, C.dual())
        assert (a.n, a.k, a.d, a.q, a.d_provenance) == (b.n, b.k, b.d, b.q, b.d_provenance)
