import json
from pathlib import Path

import pytest

from castleqec import linalg
from castleqec.agcodes import (
    CodeSequence,
    OnePointCode,
    certify_duality,
    incomplete_trace_search,
)
from castleqec.codes import LinearCode
from castleqec.curves import evaluation_set_from_json
from castleqec.fields import GF
from castleqec.quantum import (
    QuantumParams,
    _certified_partner,
    _in_certified_partner,
    css_hermitian,
    css_nested,
    css_self_orthogonal,
    gv_status,
    scan_sequence,
)
from helpers import (
    elliptic_gf4,
    elliptic_gf9,
    evset,
    hermitian_gf9,
    hyper_even_45,
    ntq_gf16,
    suzuki8,
    twisted_gf9,
)


def test_css_self_orthogonal_equals_nested():
    for builder, m in [(elliptic_gf4, 2), (suzuki8, 13)]:
        code = OnePointCode(evset(builder), m).code
        a = css_self_orthogonal(code)
        b = css_nested(code, code.dual())
        assert (a.n, a.k, a.d, a.q) == (b.n, b.k, b.d, b.q)


def test_css_nested_elliptic_gf9_rows():
    ev = evset(elliptic_gf9, fibration="y")
    seq = CodeSequence(ev)
    expected = {1: (13, 2), 4: (7, 4), 5: (5, 5), 6: (3, 6), 7: (1, 7)}
    for i, (k, d) in expected.items():
        p = css_nested(seq.level(i), seq.level(15 - i))
        assert (p.n, p.k, p.d, p.q, p.d_provenance) == (15, k, d, 9, "exact")


def test_css_hermitian_examples():
    rows = [
        (elliptic_gf4, None, 0, (8, 6, 2, 2)),
        (ntq_gf16, None, 8, (32, 24, 3, 4)),
        (hyper_even_45, None, 5, (32, 24, 4, 4)),
    ]
    for builder, fib, m, want in rows:
        ev = evset(builder) if fib is None else evset(builder, fibration=fib)
        p = css_hermitian(OnePointCode(ev, m).code)
        assert (p.n, p.k, p.d, p.q) == want
        assert p.d_provenance == "exact"


def test_css_zero_rate_code():
    ev = evset(elliptic_gf4)
    code, _ = incomplete_trace_search(ev, 3, GF(2))
    p = css_self_orthogonal(code)
    assert (p.n, p.k, p.d, p.q) == (8, 0, 4, 2)


def test_css_nested_rejects_non_nested():
    ev = evset(elliptic_gf4)
    seq = CodeSequence(ev)
    with pytest.raises(ValueError, match="nested"):
        css_nested(seq.level(3), seq.level(2))


def test_css_hermitian_rejects_above_range():
    ev = evset(hermitian_gf9)
    with pytest.raises(ValueError, match="hermitian"):
        css_hermitian(OnePointCode(ev, 8).code)


def test_construction_a_hermitian_gf9():
    from castleqec.agcodes import self_orthogonality_range

    ev = evset(hermitian_gf9)
    seq = CodeSequence(ev)
    cert = certify_duality(ev)
    rows = scan_sequence(seq, cert, "A")[1:]
    # levels m = 0,3,4,6,7 pass the gate; m = 8 fails it, matching the
    # directly computed hermitian self-orthogonality range
    assert [seq.pole_of_level(i) for i, _ in rows] == [0, 3, 4, 6, 7]
    assert rows[-1][0] and seq.pole_of_level(rows[-1][0]) == self_orthogonality_range(ev, "hermitian")
    for i, p in rows:
        assert (p.n, p.k, p.q) == (27, 27 - 2 * i, 3)
        assert p.d_provenance == "exact"
    assert [p.d for _, p in rows] == [2, 2, 3, 3, 3]


def test_construction_a_gate_is_hermitian_self_orthogonality():
    # on an exactly self-dual flag, i + q(i) <= n with q(i) the least j such
    # that C_i^[q~] <= C_j says C_i <= C_i^perpH, the gate scan_sequence tests
    for builder in (elliptic_gf4, hermitian_gf9, hyper_even_45):
        ev = evset(builder)
        seq = CodeSequence(ev)
        assert certify_duality(ev).status == "self-dual"
        n, qt = seq.n, ev.field.sqrt_order()
        for i in range(1, n + 1):
            level = seq.level(i)
            frob = level.frobenius_power(qt)
            q_i = next(j for j in range(n + 1) if seq.level(j).contains_code(frob))
            assert (i + q_i <= n) == (level <= level.hermitian_dual())


def test_construction_a_requires_exact_self_duality():
    ev = evset(elliptic_gf9, fibration="y")
    with pytest.raises(ValueError, match="self-dual"):
        scan_sequence(CodeSequence(ev), certify_duality(ev), "A")


def test_construction_b_twisted_gf9():
    ev = evset(twisted_gf9)
    assert ev.curve.is_castle
    seq = CodeSequence(ev)
    cert = certify_duality(ev)
    assert cert.status == "formally-self-dual"
    # the twist lives in GF(3), so the hermitian root exists entrywise
    F = ev.field
    x = cert.twist
    assert (F.pow_table(3)[x] == x).all()
    rows = scan_sequence(seq, cert, "B")[1:]
    assert [i for i, _ in rows] == [1, 2, 3, 4, 5, 6, 7]
    for i, p in rows:
        assert (p.n, p.k, p.q) == (18, 18 - 2 * i, 3)
        assert p.d_provenance == "exact"
    assert [p.d for _, p in rows] == [2, 2, 2, 2, 2, 4, 4]


def test_construction_b_elliptic_gf9():
    ev = evset(elliptic_gf9, fibration="y")
    seq = CodeSequence(ev)
    cert = certify_duality(ev)
    rows = scan_sequence(seq, cert, "B")[1:]
    assert [(i, p.n, p.k, p.d, p.q) for i, p in rows] == [
        (1, 15, 13, 2, 3),
        (2, 15, 11, 2, 3),
        (3, 15, 9, 3, 3),
    ]


def test_construction_b_rejects_unsuitable_twists():
    ev = evset(suzuki8)
    seq = CodeSequence(ev)
    with pytest.raises(ValueError, match="square"):
        scan_sequence(seq, certify_duality(ev), "B")  # GF(8) is not a square
    # the x-fibration twist takes values outside GF(3), so no root exists
    ev9 = evset(elliptic_gf9, fibration="x")
    with pytest.raises(ValueError, match="valued"):
        scan_sequence(CodeSequence(ev9), certify_duality(ev9), "B")


def test_construction_c_suzuki():
    ev = evset(suzuki8)
    seq = CodeSequence(ev)
    cert = certify_duality(ev)
    rows = dict(scan_sequence(seq, cert, "C", max_i=14))
    # at i=5 the exact relative weight is 4, one better than the order bound 3
    # (no weight-3 triple of evaluation columns is dependent)
    exact = {1: 2, 5: 4, 6: 4}
    for i, d in exact.items():
        p = rows[i]
        assert (p.n, p.k, p.d, p.q, p.d_provenance) == (64, 64 - 2 * i, d, 8, "exact")
    bounded = {11: 5, 12: 6, 13: 7, 14: 8}
    for i, d in bounded.items():
        p = rows[i]
        assert (p.n, p.k, p.d, p.q, p.d_provenance) == (64, 64 - 2 * i, d, 8, "lower-bound")


def test_gv_worked_examples():
    assert gv_status(8, 6, 2, 2) == ("exceeds", 1)
    assert gv_status(64, 62, 2, 8) == ("meets", 2)
    assert gv_status(243, 241, 2, 9) == ("exceeds", 1)
    assert gv_status(32, 26, 3, 8) == ("meets", 3)
    assert gv_status(15, 14, 2, 9) == ("not-applicable", None)  # parity
    assert gv_status(15, 1, 7, 9) == ("not-applicable", None)  # k < 2
    assert gv_status(8, 0, 4, 2) == ("not-applicable", None)
    assert gv_status(8, 8, 2, 2) == ("not-applicable", None)  # n = k


def test_gv_statuses_partition_by_d_max():
    for n, k, q in [(64, 52, 8), (32, 24, 4), (128, 112, 8), (27, 19, 3)]:
        _, d_max = gv_status(n, k, 2, q)
        assert d_max >= 1
        for d in range(2, d_max + 2):
            status, again = gv_status(n, k, d, q)
            assert again == d_max
            assert status == ("below" if d < d_max else "meets" if d == d_max else "exceeds")


def test_gv_threshold_is_exact_at_the_boundary():
    # recompute both sides of the defining inequality at d_max and d_max + 1
    import math

    n, k, q = 64, 52, 8
    _, d_max = gv_status(n, k, 2, q)
    lhs = (q ** (n - k + 2) - 1) // (q * q - 1)
    rhs = sum((q * q - 1) ** (i - 1) * math.comb(n, i) for i in range(1, d_max))
    assert lhs > rhs
    rhs_next = rhs + (q * q - 1) ** (d_max - 1) * math.comb(n, d_max)
    assert lhs <= rhs_next


def test_quantum_params_formatting_and_bounds():
    p = QuantumParams(8, 6, 2, 2, "exact", "hermitian")
    assert str(p) == "[[8,6,2]]_2"
    assert p.with_bound(1) is p
    missing = QuantumParams(64, 42, None, 8, "lower-bound", "C")
    assert str(missing) == "[[64,42,?]]_8"
    filled = missing.with_bound(5)
    assert filled.d == 5 and filled.d_provenance == "lower-bound"


# -- each scan level builds only what its row reads --------------------------------

ROOT = Path(__file__).resolve().parent.parent
CURVE_FILES = sorted(ROOT.glob("curves/*.json")) + sorted(ROOT.glob("perfbench/curves/*.json"))


def load(path):
    return evaluation_set_from_json(json.loads(Path(path).read_text()))


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_certified_partner_is_the_sequence_level(path):
    ev = load(path)
    cert = certify_duality(ev)
    if cert.status == "unverified":
        pytest.skip("no verified certificate")
    seq, n = CodeSequence(ev), ev.n
    for i in range(1, n // 2 + 1):
        level, partner = seq.level(i), seq.level(n - i)
        assert _certified_partner(level, cert.twist) == partner
        assert partner.contains_code(level) and _in_certified_partner(level, cert.twist)
    # past n/2 the Gram test refuses, as containment does
    above, below = seq.level(n // 2 + 1), seq.level(n - n // 2 - 1)
    assert not below.contains_code(above) and not _in_certified_partner(above, cert.twist)


@pytest.mark.parametrize(
    "path,construction",
    [(ROOT / "curves/hermitian-gf16.json", c) for c in ("A", "B", "C", "hermitian")]
    + [(ROOT / "curves/twisted-gf9.json", c) for c in ("B", "C", "hermitian")],
    ids=lambda v: v if isinstance(v, str) else v.stem,
)
def test_a_budget_one_scan_builds_no_dual(monkeypatch, path, construction):
    ev = load(path)
    seq, cert = CodeSequence(ev), certify_duality(ev)
    built = []

    def spy(name, original):
        def recording(*args):
            built.append(name)
            return original(*args)

        return recording

    for name in ("dual", "hermitian_dual", "contains_code"):
        monkeypatch.setattr(LinearCode, name, spy(name, getattr(LinearCode, name)))
    monkeypatch.setattr(linalg, "kernel_basis", spy("kernel_basis", linalg.kernel_basis))  # C's partner
    rows = scan_sequence(seq, cert, construction, budget=1)
    assert len(rows) > 2 and all(p.d_provenance == "lower-bound" for _, p in rows[1:])
    assert built == []
    assert len(seq._levels) <= ev.n // 2 + 2  # nothing past the first closed gate


def test_a_one_level_c_scan_keeps_two_levels():
    ev = load(ROOT / "curves/hermitian-gf16.json")
    seq = CodeSequence(ev)
    rows = scan_sequence(seq, certify_duality(ev), "C", budget=1, max_i=1)
    assert [i for i, _ in rows] == [0, 1]
    assert len(seq._levels) <= 2
