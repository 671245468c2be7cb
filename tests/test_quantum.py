import gc
import json
import random
import weakref
from pathlib import Path

import pytest

from castleqec import codes, linalg, quantum
from castleqec.agcodes import (
    CodeSequence,
    OnePointCode,
    certify_duality,
    incomplete_trace_search,
    trace_code,
)
from castleqec.codes import LinearCode, normalizer_min_weight, relative_min_weight
from castleqec.curves import evaluation_set_from_json
from castleqec.fields import GF
from castleqec.quantum import (
    QuantumParams,
    css_hermitian,
    css_nested,
    css_self_orthogonal,
    gv_status,
    gv_terms,
    level_step,
    scan_sequence,
)
from helpers import (
    count_enumerations,
    elliptic_gf4,
    elliptic_gf9,
    evset,
    gv_status_by_summing,
    hermitian_gf9,
    hermitian_gf16,
    hyper_even_45,
    ntq_gf16,
    star,
    suzuki8,
    twist_root,
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
    ev = evset(hermitian_gf9)
    seq = CodeSequence(ev)
    rows = scan_sequence(seq, "A")[1:]
    # levels m = 0,3,4,6,7 pass the gate; m = 8 fails it, matching the
    # closed-form hermitian self-orthogonality range (q~ + 1) m <= n + 2g - 2
    assert [seq.pole_of_level(i) for i, _ in rows] == [0, 3, 4, 6, 7]
    top = ev.n + 2 * ev.curve.genus - 2
    assert seq.pole_of_level(rows[-1][0]) == max(m for m in ev.dimension_set() if 4 * m <= top)
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
        levels = [seq.level(j) for j in range(n + 1)]  # one ascending sweep
        for i in range(1, n + 1):
            level = levels[i]
            frob = level.frobenius_power(qt)
            q_i = next(j for j in range(n + 1) if levels[j].contains_code(frob))
            assert (i + q_i <= n) == (level <= level.hermitian_dual())


def test_construction_a_requires_exact_self_duality():
    ev = evset(elliptic_gf9, fibration="y")
    with pytest.raises(ValueError, match="self-dual"):
        scan_sequence(CodeSequence(ev), "A")


def test_construction_b_twisted_gf9():
    ev = evset(twisted_gf9)
    assert ev.curve.is_castle
    seq = CodeSequence(ev)
    cert = seq.cert
    assert cert.status == "formally-self-dual"
    # the twist lives in GF(3), so the hermitian root exists entrywise
    F = ev.field
    x = cert.twist
    assert (F.pow_table(3)[x] == x).all()
    rows = scan_sequence(seq, "B")[1:]
    assert [i for i, _ in rows] == [1, 2, 3, 4, 5, 6, 7]
    for i, p in rows:
        assert (p.n, p.k, p.q) == (18, 18 - 2 * i, 3)
        assert p.d_provenance == "exact"
    assert [p.d for _, p in rows] == [2, 2, 2, 2, 2, 4, 4]


def test_construction_b_elliptic_gf9():
    ev = evset(elliptic_gf9, fibration="y")
    seq = CodeSequence(ev)
    rows = scan_sequence(seq, "B")[1:]
    assert [(i, p.n, p.k, p.d, p.q) for i, p in rows] == [
        (1, 15, 13, 2, 3),
        (2, 15, 11, 2, 3),
        (3, 15, 9, 3, 3),
    ]


def test_construction_b_on_a_twist_valued_in_gf8(monkeypatch):
    monkeypatch.delenv("CASTLEQEC_BUDGET", raising=False)
    ev = load(ROOT / "tests/data/twisted/hermitian-gf64-sub4.json")
    seq = CodeSequence(ev)
    x = seq.cert.twist
    assert seq.cert.status == "formally-self-dual" and len(set(x.tolist())) > 1
    assert (ev.field.pow_table(8)[x] == x).all()  # x in GF(8): y with y^9 = x exists
    rows = scan_sequence(seq, "B")[1:]
    assert [(i, p.n, p.k, p.q) for i, p in rows] == [(i, 32, 32 - 2 * i, 8) for i in range(1, 17)]
    assert [(p.d, p.d_provenance) for _, p in rows] == [(d, "exact") for d in (2, 2, 3, 3)] + [
        (d, "lower-bound") for d in (3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6)
    ]


def test_construction_b_rejects_unsuitable_twists():
    ev = evset(suzuki8)
    seq = CodeSequence(ev)
    with pytest.raises(ValueError, match="square"):
        scan_sequence(seq, "B")  # GF(8) is not a square
    # the x-fibration twist takes values outside GF(3), so no root exists
    ev9 = evset(elliptic_gf9, fibration="x")
    with pytest.raises(ValueError, match="valued"):
        scan_sequence(CodeSequence(ev9), "B")


def test_construction_c_suzuki():
    ev = evset(suzuki8)
    seq = CodeSequence(ev)
    rows = dict(scan_sequence(seq, "C", max_i=14))
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


def test_gv_status_matches_the_term_by_term_sum(monkeypatch):
    # the grid has n - k = 2 and d up to n + 2; the kept sums are extended a
    # little at a time as n - k grows, then reused as it shrinks
    grid = [(n, k, d, q) for q in (2, 3, 4, 8, 9) for n in range(2, 26) for k in range(n + 1) for d in range(n + 3)]
    for order in (grid[::-1], grid):
        monkeypatch.setattr(quantum, "_GV_SUMS", {})
        for n, k, d, q in order:
            assert gv_status(n, k, d, q) == gv_status_by_summing(n, k, d, q), (n, k, d, q)
    assert ("exceeds", 1) in {gv_status(*t) for t in grid}  # d_max = 1


def test_gv_terms_match_the_direct_sum():
    # the running term against a fresh power and binomial per summand
    import math

    for q in (2, 3, 4, 8, 9, 1024):
        for n in range(1, 41):
            lhs = (q ** n - 1) // (q * q - 1)  # k = 2
            for d in range(1, n + 2):
                rhs = sum((q * q - 1) ** (i - 1) * math.comb(n, i) for i in range(1, d))
                assert gv_terms(n, 2, d, q) == (lhs, rhs), (n, d, q)


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


def twisted_rows(field, rows, twist):
    """x * rows; the rows themselves on an exactly self-dual flag."""
    if twist is None:
        return rows
    return field.mul_table[rows, twist[None, :]]


def certified_partner(level, twist):
    """C_(n-i) = x^-1 * C_i^perp, read off the duality certificate.

    v lies in x^-1 * C_i^perp iff x * v is orthogonal to C_i, so the partner
    is the kernel of the i x n matrix G diag(x): one kernel, never the
    n - i rows of the sequence itself.
    """
    F, n = level.field, level.n
    return LinearCode.from_rref(F, n, linalg.kernel_basis(F, twisted_rows(F, level.matrix, twist), n))


def whole_level_gate(level, twist):
    """The C gate on all of C_i: the x-twisted form on its whole basis."""
    return not linalg.matmul(level.field, level.matrix, twisted_rows(level.field, level.matrix, twist).T).any()


def spy_levels_asked(monkeypatch):
    """The i of every CodeSequence.rows(i) and level(i) call, from now on."""
    asked = {"rows": [], "level": []}
    for name, seen in asked.items():
        original = getattr(CodeSequence, name)
        monkeypatch.setattr(CodeSequence, name, lambda seq, i, f=original, seen=seen: seen.append(i) or f(seq, i))
    return asked


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_certified_partner_is_the_sequence_level(path):
    ev = load(path)
    cert = certify_duality(ev)
    if cert.status == "unverified":
        pytest.skip("no verified certificate")
    seq, n = CodeSequence(ev), ev.n
    levels = [seq.level(i) for i in range(n + 1)]  # one ascending sweep
    for i in range(1, n // 2 + 1):
        level, partner = levels[i], levels[n - i]
        assert certified_partner(level, cert.twist) == partner
        assert partner.contains_code(level) and whole_level_gate(level, cert.twist)
    # past n/2 the Gram test refuses, as containment does
    above, below = levels[n // 2 + 1], levels[n - n // 2 - 1]
    assert not below.contains_code(above) and not whole_level_gate(above, cert.twist)


@pytest.mark.parametrize(
    "path,construction",
    [(ROOT / "curves/hermitian-gf16.json", c) for c in ("A", "B", "C", "hermitian")]
    + [(ROOT / "curves/twisted-gf9.json", c) for c in ("B", "C", "hermitian")]
    + [(ROOT / "tests/data/twisted/hermitian-gf64-sub4.json", c) for c in ("B", "C", "hermitian")],
    ids=lambda v: v if isinstance(v, str) else v.stem,
)
def test_a_budget_one_scan_builds_no_dual(monkeypatch, path, construction):
    ev = load(path)
    seq = CodeSequence(ev)
    built, asked = [], spy_levels_asked(monkeypatch)

    def spy(name, original):
        def recording(*args):
            built.append(name)
            return original(*args)

        return recording

    for name in ("dual", "hermitian_dual", "contains_code"):
        monkeypatch.setattr(LinearCode, name, spy(name, getattr(LinearCode, name)))
    monkeypatch.setattr(linalg, "kernel_basis", spy("kernel_basis", linalg.kernel_basis))  # C's partner
    monkeypatch.setattr(linalg, "rref", spy("rref", linalg.rref))  # B's y * C_i, or any other code
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    rows = scan_sequence(seq, construction)
    assert len(rows) > 2 and all(p.d_provenance == "lower-bound" for _, p in rows[1:])
    assert built == [] and asked["level"] == []  # no level is built over budget
    assert max(asked["rows"]) <= min(rows[-1][0] + 1, ev.n // 2)  # nothing past the first closed gate


def test_a_one_level_c_scan_keeps_two_levels(monkeypatch):
    ev = load(ROOT / "curves/hermitian-gf16.json")
    seq, asked = CodeSequence(ev), spy_levels_asked(monkeypatch)
    monkeypatch.setenv("CASTLEQEC_BUDGET", "16")
    rows = scan_sequence(seq, "C", max_i=1)
    assert [i for i, _ in rows] == [0, 1]
    assert asked == {"rows": [1, 1], "level": [1]}  # the gate's rows and C_1, nothing above


def test_a_full_c_scan_leaves_at_most_one_level_alive(monkeypatch):
    ev = load(ROOT / "curves/hermitian-gf16.json")
    seq, handed = CodeSequence(ev), []
    original = CodeSequence.level

    def recording(self, i):
        level = original(self, i)
        handed.append(weakref.ref(level))
        return level

    monkeypatch.setattr(CodeSequence, "level", recording)
    monkeypatch.setenv("CASTLEQEC_BUDGET", str(16**3))
    rows = scan_sequence(seq, "C")
    assert [i for i, _ in rows] == list(range(ev.n // 2 + 1))  # the whole flag up to n/2
    assert len(handed) == 3  # one level per step in budget, none above 16^3 words
    codes._enumerated.cache_clear()  # the weight memo keys on the codes it enumerated
    gc.collect()
    assert sum(ref() is not None for ref in handed) <= 1


def test_a_nested_pair_stops_at_its_first_uncomputed_side(monkeypatch):
    seq = CodeSequence(evset(elliptic_gf4))
    c1, c3 = seq.level(1), seq.level(3)
    duals = []
    original = LinearCode.dual
    monkeypatch.setattr(LinearCode, "dual", lambda self: duals.append(self) or original(self))
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    assert css_nested(c1, c3).d_provenance == "lower-bound"
    assert duals == []  # the Z side's duals are never built
    monkeypatch.delenv("CASTLEQEC_BUDGET")
    assert css_nested(c1, c3).d_provenance == "exact"
    assert duals  # the spy sees the Z side once it is computed


# -- the normalizer's weights are the MacWilliams transform of the stabilizer's --

ORACLE_FILES = CURVE_FILES + sorted(ROOT.glob("tests/data/twisted/*.json"))
ORACLE_BUDGET = 1 << 16


def partner_distance(code, partner):
    """d of the CSS pair code <= partner from both weight distributions: the oracle."""
    if 2 * code.dimension == code.n:
        return partner.min_weight()[0]
    return relative_min_weight(code, partner)[0]


@pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.stem)
def test_a_distance_from_the_stabilizer_alone_matches_the_built_partner(monkeypatch, path):
    monkeypatch.setenv("CASTLEQEC_BUDGET", str(ORACLE_BUDGET))
    ev = load(path)
    seq, F = CodeSequence(ev), ev.field
    cert = seq.cert
    top = max(i for i in range(ev.n + 1) if F.order**i <= ORACLE_BUDGET)  # the levels in budget
    checked = 0
    for construction in ("A", "B", "C", "hermitian"):
        try:
            rows = scan_sequence(seq, construction, max_i=top)[1:]
        except ValueError:
            continue  # the construction does not apply to this flag or field
        q = F.order if construction == "C" else F.sqrt_order()
        y = twist_root(F, cert, q) if construction == "B" else None
        for i, p in rows:
            level = seq.level(i) if y is None else star(seq.level(i), y)  # B's y * C_i, built explicitly
            if construction == "C":
                partner = certified_partner(level, cert.twist)
            else:
                partner = level.hermitian_dual()
                assert css_hermitian(level).d == p.d
            assert p.d_provenance == "exact"
            assert p.d == partner_distance(level, partner)
            checked += 1
    assert checked


def degenerate_code():
    """C = <110000000> + (0, 0, simplex [7, 3, 4]): N = C^perp has a weight-2
    word, and it lies in C; N minus C starts at the Hamming code's 3."""
    simplex = [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]]
    return LinearCode(GF(2), 9, [[1, 1] + [0] * 7] + [[0, 0] + r for r in simplex])


def self_orthogonal_rows():
    """The codes of the reproduction's trace and incomplete-trace rows, and a degenerate code."""
    yield from (trace_code(evset(suzuki8), m, GF(2)) for m in (0, 10))
    for builder, m in [(elliptic_gf4, 3), (hermitian_gf9, 4), (hermitian_gf16, 5)]:
        ev = evset(builder)
        yield incomplete_trace_search(ev, m, GF(ev.field.sqrt_order()))[0]
    yield degenerate_code()


def test_self_orthogonal_distances_from_the_code_alone_match_its_built_dual(monkeypatch):
    monkeypatch.setenv("CASTLEQEC_BUDGET", str(ORACLE_BUDGET))
    for code in self_orthogonal_rows():
        p = css_self_orthogonal(code)
        assert p.d_provenance == "exact"
        assert p.d == partner_distance(code, code.dual())


def test_a_degenerate_code_keeps_its_stabilizer_words_out_of_d(monkeypatch):
    code = degenerate_code()
    assert code.dual().min_weight() == (2, "exact")
    p = css_self_orthogonal(code)
    assert (p.n, p.k, p.d) == (9, 1, 3)
    # the budget counts the stabilizer's 2^4 words, not the normalizer's 2^5
    monkeypatch.setenv("CASTLEQEC_BUDGET", "16")
    assert normalizer_min_weight(code) == (3, "exact")
    monkeypatch.setenv("CASTLEQEC_BUDGET", "15")
    assert normalizer_min_weight(code) == (None, "not-computed")


def test_a_c_level_in_budget_enumerates_once_and_builds_no_dual(monkeypatch):
    ev = load(ROOT / "curves/elliptic-gf9.json")
    seq = CodeSequence(ev)
    assert seq.cert.status == "formally-self-dual"  # x != 1: the partner's dual x * C_4 is not C_4
    monkeypatch.setenv("CASTLEQEC_BUDGET", str(1 << 16))
    step = level_step(seq, "C")
    seen, kernels_taken = count_enumerations(monkeypatch), []
    original = linalg.kernel_basis

    def spy(*args, **kwargs):
        kernels_taken.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "kernel_basis", spy)
    p = step(4)
    assert (p.k, p.d_provenance) == (ev.n - 8, "exact")
    assert seen == [(4, ev.n)] and kernels_taken == []


# -- a gate pairs only the rows its level adds ------------------------------------


def first_independent_rows(ev, count):
    """The first count basis rows at the rank profile of the whole basis, found by an rref of its own.

    The first i of them span C_i (test_sequence_levels_are_the_first_independent_basis_rows).
    """
    _, rows = ev.basis_rows(ev.dimension_set()[-1])
    _, grew = linalg.rref(ev.field, rows.T)
    return rows[list(grew[:count])]


def gram_gates(F, rows, cert, construction):
    """The gate of each level 1 <= i <= len(rows) from all of C_i = span(rows[:i]).

    One Gram matrix of the rows, x-twisted for C and hermitian otherwise:
    the form vanishes on C_i iff it does on its leading i x i block.
    """
    y = twist_root(F, cert, F.sqrt_order()) if construction == "B" else None
    if y is not None:
        rows = F.mul_table[rows, y[None, :]]
    if construction == "C":
        gram = linalg.matmul(F, twisted_rows(F, rows, cert.twist), rows.T)
    else:
        gram = linalg.matmul(F, rows, F.pow_table(F.sqrt_order())[rows].T)
    return {i: not gram[:i, :i].any() for i in range(1, len(rows) + 1)}


def spy_pairings(monkeypatch, n):
    """(rows, columns) of every product that pairs length-n words, from now on."""
    seen = []
    original = linalg.matmul

    def spy(field, A, B):
        if A.shape[1] == n:
            seen.append((A.shape[0], B.shape[1]))
        return original(field, A, B)

    monkeypatch.setattr(linalg, "matmul", spy)
    return seen


def gate_pairing(ev, cert, construction, held, i):
    """The gate product of step(i) above held: (rows, columns), or None when no pair is left to test.

    The pair of basis rows (s, t) is tested only when m_s + e m_t > n + 2g - 2,
    e = 1 for C and q~ otherwise; these pairs fill a trailing block of
    B[held:i] x B[:i].  "hermitian" on a twisted flag pairs every new row.
    """
    if construction == "hermitian" and cert.status != "self-dual":
        return (i - held, i)
    S = ev.curve.semigroup
    ms, top = ev.dimension_set(), ev.n + 2 * S.genus - 2
    e = 1 if construction == "C" else ev.field.sqrt_order()
    rows = sum(ms[s] + e * ms[i - 1] > top for s in range(held, i))
    columns = sum(ms[i - 1] + e * ms[t] > top for t in range(i))
    return (rows, columns) if rows else None


@pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.stem)
def test_the_incremental_gate_decides_as_the_whole_level_test(monkeypatch, path):
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    ev = load(path)
    cert = certify_duality(ev)
    rows = first_independent_rows(ev, ev.n // 2 + 1)
    pairings, asked, checked = spy_pairings(monkeypatch, ev.n), spy_levels_asked(monkeypatch), 0
    for construction in ("A", "B", "C", "hermitian"):
        try:
            level_step(CodeSequence(ev), construction)
        except ValueError:
            continue  # the construction does not apply to this flag or field
        gates = gram_gates(ev.field, rows, cert, construction)
        gated = list(gates)
        for order in (gated, random.Random(path.stem).sample(gated, len(gated))):  # as a manifest may call
            seq = CodeSequence(ev)
            seq.rows(ev.n // 2)  # the rank proof, before the spies count the gate's products
            step, held = level_step(seq, construction), 0
            for i in order:
                pairings.clear()
                asked["level"].clear()
                assert (step(i) is not None) == gates[i], (construction, i)
                # a product only of the rows C_i adds to the highest level that held, none at or below it
                pairing = gate_pairing(ev, cert, construction, held, i) if held < i <= ev.n // 2 else None
                assert pairings == ([] if pairing is None else [pairing]), (construction, i)
                assert asked["level"] == []  # nothing is built at budget 1
                if gates[i]:
                    held = max(held, i)
        checked += 1
    assert checked


@pytest.mark.parametrize(
    "path,construction",
    [(ROOT / "curves/hermitian-gf16.json", c) for c in ("A", "B", "C", "hermitian")]
    + [(ROOT / "perfbench/curves/maximal-2-6.json", "C")]
    + [(ROOT / "tests/data/twisted/hermitian-gf64-sub4.json", c) for c in ("B", "hermitian")],
    ids=lambda v: v if isinstance(v, str) else v.stem,
)
def test_a_scan_gate_pairs_only_the_row_its_level_adds(monkeypatch, path, construction):
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    ev = load(path)
    seq = CodeSequence(ev)
    seq.rows(ev.n // 2)  # the rank proof, before the spy counts the gate's products
    pairings = spy_pairings(monkeypatch, ev.n)
    last = scan_sequence(seq, construction)[-1][0]
    gated = range(1, min(last + 1, ev.n // 2) + 1)  # the levels scanned, and the one whose gate closed
    expected = [gate_pairing(ev, seq.cert, construction, i - 1, i) for i in gated]
    assert last > 1 and pairings == [p for p in expected if p is not None]
    assert all(rows == 1 for rows, _ in pairings)
    assert (construction == "C") == (pairings == [])  # the C gate lies within the pole sums
