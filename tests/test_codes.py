import random

import numpy as np
import pytest

from castleqec import linalg
from castleqec.agcodes import CodeSequence, trace_code
from castleqec.codes import (
    LinearCode,
    krawtchouk,
    macwilliams_coefficient,
    relative_min_weight,
)
from castleqec.fields import GF
from helpers import (
    contains_vector,
    count_enumerations,
    evset,
    hermitian_gf16,
    random_code,
    self_orthogonal_by_gram,
    spy,
    star,
    subfield_subcode,
)

EXT_HAMMING = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]

HAMMING_7_4 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def test_canonical_equality():
    F = GF(4)
    C1 = LinearCode(F, 4, [[1, 2, 3, 0], [0, 1, 1, 2]])
    # same span, scrambled spanning set
    r1 = F.mul_table[3, np.array([1, 2, 3, 0], dtype=np.uint16)]
    r2 = F.add_table[np.array([1, 2, 3, 0], dtype=np.uint16), np.array([0, 1, 1, 2], dtype=np.uint16)]
    C2 = LinearCode(F, 4, [r2, r1])
    assert C1 == C2 and hash(C1) == hash(C2)
    assert C1 != LinearCode(F, 4, [[1, 2, 3, 0]])


def test_dimension_and_validation():
    F = GF(4)
    assert LinearCode(F, 6).dimension == 0
    assert LinearCode.full(F, 6).dimension == 6
    with pytest.raises(ValueError):
        LinearCode(F, 3, [[1, 2, 3, 0]])
    with pytest.raises(ValueError):
        LinearCode(F, 3, [[1, 2, 4]])


@pytest.mark.parametrize("q", [2, 4, 9])
def test_dual_involution_and_dimensions(q):
    rng = random.Random(q)
    for _ in range(20):
        k, n = rng.randrange(0, 5), rng.randrange(1, 9)
        C = random_code(rng, q, min(k, n), n)
        D = C.dual()
        assert C.dimension + D.dimension == n
        assert D.dual() == C
        # duality pairing vanishes
        if C.dimension and D.dimension:
            from castleqec.linalg import matmul

            assert not matmul(GF(q), C.matrix, D.matrix.T).any()


def test_zero_full_duality():
    F = GF(8)
    assert LinearCode(F, 5).dual() == LinearCode.full(F, 5)
    assert LinearCode.full(F, 5).dual() == LinearCode(F, 5)


def test_containment():
    F = GF(2)
    C = LinearCode(F, 8, EXT_HAMMING)
    sub = LinearCode(F, 8, EXT_HAMMING[:2])
    assert C.contains_code(sub) and sub <= C
    assert not sub.contains_code(C)
    assert contains_vector(C, np.array(EXT_HAMMING[0], dtype=np.uint16))


def test_extended_hamming_is_self_dual_with_distance_4():
    C = LinearCode(GF(2), 8, EXT_HAMMING)
    assert C.dimension == 4
    assert C.is_self_orthogonal("euclidean")
    assert C.dual() == C
    assert C.min_weight() == (4, "exact")
    assert C.weight_distribution() == [1, 0, 0, 0, 14, 0, 0, 0, 1]


def test_hamming_7_4_weight_distribution():
    C = LinearCode(GF(2), 7, HAMMING_7_4)
    assert C.weight_distribution() == [1, 0, 0, 7, 7, 0, 0, 1]
    # and its dual is the simplex code, all nonzero words of weight 4
    assert C.dual().weight_distribution() == [1, 0, 0, 0, 7, 0, 0, 0]


def test_macwilliams_known_pair():
    # Hamming [7,4] from simplex [7,3] by transform
    simplex = [1, 0, 0, 0, 7, 0, 0, 0]
    got = [macwilliams_coefficient(7, 2, simplex, 8, j) for j in range(8)]
    assert got == [1, 0, 0, 7, 7, 0, 0, 1]
    assert krawtchouk(7, 2, 0, 3) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_macwilliams_matches_enumeration(q):
    rng = random.Random(q * 13)
    for _ in range(8):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        C = random_code(rng, q, k, n)
        direct = C.weight_distribution()
        dual_counts = C.dual().weight_distribution()
        via_mac = [
            macwilliams_coefficient(n, q, dual_counts, q ** C.dual().dimension, j)
            for j in range(n + 1)
        ]
        assert direct == via_mac


def test_min_weight_statuses(monkeypatch):
    F = GF(2)
    assert LinearCode(F, 5).min_weight() == (None, "empty")
    C = LinearCode(F, 7, HAMMING_7_4)
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    assert C.min_weight() == (None, "not-computed")
    monkeypatch.setenv("CASTLEQEC_BUDGET", "8")
    assert C.min_weight() == (3, "exact")  # dual-side enumeration, 2^3
    monkeypatch.setenv("CASTLEQEC_BUDGET", "16")
    assert C.min_weight() == (3, "exact")  # direct, 2^4


def test_budget_env_override(monkeypatch):
    C = LinearCode(GF(2), 7, HAMMING_7_4)
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1")
    assert C.min_weight() == (None, "not-computed")
    monkeypatch.setenv("CASTLEQEC_BUDGET", "1000")
    assert C.min_weight() == (3, "exact")
    monkeypatch.setenv("CASTLEQEC_BUDGET", "zero")
    with pytest.raises(ValueError):
        C.min_weight()


def test_weight_memo_skips_the_dual_and_the_enumeration(monkeypatch):
    enumerations = count_enumerations(monkeypatch)
    C = LinearCode(GF(2), 7, HAMMING_7_4)
    duals = []
    original = LinearCode.dual
    monkeypatch.setattr(LinearCode, "dual", lambda self: duals.append(1) or original(self))
    monkeypatch.setenv("CASTLEQEC_BUDGET", "8")
    for _ in range(3):
        assert C.weight_distribution() == [1, 0, 0, 7, 7, 0, 0, 1]  # via the dual
    assert (enumerations, len(duals)) == ([(3, 7)], 1)
    # the [7, 3] dual was enumerated directly, so it is in the memo too
    assert original(C).weight_distribution() == [1, 0, 0, 0, 7, 0, 0, 0]
    assert enumerations == [(3, 7)]


def test_weight_memo_hands_out_no_mutable_counts(monkeypatch):
    enumerations = count_enumerations(monkeypatch)
    C = LinearCode(GF(2), 8, EXT_HAMMING)
    first = C.weight_distribution()
    first[0] = 99
    with pytest.raises(TypeError):
        C.weights().vec[4] = 0
    assert C.weight_distribution() == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    assert len(enumerations) == 1


def test_budget_counts_codewords_not_visited_words(monkeypatch):
    enumerations = count_enumerations(monkeypatch)
    # the engine visits (4^3 - 1)/3 = 21 words, but the budget is q^k = 64
    rng = random.Random(7)
    C = random_code(rng, 4, 3, 6)
    assert C.dimension == 3
    for budget in (21, 63):
        monkeypatch.setenv("CASTLEQEC_BUDGET", str(budget))
        assert C.weights() is None
    monkeypatch.setenv("CASTLEQEC_BUDGET", "64")
    assert C.weights().mode == "direct"
    assert enumerations == [(3, 6)]


def test_relative_min_weight():
    F = GF(2)
    full = LinearCode.full(F, 5)
    rep = LinearCode(F, 5, [[1, 1, 1, 1, 1]])
    assert relative_min_weight(rep, full) == (1, "exact")
    assert relative_min_weight(rep, rep) == (None, "empty")
    assert relative_min_weight(LinearCode(F, 5), rep) == (5, "exact")
    ext = LinearCode(F, 8, EXT_HAMMING)
    sub = LinearCode(F, 8, EXT_HAMMING[:1])
    d, status = relative_min_weight(sub, ext)
    assert status == "exact" and d == 4


@pytest.mark.parametrize("q", [4, 9])
def test_star_preserves_weights(q):
    F = GF(q)
    rng = random.Random(q + 5)
    for _ in range(10):
        n = rng.randrange(2, 9)
        C = random_code(rng, q, rng.randrange(1, n + 1), n)
        x = np.array([rng.randrange(1, q) for _ in range(n)], dtype=np.uint16)
        assert star(C, x).weight_distribution() == C.weight_distribution()
        # duality twists by the inverse
        xinv = F.inv_table[x]
        assert star(C.dual(), x) == star(C, xinv).dual()


def test_frobenius_power():
    F = GF(9)
    rng = random.Random(8)
    C = random_code(rng, 9, 3, 7)
    C3 = C.frobenius_power(3)
    assert C3.dimension == C.dimension
    assert C3.frobenius_power(3) == C  # x -> x^9 is the identity on GF(9)
    assert C3.weight_distribution() == C.weight_distribution()
    with pytest.raises(ValueError):
        C.frobenius_power(2)


def test_hermitian_dual_basics():
    F = GF(4)
    rng = random.Random(11)
    for _ in range(10):
        C = random_code(rng, 4, 3, 8)
        H = C.hermitian_dual()
        assert H.dimension == 8 - C.dimension
        # <u, v>_H = 0 for all generators
        conj = F.pow_table(2)[C.matrix]
        from castleqec.linalg import matmul

        assert not matmul(F, H.matrix, conj.T).any()
        # hermitian dual distance equals euclidean dual distance
        assert H.min_weight() == C.dual().min_weight()
    with pytest.raises(ValueError):
        random_code(rng, 8, 2, 5).hermitian_dual()


def test_hermitian_self_orthogonality_mode():
    F = GF(4)
    # the repetition-like code spanned by (1,1,1,1) with <.,.>_H: sum of 1^2 = 4*1 = 0
    C = LinearCode(F, 4, [[1, 1, 1, 1]])
    assert C.is_self_orthogonal("hermitian")
    assert not LinearCode(F, 3, [[1, 1, 1]]).is_self_orthogonal("hermitian")
    with pytest.raises(ValueError):
        C.is_self_orthogonal("unitary")


def test_an_unknown_orthogonality_mode_raises_past_half_length_too():
    # 2k > n answers False for either form, but only after the mode is known
    for code in (LinearCode.full(GF(4), 3), LinearCode(GF(2), 3, [[1, 1, 0], [0, 1, 1]])):
        assert 2 * code.dimension > code.n
        assert not code.is_self_orthogonal("euclidean")
        with pytest.raises(ValueError, match="unknown orthogonality mode 'bogus'"):
            code.is_self_orthogonal("bogus")


def pairs_code(first, last):
    """A [16, 8] GF(2) code: the row first, rows e_2i + e_2i+1 for i = 1..6, then the row last."""
    pairs = [[int(c // 2 == i) for c in range(16)] for i in range(1, 7)]
    return LinearCode(GF(2), 16, [[int(c in first) for c in range(16)], *pairs, [int(c in last) for c in range(16)]])


def test_the_gram_test_pairs_row_blocks_up_to_the_last(monkeypatch):
    # 16 points and _BLOCK = 32: blocks of rows [0, 2), [2, 4) and [4, 8), each paired with the rows up to its end
    monkeypatch.setattr(linalg, "_BLOCK", 32)
    calls = []
    spy(monkeypatch, linalg, "matmul", calls)
    assert pairs_code({0, 1}, {14, 15}).is_self_orthogonal("euclidean")
    assert [(A.shape, B.shape) for _, (_, A, B) in calls] == [((2, 16), (16, 2)), ((2, 16), (16, 4)), ((4, 16), (16, 8))]
    calls.clear()
    assert not pairs_code({0, 1}, {14}).is_self_orthogonal("euclidean")  # e_14 pairs only with itself, in the last block
    assert len(calls) == 3


def test_the_gram_test_stops_at_the_first_block_that_pairs_nonzero(monkeypatch):
    monkeypatch.setattr(linalg, "_BLOCK", 32)
    calls = []
    spy(monkeypatch, linalg, "matmul", calls)
    assert not pairs_code({0}, {14, 15}).is_self_orthogonal("euclidean")
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(linalg, "_BLOCK", 1 << 16)  # 4096 rows a block: a 16-point code is one product
    assert pairs_code({0, 1}, {14, 15}).is_self_orthogonal("euclidean")
    assert len(calls) == 1


@pytest.mark.parametrize("rows_a_block", [1, 3])
def test_row_blocks_answer_as_the_whole_gram_product(monkeypatch, rows_a_block):
    # the flag of the 64-point Hermitian curve over GF(16) up to half length, and its trace codes to GF(4) and
    # GF(2), in both forms where the field is square, against self_orthogonal_by_gram's one product
    ev = evset(hermitian_gf16)
    seq = CodeSequence(ev)
    family = [seq.level(i) for i in range(33)]
    family += [trace_code(ev, m, GF(q)) for q in (2, 4) for m in ev.dimension_set()[:40]]
    monkeypatch.setattr(linalg, "_BLOCK", rows_a_block * ev.n)
    answers = set()  # of the codes of more than one block
    for code in family:
        for mode in ("euclidean", "hermitian") if code.field.k % 2 == 0 else ("euclidean",):
            answer = code.is_self_orthogonal(mode)
            assert answer == self_orthogonal_by_gram(code, mode), (code, mode)
            if code.dimension > rows_a_block:
                answers.add(answer)
    assert answers == {True, False}


def test_trace_code_examples():
    F4, F2 = GF(4), GF(2)
    rep = LinearCode(F4, 5, [[1, 1, 1, 1, 1]])
    T = rep.trace_code(F2)
    assert T == LinearCode(F2, 5, [[1, 1, 1, 1, 1]])
    assert LinearCode.full(F4, 4).trace_code(F2) == LinearCode.full(F2, 4)
    assert LinearCode(F4, 4).trace_code(F2).dimension == 0


def test_subfield_subcode_examples():
    F4, F2 = GF(4), GF(2)
    # a code with no nonzero binary words
    C = LinearCode(F4, 2, [[1, 2]])
    assert subfield_subcode(C, F2).dimension == 0
    assert subfield_subcode(LinearCode.full(F4, 3), F2) == LinearCode.full(F2, 3)
    # binary words of the GF(4) repetition code: the binary repetition code
    rep = LinearCode(F4, 4, [[1, 1, 1, 1]])
    assert subfield_subcode(rep, F2) == LinearCode(F2, 4, [[1, 1, 1, 1]])


@pytest.mark.parametrize("q,q0", [(4, 2), (8, 2), (9, 3), (16, 2), (16, 4)])
def test_delsarte_identity(q, q0):
    # subfield subcode and trace code are computed along independent routes;
    # their duality is a theorem, so it cross-checks both implementations
    big, small = GF(q), GF(q0)
    r = big.k // small.k
    rng = random.Random(q * 100 + q0)
    for _ in range(100):
        n = rng.randrange(1, 13)
        k = rng.randrange(0, n + 1)
        C = random_code(rng, q, k, n)
        sub = subfield_subcode(C, small)
        tr = C.dual().trace_code(small)
        assert sub == tr.dual()
        assert sub.dimension >= n - r * (n - C.dimension)
