import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from castleqec import kernels
from castleqec.agcodes import trace_code
from castleqec.fields import GF
from castleqec.kernels import enumerate_weights
from helpers import evset, suzuki8


def random_generator(rng, q, k, n):
    flat = [rng.randrange(q) for _ in range(k * n)]
    return np.array(flat, dtype=np.uint16).reshape(k, n)


def oracle(F, G, chunk=1 << 14):
    """Weight histogram of c * G over every coefficient vector c, brute force."""
    k, n = G.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    entries = itertools.chain.from_iterable(itertools.product(range(F.order), repeat=k))
    for start in range(0, F.order ** k, chunk):
        size = min(chunk, F.order ** k - start)
        coeffs = np.fromiter(entries, dtype=np.uint16, count=size * k).reshape(size, k)
        words = np.zeros((size, n), dtype=np.uint16)
        for j in range(k):
            words = F.add_table[words, F.mul_table[coeffs[:, j : j + 1], G[j]]]
        counts += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    return counts


def summing_to_ones(G):
    """G with its last row replaced so that its rows sum to the all-ones word over GF(2)."""
    G = G.copy()
    G[-1] = 1 ^ np.bitwise_xor.reduce(G[:-1], axis=0)
    return G


def assert_matches_oracle(F, G, expected=None):
    counts = enumerate_weights(F, G)
    assert counts.dtype == np.int64
    assert counts.tolist() == (oracle(F, G) if expected is None else expected).tolist()
    assert int(counts.sum()) == F.order ** G.shape[0]


def test_full_space_gf2():
    F = GF(2)
    G = np.eye(6, dtype=np.uint16)
    counts = enumerate_weights(F, G)
    assert [int(c) for c in counts] == [math.comb(6, w) for w in range(7)]


def test_repetition_code():
    F = GF(5)
    G = np.ones((1, 7), dtype=np.uint16)
    counts = enumerate_weights(F, G)
    expected = np.zeros(8, dtype=np.int64)
    expected[0] = 1
    expected[7] = 4
    assert (counts == expected).all()


def test_zero_rows():
    F = GF(4)
    counts = enumerate_weights(F, np.zeros((0, 5), dtype=np.uint16))
    assert counts[0] == 1 and counts.sum() == 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_fallback_total_count_and_symmetry(q):
    F = GF(q)
    rng = random.Random(q * 31)
    for _ in range(10):
        k = rng.randrange(0, 5)
        n = rng.randrange(max(k, 1), 11)
        G = random_generator(rng, q, k, n)
        counts = enumerate_weights(F, G)
        assert int(counts.sum()) == q ** k
        assert counts[0] >= 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_matches_oracle(q):
    F = GF(q)
    rng = random.Random(q * 7 + 1)
    for _ in range(12):
        k = rng.randrange(0, 5)
        n = rng.randrange(max(k, 1), 12)
        assert_matches_oracle(F, random_generator(rng, q, k, n))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rank_deficient_matches_oracle(q):
    # normalized weight-0 words exist, so A_0 = (q - 1) * c0 + 1, not 1
    F = GF(q)
    rng = random.Random(q)
    G = random_generator(rng, q, 3, 8)
    with_zero = np.vstack([G[:1], np.zeros((1, 8), dtype=np.uint16), G[1:]])
    repeated = np.vstack([G, G[1:2], F.mul_table[q - 1, G[0]][None, :]])
    for M in (with_zero, repeated, np.zeros((3, 8), dtype=np.uint16)):
        assert_matches_oracle(F, M)
    assert enumerate_weights(F, with_zero)[0] == q


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_binary_limb_boundaries_match_oracle(n):
    rng = random.Random(n)
    assert_matches_oracle(GF(2), random_generator(rng, 2, 10, n))


@pytest.mark.parametrize("k", [17, 18])
def test_binary_gray_walk_past_the_block_matches_oracle(k):
    # 2^16 words per block; the leading k - 16 rows are walked in Gray-code order
    rng = random.Random(k)
    G = random_generator(rng, 2, k, 20)
    G[k - 1] = G[0]  # a dependency across the walk/block split
    assert_matches_oracle(GF(2), G)


def test_binary_gray_walk_over_two_limbs_matches_oracle():
    # n > 64: each word is two uint64 limbs, so the walk sums popcounts per word
    rng = random.Random(70)
    G = random_generator(rng, 2, 17, 70)
    G[16] = G[0]
    assert_matches_oracle(GF(2), G)


@pytest.mark.parametrize("q, k, n", [(4, 9, 14), (3, 12, 8), (5, 8, 20), (4, 9, 70)])
def test_odometer_past_the_block_matches_oracle(q, k, n, monkeypatch):
    # q^k words, more than the block holds, so leading cosets run the odometer; then, with the
    # cap at n, one word, only the one-level floor makes every partial meet q words, in
    # (q^(k-1) - 1)/(q - 1) passes: rerun where those are few
    F, G = GF(q), random_generator(random.Random(42), q, k, n)
    expected = oracle(F, G)
    assert_matches_oracle(F, G, expected)
    if (q ** (k - 1) - 1) // (q - 1) < 1 << 15:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", n)
        assert_matches_oracle(F, G, expected)


def test_the_block_rule_sets_the_count_passes_and_the_peak_memory(monkeypatch):
    widths, original = [], kernels._zero_counts

    def spy(block, negated, counter):
        widths.append(block.shape[1])
        return original(block, negated, counter)

    monkeypatch.setattr(kernels, "_zero_counts", spy)
    q, k, n = 4, 5, 10
    F, G = GF(q), random_generator(random.Random(3), q, k, n)
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", n)
    assert enumerate_weights(F, G).tolist() == oracle(F, G).tolist()
    # the last row meets the empty span, then k - 1 odometer rows walk (q^(k-1) - 1)/(q - 1) partials
    assert widths == [1] + [q] * ((q ** (k - 1) - 1) // (q - 1))

    # GF(64) [256, 4]: the 2^20 entries of 64^2 words cost less to build than the 4,096 steps they
    # save, so the odometer makes 65 passes, not 4,161; in [256, 3] they would save only 64 steps
    monkeypatch.undo()
    monkeypatch.setattr(kernels, "_zero_counts", spy)
    q, n = 64, 256
    for k, passes in [(4, [1, q] + [q * q] * (q + 1)), (3, [1] + [q] * (q + 1))]:
        widths.clear()
        F, G = GF(q), random_generator(random.Random(k), q, k, n)
        assert int(enumerate_weights(F, G).sum()) == q**k
        assert widths == passes, k

    monkeypatch.undo()
    bound = 2 << 20  # bytes: 8 an entry of a 2^18-entry block, twice what its q pieces and their concatenation hold
    # (each shape takes a level of at most 2^18 entries: GF(9) [15, 7] 9^4 * 15, GF(8) [64, 6] and
    # [64, 8] 2^18, where the 2^20-entry cap, not the cost of building, stops [64, 8] below 2^21)
    for q, k, n in [(8, 6, 64), (9, 7, 15), (8, 8, 64)]:
        F, G = GF(q), random_generator(random.Random(q), q, k, n)
        tracemalloc.start()
        try:
            enumerate_weights(F, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (q, k, n, peak)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", [255, 256, 257])
def test_zero_count_at_the_counter_width_matches_oracle(q, n):
    # words are tallied by their zeros in a uint8 counter up to n = 255;
    # a repeated row makes a zero word, whose n zeros fill that width
    rng = random.Random(q * n)
    k = 2 + n % 2
    G = random_generator(rng, q, k, n)
    G[k - 1] = G[0]
    assert_matches_oracle(GF(q), G)


# -- the fold on the all-ones word: rows summing to 1 pair each word w with w + 1


def test_binary_fold_of_a_single_row_matches_oracle():
    assert_matches_oracle(GF(2), np.ones((1, 9), dtype=np.uint16))  # k = 1: the walk gets no rows


def test_binary_fold_recurses_past_a_zero_first_row():
    # a zero first row leaves the rest summing to 1, so the fold applies again
    rng = random.Random(5)
    G = summing_to_ones(random_generator(rng, 2, 6, 11))
    assert_matches_oracle(GF(2), np.vstack([np.zeros((1, 11), dtype=np.uint16), G]))
    assert_matches_oracle(GF(2), np.zeros((2, 0), dtype=np.uint16))  # n = 0: the empty word is all-ones


@pytest.mark.parametrize("k", [17, 18])
def test_binary_fold_across_the_walk_block_split_matches_oracle(k):
    rng = random.Random(k + 100)
    G = random_generator(rng, 2, k, 20)
    G[k - 2] = G[1]  # a dependency across the walk/block split of the k - 1 rows walked
    assert_matches_oracle(GF(2), summing_to_ones(G))


@pytest.mark.parametrize("n", [64, 65, 70])
def test_binary_fold_at_the_limb_boundaries_matches_oracle(n):
    rng = random.Random(n + 100)
    assert_matches_oracle(GF(2), summing_to_ones(random_generator(rng, 2, 11, n)))


def test_a_trace_code_reaches_the_gray_walk_with_one_row_fewer(monkeypatch):
    # F_2-linear trace codes of L(mQ) contain the all-ones word, the trace of a constant
    code = trace_code(evset(suzuki8), 13, GF(2))
    seen, original = [], kernels._binary_weights

    def spy(G):
        seen.append(G.shape)
        return original(G)

    monkeypatch.setattr(kernels, "_binary_weights", spy)
    counts = enumerate_weights(GF(2), code.matrix)
    assert seen == [(code.dimension, code.n), (code.dimension - 1, code.n)]
    assert counts[code.n] == 1 and counts.tolist() == oracle(GF(2), code.matrix).tolist()
