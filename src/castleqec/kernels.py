"""The enumeration hot loop: exact weight distributions of a row space, in numpy.

For q > 2 only coefficient vectors whose first nonzero entry is 1 are
visited, since nonzero scalars keep weights; those with leading index i form
the coset G[i] + span(G[i+1:]).  The trailing rows are expanded once into a
block of at most 2^16 words, and an odometer over the rows between i and the
block shifts the whole block by one partial sum at a time.  For q = 2 the
rows are packed into uint64 limbs, the leading rows are walked in Gray-code
order with one XOR per step, and weights are popcounts.
"""

import itertools

import numpy as np

BACKEND = "python"  # the only backend; benchmark records name it
_BLOCK_WORDS = 1 << 16


def enumerate_weights(field, G):
    """[A_0, ..., A_n] as int64, over all q^k coefficient vectors of G.

    Uncached and unbudgeted: it visits (q^k - 1)/(q - 1) words, 2^k for q = 2.
    """
    G = np.asarray(G, dtype=np.uint16)
    if G.ndim != 2:
        raise ValueError("generator matrix must be 2-D")
    return _binary_weights(G) if field.order == 2 else _projective_weights(field, G)


def _tally(counts, words):
    counts += np.bincount(np.count_nonzero(words, axis=1), minlength=counts.size)


def _projective_weights(field, G):
    q, (k, n) = field.order, G.shape
    # elements are coefficient vectors over GF(p), so in characteristic 2 addition is XOR
    add = np.bitwise_xor if field.p == 2 else (lambda a, b: field.add_table[a, b])
    multiples = field.mul_table[np.arange(q)[None, :, None], G[:, None, :]]  # s * G[i]
    kb = 0
    while kb < k and q ** (kb + 1) <= _BLOCK_WORDS:
        kb += 1
    k_pre = k - kb

    counts = np.zeros(n + 1, dtype=np.int64)
    block = np.zeros((1, n), dtype=np.uint16)  # span(G[i+1:]) as i walks down
    for i in range(k - 1, k_pre - 1, -1):
        _tally(counts, add(block, G[i]))
        if i:
            block = add(block[:, None], multiples[i]).reshape(len(block) * q, n)
    for i in range(k_pre):
        for digits in itertools.product(range(q), repeat=k_pre - 1 - i):
            partial = G[i]
            for j, s in enumerate(digits, start=i + 1):
                partial = add(partial, multiples[j, s])
            _tally(counts, add(block, partial))
    counts *= q - 1
    counts[0] += 1  # the zero vector
    return counts


def _binary_weights(G):
    k, n = G.shape
    packed = np.packbits(G.astype(np.uint8), axis=1, bitorder="little")
    rows = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    k_pre = max(k - 16, 0)
    block = np.zeros((1, rows.shape[1]), dtype=np.uint64)  # span of the last <= 16 rows
    for row in rows[k_pre:]:
        block = np.concatenate([block, block ^ row])

    counts = np.zeros(n + 1, dtype=np.int64)
    partial = np.zeros_like(block[0])
    for step in range(1 << k_pre):
        if step:
            partial ^= rows[(step & -step).bit_length() - 1]
        weights = np.bitwise_count(block ^ partial).sum(axis=1, dtype=np.intp)
        counts += np.bincount(weights, minlength=n + 1)
    return counts
