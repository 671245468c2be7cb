"""The enumeration hot loop: exact weight distributions of a row space, in numpy.

For q > 2 only coefficient vectors whose first nonzero entry is 1 are
visited, since nonzero scalars keep weights; those with leading index i form
the coset G[i] + span(G[i+1:]).  The trailing rows are expanded once into a
column-major block (n x words), and an odometer over the rows between i
and the block shifts the whole block by one partial sum at a time.  The
shifted words are never formed: block + partial is zero exactly where
block == -partial, so a tally counts each word's zeros by comparison.  The
block grows a level, q times the words, only while that level costs less
to build than the odometer steps it saves: its n q^(kb+1) entries cost an
add-table gather and a copy each, and it saves q^(k-kb-1) steps, each a
Python loop turn worth about 2^13 built entries.  It also stays within
2^20 entries (caps of 2^19 and 2^21 measured slower), and always holds at
least q words, so a long code never counts one word a pass: it takes at
most max(2^20, q n) entries.  For q = 2 the rows are packed into uint64
limbs, the leading rows are walked in Gray-code order with one XOR per
step, and weights are popcounts.  If the rows sum to the all-ones word,
which for an echelon form means 1 is in the code, flipping every
coefficient maps w to w + 1, of weight n - wt(w): only the 2^(k-1) words
of the rows after the first are walked.
"""

import itertools

import numpy as np

from . import linalg

BACKEND = "python"  # the only backend; benchmark records name it
_BLOCK_ENTRIES = 1 << 20  # cap on the q > 2 block's n x words entries, above its one-level floor
_STEP_ENTRIES = 1 << 13  # block entries that cost as much to build as one odometer step


def enumerate_weights(field, G):
    """[A_0, ..., A_n] as int64, over all q^k coefficient vectors of G.

    Uncached and unbudgeted: it visits (q^k - 1)/(q - 1) words, 2^k for q = 2 (2^(k-1) when the rows sum to 1).
    """
    G = np.asarray(G, dtype=np.uint16)
    if G.ndim != 2:
        raise ValueError("generator matrix must be 2-D")
    return _binary_weights(G) if field.order == 2 else _projective_weights(field, G)


def _projective_weights(field, G):
    q, (k, n) = field.order, G.shape
    multiples = field.mul_table[np.arange(q)[None, :, None], G[1:, None, :]]  # s * G[i + 1]; row 0 is never scaled
    kb = min(k, 1)  # a pass counts at least q words
    while kb < k and q ** (kb + 1) * n <= min(_BLOCK_ENTRIES, q ** (k - kb - 1) * _STEP_ENTRIES):
        kb += 1
    k_pre = k - kb
    counter = np.uint8 if n < 256 else np.uint16  # holds any zero count up to n
    zeros = np.zeros(n + 1, dtype=np.int64)  # zeros[z]: tallied words with z zero entries
    block = np.zeros((n, 1), dtype=np.uint16)  # span(G[i+1:]) as columns, as i walks down

    for i in range(k - 1, k_pre - 1, -1):
        zeros += _zero_counts(block, field.neg_table[G[i]], counter)
        if i:
            block = np.concatenate([linalg.add(field, block, m[:, None]) for m in multiples[i - 1]], axis=1)
    for i in range(k_pre):
        for digits in itertools.product(range(q), repeat=k_pre - 1 - i):
            partial = G[i]
            for j, s in enumerate(digits, start=i + 1):
                partial = linalg.add(field, partial, multiples[j - 1, s])
            zeros += _zero_counts(block, field.neg_table[partial], counter)
    counts = zeros[::-1] * (q - 1)
    counts[0] += 1  # the zero vector
    return counts


def _zero_counts(block, negated, counter):
    """One count pass: zeros[z] is the number of words block + partial with z zero entries, negated = -partial."""
    hits = (block == negated[:, None]).view(np.uint8)
    return np.bincount(hits.sum(axis=0, dtype=counter), minlength=len(block) + 1)


def _binary_weights(G):
    k, n = G.shape
    if k and np.bitwise_xor.reduce(G, axis=0).all():  # the rows sum to 1: c -> c + 1 maps w to w + 1
        counts = _binary_weights(G[1:])  # the words with c_0 = 0; flipping c gives the rest
        return counts + counts[::-1]
    packed = np.packbits(G.astype(np.uint8), axis=1, bitorder="little")
    rows = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    k_pre = max(k - 16, 0)
    block = np.zeros((1, rows.shape[1]), dtype=np.uint64)  # span of the last <= 16 rows
    for row in rows[k_pre:]:
        block = np.concatenate([block, block ^ row])

    counts = np.zeros(n + 1, dtype=np.int64)
    partial = np.zeros_like(block[0])
    words, pops = np.empty_like(block), np.empty(block.shape, dtype=np.uint8)
    weights = pops[:, 0] if rows.shape[1] == 1 else np.empty(len(block), dtype=np.intp)
    for step in range(1 << k_pre):
        if step:
            partial ^= rows[(step & -step).bit_length() - 1]
        np.bitwise_count(np.bitwise_xor(block, partial, out=words), out=pops)
        if rows.shape[1] > 1:
            pops.sum(axis=1, out=weights)
        counts += np.bincount(weights, minlength=n + 1)
    return counts
