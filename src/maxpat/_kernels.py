"""Vertical (tidset) support counting.

Each item keeps one bitset over the transactions, packed into uint64 words.
A candidate's support is the popcount of the AND of its items' bitsets, the
representation of Eclat (Zaki 2000) and MAFIA (Burdick et al. 2001).  This
is the one hot loop in the miner, and the only way it counts support.
"""

import numpy as np

_BLOCK_BYTES = 1 << 20  # bounds each (block, words) intermediate


def backend() -> str:
    return "numpy"


def count_supports(tidsets, cand_idx):
    """Support of each candidate: the popcount of the AND of the ``tidsets``
    rows named by its row of the ``(n_cand, k)`` index matrix ``cand_idx``,
    with k >= 1."""
    n_cand, k = cand_idx.shape
    out = np.empty(n_cand, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (tidsets.shape[1] * tidsets.itemsize))
    for lo in range(0, n_cand, step):
        idx = cand_idx[lo:lo + step]
        acc = tidsets[idx[:, 0]]
        for j in range(1, k):
            acc &= tidsets[idx[:, j]]
        out[lo:lo + step] = np.bitwise_count(acc).sum(axis=1)
    return out


def pack_rows(rows, bits, n_rows: int, n_bits: int):
    """Pack flat ``(row, bit)`` index arrays into an ``(n_rows, words)``
    uint64 bitset matrix: bit ``bits[j]`` of row ``rows[j]`` is set for
    every j.  Repeated pairs set their bit once."""
    words = max(1, (n_bits + 63) // 64)
    out = np.zeros((n_rows, words), dtype=np.uint64)
    bits = np.asarray(bits, dtype=np.intp)
    np.bitwise_or.at(out, (np.asarray(rows, dtype=np.intp), bits >> 6),
                     np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)))
    return out
