"""Vertical (tidset) support counting, and the packing that feeds it.

Each item keeps one bitset over the transactions, packed into uint64 words.
A candidate's support is the popcount of the AND of its items' bitsets, the
representation of Eclat (Zaki 2000) and MAFIA (Burdick et al. 2001).
``count_supports`` is the only way the miner counts support; the maximality
filter counts containments with it too.  It gathers and ANDs a block of
candidates at a time, each block's words at most ``_CACHE_BYTES`` (256
KiB), so that the block, its temporary and its popcounts stay in cache and
in the heap that glibc reuses.  Blocks of 1 MiB are mapped afresh and handed
back on every call: on itemsets-skewed, about a thousand minor page faults
per mine.  The join climb's pair blocks (``miner._generate``) are sized the
same way.  A block's popcounts, a uint8 per word, are summed a row each by
one product with a vector of float64 ones, one call for the block, where a
sum along the rows runs its inner loop once a row; the sums are exact,
being integers far below 2**53.

``pack_rows`` builds every such bitset matrix: the items' tidsets, the
collected sets of the maximality filter and the label bitsets of the join.
It scatters its (row, bit) entries into a bool plane, one byte a bit, and
turns the plane into words with one ``np.packbits``, so a repeated entry
costs nothing more.  The plane is built a block of rows at a time, each
block at most ``_BLOCK_BYTES`` (1 MiB); a call costs a scatter per entry
and a byte per bit, where ``np.bitwise_or.at`` cost far more per entry and
nothing per bit.  Its blocks are not cache-sized: cutting a plane into
several needs the entries grouped by block, and graphs-wide's, in two
sorted runs, take longer to sort than to pack.
"""

import numpy as np

_BLOCK_BYTES = 1 << 20  # bounds each block's intermediate and bool plane
_CACHE_BYTES = 1 << 18  # bounds each count and join block's gathered words


def backend() -> str:
    return "numpy"


def count_supports(tidsets, cand_idx):
    """Support of each candidate: the popcount of the AND of the ``tidsets``
    rows named by its row of the ``(n_cand, k)`` index matrix ``cand_idx``,
    with k >= 1."""
    n_cand, k = cand_idx.shape
    out = np.empty(n_cand, dtype=np.int64)
    ones = np.ones(tidsets.shape[1])
    step = max(1, _CACHE_BYTES // (tidsets.shape[1] * tidsets.itemsize))
    for lo in range(0, n_cand, step):
        idx = cand_idx[lo:lo + step]
        # ``take`` copies whole rows, cheaper than ``tidsets[idx[:, 0]]``
        acc = tidsets.take(idx[:, 0], axis=0)
        for j in range(1, k):
            acc &= tidsets.take(idx[:, j], axis=0)
        # exact: every partial sum is an integer no larger than a row's bits
        out[lo:lo + step] = np.bitwise_count(acc) @ ones
    return out


def pack_rows(rows, bits, n_rows: int, n_bits: int):
    """Pack flat ``(row, bit)`` index arrays into an ``(n_rows, words)``
    uint64 bitset matrix: bit ``bits[j]`` of row ``rows[j]`` is set for
    every j.  Repeated pairs set their bit once."""
    words = max(1, (n_bits + 63) // 64)
    width = 64 * words
    flat = np.asarray(rows, dtype=np.intp) * width
    flat += np.asarray(bits, dtype=np.intp)
    step = max(1, _BLOCK_BYTES // width)  # rows whose plane fills a block
    if n_rows <= step:
        return _packed(flat, n_rows, width)
    out = np.empty((n_rows, words), dtype=np.uint64)
    # sorted, each block's entries are one slice
    flat = np.sort(flat)
    starts = np.arange(0, n_rows, step)
    cuts = np.searchsorted(flat, np.append(starts, n_rows) * width)
    for lo, a, b in zip(starts.tolist(), cuts[:-1].tolist(),
                        cuts[1:].tolist()):
        hi = min(lo + step, n_rows)
        out[lo:hi] = _packed(flat[a:b] - lo * width, hi - lo, width)
    return out


def _packed(flat, n_rows: int, width: int):
    """The ``(n_rows, width // 64)`` uint64 words whose set bits are the
    positions ``flat`` of one row-major bit plane: one scatter into a bool
    plane, one ``np.packbits``."""
    plane = np.zeros(n_rows * width, dtype=bool)
    plane[flat] = True
    words = np.packbits(plane, bitorder="little").view("<u8")
    return words.astype(np.uint64, copy=False).reshape(n_rows, width // 64)
