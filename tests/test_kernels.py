import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from maxpat import _kernels


def brute(txn, cand):
    return np.array([sum(1 for t in txn if not np.any(c & ~t)) for c in cand],
                    dtype=np.int64)


def random_tidsets(rng, n_txn, n_items=8):
    """A random horizontal boolean database and its packed tidsets."""
    txn = rng.integers(0, 2, size=(n_txn, n_items), dtype=bool)
    items, rows = np.nonzero(txn.T)
    return txn, _kernels.pack_rows(items, rows, n_items, n_txn)


def random_candidates(rng, n_cand, k, n_items=8):
    """``n_cand`` random k-sets as an index matrix and as boolean rows."""
    idx = np.array([rng.choice(n_items, size=k, replace=False)
                    for _ in range(n_cand)], dtype=np.intp).reshape(n_cand, k)
    cand = np.zeros((n_cand, n_items), dtype=bool)
    np.put_along_axis(cand, idx, True, axis=1)
    return idx, cand


def pack_reference(rows, bits, n_rows, n_bits):
    """Bit-at-a-time packing with Python ints."""
    out = [[0] * max(1, (n_bits + 63) // 64) for _ in range(n_rows)]
    for r, b in zip(rows, bits):
        out[r][b // 64] |= 1 << (b % 64)
    return out


def test_pack_rows_shapes():
    out = _kernels.pack_rows([0, 1, 2], [0, 63, 64], 3, 65)
    assert out.shape == (3, 2)
    assert out.dtype == np.uint64
    assert out[0, 0] == 1
    assert out[1, 0] == np.uint64(1) << np.uint64(63)
    assert out[2, 1] == 1
    # zero-width bitsets still get one word so downstream shapes hold
    assert _kernels.pack_rows([], [], 0, 0).shape == (0, 1)
    assert _kernels.pack_rows([], [], 1, 0).shape == (1, 1)


@pytest.mark.parametrize("rows, bits, n_rows, n_bits", [
    ([0, 0, 1, 1, 1, 2, 2], [0, 0, 63, 64, 64, 65, 127], 3, 128),
    ([1, 1, 1, 0], [127, 127, 0, 65], 2, 128),
    ([0, 0, 0], [64, 63, 64], 1, 65),
    ([], [], 0, 130),
    ([], [], 4, 0),
])
def test_pack_rows_matches_reference(rows, bits, n_rows, n_bits):
    out = _kernels.pack_rows(rows, bits, n_rows, n_bits)
    assert out.dtype == np.uint64
    assert out.tolist() == pack_reference(rows, bits, n_rows, n_bits)


def test_pack_rows_matches_reference_on_random_duplicates():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 6, size=400)
    bits = rng.integers(0, 130, size=400)  # far more pairs than distinct bits
    out = _kernels.pack_rows(rows, bits, 6, 130)
    assert out.tolist() == pack_reference(rows.tolist(), bits.tolist(), 6, 130)


@pytest.mark.parametrize("n_txn", [1, 7, 63, 64, 65, 130])
def test_numpy_kernel_matches_brute_force(n_txn):
    rng = np.random.default_rng(n_txn)
    for _ in range(5):
        txn, tidsets = random_tidsets(rng, n_txn)
        for k in range(1, 5):
            idx, cand = random_candidates(rng, int(rng.integers(1, 30)), k)
            got = _kernels.count_supports(tidsets, idx)
            assert np.array_equal(got, brute(txn, cand)), (n_txn, k)


def test_count_supports_crosses_block_seams(monkeypatch):
    rng = np.random.default_rng(5)
    txn, tidsets = random_tidsets(rng, 130)
    # five candidate rows of three words per block, so 23 rows span five
    monkeypatch.setattr(_kernels, "_CACHE_BYTES", 5 * tidsets[0].nbytes)
    idx, cand = random_candidates(rng, 23, 3)
    assert np.array_equal(_kernels.count_supports(tidsets, idx),
                          brute(txn, cand))


def test_count_supports_scratch_is_bounded():
    """Tens of thousands of candidates over tidsets of 16 words are counted
    a block at a time: gathered at once, their words would be 5 MB, twice
    over."""
    rng = np.random.default_rng(9)
    txn, tidsets = random_tidsets(rng, 1000)
    k3 = np.array(list(combinations(range(8), 3)), dtype=np.intp)
    pick = rng.integers(0, len(k3), size=40000)
    idx = k3[pick]
    tracemalloc.start()
    try:
        out = _kernels.count_supports(tidsets, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 3 * _kernels._CACHE_BYTES
    cand = np.zeros((len(k3), 8), dtype=bool)
    np.put_along_axis(cand, k3, True, axis=1)
    assert np.array_equal(out, brute(txn, cand)[pick])


def test_count_supports_is_exact_past_2_24_bits():
    """A row of 2**24 + 1 set bits (2 MiB of words) counts exactly, alone
    and ANDed with itself, as int64: summed in float32 or in an int
    narrower than 32 bits, its popcounts would lose the last bit."""
    tidsets = np.zeros((1, 2**18 + 1), dtype=np.uint64)
    tidsets[0, :-1] = ~np.uint64(0)
    tidsets[0, -1] = 1
    for cand in ([[0]], [[0, 0]]):
        out = _kernels.count_supports(tidsets, np.array(cand, dtype=np.intp))
        assert out.dtype == np.int64
        assert out.tolist() == [2**24 + 1]


def test_count_supports_empty_candidates():
    tidsets = _kernels.pack_rows([0], [0], 1, 1)
    out = _kernels.count_supports(tidsets, np.zeros((0, 1), dtype=np.intp))
    assert out.shape == (0,)


def test_count_supports_no_transactions():
    tidsets = _kernels.pack_rows([], [], 2, 0)
    cand = np.array([[0], [1]], dtype=np.intp)
    assert _kernels.count_supports(tidsets, cand).tolist() == [0, 0]
    assert _kernels.count_supports(tidsets, cand.reshape(1, 2)).tolist() == [0]


@pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 127, 128, 129, 192])
def test_pack_rows_crosses_block_seams(n_bits, monkeypatch):
    """With blocks of three rows, a call spans several blocks: entries come
    in shuffled row order, and the same pairs repeat on both sides of every
    seam, at the word-edge bits that ``n_bits`` holds."""
    width = 64 * ((n_bits + 63) // 64)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 3 * width)
    rng = np.random.default_rng(n_bits)
    n_rows = 11
    edges = [b for b in (0, 63, 64, 127, 128) if b < n_bits] + [n_bits - 1]
    seams = [r for r in (2, 3, 5, 6, 8, 9) if r < n_rows]
    rows = np.array([r for r in seams for _ in edges] * 2
                    + rng.integers(0, n_rows, size=60).tolist())
    bits = np.array(edges * len(seams) * 2
                    + rng.integers(0, n_bits, size=60).tolist())
    order = rng.permutation(len(rows))
    rows, bits = rows[order], bits[order]
    out = _kernels.pack_rows(rows, bits, n_rows, n_bits)
    assert out.tolist() == pack_reference(rows.tolist(), bits.tolist(),
                                          n_rows, n_bits)


@pytest.mark.parametrize("block_bytes", [None, 64])
@pytest.mark.parametrize("n_rows, n_bits", [(0, 0), (0, 129), (3, 0),
                                            (5, 64), (5, 130)])
def test_pack_rows_is_c_contiguous_native_uint64(n_rows, n_bits,
                                                 block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
    rows = np.arange(n_rows) if n_bits else np.zeros(0, dtype=int)
    bits = rows % max(1, n_bits)
    out = _kernels.pack_rows(rows, bits, n_rows, n_bits)
    assert out.dtype == np.dtype(np.uint64) and out.dtype.isnative
    assert out.flags.c_contiguous
    assert out.shape == (n_rows, max(1, (n_bits + 63) // 64))
    assert out.tolist() == pack_reference(rows.tolist(), bits.tolist(),
                                          n_rows, n_bits)


def test_pack_rows_scratch_is_bounded_by_the_block():
    """A sparse, wide call (4 000 rows of 4 000 bits, 16 000 entries) packs
    a block of rows at a time: its bool plane would be 16 MB at once."""
    rng = np.random.default_rng(8)
    n_rows = n_bits = 4000
    rows = rng.integers(0, n_rows, size=16000)
    bits = rng.integers(0, n_bits, size=16000)
    tracemalloc.start()
    try:
        out = _kernels.pack_rows(rows, bits, n_rows, n_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * _kernels._BLOCK_BYTES
    assert out.tolist() == pack_reference(rows.tolist(), bits.tolist(),
                                          n_rows, n_bits)
