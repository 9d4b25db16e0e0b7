"""Deterministic random streams.

Every stochastic operation takes an explicit integer seed.  Randomness that
is consumed per sample point comes from a counter-based stream keyed by
(seed, point index), so results do not depend on how work is scheduled
across workers.

Stream layout: the stream of point ``index`` under ``seed`` is Philox4x64-10
with the 128-bit key (index << 64) | seed, its counter running from 1, four
uint64 words per counter value.  A byte string drawn from it is the
little-endian view of the words, and a double is (w >> 11) * 2^-53.
``point_words`` computes the first words of many streams at once in numpy,
under one seed or under one seed per stream, since the key is per element
(``point_bytes`` gives them as byte strings); ``point_rng`` is numpy's
``Generator`` on the same stream, for the few readers that go far past their
first words.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011),
# for lanes 0 and 2 and keys 0 and 1.  Python ints: numpy arrays made at
# import added about 0.1 MB to a run's peak RSS
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_SLAB_BLOCKS = 2048  # counter values per numpy pass: temporaries stay near 300 KB
_LOW32 = 0xFFFFFFFF


def master_rng(seed: int) -> np.random.Generator:
    """Generator for draws made once, in a fixed order, before any fan-out."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def _check_index(index):
    if not 0 <= index <= _MASK64:
        raise ValueError(f"point index {index} lies outside [0, 2^64)")


def point_rng(seed: int, index: int, blocks: int = 0) -> np.random.Generator:
    """Independent stream for sample point ``index`` under ``seed``.

    The 128-bit Philox key is (index << 64) | seed, so streams for distinct
    indices never overlap and do not depend on creation order.  ``blocks``
    skips the first 4 * blocks words: the generator goes on where
    ``point_words(seed, [index], 4 * blocks)`` stops.
    """
    _check_index(index)
    key = (index << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key, counter=blocks))


def _mulhilo(a, mul, mul_lo, mul_hi):
    """High and low 64 bits of the products mul * a, through 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> 32
    ll, lh, hl = a_lo * mul_lo, a_lo * mul_hi, a_hi * mul_lo
    cross = (ll >> 32) + (lh & _LOW32) + hl  # < 2^64: no carry is lost
    return a_hi * mul_hi + (lh >> 32) + (cross >> 32), a * mul


def _philox_blocks(seed, index, counter):
    """Philox4x64-10 of counter values ``counter`` under keys (index, seed),
    element by element: a (4, n) array, row j the j-th word of each block."""
    mul = np.array(_MUL, dtype=np.uint64)[:, None]
    halves = mul & _LOW32, mul >> 32
    weyl = np.array(_WEYL, dtype=np.uint64)[:, None]
    even = np.zeros((2, counter.size), dtype=np.uint64)  # lanes 0 and 2
    odd = np.zeros_like(even)  # lanes 1 and 3
    even[0] = counter
    key = np.empty_like(even)
    key[0], key[1] = seed, index
    for r in range(_ROUNDS):
        if r:
            key += weyl
        hi, lo = _mulhilo(even, mul, *halves)
        # lane 0 <- hi(M1 x2) ^ x1 ^ k0, lane 2 <- hi(M0 x0) ^ x3 ^ k1
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]])


def point_words(seed, indices, n: int) -> np.ndarray:
    """First ``n`` words of the stream of every index: a (len(indices), n)
    uint64 array whose row i equals the words of ``point_rng(seed,
    indices[i])``.  ``seed`` is one seed for every index, or a sequence of
    one seed per index, row i then keyed by ``seed[i]``."""
    indices = [int(i) for i in indices]
    if indices:
        _check_index(min(indices))
        _check_index(max(indices))
    idx = np.array(indices, dtype=np.uint64)
    keys = None
    if np.ndim(seed):
        keys = np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)
        if keys.size != idx.size:
            raise ValueError(f"{keys.size} seeds for {idx.size} indices")
    per = -(-n // 4)  # counter values per index
    out = np.empty((idx.size, 4 * per), dtype=np.uint64)
    rows = max(1, _SLAB_BLOCKS // max(per, 1))
    counters = np.arange(1, per + 1, dtype=np.uint64)
    for lo in range(0, idx.size, rows):
        part = idx[lo:lo + rows]
        key = seed & _MASK64 if keys is None else np.repeat(keys[lo:lo + rows], per)
        x = _philox_blocks(key, np.repeat(part, per), np.tile(counters, part.size))
        out[lo:lo + part.size] = x.T.reshape(part.size, 4 * per)
    return out[:, :n]


def point_bytes(seed, indices, nbytes: int) -> list:
    """``point_rng(seed, i).bytes(nbytes)`` for every index i: the first
    ``nbytes`` of each stream's little-endian words; ``seed`` as in
    ``point_words``."""
    words = point_words(seed, indices, -(-nbytes // 8))
    data = words.astype("<u8", copy=False).tobytes()
    return [data[k:k + nbytes] for k in range(0, len(data), 8 * words.shape[1])]


def subseed(seed: int, label: str) -> int:
    """Derive a 64-bit stream seed for a named sub-task of an experiment."""
    h = seed & _MASK64
    for ch in label.encode("utf-8"):
        h = ((h ^ ch) * 0x100000001B3) & _MASK64
    return h
