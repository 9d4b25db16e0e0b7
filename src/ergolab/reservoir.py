"""Lazily extended random bit streams with O(1) window reads.

The expanding-map orbit engine stores a point as an offset into an infinite
random binary expansion.  Shifting the expansion is the doubling map, so the
orbit position n is just a 64-bit window read starting at bit n.  Windows are
reproducible: the bytes after a reservoir's fixed prefix are its (seed,
index) stream from ``rand`` (Philox4x64-10 keyed (index << 64) | seed, the
counter from 1, the bytes the little-endian view of its uint64 words),
cached, and re-reads return identical bits.

A reservoir's first read appends the stream's first FIRST_WORDS words.
``stream_window_floats`` draws them for every reservoir of its batch at once,
in one ``point_words`` call keyed by each reservoir's own seed.  Only a
reservoir read past them builds a numpy ``Generator``, with its Philox
counter set to the next block, and extends in chunks of whole words.
"""

import numpy as np

from .rand import point_rng, point_words

WINDOW_BITS = 64
FIRST_WORDS = 64  # stream words of a reservoir's first fill: 512 bytes
_CHUNK_BYTES = 1 << 12
_INV64 = 2.0 ** -64
_BELOW_ONE = 1.0 - 2.0 ** -53


def _unit_floats(words):
    """uint64 words w as floats w * 2^-64 in [0, 1).

    Rounds to nearest, except the top 2^10 words, which would round to 1.0:
    they read 1 - 2^-53, their truncation.
    """
    return np.minimum(words * _INV64, _BELOW_ONE)


def _big_endian_words(rows):
    """uint64 of each row of an (n, 8) uint8 array, its first byte most significant."""
    return np.ascontiguousarray(rows).view(">u8")[:, 0].astype(np.uint64)


class BitReservoir:
    """Seeded, append-only random bit stream.

    Parameters
    ----------
    seed, index : int
        Key of the per-point stream used to extend the buffer.
    prefix : bytes, optional
        Bits fixed in advance (used by conditioned samplers to pin the
        leading window); the stream continues past them.
    """

    __slots__ = ("seed", "index", "_prefix_len", "_buf", "_gen")

    def __init__(self, seed, index, prefix=b""):
        self.seed = int(seed)
        self.index = int(index)
        self._prefix_len = len(prefix)
        self._buf = np.frombuffer(prefix, dtype=np.uint8).copy() if prefix else np.empty(0, dtype=np.uint8)
        self._gen = None

    def _ensure_bytes(self, nbytes):
        if self._buf.size >= nbytes:
            return
        if self._buf.size == self._prefix_len:
            _first_fill([self])
            if self._buf.size >= nbytes:
                return
        if self._gen is None:  # go on after the first fill's Philox blocks
            self._gen = point_rng(self.seed, self.index, blocks=FIRST_WORDS // 4)
        # whole chunks: Generator.bytes draws 32-bit words and drops the rest
        # of the last one, so a size not a multiple of 4 would make later
        # bits depend on how the stream was read
        grow = -(-(nbytes - self._buf.size) // _CHUNK_BYTES) * _CHUNK_BYTES
        fresh = np.frombuffer(self._gen.bytes(grow), dtype=np.uint8)
        self._buf = np.concatenate([self._buf, fresh])

    def window(self, offset, width=WINDOW_BITS):
        """Bits offset..offset+width-1 as an unsigned integer (msb first)."""
        if offset < 0:
            raise ValueError("bit offset must be non-negative")
        first = offset >> 3
        last = (offset + width + 7) >> 3
        self._ensure_bytes(last + 1)
        raw = int.from_bytes(self._buf[first:last + 1].tobytes(), "big")
        nbits = (last + 1 - first) * 8
        return (raw >> (nbits - (offset - first * 8) - width)) & ((1 << width) - 1)

    def window_float(self, offset):
        """The 64-bit window at ``offset`` as a float in [0, 1)."""
        return float(_unit_floats(self.window(offset)))

    def window_floats(self, offset, count):
        """Vector of window_float at offsets offset..offset+count-1."""
        if count <= 0:
            return np.empty(0)
        return stream_window_floats([(self, offset)], count)[0]


def _first_fill(reservoirs):
    """Append the first FIRST_WORDS stream words to every reservoir that has
    none yet, drawn in one ``point_words`` call under their own seeds; a
    reservoir listed twice is filled once."""
    todo = list({id(bits): bits for bits in reservoirs
                 if bits._buf.size == bits._prefix_len}.values())
    if not todo:
        return
    words = point_words([bits.seed for bits in todo], [bits.index for bits in todo], FIRST_WORDS)
    rows = words.astype("<u8", copy=False).view(np.uint8)
    for bits, row in zip(todo, rows):
        bits._buf = np.concatenate([bits._buf, row])


def stream_window_floats(starts, count):
    """window_floats(offset, count) of every (reservoir, offset) pair as an
    (n, count) array: one byte row per stream, then one windowed read."""
    width = ((count + 6) >> 3) + 9
    _first_fill([bits for bits, _ in starts])
    rows, first = [], []  # first: bit of each row's first window in the joined rows
    for bits, offset in starts:
        bits._ensure_bytes((offset >> 3) + width)
        rows.append(bits._buf[offset >> 3:(offset >> 3) + width])
        first.append(8 * width * len(first) + (offset & 7))
    flat = np.concatenate(rows)
    # word k is bytes k..k+7: a strided view over the joined rows, no copy
    words = _big_endian_words(np.ndarray((flat.size - 8, 8), np.uint8, flat, strides=(1, 1)))
    bit = np.add.outer(first, np.arange(count))
    idx, shift = bit >> 3, (bit & 7).astype(np.uint64)
    nxt = flat[idx + 8].astype(np.uint64)
    return _unit_floats((words[idx] << shift) | (nxt >> (np.uint64(8) - shift)))


def bulk_window_floats(byte_rows, bit_offset):
    """Window floats at one bit offset across rows of a byte matrix.

    ``byte_rows`` is a uint8 array of shape (n, m) with 8*m >= bit_offset + 64;
    used by the vectorized estimators that need many short independent bit
    streams.
    """
    b = bit_offset >> 3
    s = np.uint64(bit_offset & 7)
    word = _big_endian_words(byte_rows[:, b:b + 8])
    nxt = byte_rows[:, b + 8].astype(np.uint64)
    return _unit_floats((word << s) | (nxt >> (np.uint64(8) - s)))
