"""Counter-based point streams: ``rand.point_words`` against numpy's Philox,
and every per-start sampler against the per-index ``Generator`` loop it
replaced, kept here as the reference."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import returns
from ergolab.observables import DistToPoint
from ergolab.points import FractionPoint, ReservoirPoint
from ergolab.rand import master_rng, point_bytes, point_rng, point_words, subseed
from ergolab.reservoir import FIRST_WORDS, BitReservoir, _first_fill, stream_window_floats
from ergolab.returns import return_sample, sample_conditioned
from ergolab.systems import CAT_MATRIX, CircleRotation, Doubling, ToralAutomorphism

U64 = st.integers(0, (1 << 64) - 1)
BITS = (40, 61, 64, 100, 512)


def philox(seed, index):
    """numpy's own Philox stream for (seed, index): the oracle."""
    return np.random.Generator(np.random.Philox(key=(index << 64) | seed))


class TestPointWords:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(seed=U64, index=U64, other=U64, n=st.integers(0, 600))
    def test_rows_are_numpy_philox_streams(self, seed, index, other, n):
        words = point_words(seed, [other, index], n)
        assert words.shape == (2, n) and words.dtype == np.uint64
        row = words[1]
        assert row.astype("<u8").tobytes() == philox(seed, index).bytes(8 * n)
        assert np.array_equal((row >> np.uint64(11)) * 2.0 ** -53,
                              philox(seed, index).random(n))

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(seed=U64, index=U64, nbytes=st.integers(1, 700))
    def test_point_bytes_are_generator_bytes(self, seed, index, nbytes):
        assert point_bytes(seed, range(3), nbytes) == [point_rng(seed, i).bytes(nbytes)
                                                       for i in range(3)]
        assert point_words(seed, [index], 1)[0, 0] == philox(seed, index).integers(
            0, 1 << 64, dtype=np.uint64, endpoint=False)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(keys=st.lists(st.tuples(U64, U64), min_size=1, max_size=6), n=st.integers(0, 40))
    def test_one_seed_per_index(self, keys, n):
        seeds, indices = zip(*keys)
        words = point_words(list(seeds), indices, n)
        assert words.shape == (len(keys), n)
        for row, (seed, index) in zip(words, keys):
            assert row.astype("<u8").tobytes() == philox(seed, index).bytes(8 * n)

    def test_one_seed_per_index_across_the_slab_edges(self):
        seeds = [(1 << 64) - 1 - 3 * k for k in range(1500)]  # 682 indices a slab
        words = point_words(seeds, range(1500), 9)
        for row in (0, 681, 682, 1363, 1364, 1499):
            assert words[row].astype("<u8").tobytes() == philox(seeds[row], row).bytes(72)
        with pytest.raises(ValueError, match="2 seeds for 3 indices"):
            point_words([1, 2], [0, 1, 2], 4)

    def test_each_bytes_call_takes_whole_uint32s(self):
        # bytes(58) takes 15 uint32 halves: the second call starts at byte 60
        raw = point_words(7, [3], 16)[0].astype("<u8").tobytes()
        gen = point_rng(7, 3)
        assert gen.bytes(58) == raw[:58]
        assert gen.bytes(58) == raw[60:118]

    @pytest.mark.parametrize("blocks", [0, 1, 16, 100])
    def test_generator_goes_on_at_the_next_block(self, blocks):
        words = point_words(2**64 - 1, [5], 4 * blocks + 12)[0]
        tail = point_rng(2**64 - 1, 5, blocks=blocks).bytes(96)
        assert tail == words[4 * blocks:].astype("<u8").tobytes()

    def test_many_indices_cross_the_slab_edges(self):
        indices = [0, 1, 2**64 - 1] + list(range(10, 1500))  # 3 blocks each: 682 a slab
        words = point_words(11, indices, 9)
        for row in (0, 1, 2, 681, 682, 1363, 1364, 1492):
            assert words[row].astype("<u8").tobytes() == philox(11, indices[row]).bytes(72)


class TestIndexRange:
    @pytest.mark.parametrize("index", [-1, 1 << 64, (1 << 64) + 5])
    def test_out_of_range_index_raises(self, index):
        with pytest.raises(ValueError, match="outside"):
            point_rng(0, index)
        with pytest.raises(ValueError, match="outside"):
            point_words(0, [0, index], 4)

    def test_top_index_has_its_own_stream(self):
        top = point_rng(3, (1 << 64) - 1).bytes(32)
        assert top != point_rng(3, 0).bytes(32)
        assert top == point_words(3, [(1 << 64) - 1], 4)[0].astype("<u8").tobytes()


# ---- the per-index loops the vectorized samplers replaced ----------------

_EDGE_GUARD = 2.0 ** -50


def reference_dyadic_draw(seed, index, bits):
    rng = point_rng(seed, index)
    nbytes = (bits + 7) // 8
    raw = int.from_bytes(rng.bytes(nbytes), "big") >> (nbytes * 8 - bits)
    return Fraction(raw, 1 << bits)


def reference_interval_points(center, r, bits, seed, count):
    scale = 1 << bits
    lo = int(math.ceil((center - r + _EDGE_GUARD) * scale))
    hi = int(math.floor((center + r - _EDGE_GUARD) * scale))
    span = hi - lo + 1
    stream = subseed(seed, "conditioned")
    points = []
    for i in range(count):
        rng = point_rng(stream, i)
        raw = int.from_bytes(rng.bytes((bits + 7) // 8 + 8), "big")
        num = (lo + raw % span) % scale
        points.append(FractionPoint((Fraction(num, scale),)))
    return points


def reference_disc_points(center, r, bits, seed, count, guard=_EDGE_GUARD):
    scale = 1 << bits
    cx, cy = center
    points = []
    low_bits = bits - 53
    stream = subseed(seed, "conditioned")
    for i in range(count):
        rng = point_rng(stream, i)
        u, v = rng.random(2)
        rho = (r - guard) * math.sqrt(u)
        theta = 2.0 * math.pi * v
        coords = []
        for c, off in ((cx, rho * math.cos(theta)), (cy, rho * math.sin(theta))):
            head = int(((c + off) % 1.0) * (1 << 53)) % (1 << 53)
            tail = int.from_bytes(rng.bytes((low_bits + 7) // 8), "big") >> (
                ((low_bits + 7) // 8) * 8 - low_bits
            ) if low_bits > 0 else 0
            coords.append(Fraction((head << max(low_bits, 0)) | tail, scale))
        points.append(FractionPoint(tuple(coords)))
    return points


def reference_reservoir_prefixes(center, r, seed, count):
    rng = master_rng(subseed(seed, "conditioned-prefix"))
    scale = 1 << 64
    lo = int(math.ceil((center - r + _EDGE_GUARD) * scale))
    hi = int(math.floor((center + r - _EDGE_GUARD) * scale))
    draws = rng.integers(0, hi - lo + 1, size=count, dtype=np.uint64)
    return [((lo + int(d)) % scale).to_bytes(8, "big") for d in draws]


class ReferenceReservoir:
    """The prefix, then one ``point_rng`` stream read in 4096-byte chunks."""

    def __init__(self, seed, index, prefix=b""):
        self.buf = prefix
        self.gen = point_rng(seed, index)

    def window(self, offset, width=64):
        last = (offset + width + 7) >> 3
        while len(self.buf) <= last:
            self.buf += self.gen.bytes(4096)
        first = offset >> 3
        raw = int.from_bytes(self.buf[first:last + 1], "big")
        nbits = (last + 1 - first) * 8
        return (raw >> (nbits - (offset - first * 8) - width)) & ((1 << width) - 1)

    def window_floats(self, offset, count):
        return [min(self.window(offset + k) * 2.0 ** -64, 1.0 - 2.0 ** -53)
                for k in range(count)]


class TestSamplersMatchPerIndexStreams:
    @pytest.mark.parametrize("bits", BITS)
    def test_interval_points(self, bits):
        got = sample_conditioned(CircleRotation.golden(bits), DistToPoint((0.375,)), 0.01, 8, 60)
        assert got == reference_interval_points(0.375, 0.01, bits, 8, 60)

    @pytest.mark.parametrize("bits", BITS)
    def test_disc_points(self, bits):
        got = sample_conditioned(ToralAutomorphism(CAT_MATRIX, precision_bits=bits),
                                 DistToPoint((0.3, 0.7)), 0.05, 9, 60)
        if bits >= 53:
            assert got == reference_disc_points((0.3, 0.7), 0.05, bits, 9, 60)
        else:  # the loop's 53-bit heads, drawn within the guard grown by the
            # truncation, then cut to the B-bit lattice
            guard = _EDGE_GUARD + math.sqrt(2.0) * 2.0 ** -bits
            heads = reference_disc_points((0.3, 0.7), 0.05, 53, 9, 60, guard)
            assert got == [FractionPoint(tuple(Fraction(math.floor(c * 2**bits), 2**bits)
                                               for c in p.coords)) for p in heads]

    @pytest.mark.parametrize("bits", BITS)
    @pytest.mark.parametrize("system", [
        lambda b: Doubling(),
        lambda b: ToralAutomorphism(CAT_MATRIX, precision_bits=b),
        CircleRotation.golden,
        CircleRotation.liouville,
    ], ids=["doubling", "cat", "golden", "liouville"])
    def test_sample_invariant(self, system, bits):
        sys_ = system(bits)
        got = sys_.sample_invariant(12, 50)
        if isinstance(sys_, Doubling):  # a reservoir's leading B bits are the same draw
            got = [FractionPoint((Fraction(p.bits.window(0, bits), 1 << bits),)) for p in got]
        want = [
            FractionPoint(tuple(reference_dyadic_draw(12, i * sys_.dim + j, bits)
                                for j in range(sys_.dim)))
            for i in range(50)
        ]
        assert got == want

    def test_interval_reservoir_points(self):
        got = sample_conditioned(Doubling(), DistToPoint((0.375,)), 0.01, 5, 40)
        prefixes = reference_reservoir_prefixes(0.375, 0.01, 5, 40)
        rows = stream_window_floats([(p.bits, 3) for p in got], 90)
        for i, (p, prefix) in enumerate(zip(got, prefixes)):
            assert (p.bits.seed, p.bits.index) == (5, i)
            ref = ReferenceReservoir(5, i, prefix)
            assert rows[i].tolist() == ref.window_floats(3, 90)
            assert p.bits.window(0) == int.from_bytes(prefix, "big")


# stream bits inside the first fill, across its edge, and past 4096 bytes
EDGE = 8 * 8 * FIRST_WORDS
OFFSETS = (0, 5, 300, EDGE - 70, EDGE - 1, EDGE + 3, 8 * 4096 + 11, 8 * 9000 + 7)


class TestReservoirStreams:
    @pytest.mark.parametrize("prefix_len", [0, 8])
    def test_batched_first_fill_then_single_reads(self, prefix_len):
        def prefix(i):
            return bytes((37 * i + k) % 256 for k in range(prefix_len))

        res = [BitReservoir(21, i, prefix(i)) for i in range(6)]
        refs = [ReferenceReservoir(21, i, prefix(i)) for i in range(6)]
        rows = stream_window_floats([(r, 2 * i) for i, r in enumerate(res)], 40)
        for i, (row, ref) in enumerate(zip(rows, refs)):
            assert row.tolist() == ref.window_floats(2 * i, 40)
        for off in OFFSETS:
            for r, ref in zip(res, refs):
                assert r.window(off) == ref.window(off)
                assert r.window(off, 7) == ref.window(off, 7)
                assert r.window_floats(off, 70).tolist() == ref.window_floats(off, 70)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_first_read_anywhere(self, offset):
        for prefix in (b"", b"\x12\x34\x56\x78\x9a\xbc\xde\xf0"):
            ref = ReferenceReservoir(4, 9, prefix)
            assert BitReservoir(4, 9, prefix).window(offset) == ref.window(offset)
            got = BitReservoir(4, 9, prefix).window_floats(offset, 100).tolist()
            assert got == ref.window_floats(offset, 100)

    def test_mixed_seeds_and_shared_reservoirs_in_one_batch(self):
        a, b, c = BitReservoir(1, 0), BitReservoir(2, 0), BitReservoir(1, 5)
        rows = stream_window_floats([(a, 0), (b, 0), (a, 9), (c, EDGE - 20)], 50)
        for row, (seed, index, off) in zip(rows, [(1, 0, 0), (2, 0, 0), (1, 0, 9),
                                                  (1, 5, EDGE - 20)]):
            assert row.tolist() == ReferenceReservoir(seed, index).window_floats(off, 50)
        assert a.window_floats(EDGE - 20, 50).tolist() == ReferenceReservoir(1, 0).window_floats(
            EDGE - 20, 50)

    def test_a_reservoir_listed_twice_is_filled_once(self):
        a, b = BitReservoir(1, 0), BitReservoir(2, 7, b"\x01" * 8)
        _first_fill([a, b, a])
        assert a._buf.tobytes() == point_rng(1, 0).bytes(8 * FIRST_WORDS)
        assert b._buf.tobytes() == b"\x01" * 8 + point_rng(2, 7).bytes(8 * FIRST_WORDS)

    def test_first_fill_holds_only_the_prefix_words(self):
        res = BitReservoir(3, 3, b"\x01" * 8)
        res.window(0)
        assert res._buf.size == 8 + 8 * FIRST_WORDS and res._gen is None
        res.window(EDGE)
        assert res._gen is not None


class TestGeneratorCount:
    """Per-start samplers draw through ``point_words``: a numpy ``Philox`` is
    built only for a master stream or for a reservoir read past its first
    fill, never once per start."""

    @pytest.fixture
    def built(self, monkeypatch):
        keys, real = [], np.random.Philox

        def counting(*args, **kwargs):
            keys.append(kwargs.get("key"))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return keys

    @pytest.mark.parametrize("system, center, r, measure", [
        (Doubling(), (0.375,), 2.0 ** -13, 2.0 ** -12),
        (CircleRotation.golden(), (0.375,), 2.0 ** -10, 2.0 ** -9),
        (ToralAutomorphism(CAT_MATRIX), (0.3, 0.7), 0.05, math.pi * 0.05 ** 2),
    ], ids=["doubling", "golden", "cat"])
    def test_return_sample(self, monkeypatch, built, system, center, r, measure):
        scanned, scan = [], returns.first_hits

        def recording(system, points, *args):
            scanned.extend(points)
            return scan(system, points, *args)

        monkeypatch.setattr(returns, "first_hits", recording)
        return_sample(system, DistToPoint(center), r, seed=3, count=200,
                      cap=math.ceil(100 / measure), measure=measure)
        reservoirs = [p.bits for p in scanned if isinstance(p, ReservoirPoint)]
        past = sum(bits._gen is not None for bits in reservoirs)
        if reservoirs:  # one master stream draws the conditioned prefixes
            assert 0 < past < 200
            assert len(built) == 1 + past
        else:
            assert built == []

    @pytest.mark.parametrize("system", [
        Doubling(), ToralAutomorphism(CAT_MATRIX),
        CircleRotation.golden(), CircleRotation.liouville(),
    ], ids=["doubling", "cat", "golden", "liouville"])
    def test_sample_invariant(self, built, system):
        assert len(system.sample_invariant(4, 300)) == 300
        assert built == []


class TestFractionCount:
    """Exact starts are integer numerators over 2^B from draw to scan: no
    ``Fraction`` is built while return starts are drawn and scanned."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls, real = [], Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        return calls

    @pytest.mark.parametrize("system, center, r, measure", [
        (CircleRotation.golden(), (0.375,), 2.0 ** -10, 2.0 ** -9),
        (CircleRotation.liouville(), (0.375,), 2.0 ** -10, 2.0 ** -9),
        (ToralAutomorphism(CAT_MATRIX), (0.3, 0.7), 0.05, math.pi * 0.05 ** 2),
    ], ids=["golden", "liouville", "cat"])
    def test_return_sample(self, built, system, center, r, measure):
        sample = return_sample(system, DistToPoint(center), r, seed=3, count=200,
                               cap=math.ceil(100 / measure), measure=measure)
        assert len(sample.taus) == 200 and not sample.censored.all()
        assert built == []

    def test_the_counter_sees_fractions(self, built):
        assert FractionPoint(("1/2",)).coords == (Fraction(1, 2),)
        assert built


def test_subseed_values_are_pinned():
    # FNV-1a over the label's UTF-8 bytes, started from the seed: every
    # seeded stream of every experiment hangs off these values
    assert subseed(0, "cap") == 6481905827406003304
    assert subseed(12345, "joint-bytes") == 15541925685694081649
    assert subseed((1 << 64) - 1, "mu-k") == 15908385607253299861
