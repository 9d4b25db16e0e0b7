import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.points import (
    FloatPoint,
    FractionPoint,
    ReservoirPoint,
    torus_distance,
    torus_distances,
    unit_fraction,
)
from ergolab.reservoir import BitReservoir, bulk_window_floats, stream_window_floats


def test_unit_fraction_accepts_strings_and_fractions():
    assert unit_fraction("3/8") == Fraction(3, 8)
    assert unit_fraction("0.25") == Fraction(1, 4)
    assert unit_fraction(0) == 0


def test_unit_fraction_rejects_floats_and_out_of_range():
    with pytest.raises(TypeError):
        unit_fraction(0.3)
    with pytest.raises(ValueError):
        unit_fraction(Fraction(5, 4))
    with pytest.raises(ValueError):
        unit_fraction(1)


def test_fraction_point_float_coords():
    p = FractionPoint(("1/2", "3/8"))
    assert p.dim == 2
    assert np.allclose(p.float_coords(), [0.5, 0.375])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(den=st.integers(1, 1 << 600), data=st.data())
def test_points_from_numerators_equal_points_from_fractions(den, data):
    # an unreduced lattice point (here also scaled by k) is the value of its
    # reduced Fractions: same equality, hash, coords, floats and pickle
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=3))
    k = data.draw(st.sampled_from([1, 2, 3, 1 << 40]))
    lattice = FractionPoint.on_lattice([v * k for v in nums], den * k)
    reduced = FractionPoint(tuple(Fraction(v, den) for v in nums))
    assert lattice == reduced and hash(lattice) == hash(reduced)
    assert lattice.coords == reduced.coords == tuple(Fraction(v, den) for v in nums)
    assert lattice.float_coords().tolist() == [float(Fraction(v, den)) for v in nums]
    assert lattice.float_coords().tolist() == reduced.float_coords().tolist()
    assert lattice.dim == reduced.dim == len(nums)
    assert pickle.loads(pickle.dumps(lattice)) == reduced
    assert lattice != FractionPoint.on_lattice([v * k + 1 for v in nums], den * k + 1)


def test_fraction_point_holds_numerators_over_the_least_common_denominator():
    p = FractionPoint(("1/2", "3/8", 0))
    assert (p.nums, p.den) == ((4, 3, 0), 8)
    assert FractionPoint(("1/5",)).den == 5


def test_float_point_range_check():
    with pytest.raises(ValueError):
        FloatPoint((1.0,))
    assert FloatPoint((0.25, 0.75)).dim == 2


def test_torus_distance_wraps():
    assert torus_distance([0.9], [0.0]) == pytest.approx(0.1)
    assert torus_distance([0.1], [0.9]) == pytest.approx(0.2)
    assert torus_distance([0.25, 0.5], [0.25, 0.5]) == 0.0
    # max possible per-coordinate separation is 1/2
    assert torus_distance([0.0, 0.0], [0.5, 0.5]) == pytest.approx(np.sqrt(0.5))


def test_torus_distances_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.random((50, 2))
    target = rng.random(2)
    vec = torus_distances(pts, target)
    for row, want in zip(pts, vec):
        assert torus_distance(row, target) == pytest.approx(want)


class TestReservoir:
    def test_rereads_are_identical(self):
        res = BitReservoir(seed=42, index=7)
        first = [res.window(k) for k in range(100)]
        again = [res.window(k) for k in range(100)]
        assert first == again

    def test_window_shift_semantics(self):
        # window at offset n+1 drops the leading bit of the window at n
        res = BitReservoir(seed=1, index=0)
        w0 = res.window(0, 65)
        assert res.window(1, 64) == w0 & ((1 << 64) - 1)
        assert res.window(0, 64) == w0 >> 1

    def test_vectorized_windows_match_scalar(self):
        res = BitReservoir(seed=9, index=3)
        vals = res.window_floats(5, 300)
        for k in (0, 1, 17, 100, 299):
            assert vals[k] == pytest.approx(res.window_float(5 + k), abs=0, rel=0)

    def test_bits_do_not_depend_on_read_history(self):
        # a 40001-window read grows the buffer by a size that is not a whole
        # number of the generator's 32-bit words; later bits must not move
        whole = BitReservoir(seed=5, index=3).window_floats(0, 80_000)
        res = BitReservoir(seed=5, index=3)
        res.window_floats(0, 40_001)
        assert res.window_floats(0, 80_000).tolist() == whole.tolist()

    def test_stream_rows_equal_single_stream_reads(self):
        offsets = (0, 1, 7, 8, 13, 1000, 40_005)

        def streams():  # fresh, so each side reads its streams in its own order
            return [BitReservoir(seed=4, index=i, prefix=bytes([i] * i)) for i in range(7)]

        rows = stream_window_floats(list(zip(streams(), offsets)), 77)
        assert rows.shape == (7, 77)
        for row, res, off in zip(rows.tolist(), streams(), offsets):
            assert row == res.window_floats(off, 77).tolist()

    def test_prefix_pins_leading_bits(self):
        prefix = bytes([0b10110000, 0xFF])
        res = BitReservoir(seed=0, index=0, prefix=prefix)
        assert res.window(0, 4) == 0b1011
        assert res.window(4, 8) == 0b0000_1111
        # bits past the prefix come from the seeded stream, deterministically
        other = BitReservoir(seed=0, index=0, prefix=prefix)
        assert res.window(10, 64) == other.window(10, 64)

    def test_distinct_indices_give_distinct_streams(self):
        a = BitReservoir(seed=5, index=0)
        b = BitReservoir(seed=5, index=1)
        assert a.window(0) != b.window(0)

    def test_point_offset_view(self):
        res = BitReservoir(seed=11, index=2)
        p = ReservoirPoint(res, 0)
        q = ReservoirPoint(res, 13)
        assert q.float_coords()[0] == pytest.approx(res.window_float(13))
        assert p.dim == 1

    def test_bulk_window_floats_matches_reservoir(self):
        res = BitReservoir(seed=3, index=1)
        res._ensure_bytes(32)
        rows = np.tile(res._buf[:32], (4, 1))
        for off in (0, 3, 8, 21):
            got = bulk_window_floats(rows, off)
            want = res.window_float(off)
            assert np.allclose(got, want)

    def test_all_ones_window_reads_below_one(self):
        # 2^64 - 1 rounds to 2^64 in float64; it reads 1 - 2^-53, its truncation
        res = BitReservoir(seed=0, index=0, prefix=b"\xff" * 9)
        below_one = 1.0 - 2.0 ** -53
        rows = np.frombuffer(b"\xff" * 9, dtype=np.uint8).reshape(1, 9)
        assert res.window_float(0) == below_one
        assert res.window_floats(0, 1).tolist() == [below_one]
        assert bulk_window_floats(rows, 0).tolist() == [below_one]

    def test_other_windows_round_to_nearest(self):
        # 2^63 + 2^10 + 1 rounds up to 2^63 + 2^11; truncation would give 1/2
        word = (1 << 63) + (1 << 10) + 1
        res = BitReservoir(seed=0, index=0, prefix=word.to_bytes(8, "big") + b"\0")
        rows = np.frombuffer(word.to_bytes(8, "big") + b"\0", dtype=np.uint8).reshape(1, 9)
        nearest = 0.5 + 2.0 ** -53
        assert res.window_float(0) == nearest
        assert res.window_floats(0, 1).tolist() == [nearest]
        assert bulk_window_floats(rows, 0).tolist() == [nearest]
