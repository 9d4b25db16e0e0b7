import itertools

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.points import FractionPoint, ReservoirPoint, torus_distance
from ergolab.rand import subseed
from ergolab.reservoir import BitReservoir
from ergolab.systems import (
    ANCHOR_ENTRY_BOUND,
    CAT_MATRIX,
    DEFAULT_BLOCK,
    MAX_ANCHOR_GAP,
    CircleRotation,
    Doubling,
    MannevillePomeau,
    SYSTEMS,
    ToralAutomorphism,
    system_from_id,
)


def frac_point(*coords):
    return FractionPoint(tuple(coords))


class TestStepExamples:
    def test_doubling_step(self):
        sys = Doubling()
        p = ReservoirPoint(BitReservoir(0, 0, prefix=b"\x60" + bytes(8)))  # 3/8
        p = sys.orbit_window(p, 1)
        assert p.float_coords()[0] == 0.75

    def test_cat_map_step(self):
        sys = ToralAutomorphism(CAT_MATRIX)
        p = sys.orbit_window(frac_point("1/2", "1/2"), 1)
        assert p.coords == (Fraction(1, 2), Fraction(0))

    def test_rotation_step(self):
        sys = CircleRotation.from_fraction("1/4")
        p = sys.orbit_window(frac_point("7/8"), 1)
        assert p.coords[0] == Fraction(1, 8)


class TestOrbitWindow:
    def test_identity_at_zero(self):
        sys = Doubling()
        p = sys.sample_invariant(seed=0, count=1)[0]
        assert sys.orbit_window(p, 0) is p

    def test_reservoir_shift(self):
        sys = Doubling()
        p = sys.sample_invariant(seed=4, count=1)[0]
        q = sys.orbit_window(p, 1)
        assert isinstance(q, ReservoirPoint)
        assert q.offset == p.offset + 1
        # leading bits of the shifted point are the tail bits of the original
        assert p.bits.window(1, 64) == q.bits.window(q.offset, 64)

    def test_cat_two_steps(self):
        # oracle: direct two-step enumeration
        sys = ToralAutomorphism(CAT_MATRIX)
        p = frac_point("1/2", "1/2")
        one = sys.orbit_window(p, 1)
        two = sys.orbit_window(one, 1)
        assert one.coords == (Fraction(1, 2), Fraction(0))
        assert two.coords == (Fraction(0), Fraction(1, 2))
        assert sys.orbit_window(p, 2).coords == two.coords

    def test_window_matches_stepping(self):
        for sys in (
            ToralAutomorphism(CAT_MATRIX, precision_bits=64),
            CircleRotation.golden(64),
            Doubling(),
            MannevillePomeau(0.5),
        ):
            p = sys.sample_invariant(seed=8, count=1)[0]
            q = p
            for _ in range(7):
                q = sys.orbit_window(q, 1)
            w = sys.orbit_window(p, 7)
            assert np.allclose(w.float_coords(), q.float_coords())


class TestExactness:
    def test_toral_round_trip(self):
        sys = ToralAutomorphism(CAT_MATRIX)
        inv = ToralAutomorphism(((1, -1), (-1, 2)))  # the inverse of CAT_MATRIX
        p = sys.sample_invariant(seed=3, count=1)[0]
        q = p
        for _ in range(200):
            q = sys.orbit_window(q, 1)
        for _ in range(200):
            q = inv.orbit_window(q, 1)
        assert q.coords == p.coords

    def test_rotation_round_trip(self):
        sys = CircleRotation.golden()
        p = sys.sample_invariant(seed=3, count=1)[0]
        q = p
        for _ in range(200):
            q = sys.orbit_window(q, 1)
        for _ in range(200):
            q = FractionPoint(((q.coords[0] - sys.alpha) % 1,))  # one step back
        assert q.coords == p.coords


class TestOrbitBlocks:
    @pytest.mark.parametrize("sys_id", ["doubling", "cat", "rotation:golden", "mp:0.5"])
    def test_blocks_match_stepping(self, sys_id):
        sys = system_from_id(sys_id)
        p = sys.sample_invariant(seed=21, count=1)[0]
        vals = sys.orbit_batch([p], 0, 40)[0]
        q = p
        for n in range(40):
            assert np.allclose(vals[n], q.float_coords(), atol=1e-9), (sys_id, n)
            q = sys.orbit_window(q, 1)

    def test_blocks_with_offset_start(self):
        sys = system_from_id("cat")
        p = sys.sample_invariant(seed=2, count=1)[0]
        whole = sys.orbit_batch([p], 0, 50)[0]
        tail = sys.orbit_batch([p], 17, 50)[0]
        assert np.allclose(whole[17:], tail)

    def test_cat_start_at_zero_raises_no_matrix_power(self, monkeypatch):
        import ergolab.systems as systems

        cat = ToralAutomorphism(CAT_MATRIX)
        points = cat.sample_invariant(seed=3, count=4)
        offset = cat.orbit_batch(points, 1, 9)  # rows from time 1 take A^1
        monkeypatch.setattr(systems, "_matrix_power", lambda *args: pytest.fail(str(args)))
        vals = cat.orbit_batch(points, 0, 9)
        assert np.array_equal(vals[:, 1:], offset)
        assert np.array_equal(vals[:, 0], [_truncated(512)(p) for p in points])

    def test_rotation_block_accuracy(self):
        # block anchors are exact; within-block float drift stays tiny
        sys = CircleRotation.golden()
        p = sys.sample_invariant(seed=5, count=1)[0]
        vals = sys.orbit_batch([p], 0, 3000)[0]
        exact = sys.orbit_window(p, 2999).float_coords()
        assert abs(vals[2999, 0] - exact[0]) < 1e-10


def _rounded(q):
    return [float(c) for c in q.coords]


def _top53(v, bits):
    # the top 53 of a numerator's B lattice bits as a float; below 53 bits,
    # its exact value v 2^-B
    return (v >> max(bits - 53, 0)) * 2.0 ** -min(bits, 53)


def _truncated(bits):
    return lambda q: [_top53(int(c * (1 << bits)), bits) for c in q.coords]


# engine, start point (None: sample_invariant), float rule on the exact point T^n p
BIT_FOR_BIT = {
    "cat-512": (ToralAutomorphism(CAT_MATRIX), None, _truncated(512)),
    "cat-inverse-512": (ToralAutomorphism(((1, -1), (-1, 2))), None, _truncated(512)),
    "cat-32": (ToralAutomorphism(CAT_MATRIX, precision_bits=32), None, _truncated(32)),
    "torus-3d": (ToralAutomorphism(((2, 1, 0), (1, 1, 0), (0, 0, 1))), None, _rounded),
    # a conditioned start's fixed leading bytes: windows cross into the stream
    "doubling-prefix": (Doubling(), ReservoirPoint(BitReservoir(13, 0, prefix=b"\x33" * 8)),
                        lambda q: [q.bits.window_float(q.offset)]),
    "doubling-reservoir": (Doubling(), None, lambda q: [q.bits.window_float(q.offset)]),
    "mp": (MannevillePomeau(0.5), None, lambda q: list(q.coords)),
}


# every 2x2 integer matrix with entries in -5..5 and determinant +-1
UNIMODULAR_2X2 = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-5, 6), repeat=4)
                  if abs(a * d - b * c) == 1]


class TestBitForBit:
    """orbit_blocks and orbit_batch against each engine's float rule on the
    exact orbit_window."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(matrix=st.just(CAT_MATRIX) | st.sampled_from(UNIMODULAR_2X2),
           bits=st.sampled_from([1, 8, 52, 53, 64, 65, 128, 129, 512]) | st.integers(1, 1024),
           start=st.integers(0, 40), rows=st.integers(1, 300), block=st.integers(1, 150),
           data=st.data())
    def test_2x2_lattice_blocks_are_the_truncated_orbit(self, matrix, bits, start, rows,
                                                        block, data):
        # blocks cross several anchors of the kernel at any offset; a
        # coordinate whose low bits are all ones makes the uint64 pass's
        # carries undecided (beyond 128 bits), so those rows take the exact
        # recomputation
        sys = ToralAutomorphism(matrix, precision_bits=bits)
        nums = []
        for _ in range(2):
            ones = data.draw(st.sampled_from([0, bits - 65, bits - 53, bits]) | st.integers(0, bits))
            nums.append(data.draw(st.integers(0, (1 << bits) - 1)) | ((1 << max(ones, 0)) - 1))
        p = frac_point(*(Fraction(v, 1 << bits) for v in nums))
        stop = start + rows
        blocks = list(sys.orbit_blocks(p, start, stop, block=block))
        assert [n0 for n0, _ in blocks] == list(range(start, stop, block))
        expected = [_truncated(bits)(sys.orbit_window(p, n)) for n in range(start, stop)]
        assert np.concatenate([blk for _, blk in blocks]).tolist() == expected
        assert sys.orbit_batch([p], start, stop)[0].tolist() == expected

    @pytest.mark.parametrize("case", sorted(BIT_FOR_BIT))
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("start", [0, 17])
    def test_blocks_equal_the_float_rule(self, case, block, start):
        sys, p, rule = BIT_FOR_BIT[case]
        p = p or sys.sample_invariant(seed=13, count=1)[0]
        stop = start + 40
        if block is None:
            vals = sys.orbit_batch([p], start, stop)[0]
        else:
            blocks = list(sys.orbit_blocks(p, start, stop, block=block))
            assert [n0 for n0, _ in blocks] == list(range(start, stop, block))
            vals = np.concatenate([blk for _, blk in blocks])
        expected = [rule(sys.orbit_window(p, n)) for n in range(start, stop)]
        assert vals.tolist() == expected

    @pytest.mark.parametrize("case", sorted(BIT_FOR_BIT) + ["golden"])
    def test_orbit_batch_is_each_point_batched_alone(self, case):
        # the rotation's float offsets restart at each DEFAULT_BLOCK, so its
        # batch crosses one; the other engines' rows do not depend on blocks
        if case == "golden":
            sys, p, start, stop = CircleRotation.golden(), None, DEFAULT_BLOCK - 30, DEFAULT_BLOCK + 20
        else:
            (sys, p, _), start, stop = BIT_FOR_BIT[case], 3, 150
        points = [p, p] if p else sys.sample_invariant(seed=21, count=5)
        batch = sys.orbit_batch(points, start, stop)
        assert batch.shape == (len(points), stop - start, sys.dim)
        assert batch.tolist() == [sys.orbit_batch([p], start, stop)[0].tolist() for p in points]

    @pytest.mark.parametrize("name", ["golden", "liouville"])
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("start", [0, 17])
    def test_rotation_blocks_start_at_the_rounded_exact_point(self, name, block, start):
        # within a block the rotation adds float offsets j * alpha, so only
        # each block's first row is the exact point rounded to nearest
        sys = getattr(CircleRotation, name)()
        p = sys.sample_invariant(seed=13, count=1)[0]
        kwargs = {} if block is None else {"block": block}
        blocks = list(sys.orbit_blocks(p, start, start + 40, **kwargs))
        assert [n0 for n0, _ in blocks] == list(range(start, start + 40, block or 40))
        for n0, blk in blocks:
            assert blk[0, 0] == float(sys.orbit_window(p, n0).coords[0])


class TestAnchorKernel:
    """The float-estimated carries of the 2x2 kernel and its anchor gap."""

    @pytest.mark.parametrize("matrix", [CAT_MATRIX, ((1, -1), (-1, 2)), ((3, 5), (1, 2))])
    @pytest.mark.parametrize("bits", [100, 512])
    def test_exact_carries_give_the_same_floats(self, matrix, bits):
        # with no carry settled by its float estimate every row takes the
        # exact recomputation
        fast = ToralAutomorphism(matrix, precision_bits=bits)
        slow = ToralAutomorphism(matrix, precision_bits=bits)
        slow._kernel.low = np.ones_like(slow._kernel.low)
        p = fast.sample_invariant(seed=11, count=1)[0]
        assert fast.orbit_batch([p], 5, 2_000).tolist() == slow.orbit_batch([p], 5, 2_000).tolist()

    def test_few_rows_fall_back_to_the_exact_carry(self, monkeypatch):
        sys = ToralAutomorphism(CAT_MATRIX)
        kernel, calls = sys._kernel, []
        exact = kernel._exact
        monkeypatch.setattr(kernel, "_exact", lambda *args: calls.append(1) or exact(*args))
        p = sys.sample_invariant(seed=12, count=1)[0]
        sys.orbit_batch([p], 1, 100_001)
        assert len(calls) < 100  # fewer than 1 row in 1 000

    # each branch of the trace recurrence x_(j+2) = T x_(j+1) - D x_j of the
    # anchors, (sign of T = tr A^m, D = det A^m); no unimodular matrix has
    # T = 0, since a period-4 matrix has A^64 = I
    @pytest.mark.parametrize("matrix,branch", [
        (((-3, -1), (1, 0)), (-1, 1)),  # T < 0
        (((-1, 1), (1, 0)), (-1, -1)),  # T < 0, det -1
        (((1, 1), (1, 0)), (1, -1)),  # det -1
        (((0, -1), (1, 0)), (1, 1)),  # trace 0, period 4
        (((1, 1), (0, 1)), (1, 1)),  # parabolic
    ])
    @pytest.mark.parametrize("bits", [1, 8, 32, 52, 53, 64, 65, 128, 129, 512])
    def test_recurrence_branches_are_the_truncated_orbit(self, monkeypatch, matrix, branch,
                                                         bits):
        # 6 starts x 700 rows cross anchors and slabs; starts whose low bits
        # are all ones leave carries undecided above 64 bits, so those rows
        # unpack their anchor for the exact recomputation.  Every dyadic
        # lattice, below 53 bits too, steps through the kernel
        sys = ToralAutomorphism(matrix, precision_bits=bits)
        kernel, calls, passes = sys._kernel, [], []
        assert (np.sign(kernel.trace), kernel.det) == branch
        exact, rows_of = kernel._exact, kernel.rows
        monkeypatch.setattr(kernel, "_exact", lambda *args: calls.append(1) or exact(*args))
        monkeypatch.setattr(kernel, "rows", lambda *args: passes.append(1) or rows_of(*args))
        points = sys.sample_invariant(seed=17, count=3)
        points += [FractionPoint.on_lattice([v | (1 << max(ones, 0)) - 1 for v in p.nums],
                                            p.den)
                   for p, ones in zip(points, (bits - 65, bits - 53, bits))]
        start, rows = 5, 700
        batch = sys.orbit_batch(points, start, start + rows)
        for p, got in zip(points, batch):
            q, expected = sys.orbit_window(p, start), []
            for _ in range(rows):
                expected.append([_top53(v, bits) for v in q.nums])
                q = sys.orbit_window(q, 1)
            assert got.tolist() == expected
        assert passes and bool(calls) == (bits > 64)

    def test_anchor_gaps(self):
        assert ToralAutomorphism(CAT_MATRIX)._kernel.gap == 30
        for matrix in UNIMODULAR_2X2:
            kernel = ToralAutomorphism(matrix)._kernel
            assert 1 <= kernel.gap <= MAX_ANCHOR_GAP
            assert all(abs(v) < ANCHOR_ENTRY_BOUND
                       for power in kernel.powers[:kernel.gap] for row in power for v in row)


class TestSampling:
    def test_doubling_mean(self):
        sys = Doubling()
        pts = sys.sample_invariant(seed=100, count=1000)
        xs = np.array([p.float_coords()[0] for p in pts])
        assert 0.47 <= xs.mean() <= 0.53

    def test_cat_box_mass(self):
        sys = ToralAutomorphism(CAT_MATRIX)
        pts = sys.sample_invariant(seed=100, count=1000)
        xs = np.array([p.float_coords() for p in pts])
        frac = np.mean(xs[:, 0] < 0.5)
        assert 0.45 <= frac <= 0.55

    def test_mp_sampler_range_and_determinism(self):
        sys = MannevillePomeau(0.5)
        pts = sys.sample_invariant(seed=7, count=100)
        xs = np.array([p.float_coords()[0] for p in pts])
        assert ((0 <= xs) & (xs < 1)).all()
        again = sys.sample_invariant(seed=7, count=100)
        assert [p.coords for p in again] == [p.coords for p in pts]

    @pytest.mark.parametrize("stride", [1, 10, 4096])
    def test_mp_orbit_matches_a_plain_loop_bit_for_bit(self, stride):
        sys = MannevillePomeau(0.3)
        x, expected = 0.1234567, []
        for _ in range(7):
            expected.append(x)
            for _ in range(stride):
                x += x ** (1 + sys.s)
                if x >= 1.0:
                    x -= 1.0
        out, last = sys._orbit(0.1234567, 7, stride)
        assert (list(out), last) == (expected, x)

    def test_seed_determinism(self):
        sys = Doubling()
        a = sys.sample_invariant(seed=9, count=10)
        b = sys.sample_invariant(seed=9, count=10)
        assert [p.bits.window(0) for p in a] == [p.bits.window(0) for p in b]

    def test_measure_preservation_on_boxes(self):
        # empirical mass of T^-1(Q) vs Q within 3 standard errors, 1e4 samples
        n = 10_000
        for sys_id in ("doubling", "cat", "rotation:golden"):
            sys = system_from_id(sys_id)
            xs = sys.sample_invariant_floats(seed=55, count=n)
            lo, hi = 0.2, 0.45  # box in first coordinate
            mass = hi - lo

            if sys.dim == 1:
                pts = sys.sample_invariant(seed=56, count=n)
                imgs = np.array([sys.orbit_window(p, 1).float_coords()[0] for p in pts])
                pre = np.mean((lo <= imgs) & (imgs < hi))
            else:
                pts = sys.sample_invariant(seed=56, count=n)
                imgs = np.array([sys.orbit_window(p, 1).float_coords()[0] for p in pts])
                pre = np.mean((lo <= imgs) & (imgs < hi))
            se = np.sqrt(mass * (1 - mass) / n)
            assert abs(pre - mass) <= 3 * se, sys_id

    @pytest.mark.parametrize("sys", [
        ToralAutomorphism(CAT_MATRIX),
        ToralAutomorphism(((2, 1, 0), (1, 1, 0), (0, 0, 1))),
        CircleRotation.golden(),
        CircleRotation.from_fraction(Fraction(2, 7)),
    ], ids=["cat", "torus-3d", "golden", "rational"])
    def test_index_range_is_the_slice_of_one_draw(self, sys):
        # per-index streams: points lo..hi come without drawing 0..lo
        whole = sys.sample_invariant(seed=31, count=40)
        for first, count in ((0, 40), (0, 1), (13, 9), (39, 1)):
            assert sys.sample_invariant(31, count, first) == whole[first:first + count]


    @pytest.mark.parametrize("system_id", ["cat", "rotation:golden", "doubling", "mp:0.3"])
    def test_per_seed_draw_is_the_one_point_loop(self, system_id):
        # the equality run's base points: point 0 of the draw under each case's seed
        sys = system_from_id(system_id)
        seeds = [subseed(5, f"base{i}") for i in range(6)] + [0, (1 << 64) - 1, 0]

        def key(p):
            return (p.bits.seed, p.bits.index, p.offset) if isinstance(p, ReservoirPoint) else p

        got = [key(p) for p in sys.sample_per_seed(seeds)]
        assert got == [key(sys.sample_invariant(s, 1)[0]) for s in seeds]


class TestCatalog:
    def test_ids_resolve(self):
        assert isinstance(system_from_id("doubling"), Doubling)
        assert system_from_id("cat").matrix == CAT_MATRIX
        assert isinstance(system_from_id("rotation:golden"), CircleRotation)
        assert isinstance(system_from_id("mp:0.5"), MannevillePomeau)
        assert system_from_id("rotation:0.25").alpha == Fraction(1, 4)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="doubling, cat, rotation:, mp:"):
            system_from_id("solenoid")

    def test_golden_and_liouville_values(self):
        golden = system_from_id("rotation:golden")
        assert abs(float(golden.alpha) - 0.6180339887498949) < 1e-15
        liou = system_from_id("rotation:liouville")
        assert abs(float(liou.alpha) - 0.110001) < 1e-17

    def test_catalog_listing_metadata(self):
        entries = {prefix + rule.syntax: system_from_id(prefix + rule.example)
                   for prefix, rule in SYSTEMS.items()}
        assert entries["doubling"].mixing_class == "exponential"
        assert "float-engine" in entries["mp:<s>"].caveats

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ToralAutomorphism(((2, 0), (0, 2)))


@pytest.mark.parametrize("cls", (Doubling, ToralAutomorphism, CircleRotation, MannevillePomeau))
def test_each_engine_binds_the_traced_methods(cls):
    # the per-engine layer metrics wrap vars(cls)[name]: an inherited
    # orbit_blocks or sample_invariant would leave them reading 0
    assert {"orbit_blocks", "sample_invariant"} <= set(vars(cls))
    # the engine contract: a state-to-point map, a start state and one
    # batched step; a jump is _point(*_block_start(p, n)), with no other
    assert {"_point", "_block_start", "_batch_step"} <= set(vars(cls))
    assert not hasattr(cls, "_advance")


@pytest.mark.parametrize("system_id, point", [
    ("doubling", None), ("cat", None), ("cat", ("1/5", "2/5")),
    ("rotation:golden", None), ("mp:0.5", None)],
    ids=["doubling", "cat", "cat-fifths", "golden", "mp"])
def test_negative_start_is_refused_and_no_points_give_no_rows(system_id, point):
    # unchecked, a negative start loops without end on cat (_matrix_power),
    # dies in numpy on doubling and steps backwards on rotations
    sys = system_from_id(system_id)
    p = frac_point(*point) if point else sys.sample_invariant(seed=3, count=1)[0]
    for call in (lambda: sys.orbit_window(p, -1), lambda: next(sys.orbit_blocks(p, -1, 5)),
                 lambda: sys.orbit_batch([p], -1, 3)):
        with pytest.raises(ValueError, match="non-negative"):
            call()
    assert sys.orbit_batch([], 0, 10).shape == (0, 10, sys.dim)


def test_cat_preserves_distance_structure():
    # hyperbolicity sanity: nearby points separate along the orbit
    sys = ToralAutomorphism(CAT_MATRIX, precision_bits=128)
    a = frac_point("1/3", "1/7")
    b = frac_point(Fraction(1, 3) + Fraction(1, 1 << 40), "1/7")
    da = sys.orbit_window(a, 30).float_coords()
    db = sys.orbit_window(b, 30).float_coords()
    assert torus_distance(da, db) > 1e-4
