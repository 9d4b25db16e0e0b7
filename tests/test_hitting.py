from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.errors import AllCensoredError, InvalidBetaError
from ergolab.hitting import (
    SCAN_BATCH_ROWS,
    SCAN_CHUNK,
    BCCounter,
    HittingRecord,
    bc_counter_series,
    bc_targets,
    default_window,
    estimate_R,
    first_hits,
    ladder_hitting_times,
    power_law_radii,
)
from ergolab.observables import DistToPoint, RadiusLadder, exact_dimension
from ergolab.points import FractionPoint, ReservoirPoint
from ergolab.reservoir import BitReservoir
from ergolab.systems import (
    CAT_MATRIX,
    CircleRotation,
    Doubling,
    MannevillePomeau,
    ToralAutomorphism,
)


class IdentitySystem:
    """Test double: the identity map on the circle."""

    dim = 1
    exact = True
    lebesgue = True  # the identity map preserves Lebesgue measure

    def orbit_window(self, p, n):
        return p

    def orbit_blocks(self, p, start, stop, block=4096):
        x = p.float_coords()
        n = start
        while n < stop:
            size = min(block, stop - n)
            yield n, np.tile(x, (size, 1))
            n += size


def frac_point(*coords):
    return FractionPoint(tuple(coords))


def expansion_point(byte):
    """A doubling start whose first 32 bytes all equal ``byte``: the binary
    expansion of 1/5 (0x33) or 1/3 (0x55), exact for the first 192 steps."""
    return ReservoirPoint(BitReservoir(0, 0, prefix=bytes([byte]) * 32))


class TestHittingTime:
    def test_doubling_exact_fraction_orbit(self):
        # oracle: 1/5 -> 2/5 -> 4/5; dist(2/5, 0) = 0.4, dist(4/5, 0) = 0.2
        sys = Doubling()
        rec = ladder_hitting_times(sys, expansion_point(0x33), DistToPoint((0.0,)), [0.25], 100)[0]
        assert rec.tau == 2 and not rec.censored

    def test_periodic_orbit_censors(self):
        sys = Doubling()
        rec = ladder_hitting_times(sys, expansion_point(0x55), DistToPoint((0.0,)), [0.05], 100)[0]
        assert rec.censored and rec.tau is None

    def test_rotation_quarter(self):
        # oracle: 0 -> 1/4 -> 1/2
        sys = CircleRotation.from_fraction("1/4")
        rec = ladder_hitting_times(sys, frac_point(0), DistToPoint((0.5,)), [0.1], cap=100)[0]
        assert rec.tau == 2

    def test_time_zero_never_counts(self):
        # start already inside the target; tau still counts from n = 1
        sys = CircleRotation.from_fraction("1/4")
        rec = ladder_hitting_times(sys, frac_point("1/2"), DistToPoint((0.5,)), [0.1], cap=100)[0]
        assert rec.tau == 4

    def test_record_validation(self):
        with pytest.raises(ValueError):
            HittingRecord(radius=0.1, tau=0)


class TestLadderScan:
    def test_matches_single_rung_calls(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        ladder = RadiusLadder.dyadic(2, 9)
        for idx in range(4):
            x = sys.sample_invariant(seed=42, count=4)[idx]
            recs = ladder_hitting_times(sys, x, f, ladder, cap=200_000)
            for rec in recs:
                single = ladder_hitting_times(sys, x, f, [rec.radius], cap=200_000)[0]
                assert single.tau == rec.tau

    def test_nesting_monotonicity(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        ladder = RadiusLadder.dyadic(2, 10)
        for x in sys.sample_invariant(seed=7, count=8):
            recs = ladder_hitting_times(sys, x, f, ladder, cap=500_000)
            taus = [r.tau for r in recs if r.tau is not None]
            assert all(a <= b for a, b in zip(taus, taus[1:]))


# engine and target of each batched-scan case
SCAN_CASES = {
    "doubling-reservoir": (Doubling(), DistToPoint((0.375,))),
    "golden": (CircleRotation.golden(), DistToPoint((0.375,))),
    "liouville": (CircleRotation.liouville(), DistToPoint((0.375,))),
    "cat": (ToralAutomorphism(CAT_MATRIX), DistToPoint((0.3, 0.7))),
    "cat-lattices": (ToralAutomorphism(CAT_MATRIX), DistToPoint((0.3, 0.7))),
    "torus-3d": (ToralAutomorphism(((2, 1, 0), (1, 1, 0), (0, 0, 1))),
                 DistToPoint((0.1, 0.2, 0.3))),
    "mp": (MannevillePomeau(0.5), DistToPoint((0.375,))),
}


def _scan_starts(case, seed, offsets):
    system, _ = SCAN_CASES[case]
    if case == "doubling-reservoir":  # streams read from different bit offsets
        points = system.sample_invariant(seed, len(offsets))
        return [ReservoirPoint(p.bits, off) for p, off in zip(points, offsets)]
    if case == "cat-lattices":  # one batch, starts on several lattices
        bits = system.precision_bits
        points = []
        for p, off in zip(system.sample_invariant(seed, len(offsets)), offsets):
            nums = [int(c * (1 << bits)) for c in p.coords]
            if off % 4 == 3:  # low bits all ones: the kernel's carries are undecided
                nums = [v | ((1 << (bits - 53)) - 1) for v in nums]
            else:  # even numerators in every coordinate: a coarser lattice, under
                nums = [v << (5 * off) for v in nums]  # 53 bits from off = 92 on
            points.append(frac_point(*(Fraction(v % (1 << bits), 1 << bits) for v in nums)))
        return points
    return system.sample_invariant(seed, len(offsets))  # FloatPoints on mp


def reference_ladder_scan(system, x, f, radii, cap, chunk):
    """First passages of one start below a non-increasing ladder, block by
    block over ``orbit_blocks(x, 1, cap + 1, chunk)``: at each first dip below
    the deepest rung not yet hit, every rung down to the dip's value takes its
    time.  None marks a censored rung."""
    taus = [None] * len(radii)
    next_rung = 0
    for n0, coords in system.orbit_blocks(x, 1, cap + 1, block=chunk):
        vals = f.values(coords)
        while next_rung < len(radii):
            hits = np.flatnonzero(vals <= radii[next_rung])
            if hits.size == 0:
                break
            tau = n0 + int(hits[0])
            v = vals[hits[0]]
            while next_rung < len(radii) and v <= radii[next_rung]:
                taus[next_rung] = tau
                next_rung += 1
            vals = vals[hits[0]:]
            n0 = tau
        if next_rung >= len(radii):
            break
    return taus


class TestFirstHits:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(case=st.sampled_from(sorted(SCAN_CASES)), seed=st.integers(0, 10_000),
           offsets=st.lists(st.integers(0, 100), min_size=1, max_size=6),
           radii=st.lists(st.sampled_from([0.3, 0.2, 0.05, 0.02, 0.01, 0.003]),
                          min_size=1, max_size=6),
           cap=st.integers(1, 2_000), chunk=st.integers(1, 1_200),
           batch_rows=st.sampled_from([1, 200, 2_000, SCAN_BATCH_ROWS]))
    def test_equals_per_start_scans(self, case, seed, offsets, radii, cap, chunk, batch_rows):
        # repeated radii are equal neighbours; small batches make several groups
        system, f = SCAN_CASES[case]
        points = _scan_starts(case, seed, offsets)
        radii = sorted(radii, reverse=True)
        with mock.patch("ergolab.hitting.SCAN_BATCH_ROWS", batch_rows):
            taus, censored = first_hits(system, points, f, radii, cap, chunk)
        assert taus.shape == censored.shape == (len(points), len(radii))
        for p, row, cuts in zip(points, taus.tolist(), censored.tolist()):
            expect = reference_ladder_scan(system, p, f, radii, cap, chunk)
            assert row == [cap if t is None else t for t in expect]
            assert cuts == [t is None for t in expect]

    def test_starts_retire_at_different_rungs(self):
        # golden rotation, cap 300: some starts pass every rung before the cap,
        # others are censored below an upper rung
        system, f = SCAN_CASES["golden"]
        points = system.sample_invariant(3, 50)
        radii = [0.05, 0.01, 0.002]
        taus, censored = first_hits(system, points, f, radii, cap=300, chunk=70)
        for p, row, cuts in zip(points, taus.tolist(), censored.tolist()):
            expect = reference_ladder_scan(system, p, f, radii, 300, 70)
            assert (row, cuts) == ([300 if t is None else t for t in expect],
                                   [t is None for t in expect])
        assert {int(c.sum()) for c in censored} >= {0, 1}
        assert (np.diff(taus, axis=1) >= 0).all()

    @pytest.mark.parametrize("case", ["golden", "liouville"])
    def test_orbit_minimum_is_hit_where_the_steps_put_it(self, case):
        # a radius equal to a start's smallest orbit value is hit only where
        # the scan sees that float bit for bit: the rotation's floats depend
        # on where steps start, and the scan steps as orbit_blocks does
        system, f = SCAN_CASES[case]
        for p in system.sample_invariant(5, 30):
            vals = np.concatenate([f.values(c) for _, c in system.orbit_blocks(p, 1, 601, 70)])
            taus, censored = first_hits(system, [p], f, [vals.min()], 600, chunk=70)
            assert (taus[0, 0], censored[0, 0]) == (vals.argmin() + 1, False)

    def test_small_caps_censor(self):
        system, f = SCAN_CASES["golden"]
        points = system.sample_invariant(3, 50)
        taus, censored = first_hits(system, points, f, [0.01], cap=7, chunk=3)
        assert censored.any() and not censored.all()
        assert (taus[censored] == 7).all() and (taus[~censored] <= 7).all()

    @pytest.mark.parametrize("batch_rows", [1, SCAN_BATCH_ROWS])  # one start a group, or all
    @pytest.mark.parametrize("case, radii", [
        ("doubling-reservoir", [0.05, 0.001]), ("golden", [0.05, 0.0005]),
        ("cat", [0.1, 0.03]), ("mp", [0.05, 0.0012])])
    def test_retired_starts_are_not_stepped(self, monkeypatch, case, radii, batch_rows):
        # a start is stepped to the end of the chunk its deepest rung is hit
        # in, or to the cap; the 50-step chunks end at steps 50, 100, ...
        system, f = SCAN_CASES[case]
        cap, chunk = 700, 50
        rows, step = [], type(system)._batch_step

        def counting(self, states, size):
            rows.append(len(states) * size)
            return step(self, states, size)

        monkeypatch.setattr(type(system), "_batch_step", counting)
        monkeypatch.setattr("ergolab.hitting.SCAN_BATCH_ROWS", batch_rows)
        taus, censored = first_hits(system, system.sample_invariant(11, 12), f, radii, cap, chunk)
        ends = [min(-(-last // chunk) * chunk, cap)  # last is the cap when censored
                for last in taus[:, -1].tolist()]
        assert len(set(ends)) >= 3  # starts retire apart
        assert sum(rows) == sum(ends)

    def test_ladder_records_are_the_first_hits_of_one_start(self):
        system, f = SCAN_CASES["cat"]
        x = system.sample_invariant(8, 1)[0]
        ladder = RadiusLadder.dyadic(2, 6)
        records = ladder_hitting_times(system, x, f, ladder, cap=3_000)
        expect = reference_ladder_scan(system, x, f, list(ladder), 3_000, SCAN_CHUNK)
        assert [rec.tau for rec in records] == expect
        assert [rec.radius for rec in records] == list(ladder)


def fit(system, x, f, ladder, cap, window=None):
    """estimate_R over the hitting times ladder_hitting_times gives one start."""
    taus = [rec.tau for rec in ladder_hitting_times(system, x, f, ladder, cap)]
    return estimate_R(ladder, taus, window)


class TestEstimateR:
    def test_constant_hits_give_zero_slopes(self):
        # f(Tx) = 0: tau = 1 at every rung
        sys = CircleRotation.from_fraction("1/2")
        est = fit(sys, frac_point(0), DistToPoint((0.5,)), RadiusLadder.dyadic(3, 10), cap=50)
        assert est.r_upper == est.r_lower == est.exponent == 0.0
        assert est.censor_fraction == 0.0

    def test_doubling_typical_point(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        ladder = RadiusLadder.dyadic(3, 14)
        x = sys.sample_invariant(seed=2024, count=1)[0]
        est = fit(sys, x, f, ladder, cap=50 * (1 << 13))
        assert 0.8 <= est.r_lower <= est.r_upper <= 1.2
        assert est.censor_fraction == 0.0

    def test_all_censored(self):
        sys = Doubling()
        with pytest.raises(AllCensoredError):
            fit(sys, expansion_point(0x55), DistToPoint((0.0,)), RadiusLadder.dyadic(5, 10),
                cap=50)

    def test_censored_rungs_reported(self):
        sys = Doubling()
        # periodic orbit at distance 1/3: rungs above 1/3 hit, below censor
        est = fit(sys, expansion_point(0x55), DistToPoint((0.0,)),
                  RadiusLadder((0.4, 0.34, 0.05, 0.04)), cap=100)
        assert est.censor_fraction == pytest.approx(0.5)

    def test_out_of_order_taus_rejected(self):
        # a shorter time at a smaller rung breaks nesting: a scan bug, not data
        with pytest.raises(ValueError, match="non-decreasing"):
            estimate_R([0.1, 0.05, 0.01], [5, 3, 40])

    def test_censored_rung_passes_as_none(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        ladder = RadiusLadder((0.4, 0.2, 0.1, 0.05, 1e-4))
        x = sys.sample_invariant(seed=11, count=1)[0]
        taus = [rec.tau for rec in ladder_hitting_times(sys, x, f, ladder, cap=100)]
        assert None in taus  # a censored rung is passed as None
        est = estimate_R(ladder, taus)
        assert est.censor_fraction == pytest.approx(taus.count(None) / len(taus))
        assert len(est.pairs) == len(taus) - taus.count(None)

    def test_default_window_rule(self):
        assert default_window(12) == 11
        assert default_window(23) == 21
        assert default_window(4) == 4

    def test_liouville_rotation_upper_exponent_excess(self):
        # the rotation angle admits rational approximations of quality
        # q^-3 and beyond (denominators 1, 9, 100, 9909, ..., 1e6, ~1e18),
        # so hitting times jump across convergent scales; narrow windows on
        # a refined deep ladder expose an upper exponent far above d = 1
        sys = CircleRotation.liouville()
        f = DistToPoint((0.375,))
        ladder = RadiusLadder.dyadic(3, 20, per_octave=2)
        ups = []
        for x in sys.sample_invariant(seed=4, count=20):
            est = fit(sys, x, f, ladder, cap=2_000_000, window=4)
            ups.append(est.r_upper)
        assert np.median(ups) >= 2.0
        assert min(ups) >= 2.0  # at this depth every start sees the jump


def bc_series(system, x, f, beta, k_max, d_upper=None, **options):
    """The counter of one start against its run's targets."""
    if d_upper is None:
        d_upper = exact_dimension(system, f)
    radii, expected = bc_targets(system, f, beta, k_max, d_upper, **options)
    return bc_counter_series(system, x, f, radii, expected)


class TestBorelCantelliCounter:
    def test_identity_double_counts_everything(self):
        sys = IdentitySystem()
        x = frac_point("3/8")
        f = DistToPoint((0.375,))  # f(x) = 0 on the whole orbit
        series = bc_series(sys, x, f, beta=0.5, k_max=50, measures="exact", d_upper=1.0)
        final = series[-1]
        assert final.k == 50 and final.z == 51
        expected = sum(min(2.0 * (i ** -0.5 if i else 1.0), 1.0) for i in range(51))
        assert final.expected == pytest.approx(expected)
        assert final.ratio == pytest.approx(51 / expected)

    def test_expected_counter_closed_form(self):
        # independent oracle: E(Z_k) = sum of min(2 i^-1/2, 1); every term
        # through i = 4 clamps to 1, later terms do not
        radii = power_law_radii(0.5, 10)
        mu = [min(2.0 * r, 1.0) for r in radii]
        assert mu[:5] == [1.0, 1.0, 1.0, 1.0, 1.0]
        ez4 = sum(mu[:5])
        assert ez4 == pytest.approx(5.0)
        ez10 = sum(mu)
        oracle = 5.0 + sum(2.0 * i ** -0.5 for i in range(5, 11))
        assert ez10 == pytest.approx(oracle)

    def test_doubling_ratio_near_one(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        x = sys.sample_invariant(seed=5, count=1)[0]
        series = bc_series(sys, x, f, beta=0.5, k_max=20_000)
        final = series[-1]
        assert 0.6 <= final.ratio <= 1.4
        ks = [c.k for c in series]
        zs = [c.z for c in series]
        assert ks == sorted(ks)
        assert zs == sorted(zs)  # Z_k non-decreasing

    def test_expected_strictly_increasing(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        x = sys.sample_invariant(seed=6, count=1)[0]
        series = bc_series(sys, x, f, beta=0.5, k_max=500)
        es = [c.expected for c in series]
        assert all(a < b for a, b in zip(es, es[1:]))

    def test_invalid_beta(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        with pytest.raises(InvalidBetaError):
            bc_targets(sys, f, beta=1.0, k_max=100, d_upper=1.0)
        with pytest.raises(InvalidBetaError):
            bc_targets(sys, f, beta=-0.1, k_max=100, d_upper=1.0)
        with pytest.raises(InvalidBetaError):  # d_upper = 0 leaves only beta > 0
            bc_targets(sys, f, beta=0.0, k_max=100, d_upper=0.0)

    def test_missing_closed_form_fails_before_any_scan(self):
        # cat's dist: rule has no closed form for r in (0.5, sqrt(2)/2), and
        # 3^-0.4 lies there
        cat = ToralAutomorphism(CAT_MATRIX)
        with pytest.raises(ValueError, match="no closed-form measure"):
            bc_targets(cat, DistToPoint((0.3, 0.7)), beta=0.4, k_max=100, d_upper=2.0)

    def test_mc_measures_close_to_exact(self):
        sys = Doubling()
        f = DistToPoint((0.375,))
        x = sys.sample_invariant(seed=9, count=1)[0]
        exact = bc_series(sys, x, f, beta=0.5, k_max=300)
        mc = bc_series(sys, x, f, beta=0.5, k_max=300, measures="mc", seed=1,
                       n_samples=400_000)
        assert mc[-1].z == exact[-1].z
        assert mc[-1].expected == pytest.approx(exact[-1].expected, rel=0.05)

    def test_exact_measures_come_from_one_call(self, monkeypatch):
        import ergolab.hitting as hitting

        calls = []
        real = hitting.exact_measure

        def counting(system, f, r):
            calls.append(np.shape(r))
            return real(system, f, r)

        monkeypatch.setattr(hitting, "exact_measure", counting)
        sys = Doubling()
        f = DistToPoint((0.375,))
        radii, expected = bc_targets(sys, f, beta=0.5, k_max=500, d_upper=1.0)
        assert calls == [(501,)]
        assert radii.tolist() == power_law_radii(0.5, 500).tolist()
        # every k up to 1000 is a checkpoint
        assert expected.tolist() == np.cumsum(np.minimum(2.0 * radii, 1.0)).tolist()
        for x in sys.sample_invariant(seed=6, count=3):
            series = bc_counter_series(sys, x, f, radii, expected)
            assert series[-1].expected == float(expected[-1])
        assert calls == [(501,)]  # scanning reads the targets, never the measures

    def test_counter_bounds_validated(self):
        with pytest.raises(ValueError):
            BCCounter(k=3, z=5, expected=1.0, ratio=5.0)
