import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.hitting import SCAN_CHUNK, first_hits, ladder_hitting_times
from ergolab.observables import (
    MAX_FREQUENCY,
    DistToPoint,
    DistToProjectedPoint,
    PushforwardDist,
    RadiusLadder,
)
from ergolab.observed import (
    CircleWave,
    Constant,
    CoordinateProjection,
    LinearMap,
    RankReport,
    jacobian_rank,
    observed_hitting_time,
    parse_observation_map,
    pushforward_dimension,
)
from ergolab.points import FloatPoint
from ergolab.systems import CAT_MATRIX, CircleRotation, Doubling, ToralAutomorphism

CAT = ToralAutomorphism(CAT_MATRIX)
GOLDEN = CircleRotation.golden()

# the wrap rule's edge cases: signed zeros, subnormals, integers, tiny and
# huge magnitudes, and values one ulp either side of a wrap
WRAP_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 3.0, -7.0, 2.0 ** 52, -(2.0 ** 53),
    3 - 2.0 ** -51, -(3 - 2.0 ** -51), 1 - 2.0 ** -53, -(1 - 2.0 ** -53), 0.5, -0.5,
    1e-20, -1e-20, 1e15 + 0.5, -1e15 - 0.25, 1e300, -1e300,
])


class TestObservationMaps:
    def test_projection(self):
        proj = CoordinateProjection((1,), 2)
        pts = np.array([[0.2, 0.9], [0.5, 0.1]])
        assert np.allclose(proj.apply(pts), [[0.9], [0.1]])
        assert proj.image_distances(pts, (0.0,))[0] == pytest.approx(0.1)

    def test_linear_map_wraps(self):
        lin = LinearMap(((1, 0), (2, 0)))
        out = lin.apply(np.array([[0.6, 0.3]]))
        assert np.allclose(out, [[0.6, 0.2]])

    def test_linear_wrap_is_bitwise_remainder(self):
        # y - floor(y) is one rounding of the exact value y mod 1, as is y % 1.0
        want = (WRAP_EDGES % 1.0).tobytes()
        assert (WRAP_EDGES - np.floor(WRAP_EDGES)).tobytes() == want
        assert LinearMap(((1,),)).apply(WRAP_EDGES[:, None]).tobytes() == want

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(y=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_wrap_rule_on_any_finite_float(self, y):
        y = np.array(y)
        want = (y % 1.0).tobytes()
        assert (y - np.floor(y)).tobytes() == want
        assert LinearMap(((1,),)).apply(y[:, None]).tobytes() == want

    def test_wave_is_unit_circle_embedding(self):
        wave = CircleWave(2)
        out = wave.apply(np.array([[0.25, 0.9]]))
        assert np.allclose(out, [[np.cos(np.pi), np.sin(np.pi)]])
        assert np.allclose((out ** 2).sum(), 1.0)

    def test_wave_frequency_is_bounded(self):
        assert CircleWave(MAX_FREQUENCY).lipschitz == 2.0 * np.pi * MAX_FREQUENCY
        for freq in (0, MAX_FREQUENCY + 1, 10 ** 400):
            with pytest.raises(ValueError, match="frequency"):
                CircleWave(freq)

    def test_constant(self):
        c = Constant((0.3, 0.4))
        assert np.allclose(c.apply(np.zeros((3, 2))), 0.3 * np.ones((3, 2)) * [1, 4 / 3])

    def test_parse(self):
        assert parse_observation_map("identity", 2).axes == (0, 1)
        assert parse_observation_map("proj:1", 2).axes == (0,)
        assert parse_observation_map("proj12", 2).axes == (0, 1)
        assert parse_observation_map("wave:3", 2).frequency == 3
        assert parse_observation_map("const:0.5", 2).value == (0.5,)
        lin = parse_observation_map("linear:[[1,0],[2,0]]", 2)
        assert lin.matrix == ((1, 0), (2, 0))
        with pytest.raises(ValueError):
            parse_observation_map("mystery:1", 2)


class TestObservedHitting:
    def test_constant_map_short_circuits(self):
        rec = observed_hitting_time(CAT, CAT.sample_invariant(0, 1)[0],
                                    (0.5,), Constant((0.5,)), 1e-9, cap=10)
        assert rec.tau == 1

    def test_identity_map_equals_plain_hitting(self):
        ident = CoordinateProjection((0, 1), 2)
        f = DistToPoint((0.3, 0.7))
        for i, x in enumerate(CAT.sample_invariant(seed=6, count=10)):
            obs = observed_hitting_time(CAT, x, (0.3, 0.7), ident, 0.05, cap=5_000)
            plain = ladder_hitting_times(CAT, x, f, [0.05], cap=5_000)[0]
            assert obs.tau == plain.tau

    def test_projection_equals_projected_distance_hitting(self):
        # both routes enumerated independently
        proj = CoordinateProjection((0,), 2)
        f = DistToProjectedPoint((0,), (0.5,))
        for x in CAT.sample_invariant(seed=7, count=10):
            obs = observed_hitting_time(CAT, x, (0.5,), proj, 0.01, cap=5_000)
            plain = ladder_hitting_times(CAT, x, f, [0.01], cap=5_000)[0]
            assert obs.tau == plain.tau

    @pytest.mark.parametrize("image_point, r", [((0.9,), 0.1), ((0.4,), -0.1)])
    def test_constant_map_equals_pushforward_hitting(self, image_point, r):
        # the constant 0.4 is never within r of the image point: no hit
        const = Constant((0.4,))
        x = CAT.sample_invariant(seed=13, count=1)[0]
        obs = observed_hitting_time(CAT, x, image_point, const, r, cap=50)
        plain = ladder_hitting_times(CAT, x, PushforwardDist(const, image_point), [r], cap=50)[0]
        assert obs.tau == plain.tau is None

    def test_censoring(self):
        proj = CoordinateProjection((0,), 2)
        x = CAT.sample_invariant(seed=8, count=1)[0]
        rec = observed_hitting_time(CAT, x, (0.5,), proj, 1e-9, cap=50)
        assert rec.censored


class TestObservedScanSteps:
    """The observed path steps the orbit as ``first_hits`` does."""

    def test_golden_taus_past_one_chunk_are_first_hits_taus(self):
        # a rotation's floats depend on where a step starts: past row
        # SCAN_CHUNK both paths must start their steps at the same rows
        ident, y0, r, cap = CoordinateProjection((0,), 1), (0.3,), 1e-4, 50_000
        points = GOLDEN.sample_invariant(seed=4, count=20)
        taus, censored = first_hits(GOLDEN, points, PushforwardDist(ident, y0), [r], cap)
        assert not censored.any() and (taus > SCAN_CHUNK).sum() >= 10
        for x, tau in zip(points, taus[:, 0]):
            assert observed_hitting_time(GOLDEN, x, y0, ident, r, cap).tau == tau

    @pytest.mark.parametrize("system", [CAT, GOLDEN, Doubling()], ids=["cat", "golden", "doubling"])
    def test_a_short_tau_steps_one_chunk(self, monkeypatch, system):
        rows, step = [], type(system)._batch_step

        def counting(self, states, size):
            rows.append(size)
            return step(self, states, size)

        monkeypatch.setattr(type(system), "_batch_step", counting)
        x = system.sample_invariant(seed=2, count=1)[0]
        y0 = system.orbit_window(x, 40).float_coords()
        ident = CoordinateProjection(tuple(range(system.dim)), system.dim)
        rec = observed_hitting_time(system, x, y0, ident, 1e-9, cap=10 ** 6)
        assert rec.tau <= 64 and sum(rows) <= SCAN_CHUNK


class TestPushforwardDimension:
    def test_identity_gives_two(self):
        x0 = CAT.sample_invariant(seed=9, count=1)[0]
        est = pushforward_dimension(CAT, CoordinateProjection((0, 1), 2), x0,
                                    RadiusLadder.dyadic(3, 10), seed=1, n_per_rung=1000)
        assert est.slope == pytest.approx(2.0, abs=0.05)

    def test_projection_gives_one(self):
        x0 = CAT.sample_invariant(seed=10, count=1)[0]
        est = pushforward_dimension(CAT, CoordinateProjection((0,), 2), x0,
                                    RadiusLadder.dyadic(3, 10), seed=1, n_per_rung=1000)
        assert est.slope == pytest.approx(1.0, abs=0.05)

    def test_constant_gives_zero(self):
        x0 = CAT.sample_invariant(seed=11, count=1)[0]
        est = pushforward_dimension(CAT, Constant((0.2,)), x0,
                                    RadiusLadder.dyadic(3, 10), seed=1, n_per_rung=1000)
        assert est.slope == pytest.approx(0.0, abs=1e-9)

    def test_wave_gives_one(self):
        x0 = CAT.sample_invariant(seed=12, count=1)[0]
        est = pushforward_dimension(CAT, CircleWave(2), x0,
                                    RadiusLadder.dyadic(3, 10), seed=1, n_per_rung=1000)
        assert est.slope == pytest.approx(1.0, abs=0.05)


class TestJacobianRank:
    def test_dependent_rows_rank_one(self):
        x = FloatPoint((0.37, 0.81))
        report = jacobian_rank(LinearMap(((1, 0), (2, 0))), x)
        assert report.rank == 1
        assert report.singular_values[0] == pytest.approx(np.sqrt(5.0), rel=1e-4)

    def test_identity_rank_two(self):
        report = jacobian_rank(CoordinateProjection((0, 1), 2), FloatPoint((0.5, 0.25)))
        assert report.rank == 2
        assert report.singular_values == pytest.approx((1.0, 1.0), rel=1e-6)

    def test_constant_rank_zero(self):
        report = jacobian_rank(Constant((0.1, 0.9)), FloatPoint((0.5, 0.25)))
        assert report.rank == 0

    def test_wave_rank_one_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = FloatPoint(tuple(rng.random(2)))
            report = jacobian_rank(CircleWave(3), x)
            assert report.rank == 1
            # immersion of the circle: top singular value is 2 pi k
            assert report.singular_values[0] == pytest.approx(6 * np.pi, rel=1e-3)

    def test_wrap_aware_differences(self):
        # base point at the seam: naive differences would see a jump of ~1
        report = jacobian_rank(CoordinateProjection((0,), 2), FloatPoint((0.9999999, 0.5)))
        assert report.rank == 1
        assert report.singular_values[0] == pytest.approx(1.0, rel=1e-6)

    def test_step_domain(self):
        with pytest.raises(ValueError):
            jacobian_rank(CircleWave(1), FloatPoint((0.5, 0.5)), h=0.5)

    def test_report_fields(self):
        report = jacobian_rank(CircleWave(1), FloatPoint((0.3, 0.3)), h=1e-4)
        assert isinstance(report, RankReport)
        assert report.step == 1e-4
        assert 0 <= report.rank <= 2


class TestRankDimensionAgreement:
    def test_catalog_maps_agree(self):
        # slope of the pushforward law vs finite-difference rank, a dozen
        # base points per map (acceptance runs the full 50-point version)
        maps = [
            CoordinateProjection((0, 1), 2),
            CoordinateProjection((0,), 2),
            CircleWave(2),
            Constant((0.4,)),
        ]
        ladder = RadiusLadder.dyadic(4, 11)
        base_points = CAT.sample_invariant(seed=13, count=12)
        for m in maps:
            for x0 in base_points:
                est = pushforward_dimension(CAT, m, x0, ladder, seed=2, n_per_rung=500)
                rank = jacobian_rank(m, x0).rank
                assert abs(est.slope - rank) <= 0.25
