import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.errors import DegenerateLadderError
from ergolab.observables import (
    MAX_SLACK_DEPTH,
    DistToPoint,
    DistToProjectedPoint,
    PushforwardDist,
    RadiusLadder,
    Slack,
    WeightedSum,
    estimate_dimension,
    estimate_measure,
    evaluate,
    exact_dimension,
    exact_measure,
    fit_line,
    measure_profile,
    mollifier,
    mollifier_values,
    parse_observable,
    sliding_slopes,
)
from ergolab import hitting
from ergolab.hitting import power_law_radii
from ergolab.observed import CircleWave, Constant, CoordinateProjection, LinearMap
from ergolab.points import FloatPoint, squared_norms
from ergolab.systems import Doubling, MannevillePomeau, ToralAutomorphism, CAT_MATRIX


CIRCLE = Doubling()
TORUS = ToralAutomorphism(CAT_MATRIX)
TORUS3 = ToralAutomorphism(((2, 1, 0), (1, 1, 0), (0, 0, 1)))


def fpt(*coords):
    return FloatPoint(tuple(coords))


class TestEvaluate:
    def test_dist_wraps(self):
        f = DistToPoint((0.0,))
        assert evaluate(f, fpt(0.9)) == pytest.approx(0.1)

    def test_projection_ignores_other_coords(self):
        f = DistToProjectedPoint((0,), (0.5,))
        assert evaluate(f, fpt(0.5, 0.93)) == 0.0

    def test_constant_map_pushforward_is_zero(self):
        from ergolab.observed import Constant
        from ergolab.observables import PushforwardDist

        f = PushforwardDist(Constant((0.3,)), (0.3,))
        for x in (fpt(0.1, 0.9), fpt(0.4, 0.2)):
            assert evaluate(f, x) == 0.0

    def test_nonnegative_on_random_points(self):
        rng = np.random.default_rng(0)
        coords = rng.random((200, 2))
        for f in (
            DistToPoint((0.3, 0.8)),
            Slack(DistToPoint((0.3, 0.8)), 0.1),
            WeightedSum(((0.5, DistToPoint((0.1, 0.2))), (2.0, DistToProjectedPoint((1,), (0.7,))))),
        ):
            assert (f.values(coords) >= 0).all()

    def test_lipschitz_bound_sampled_pairs(self):
        from ergolab.points import torus_distance

        rng = np.random.default_rng(1)
        xs = rng.random((500, 2))
        ys = rng.random((500, 2))
        f = WeightedSum(((1.0, DistToPoint((0.25, 0.5))), (0.5, DistToProjectedPoint((0,), (0.1,)))))
        fx = f.values(xs)
        fy = f.values(ys)
        for i in range(500):
            d = torus_distance(xs[i], ys[i])
            assert abs(fx[i] - fy[i]) <= f.lipschitz * d + 1e-12


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data(), width=st.integers(1, 9), rows=st.integers(0, 40))
def test_squared_norms_are_the_row_sums_bit_for_bit(data, width, rows):
    # the distance every dist: observable, flow and the observation maps use
    d = data.draw(hnp.arrays(np.float64, (rows, width),
                             elements=st.floats(0.0, 1e6) | st.floats(0.0, 0.5, width=32)))
    for rows_of in (d, np.tile(d, (400, 1))):  # numpy may iterate long arrays otherwise
        assert squared_norms(rows_of).tobytes() == (rows_of * rows_of).sum(axis=1).tobytes()


class TestMollifier:
    def test_plateau_and_support(self):
        f = DistToPoint((0.0,))
        # f(x)=0.1 with r_prev=0.2, r=0.1 sits on the inner boundary
        assert mollifier(f, 0.2, 0.1, fpt(0.1)) == pytest.approx(1.0)
        assert mollifier(f, 0.2, 0.1, fpt(0.15)) == pytest.approx(0.5)
        assert mollifier(f, 0.2, 0.1, fpt(0.25)) == 0.0

    def test_bracketing_between_measures(self):
        # MC mean of the mollifier lies between mu(S_r) and mu(S_r_prev)
        f = DistToPoint((0.375,))
        r_prev, r = 0.1, 0.05
        rng = np.random.default_rng(7)
        coords = rng.random((40_000, 1))
        mean = mollifier_values(f, r_prev, r, coords).mean()
        lo = exact_measure(CIRCLE, f, r)
        hi = exact_measure(CIRCLE, f, r_prev)
        hw = 3.0 * 0.5 / math.sqrt(40_000)
        assert lo - hw <= mean <= hi + hw

    def test_lipschitz_constant(self):
        from ergolab.points import torus_distance

        f = DistToPoint((0.5, 0.5))
        r_prev, r = 0.2, 0.12
        bound = f.lipschitz / (r_prev - r)
        rng = np.random.default_rng(3)
        xs = rng.random((10_000, 2))
        ys = rng.random((10_000, 2))
        mx = mollifier_values(f, r_prev, r, xs)
        my = mollifier_values(f, r_prev, r, ys)
        for i in range(0, 10_000, 7):
            d = torus_distance(xs[i], ys[i])
            assert abs(mx[i] - my[i]) <= bound * d + 1e-12

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            mollifier(DistToPoint((0.0,)), 0.1, 0.1, fpt(0.0))


class TestExactMeasure:
    def test_interval(self):
        est = estimate_measure(DistToPoint((0.5,)), 0.1, CIRCLE, seed=0, n_samples=100)
        assert est.exact and est.estimate == pytest.approx(0.2) and est.half_width == 0.0

    def test_disc(self):
        est = estimate_measure(DistToPoint((0.0, 0.0)), 0.1, TORUS, seed=0, n_samples=100)
        assert est.exact and est.estimate == pytest.approx(math.pi * 0.01)

    def test_strip(self):
        assert exact_measure(TORUS, DistToProjectedPoint((0,), (0.5,)), 0.2) == pytest.approx(0.4)

    def test_slack_fattening(self):
        f = Slack(DistToPoint((0.5,)), 0.05)
        assert exact_measure(CIRCLE, f, 0.1) == pytest.approx(2 * 0.1 + 0.1)

    def test_slack_chains_nest_up_to_their_bound(self):
        two = parse_observable("slack:0.01:slack:0.04:dist:0.5", 1)
        assert exact_measure(CIRCLE, two, 0.1) == pytest.approx(2 * 0.1 + 0.1)
        parse_observable("slack:0:" * MAX_SLACK_DEPTH + "dist:0.5", 1)
        with pytest.raises(ValueError, match="deeper than"):
            parse_observable("slack:0:" * (MAX_SLACK_DEPTH + 1) + "dist:0.5", 1)

    def test_clamps_at_full_measure(self):
        assert exact_measure(CIRCLE, DistToPoint((0.5,)), 0.7) == 1.0
        assert exact_measure(TORUS, DistToPoint((0.5, 0.5)), 0.71) == 1.0

    def test_no_closed_form_cases(self):
        assert exact_measure(TORUS, DistToPoint((0.5, 0.5)), 0.6) is None
        assert exact_measure(MannevillePomeau(0.5), DistToPoint((0.5,)), 0.1) is None

    def test_repeated_projection_axes_rejected(self):
        # (0, 0) would take the closed form of a disc, pi r^2 and dimension 2,
        # for a set of measure sqrt(2) r and dimension 1
        with pytest.raises(ValueError):
            DistToProjectedPoint((0, 0), (0.5, 0.5))

    def test_exact_dimension_catalog(self):
        assert exact_dimension(CIRCLE, DistToPoint((0.5,))) == 1.0
        assert exact_dimension(TORUS, DistToPoint((0.5, 0.5))) == 2.0
        assert exact_dimension(TORUS, DistToProjectedPoint((1,), (0.5,))) == 1.0
        assert exact_dimension(CIRCLE, Slack(DistToPoint((0.5,)), 0.05)) == 0.0
        # a slack with no mass at its margin: the closed form pins no exponent
        assert exact_dimension(CIRCLE, Slack(DistToPoint((0.5,)), 0.0)) is None
        # pushforwards read their map's published exponent; a linear map has none
        for spec, dim in (("proj:1:0.5", 1.0), ("wave:3:1,0", 1.0),
                          ("const:0.5:0.5", 0.0), ("linear:[[1,1]]:0.5", None)):
            assert exact_dimension(TORUS, parse_observable("pushdist:" + spec, 2)) == dim
        # no closed form of any observable under a non-Lebesgue invariant measure
        for spec in ("dist:0.5", "projdist:1:0.5", "slack:0.05:dist:0.5", "pushdist:proj:1:0.5"):
            assert exact_dimension(MannevillePomeau(0.3), parse_observable(spec, 1)) is None


class TestExactMeasureArray:
    # negative radii, the k >= 2 ball cut-offs, radii past every clamp, and
    # the power-law radii of the shrinking-target counter
    RADII = np.concatenate([np.linspace(-0.25, 2.5, 5_501), power_law_radii(0.5, 2_000)])

    FAMILIES = {
        "dist-1d": (CIRCLE, DistToPoint((0.375,))),
        "dist-2d": (TORUS, DistToPoint((0.5, 0.5))),
        "dist-3d": (TORUS3, DistToPoint((0.1, 0.2, 0.3))),
        "projdist": (TORUS, DistToProjectedPoint((1,), (0.25,))),
        "slack-1d": (CIRCLE, Slack(DistToPoint((0.5,)), 0.05)),
        "slack-2d": (TORUS, Slack(DistToPoint((0.5, 0.5)), 0.1)),
        "pushdist-proj": (TORUS, PushforwardDist(CoordinateProjection((0,), 2), (0.5,))),
        "pushdist-wave": (TORUS, PushforwardDist(CircleWave(3), (1.0, 0.0))),
        "pushdist-const": (TORUS, PushforwardDist(Constant((0.5,)), (0.5,))),
    }

    @staticmethod
    def _scalars(system, f, radii, cast):
        return [exact_measure(system, f, cast(r)) for r in radii]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_array_is_bytewise_the_scalar_calls(self, family):
        system, f = self.FAMILIES[family]
        by_float = self._scalars(system, f, self.RADII, float)
        # the np.float64 elements the counter's measure vector once passed one by one
        by_np = self._scalars(system, f, self.RADII, np.float64)
        assert all(type(v) is float or v is None for v in by_float + by_np)
        gap = np.array([v is None for v in by_float])
        assert gap.tolist() == [v is None for v in by_np]
        if gap.any():
            assert exact_measure(system, f, self.RADII) is None
        arr = exact_measure(system, f, self.RADII[~gap])
        assert arr.dtype == np.float64 and arr.shape == (int((~gap).sum()),)
        for scalars in (by_float, by_np):
            kept = np.array([v for v in scalars if v is not None], dtype=float)
            assert arr.tobytes() == kept.tobytes()
        assert np.all(arr[self.RADII[~gap] < 0] == 0.0)

    @pytest.mark.parametrize("k,system", [(2, TORUS), (3, TORUS3)])
    def test_ball_gap_is_none_and_edges_close(self, k, system):
        f = DistToPoint((0.5,) * k)
        half_diag = math.sqrt(k) / 2.0
        inside = self.RADII[self.RADII <= 0.5]
        outside = self.RADII[self.RADII >= half_diag]
        between = self.RADII[(self.RADII > 0.5) & (self.RADII < half_diag)]
        assert len(inside) and len(outside) and len(between)
        assert exact_measure(system, f, np.concatenate([inside, outside])) is not None
        for r in between[::50]:
            assert exact_measure(system, f, np.array([r])) is None
            assert exact_measure(system, f, np.array([0.1, r, 0.9])) is None
        # the per-radius power, not numpy's array power, which rounds
        # differently in the last bit for some radii
        volume = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
        live = inside[inside >= 0]
        expected = np.array([volume * r ** k for r in live])  # r is np.float64
        assert exact_measure(system, f, live).tobytes() == expected.tobytes()

    def test_no_closed_form_system(self):
        mp = MannevillePomeau(0.5)
        f = DistToPoint((0.5,))
        assert exact_measure(mp, f, np.array([0.1, 0.2])) is None
        assert exact_measure(mp, f, np.array([-0.2, -0.1])).tolist() == [0.0, 0.0]
        assert exact_measure(mp, f, -0.1) == 0.0

    def test_empty_array(self):
        out = exact_measure(CIRCLE, DistToPoint((0.5,)), np.array([]))
        assert out.dtype == np.float64 and out.shape == (0,)


class TestMonteCarloMeasure:
    def test_mp_measure_against_birkhoff_oracle(self):
        # oracle: long-orbit Birkhoff average of the sublevel indicator
        system = MannevillePomeau(0.5)
        f = DistToPoint((0.5,))
        r = 0.1
        est = estimate_measure(f, r, system, seed=11, n_samples=100_000)
        assert not est.exact
        assert 0.0 < est.estimate < 1.0

        x = 0.7312528515
        total = 0
        n_orbit = 400_000
        burn = 5_000
        for k in range(burn + n_orbit):
            if k >= burn and abs(x - 0.5) <= r:
                total += 1
            x += x ** 1.5  # the map x + x^(1+s) mod 1 at s = 0.5, written out
            if x >= 1.0:
                x -= 1.0
        oracle = total / n_orbit
        assert abs(est.estimate - oracle) <= est.half_width + 0.01

    def test_mc_matches_exact_within_half_width_across_seeds(self):
        # corpus-level: nominal 95% coverage of the closed-form value
        f = WeightedSum(((1.0, DistToPoint((0.375,))),))  # no closed form route
        target = exact_measure(CIRCLE, DistToPoint((0.375,)), 0.07)
        hits = 0
        seeds = range(60)
        for s in seeds:
            est = estimate_measure(f, 0.07, CIRCLE, seed=s, n_samples=4_000)
            assert not est.exact
            if abs(est.estimate - target) <= est.half_width:
                hits += 1
        assert hits >= 0.9 * len(list(seeds))

    def test_monotone_in_r(self):
        f = DistToPoint((0.5,))
        vals = [estimate_measure(f, r, CIRCLE, seed=0, n_samples=100).estimate
                for r in (0.02, 0.1, 0.3)]
        assert vals == sorted(vals)

    def test_shared_sample_profile_is_monotone(self):
        f = WeightedSum(((1.0, DistToPoint((0.375,))),))
        ladder = RadiusLadder.dyadic(2, 8)
        prof = measure_profile(f, ladder, CIRCLE, seed=5, n_samples=20_000)
        ests = [e.estimate for e in prof]
        assert all(a >= b for a, b in zip(ests, ests[1:]))

    @pytest.mark.parametrize("system,f", [
        (MannevillePomeau(0.3), DistToPoint((0.5,))),
        (CIRCLE, WeightedSum(((1.0, DistToPoint((0.375,))),))),
    ], ids=["mp", "weighted-sum"])
    def test_every_route_counts_the_same_fraction(self, system, f):
        # estimate_measure, measure_profile and the Borel-Cantelli targets'
        # Monte Carlo measures at one seed and sample size
        ladder = RadiusLadder.dyadic(2, 8)
        seed, n = 3, 2_000
        profile = measure_profile(f, ladder, system, seed, n)
        targets = hitting._measures_for(system, f, np.array(ladder.radii), "mc", seed, n)
        for r, rung, mu in zip(ladder, profile, targets.tolist()):
            est = estimate_measure(f, r, system, seed, n)
            assert not est.exact and est.sample_count == n
            assert est == rung
            assert est.estimate == mu

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_measure(WeightedSum(((1.0, DistToPoint((0.5,))),)), 0.1, CIRCLE, 0, 50)


class TestRadiusLadder:
    def test_dyadic_and_refinement(self):
        coarse = RadiusLadder.dyadic(3, 14)
        assert len(coarse) == 12
        assert coarse.radii[0] == 0.125 and coarse.radii[-1] == 2.0 ** -14
        fine = RadiusLadder.dyadic(3, 14, per_octave=2)
        assert len(fine) == 23
        assert fine.gap_constant < 2 ** -0.5

    def test_gap_condition_enforced(self):
        with pytest.raises(ValueError):
            RadiusLadder((0.1, 0.01), gap_constant=0.5)
        with pytest.raises(ValueError):
            RadiusLadder((0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            RadiusLadder((0.1, -0.2))


class TestDimension:
    def test_circle_slope_is_one(self):
        est = estimate_dimension(
            DistToPoint((0.5,)), RadiusLadder.dyadic(3, 12), CIRCLE, seed=0, n_per_rung=1000
        )
        assert est.slope == pytest.approx(1.0, abs=0.02)
        assert est.d_point == pytest.approx(1.0, abs=0.02)

    def test_torus_slope_is_two(self):
        est = estimate_dimension(
            DistToPoint((0.2, 0.7)), RadiusLadder.dyadic(3, 12), TORUS, seed=0, n_per_rung=1000
        )
        assert est.slope == pytest.approx(2.0, abs=0.05)

    def test_fat_sublevel_slope_drops(self):
        # oracle: slopes of the closed form log(2r + 0.1) against log r,
        # recomputed here directly over the same rungs
        f = Slack(DistToPoint((0.5,)), 0.05)
        ladder = RadiusLadder.dyadic(8, 14)
        est = estimate_dimension(f, ladder, CIRCLE, seed=0, n_per_rung=1000)

        x = np.log(np.array(ladder.radii))
        y = np.log(2.0 * np.array(ladder.radii) + 0.1)
        oracle_slopes = sliding_slopes(x, y, 4)
        assert est.d_lower == pytest.approx(oracle_slopes.min(), abs=1e-9)
        assert est.d_upper == pytest.approx(oracle_slopes.max(), abs=1e-9)
        assert est.d_lower <= 0.3

    def test_mc_path_recovers_dimension(self):
        f = WeightedSum(((1.0, DistToPoint((0.375,))),))
        est = estimate_dimension(
            f, RadiusLadder.dyadic(2, 7), CIRCLE, seed=3, n_per_rung=200_000
        )
        assert est.slope == pytest.approx(1.0, abs=0.1)
        assert est.d_lower <= est.d_upper

    def test_degenerate_ladder(self):
        f = WeightedSum(((1.0, DistToPoint((0.375,))),))
        with pytest.raises(DegenerateLadderError):
            estimate_dimension(f, RadiusLadder.dyadic(12, 18), CIRCLE, seed=0, n_per_rung=200)


class TestParsing:
    def test_dist(self):
        f = parse_observable("dist:0.375", 1)
        assert isinstance(f, DistToPoint) and f.target == (0.375,)

    def test_projdist_one_based(self):
        f = parse_observable("projdist:1:0.5", 2)
        assert f.axes == (0,) and f.target == (0.5,)

    def test_slack(self):
        f = parse_observable("slack:0.05:dist:0.5", 1)
        assert isinstance(f, Slack) and f.margin == 0.05

    def test_pushdist(self):
        f = parse_observable("pushdist:proj1:0.5", 2)
        assert evaluate(f, fpt(0.5, 0.2)) == 0.0

    @pytest.mark.parametrize("spec,expected", [
        ("pushdist:proj1:0.5", PushforwardDist(CoordinateProjection((0,), 2), (0.5,))),
        ("pushdist:identity:0.5,0.25",
         PushforwardDist(CoordinateProjection((0, 1), 2), (0.5, 0.25))),
        ("pushdist:wave:3:1,0", PushforwardDist(CircleWave(3), (1.0, 0.0))),
        ("pushdist:wave:2:2:0,-1", PushforwardDist(CircleWave(2, 1), (0.0, -1.0))),
        ("pushdist:const:0.4:0.5", PushforwardDist(Constant((0.4,)), (0.5,))),
        ("pushdist:linear:[[1,0],[2,0]]:0.5,0.25",
         PushforwardDist(LinearMap(((1, 0), (2, 0))), (0.5, 0.25))),
    ])
    def test_pushdist_map_specs(self, spec, expected):
        assert parse_observable(spec, 2) == expected

    @pytest.mark.parametrize("spec", [
        "dist:nan,0.5", "dist:0.5,1.0", "dist:-0.25,0.5", "projdist:1:nan",
        "projdist:2:1.5", "pushdist:proj12:nan,0.5", "pushdist:proj12:0.5",
    ])
    def test_rejects_bad_target(self, spec):
        with pytest.raises(ValueError):
            parse_observable(spec, 2)

    @pytest.mark.parametrize("spec", ["projdist:1,1:0.5,0.5", "projdist:3:0.5", "projdist:0:0.5"])
    def test_rejects_bad_axes(self, spec):
        with pytest.raises(ValueError):
            parse_observable(spec, 2)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_observable("entropy:3", 1)
        with pytest.raises(ValueError):
            parse_observable("dist:0.5", 2)


def test_fit_line_recovers_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, intercept, stderr = fit_line(x, 2.5 * x - 1.0)
    assert slope == pytest.approx(2.5)
    assert intercept == pytest.approx(-1.0)
    assert stderr == pytest.approx(0.0, abs=1e-12)
