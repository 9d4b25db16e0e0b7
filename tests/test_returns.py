import math

import numpy as np
import pytest

from ergolab.errors import RejectionStallError
from ergolab.hitting import ladder_hitting_times
from ergolab import returns
from ergolab.observables import DistToPoint, Slack, evaluate
from ergolab.points import ReservoirPoint
from ergolab.rand import subseed
from ergolab.returns import (
    ReturnCurve,
    conditioned_return_times,
    count_jump_clusters,
    default_cap,
    exp_law_distance,
    kac_statistic,
    return_curve,
    return_sample,
    sample_conditioned,
    triviality_indicator,
)
from ergolab.systems import (
    CAT_MATRIX,
    CircleRotation,
    Doubling,
    MannevillePomeau,
    ToralAutomorphism,
)

DOUBLING = Doubling()
GOLDEN = CircleRotation.golden()


class TestConditionedSampling:
    def test_interval_uniformity(self):
        f = DistToPoint((0.5,))
        pts = sample_conditioned(DOUBLING, f, 0.1, seed=1, count=10_000)
        xs = np.array([p.float_coords()[0] for p in pts])
        assert ((0.4 <= xs) & (xs <= 0.6)).all()
        assert 0.49 <= xs.mean() <= 0.51

    def test_reservoir_starts_have_live_orbits(self):
        f = DistToPoint((0.5,))
        pts = sample_conditioned(DOUBLING, f, 0.05, seed=2, count=5)
        for p in pts:
            assert evaluate(f, p) <= 0.05
            # past the pinned prefix the stream keeps producing bits
            tail = p.bits.window(100)
            assert tail == p.bits.window(100)

    def test_disc_target_membership(self):
        torus = ToralAutomorphism(CAT_MATRIX)
        f = DistToPoint((0.3, 0.7))
        pts = sample_conditioned(torus, f, 0.05, seed=3, count=2_000)
        vals = np.array([evaluate(f, p) for p in pts])
        assert (vals <= 0.05).all()
        # area sanity: mean squared radius of a uniform disc is r^2/2
        assert np.mean(vals ** 2) == pytest.approx(0.05 ** 2 / 2, rel=0.1)

    def test_rotation_dyadic_interval(self):
        f = DistToPoint((0.375,))
        pts = sample_conditioned(GOLDEN, f, 0.05, seed=4, count=2_000)
        xs = np.array([p.float_coords()[0] for p in pts])
        assert ((0.325 <= xs) & (xs <= 0.425)).all()

    def test_rejection_path_for_mp(self):
        system = MannevillePomeau(0.5)
        f = DistToPoint((0.5,))
        pts = sample_conditioned(system, f, 0.1, seed=5, count=200)
        assert len(pts) == 200
        assert all(evaluate(f, p) <= 0.1 for p in pts)

    def test_rejection_stall(self):
        system = MannevillePomeau(0.5)
        f = DistToPoint((0.5,))
        with pytest.raises(RejectionStallError):
            sample_conditioned(system, f, 1e-9, seed=6, count=10,
                               max_attempts=300_000)


EDGE_GUARD = 2.0 ** -50


@pytest.mark.parametrize("bits", [20, 40, 53, 64, 512])
def test_conditioned_starts_lie_in_their_target(bits):
    # the disc's guard grows by its truncation to a lattice coarser than a
    # float; an interval needs a lattice point inside its guard
    disc = EDGE_GUARD + (math.sqrt(2.0) * 2.0 ** -bits if bits < 53 else 0.0)
    cases = [
        (ToralAutomorphism(CAT_MATRIX, precision_bits=bits), DistToPoint((0.3, 0.7)), disc),
        (CircleRotation.golden(bits), DistToPoint((0.375,)), max(EDGE_GUARD, 2.0 ** -bits)),
        (DOUBLING, DistToPoint((0.375,)), EDGE_GUARD),
    ]
    for system, f, bound in cases:
        for r in (bound * (1 + 2.0 ** -20), bound * 1.5, bound * 4, 1e-3):
            pts = sample_conditioned(system, f, r, seed=bits, count=200)
            engine = f.values(system.orbit_batch(pts, 0, 1)[:, 0])
            rounded = np.array([evaluate(f, p) for p in pts])
            assert (engine <= r).all() and (rounded <= r).all(), (system, r)
        with pytest.raises(ValueError, match="guard"):
            sample_conditioned(system, f, EDGE_GUARD, seed=bits, count=1)
    if bits < 53:
        with pytest.raises(ValueError, match="guard"):
            sample_conditioned(cases[0][0], cases[0][1], disc, seed=bits, count=1)
        with pytest.raises(ValueError, match="lattice"):  # no lattice point within 2^-B / 4
            sample_conditioned(cases[1][0], DistToPoint((0.375 + 2.0 ** -(bits + 1),)),
                               2.0 ** -(bits + 2), seed=bits, count=1)


def _full_chunk_rejection(system, f, r, seed, count, max_attempts):
    # the reference sampler: every stream drawn as one whole chunk
    accepted, attempts, stream = [], 0, 0
    while len(accepted) < count:
        candidates = system.sample_invariant(subseed(seed, f"rej{stream}"), returns.REJECTION_CHUNK)
        keep = np.flatnonzero(f.values(system.orbit_batch(candidates, 0, 1)[:, 0]) <= r)
        accepted += [candidates[i] for i in keep[:count - len(accepted)]]
        attempts += returns.REJECTION_CHUNK
        stream += 1
        if attempts >= returns._STALL_CHECK_AFTER or attempts >= max_attempts:
            rate = len(accepted) / attempts
            if rate < returns.STALL_ACCEPTANCE:
                raise RejectionStallError(f"acceptance rate {rate:.2e} after {attempts} draws")
            if attempts >= max_attempts and len(accepted) < count:
                raise RejectionStallError(
                    f"only {len(accepted)}/{count} accepted in {max_attempts} draws")
    return accepted


def _point_key(p):
    return (p.bits.seed, p.bits.index, p.offset) if isinstance(p, ReservoirPoint) else p.coords


class TestRejectionPrefixes:
    """Rejection streams drawn in growing prefixes accept what whole chunks did."""

    # slack targets, and any target on mp, have no direct sampler
    CASES = {
        "cat": (ToralAutomorphism(CAT_MATRIX), Slack(DistToPoint((0.3, 0.7)), 0.01), 0.05),
        "doubling": (DOUBLING, Slack(DistToPoint((0.375,)), 0.01), 0.02),
        "mp": (MannevillePomeau(0.3), DistToPoint((0.5,)), 0.05),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("count", [1, 5, 100])
    def test_accepted_points_equal_whole_chunks(self, monkeypatch, case, count):
        monkeypatch.setattr(returns, "REJECTION_CHUNK", 1024)  # 100 starts take several streams
        system, f, r = self.CASES[case]
        got = sample_conditioned(system, f, r, seed=9, count=count)
        want = _full_chunk_rejection(system, f, r, 9, count, 20_000_000)
        assert [_point_key(p) for p in got] == [_point_key(p) for p in want]

    def test_few_starts_draw_few_candidates(self, monkeypatch):
        drawn = []
        draw = ToralAutomorphism.sample_invariant
        monkeypatch.setattr(ToralAutomorphism, "sample_invariant",
                            lambda self, seed, count: drawn.append(count) or draw(self, seed, count))
        system, f, r = self.CASES["cat"]
        assert len(sample_conditioned(system, f, r, seed=9, count=5)) == 5
        assert sum(drawn) <= returns.REJECTION_CHUNK // 16

    @pytest.mark.parametrize("r,count,max_attempts,stall", [
        (1e-9, 10, 300_000, 1e-6),  # the acceptance rate stalls
        (1e-3, 200, 3 * 4096, 1e-6),  # too few accepted within max_attempts
        (0.1, 1, 300_000, 0.5),  # a stream its first prefix settles counts whole
    ])
    def test_stalls_are_unchanged(self, monkeypatch, r, count, max_attempts, stall):
        monkeypatch.setattr(returns, "REJECTION_CHUNK", 4096)
        monkeypatch.setattr(returns, "_STALL_CHECK_AFTER", 4096)
        monkeypatch.setattr(returns, "STALL_ACCEPTANCE", stall)
        system, f = MannevillePomeau(0.5), DistToPoint((0.5,))
        with pytest.raises(RejectionStallError) as want:
            _full_chunk_rejection(system, f, r, 6, count, max_attempts)
        with pytest.raises(RejectionStallError) as got:
            sample_conditioned(system, f, r, seed=6, count=count, max_attempts=max_attempts)
        assert str(got.value) == str(want.value)


class TestReturnTimes:
    def test_matches_independent_stepwise_scan(self):
        # oracle: exhaustive per-point tabulation through step()
        f = DistToPoint((0.375,))
        r = 0.03
        taus, censored = conditioned_return_times(GOLDEN, f, r, seed=7,
                                                  count=50, cap=10_000)
        pts = sample_conditioned(GOLDEN, f, r, seed=7, count=50)
        for i, p in enumerate(pts):
            q = p
            tau = None
            for n in range(1, 10_001):
                q = GOLDEN.step(q)
                if evaluate(f, q) <= r:
                    tau = n
                    break
            assert taus[i] == (tau if tau is not None else 10_000)
            assert censored[i] == (tau is None)

    def test_hitting_convention_shared(self):
        # return time is the hitting time of a point already inside
        f = DistToPoint((0.375,))
        pts = sample_conditioned(DOUBLING, f, 0.02, seed=8, count=20)
        taus, _ = conditioned_return_times(DOUBLING, f, 0.02, seed=8,
                                           count=20, cap=100_000)
        for p, t in zip(pts, taus):
            rec = ladder_hitting_times(DOUBLING, p, f, [0.02], cap=100_000)[0]
            assert rec.tau == t


class TestReturnSample:
    def test_defaults_come_from_the_target_measure(self):
        f = DistToPoint((0.375,))
        sample = return_sample(DOUBLING, f, 2.0 ** -6, seed=9, count=200)
        assert sample.measure == 2.0 ** -5
        assert sample.cap == default_cap(2.0 ** -5)
        assert len(sample.taus) == len(sample.censored) == 200

    def test_vanishing_measure_rejected(self):
        f = DistToPoint((0.375,))
        with pytest.raises(ValueError):
            return_sample(DOUBLING, f, 2.0 ** -6, seed=9, count=10, measure=0.0)


class TestReturnCurve:
    def test_starts_at_one(self):
        f = DistToPoint((0.375,))
        curve = return_curve(return_sample(DOUBLING, f, 2.0 ** -6, seed=9, count=2_000))
        assert curve.g_values[0] == 1.0
        assert curve.t_grid[0] == 0.0

    def test_doubling_is_near_exponential(self):
        f = DistToPoint((0.375,))
        curve = return_curve(return_sample(DOUBLING, f, 2.0 ** -8, seed=10, count=4_000))
        assert exp_law_distance(curve) <= 0.1
        assert curve.measure == pytest.approx(2.0 ** -7)

    def test_golden_rotation_is_step_function(self):
        f = DistToPoint((0.375,))
        sample = return_sample(GOLDEN, f, 0.05, seed=11, count=4_000)
        curve = return_curve(sample)
        assert count_jump_clusters(curve) <= 3
        # three-gap structure: at most three distinct return times
        assert not sample.censored.any()
        assert len(set(sample.taus.tolist())) <= 3

    def test_censoring_flags(self):
        f = DistToPoint((0.375,))
        # cap of one step censors almost every return
        curve = return_curve(return_sample(DOUBLING, f, 2.0 ** -6, seed=12,
                                           count=500, cap=1))
        assert curve.censored_count > 0
        assert curve.flagged[-1]
        assert not curve.flagged[0]

    def test_monotone_validation(self):
        with pytest.raises(ValueError):
            ReturnCurve(0.1, 0.2, (0.0, 1.0), (0.5, 1.0), 10, 100, 0, (False, False))


class TestExpLawDistance:
    def test_exact_exponential_grid(self):
        grid = tuple(0.25 * k for k in range(21))
        curve = ReturnCurve(0.1, 0.2, grid,
                            tuple(math.exp(-t) for t in grid),
                            100, 1000, 0, tuple(False for _ in grid))
        assert exp_law_distance(curve) == 0.0

    def test_constant_curve(self):
        grid = tuple(0.25 * k for k in range(21))
        curve = ReturnCurve(0.1, 0.2, grid, tuple(1.0 for _ in grid),
                            100, 1000, 0, tuple(False for _ in grid))
        assert exp_law_distance(curve) == pytest.approx(1.0 - math.exp(-5.0))


class TestTrivialityIndicator:
    def test_matches_curve_at_same_seed(self):
        f = DistToPoint((0.375,))
        r = 0.11  # 0.5 / (2 r) is not an integer
        sample = return_sample(GOLDEN, f, r, seed=13, count=2_000)
        curve = return_curve(sample, t_grid=(0.0, 0.5, 1.0))
        ind = triviality_indicator(sample, 0.5)
        assert ind.estimate == curve.g_values[1]  # t = 0.5

    def test_small_l_catches_everything(self):
        f = DistToPoint((0.375,))
        ind = triviality_indicator(
            return_sample(DOUBLING, f, 2.0 ** -6, seed=14, count=500), 1e-9)
        assert ind.estimate == 1.0

    def test_markov_bound_at_twenty(self):
        f = DistToPoint((0.375,))
        ind = triviality_indicator(
            return_sample(DOUBLING, f, 2.0 ** -7, seed=15, count=3_000), 20.0)
        assert ind.estimate <= 0.05 + 3.0 * ind.half_width


class TestKac:
    @pytest.mark.parametrize("system,r", [
        (DOUBLING, 2.0 ** -7),
        (GOLDEN, 0.05),
        (ToralAutomorphism(CAT_MATRIX), 0.05),
    ])
    def test_mean_return_times_measure_is_one(self, system, r):
        f = DistToPoint((0.375,)) if system.dim == 1 else DistToPoint((0.3, 0.7))
        product, stderr = kac_statistic(return_sample(system, f, r, seed=16, count=3_000))
        assert abs(product - 1.0) <= 4.0 * max(stderr, 1e-9)


def test_default_cap_rule():
    assert default_cap(0.01) == 10_000
