import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab
from ergolab import mixing
from ergolab.errors import DegenerateSeriesError, NoDecayFitError
from ergolab.kinds import FUNCTION_SPECS, parse_function_spec
from ergolab.mixing import (
    CorrelationSeries,
    DECAY_EXPONENTIAL,
    DECAY_INCONCLUSIVE,
    DECAY_POLYNOMIAL,
    DecayFit,
    constant_function,
    cosine_wave,
    dyadic_harmonic_mix,
    estimate_correlation,
    fit_decay,
    intersection_bound_check,
)
from ergolab.observables import (
    MAX_FREQUENCY,
    OBSERVABLE_RULES,
    Z_95,
    DistToPoint,
    MeasureEstimate,
    RadiusLadder,
    binomial_half_width,
)
from ergolab.rand import subseed
from ergolab.systems import (
    CAT_MATRIX,
    CircleRotation,
    Doubling,
    ToralAutomorphism,
    system_from_id,
)

DOUBLING = Doubling()


def doubling_autocovariance_mix(depth, n):
    """Exact autocovariance of dyadic_harmonic_mix under the doubling map."""
    if n > depth:
        return 0.0
    return (2.0 / 3.0) * 2.0 ** -n * (1.0 - 4.0 ** (n - depth - 1))


def synthetic_series(values, lags=None, hw=1e-12):
    values = tuple(values)
    lags = tuple(lags or range(1, len(values) + 1))
    return CorrelationSeries(
        lags=lags,
        values=values,
        half_widths=tuple(hw for _ in values),
        phi_norm=(1.0, 1.0),
        psi_norm=(1.0, 1.0),
    )


class TestFitDecay:
    def test_exact_geometric_series(self):
        fit = fit_decay(synthetic_series([2.0 ** -n for n in range(1, 13)]))
        assert fit.kind == DECAY_EXPONENTIAL
        assert fit.rate == pytest.approx(math.log(2), rel=0.05)
        assert fit.envelope(3) == pytest.approx(2.0 ** -3, rel=0.05)

    def test_exact_power_series(self):
        fit = fit_decay(synthetic_series([float(n) ** -2 for n in range(1, 13)]))
        assert fit.kind == DECAY_POLYNOMIAL
        assert fit.rate == pytest.approx(2.0, rel=0.05)

    def test_all_noise_is_inconclusive(self):
        series = synthetic_series([1e-6] * 10, hw=1e-3)
        assert fit_decay(series).kind == DECAY_INCONCLUSIVE

    def test_too_few_usable_lags_degenerate(self):
        # four clear lags, the rest in the noise
        values = [0.5, 0.25, 0.125, 0.0625] + [1e-9] * 6
        with pytest.raises(DegenerateSeriesError):
            fit_decay(synthetic_series(values, hw=1e-6))

    def test_growing_series_inconclusive(self):
        fit = fit_decay(synthetic_series([0.1 * 1.5 ** n for n in range(8)]))
        assert fit.kind == DECAY_INCONCLUSIVE


class TestEstimateCorrelation:
    def test_fourier_orthogonality_at_lag_one(self):
        phi = cosine_wave(1)
        series = estimate_correlation(DOUBLING, phi, phi, [1], seed=3, n_samples=40_000)
        assert series.values[0] <= series.half_widths[0]

    def test_constant_observable_gives_zero(self):
        phi = cosine_wave(1)
        psi = constant_function(0.7)
        series = estimate_correlation(DOUBLING, phi, psi, [1, 5, 9], seed=0, n_samples=5_000)
        # zero in expectation; centering leaves only float residue
        assert all(v <= 1e-12 for v in series.values)

    def test_dyadic_mix_matches_closed_form(self):
        # oracle: autocovariance (2/3) 2^-n (1 - 4^(n-depth-1)), derived from
        # the Fourier expansion; the estimator must land within its CI
        depth = 10
        phi = dyadic_harmonic_mix(depth)
        lags = list(range(1, 9))
        series = estimate_correlation(DOUBLING, phi, phi, lags, seed=11, n_samples=200_000)
        for lag, value, hw in zip(series.lags, series.values, series.half_widths):
            want = doubling_autocovariance_mix(depth, lag)
            assert abs(value - want) <= 2.5 * hw, lag

    def test_distance_observable_correlations_vanish(self):
        # triangle waves have only odd harmonics, which the doubling map
        # pushes onto even ones: the true covariance is 0 at every lag
        f = DistToPoint((0.375,))
        lags = list(range(25, 31))
        series = estimate_correlation(DOUBLING, f, f, lags, seed=5, n_samples=100_000)
        for v, hw in zip(series.values, series.half_widths):
            assert v <= 2.0 * hw

    def test_cauchy_schwarz_norm_bound(self):
        phi = dyadic_harmonic_mix(6)
        series = estimate_correlation(DOUBLING, phi, phi, [1, 2, 3], seed=2, n_samples=10_000)
        bound = (phi.sup_bound + phi.lipschitz) ** 2
        for v, hw in zip(series.values, series.half_widths):
            assert v <= bound + hw

    def test_seed_determinism(self):
        phi = cosine_wave(2)
        a = estimate_correlation(DOUBLING, phi, phi, [1, 4], seed=9, n_samples=5_000)
        b = estimate_correlation(DOUBLING, phi, phi, [1, 4], seed=9, n_samples=5_000)
        assert a.values == b.values

    def test_generic_orbit_path(self):
        from ergolab.systems import CircleRotation

        phi = cosine_wave(1)
        series = estimate_correlation(
            CircleRotation.golden(), phi, phi, [1, 2], seed=1, n_samples=2_000
        )
        # rotation correlations of a pure mode keep modulus 1/2 cos(2 pi n a)
        alpha = float(CircleRotation.golden().alpha)
        for lag, v, hw in zip(series.lags, series.values, series.half_widths):
            want = abs(0.5 * math.cos(2 * math.pi * lag * alpha))
            assert abs(v - want) <= 3 * hw

    def test_reseeded_estimates_agree(self):
        # corpus-level symmetry: independent seeds agree within joint CIs
        phi = dyadic_harmonic_mix(8)
        agree = 0
        for s in range(20):
            a = estimate_correlation(DOUBLING, phi, phi, [2], seed=100 + s, n_samples=20_000)
            b = estimate_correlation(DOUBLING, phi, phi, [2], seed=900 + s, n_samples=20_000)
            if abs(a.values[0] - b.values[0]) <= a.half_widths[0] + b.half_widths[0]:
                agree += 1
        assert agree >= 18

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_correlation(DOUBLING, cosine_wave(1), cosine_wave(1), [1], 0, 100)


class TestLagValidation:
    """Bad lags raise ValueError before any sample is drawn."""

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def refuse(*args):
            pytest.fail("drew a sample")

        monkeypatch.setattr(mixing, "_reservoir_rows", refuse)
        monkeypatch.setattr(mixing, "_lagged_values", refuse)

    def test_negative_lag_on_cat(self):
        # on the orbit path lag -1 would read the last lag's column
        phi = cosine_wave(1)
        with pytest.raises(ValueError, match="lags"):
            estimate_correlation(system_from_id("cat"), phi, phi, (-1, 2), 0, 2000)

    def test_negative_lag_on_the_reservoir(self):
        # on the reservoir path lag -1 would index past the byte rows
        phi = cosine_wave(1)
        with pytest.raises(ValueError, match="lags"):
            estimate_correlation(DOUBLING, phi, phi, (-1, 2), 0, 2000)

    @pytest.mark.parametrize("lags", [(3, 1, 2), (1, 1), (), (0.5, 2)])
    def test_unsorted_empty_or_fractional_lags(self, lags):
        # caught before the estimate, not by CorrelationSeries after it
        phi = cosine_wave(1)
        with pytest.raises(ValueError, match="lags"):
            estimate_correlation(DOUBLING, phi, phi, lags, 0, 2000)


class TestWorkerCount:
    """Every engine maps its covariances over the workers, one per lag, and
    the orbit engines first their groups of points; the bytes must not
    depend on how many workers share them."""

    LAGS = (1, 2, 3, 5, 8, 13)

    @pytest.mark.parametrize("system_id", ["doubling", "cat", "rotation:golden", "mp:0.3"])
    def test_estimate_does_not_depend_on_worker_count(self, system_id, monkeypatch):
        # 350-point groups: 9 of them, the last short, strided over the workers
        monkeypatch.setattr(mixing, "_CHUNK", 350 * (max(self.LAGS) + 1))
        system = system_from_id(system_id)
        phi, psi = dyadic_harmonic_mix(6), cosine_wave(-2)
        runs = [estimate_correlation(system, phi, psi, self.LAGS, 4, 3000, workers=w)
                for w in (1, 2, 3)]
        assert all(s.values == runs[0].values for s in runs)
        assert all(s.half_widths == runs[0].half_widths for s in runs)

    @pytest.mark.parametrize("system_id", ["doubling", "cat"])
    def test_covariances_reach_pmap_one_task_per_lag(self, system_id, monkeypatch):
        # the orbit engines first map their groups of points; the last call
        # maps the covariances
        calls = []

        def serial_pmap(fn, items, workers):
            items = list(items)
            calls.append((workers, len(items)))
            return [fn(item) for item in items]

        monkeypatch.setattr(mixing, "pmap", serial_pmap)
        phi = cosine_wave(3)
        for workers in (1, 4, 9):
            estimate_correlation(system_from_id(system_id), phi, phi, self.LAGS, 4, 1000,
                                 workers=workers)
            assert calls[-1] == (workers, len(self.LAGS))


# lengths from 1000 up, odd ones, and n = 1 (mod 1024): a one-element tail
# past whole summation blocks
_LENGTHS = st.one_of(st.integers(1000, 5000), st.integers(500, 4000).map(lambda k: 2 * k + 1),
                     st.integers(1, 64).map(lambda k: 1024 * k + 1))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n=_LENGTHS, seed=st.integers(0, 2 ** 32 - 1),
       phi_scale=st.sampled_from([1.0, 1e-150, 3.7e100, 0.0]),  # 0: a constant column
       psi_scale=st.sampled_from([1.0, 2.0 ** -40, 1e12, 0.0]),
       shift=st.sampled_from([0.0, 0.5, -1e6]))
def test_in_place_covariance_is_the_two_temporary_formula(n, seed, phi_scale, psi_scale, shift):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(n) * phi_scale + shift
    psi_c = rng.standard_normal(n) * psi_scale
    psi_c -= psi_c.mean()
    prod = (phi - phi.mean()) * psi_c
    want = abs(float(prod.mean())), Z_95 * float(prod.std(ddof=1)) / math.sqrt(n)
    psi_bytes = psi_c.tobytes()
    got = mixing._covariance(phi, psi_c)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert psi_c.tobytes() == psi_bytes


_MEMORY_PROBE = """
import sys
from ergolab.kinds import parse_function_spec
from ergolab.mixing import estimate_correlation
from ergolab.systems import system_from_id
phi = parse_function_spec("dyadicmix:10", 2)
estimate_correlation(system_from_id("cat"), phi, phi, range(9), 0, int(sys.argv[1]), workers=1)
print([line for line in open("/proc/self/status") if line.startswith("VmHWM:")][0].split()[1])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_cat_correlation_peak_grows_by_its_columns_alone():
    # lags 0..8 and psi hold ten float columns, 80 bytes a sample; a whole
    # exact sample of 512-bit cat points would add about 400 more.  Each
    # size runs in a fresh interpreter and reads its own peak, VmHWM:
    # ru_maxrss would carry this process's peak across the exec
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(ergolab.__file__)), os.environ.get("PYTHONPATH", "")]))

    def peak_bytes(n):
        out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE, str(n)], env=env,
                             capture_output=True, text=True, check=True)
        return int(out.stdout) * 1024

    small, large = 20_000, 80_000
    assert (peak_bytes(large) - peak_bytes(small)) / (large - small) <= 250


# one spec per correlation-function prefix, and obs: once per observable rule (on T^2)
FUNCTION_EXAMPLES = ("cos:3", "dyadicmix:10", "const:0.7", "obs:dist:0.375,0.7",
                     "obs:projdist:2:0.3", "obs:slack:0.01:dist:0.375,0.7",
                     "obs:pushdist:wave:3:1,0")


def test_function_examples_cover_every_prefix():
    prefixes = {spec.split(":")[0] + ":" for spec in FUNCTION_EXAMPLES}
    rules = {spec.split(":")[1] + ":" for spec in FUNCTION_EXAMPLES if spec.startswith("obs:")}
    assert prefixes == set(FUNCTION_SPECS)
    assert rules == set(OBSERVABLE_RULES)


@pytest.mark.parametrize("spec", FUNCTION_EXAMPLES)
def test_correlation_function_survives_a_pickle_round_trip(spec):
    # pmap's workers receive phi through the fork, but a correlation function
    # stays a plain value that a pickle round trip keeps, bytes and all
    f = parse_function_spec(spec, 2)
    g = pickle.loads(pickle.dumps(f))
    coords = np.random.default_rng(7).random((1000, 2))
    assert (g.sup_bound, g.lipschitz) == (f.sup_bound, f.lipschitz)
    assert g.values(coords).tobytes() == f.values(coords).tobytes()


@pytest.mark.parametrize("rows", [1, 1023, 1025, 2049, 32_775])
def test_dyadic_mix_slabs_give_the_one_shot_bytes(rows):
    # slab edges (1024 rows) and a one-row tail against one outer product
    depth = 10
    coords = np.random.default_rng(rows).random((rows, 1))
    angles = 2.0 * math.pi * coords[:, 0]
    want = np.cos(np.outer(angles, 2 ** np.arange(depth + 1))) @ 2.0 ** -np.arange(depth + 1)
    assert dyadic_harmonic_mix(depth).values(coords).tobytes() == want.tobytes()


class TestSampledOrbitPath:
    """The lag loop off the doubling reservoir, bit for bit against a per-point
    reference: sample_invariant, then one orbit_batch call per point.  A
    small chunk makes many groups of points, the last one short."""

    SYSTEMS = (ToralAutomorphism(CAT_MATRIX), CircleRotation.golden())

    @staticmethod
    def orbits(system, seed, n, stop):
        points = system.sample_invariant(seed, n)
        return np.stack([system.orbit_batch([p], 0, stop)[0] for p in points])

    @pytest.mark.parametrize("system", SYSTEMS, ids=("cat", "golden"))
    def test_correlation_is_the_per_point_estimate(self, system, monkeypatch):
        monkeypatch.setattr(mixing, "_CHUNK", 100)
        phi, psi, lags, n = cosine_wave(3), cosine_wave(-2), (1, 2, 5, 6), 1000
        series = estimate_correlation(system, phi, psi, lags, seed=4, n_samples=n)
        orbits = self.orbits(system, 4, n, max(lags) + 1)
        psi0 = psi.values(orbits[:, 0])
        for lag, v, hw in zip(lags, series.values, series.half_widths):
            phis = phi.values(orbits[:, lag])
            prod = (phis - phis.mean()) * (psi0 - psi0.mean())
            assert v == abs(float(prod.mean()))
            assert hw == Z_95 * float(prod.std(ddof=1)) / math.sqrt(n)

    @pytest.mark.parametrize("system", SYSTEMS, ids=("cat", "golden"))
    def test_joint_preimage_is_the_per_point_count(self, system, monkeypatch):
        monkeypatch.setattr(mixing, "_CHUNK", 100)
        f, radii = DistToPoint((0.3,) * system.dim), [0.5, 0.45, 0.4, 0.35, 0.3]
        k, j, n = 4, 2, 1000
        decay = DecayFit(DECAY_EXPONENTIAL, 0.5, 1.0, (1, 8), 0.0)
        lhs, _ = intersection_bound_check(system, f, radii, k, j, seed=8, n_samples=n, decay=decay)
        orbits = self.orbits(system, subseed(8, "joint"), n, k + 1)
        hits = int(np.count_nonzero((f.values(orbits[:, k]) <= radii[k])
                                    & (f.values(orbits[:, j]) <= radii[j])))
        assert 0 < hits < n
        assert lhs == MeasureEstimate(hits / n, binomial_half_width(hits, n), n)


@pytest.fixture(scope="module")
def decay():
    phi = dyadic_harmonic_mix(10)
    series = estimate_correlation(DOUBLING, phi, phi, list(range(1, 9)),
                                  seed=21, n_samples=300_000)
    fit = fit_decay(series)
    assert fit.kind == DECAY_EXPONENTIAL
    return fit


class TestIntersectionBound:

    def test_bound_holds_for_separated_pair(self, decay):
        f = DistToPoint((0.375,))
        ladder = RadiusLadder.dyadic(3, 13)
        lhs, rhs = intersection_bound_check(
            DOUBLING, f, ladder, k=8, j=3, seed=4, n_samples=100_000, decay=decay
        )
        assert lhs.estimate <= rhs + lhs.half_width

    def test_far_separation_approaches_product(self, decay):
        f = DistToPoint((0.375,))
        ladder = RadiusLadder((0.4, 0.3, 0.22, 0.17, 0.12, 0.1, 0.08, 0.06,
                               0.05, 0.04, 0.03, 0.025, 0.02, 0.016, 0.012,
                               0.01, 0.008, 0.007, 0.006, 0.005, 0.004,
                               0.0035, 0.003, 0.0025, 0.002, 0.0017))
        k, j = 25, 2
        lhs, rhs = intersection_bound_check(
            DOUBLING, f, ladder, k=k, j=j, seed=8, n_samples=200_000, decay=decay
        )
        mu_k = min(2 * ladder.radii[k], 1.0)
        mu_j = min(2 * ladder.radii[j], 1.0)
        assert abs(lhs.estimate - mu_k * mu_j) <= 3 * lhs.half_width + 1e-4
        assert lhs.estimate <= rhs + lhs.half_width

    def test_full_space_rung_containment(self, decay):
        f = DistToPoint((0.375,))
        ladder = RadiusLadder((0.6, 0.5, 0.1, 0.05, 0.025, 0.0125))
        lhs, _ = intersection_bound_check(
            DOUBLING, f, ladder, k=4, j=1, seed=2, n_samples=50_000, decay=decay
        )
        mu_prev_k = min(2 * ladder.radii[3], 1.0)
        assert lhs.estimate <= mu_prev_k + lhs.half_width

    def test_requires_decay_fit(self):
        f = DistToPoint((0.375,))
        with pytest.raises(NoDecayFitError):
            intersection_bound_check(
                DOUBLING, f, RadiusLadder.dyadic(3, 10), k=4, j=2, seed=0,
                n_samples=1_000,
                decay=DecayFit(DECAY_INCONCLUSIVE, None, None, (), None),
            )

    def test_index_validation(self, decay):
        f = DistToPoint((0.375,))
        with pytest.raises(ValueError):
            intersection_bound_check(DOUBLING, f, RadiusLadder.dyadic(3, 10),
                                     k=2, j=2, seed=0, n_samples=1000, decay=decay)
        with pytest.raises(ValueError):
            intersection_bound_check(DOUBLING, f, RadiusLadder.dyadic(3, 6),
                                     k=9, j=2, seed=0, n_samples=1000, decay=decay)


def test_cosine_frequency_is_bounded():
    assert cosine_wave(MAX_FREQUENCY).lipschitz == 2.0 * math.pi * MAX_FREQUENCY
    assert cosine_wave(-MAX_FREQUENCY).lipschitz == 2.0 * math.pi * MAX_FREQUENCY
    for freq in (MAX_FREQUENCY + 1, -MAX_FREQUENCY - 1, 10 ** 300):
        with pytest.raises(ValueError, match="frequency"):
            cosine_wave(freq)


def test_series_validation():
    with pytest.raises(ValueError):
        CorrelationSeries((3, 2), (0.1, 0.1), (0.0, 0.0), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        CorrelationSeries((1, 2), (-0.1, 0.1), (0.0, 0.0), (1, 1), (1, 1))


def test_cosine_lipschitz_constant_is_positive_for_negative_frequencies():
    phi = cosine_wave(-3)
    assert phi.lipschitz == cosine_wave(3).lipschitz == 2.0 * math.pi * 3 > 0
    assert phi.sup_bound + phi.lipschitz > phi.sup_bound
