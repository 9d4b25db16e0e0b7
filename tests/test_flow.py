import numpy as np
import pytest

from ergolab.flow import ApproachSeries, approach_series, log_grid
from ergolab.observed import CoordinateProjection
from ergolab.points import squared_norms, torus_distance, wrap_deltas
from ergolab.systems import CAT_MATRIX, ToralAutomorphism

CAT = ToralAutomorphism(CAT_MATRIX)
IDENTITY_PROJ = CoordinateProjection((0, 1), 2)
FIRST_PROJ = CoordinateProjection((0,), 2)


def test_single_step_minimum():
    x = CAT.sample_invariant(seed=1, count=1)[0]
    p = (0.2, 0.6)
    series = approach_series(CAT, IDENTITY_PROJ, x, p, [1])
    want = torus_distance(CAT.orbit_window(x, 1).float_coords(), p)
    assert series.d_values[0] == pytest.approx(want)


def test_running_minimum_matches_recompute():
    # recompute each d_n from scratch over the prefix
    x = CAT.sample_invariant(seed=2, count=1)[0]
    p = (0.4, 0.1)
    grid = [1, 2, 5, 17, 60, 200]
    series = approach_series(CAT, IDENTITY_PROJ, x, p, grid)
    orbit = CAT.orbit_batch([x], 1, 201)[0]
    for n, d in zip(series.n_grid, series.d_values):
        byhand = min(torus_distance(orbit[i], p) for i in range(n))
        assert d == pytest.approx(byhand)


@pytest.mark.parametrize("proj,p", [(IDENTITY_PROJ, (0.4, 0.1)), (FIRST_PROJ, (0.7,))])
def test_minima_are_the_whole_orbit_running_minimum(proj, p):
    # marks at step 1, on each side of the 16 384-row block edges, and at
    # n_max; the reference takes the running minimum over every row
    x = CAT.sample_invariant(seed=6, count=1)[0]
    edges = [16_384 * k + e for k in (1, 2) for e in (-1, 0, 1)]
    grid = sorted({1, 2, 100, *edges, 40_000, 50_000})
    series = approach_series(CAT, proj, x, p, grid)
    deltas = CAT.orbit_batch([x], 1, grid[-1] + 1)[0][:, list(proj.axes)] - np.asarray(p)
    running = np.minimum.accumulate(squared_norms(wrap_deltas(deltas)))
    assert series.d_values == tuple(np.sqrt(running[np.array(grid) - 1]).tolist())


def test_minima_non_increasing_and_exponent_positive():
    x = CAT.sample_invariant(seed=3, count=1)[0]
    series = approach_series(CAT, IDENTITY_PROJ, x, (0.3, 0.3), log_grid(20_000))
    diffs = np.diff(series.d_values)
    assert (diffs <= 1e-15).all()
    assert series.exponent >= 0.0
    assert series.tail_window[1] == 20_000


def test_projected_series_uses_projected_distance():
    x = CAT.sample_invariant(seed=4, count=1)[0]
    series = approach_series(CAT, FIRST_PROJ, x, (0.7,), [1, 2, 3])
    orbit = CAT.orbit_batch([x], 1, 4)[0]
    d1 = min(abs(orbit[0, 0] - 0.7), 1 - abs(orbit[0, 0] - 0.7))
    assert series.d_values[0] == pytest.approx(d1)


def test_identity_projection_exponent_near_half():
    # short-run check of the 1/d prediction on T^2; the acceptance suite
    # runs the full-length version
    exps = []
    for i in range(10):
        x = CAT.sample_invariant(seed=50 + i, count=1)[0]
        series = approach_series(CAT, IDENTITY_PROJ, x, (0.31, 0.77), log_grid(30_000))
        exps.append(series.exponent)
    med = float(np.median(exps))
    assert 0.3 <= med <= 0.7


def test_single_coordinate_projection_exponent_near_one():
    exps = []
    for i in range(10):
        x = CAT.sample_invariant(seed=80 + i, count=1)[0]
        series = approach_series(CAT, FIRST_PROJ, x, (0.4,), log_grid(100_000))
        exps.append(series.exponent)
    assert 0.8 <= float(np.median(exps)) <= 1.2


def test_grid_validation():
    x = CAT.sample_invariant(seed=5, count=1)[0]
    with pytest.raises(ValueError):
        approach_series(CAT, IDENTITY_PROJ, x, (0.1, 0.1), [3, 2])
    with pytest.raises(ValueError):
        approach_series(CAT, IDENTITY_PROJ, x, (0.1, 0.1), [0, 2])


def test_series_validation():
    with pytest.raises(ValueError):
        ApproachSeries((0.1,), (1, 2), (0.1, 0.2), 0.5, 0.5, 0.5, (1, 2))
    with pytest.raises(ValueError):
        ApproachSeries((0.1,), (1, 2), (0.2, 0.1), -0.5, 0.5, 0.5, (1, 2))
