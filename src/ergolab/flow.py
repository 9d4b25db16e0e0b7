"""Minimal-approach-distance scaling along projected orbits.

For an exactly iterable toral automorphism standing in for a rapidly mixing
time-one map, track d_n = min over i <= n of dist(pi(T^i x), p) for a
coordinate projection pi and target p.  The fitted exponent of -log d_n
against log n estimates the reciprocal of the projected hitting exponent
(prediction: 1/d' with d' the projected dimension).

The least-squares fit runs over the tail of the n-grid (largest three
decades by default: the running minimum moves in rare jumps, and a
single-decade window is dominated by whether one jump happened to land in
it).  Tail-max and tail-median of the pointwise ratios -log d_n / log n are
reported alongside, since a finite run cannot separate lim sup from lim inf.
"""

from dataclasses import dataclass

import numpy as np

from .observables import fit_line
from .points import squared_norms, wrap_deltas


DEFAULT_TAIL_DECADES = 3.0
GRID_PER_DECADE = 40


def log_grid(n_max):
    """Log-spaced integer step indices 1..n_max, about GRID_PER_DECADE a decade."""
    raw = np.geomspace(1, n_max, max(int(np.log10(n_max) * GRID_PER_DECADE), 2))
    return np.unique(np.round(raw).astype(np.int64))


@dataclass(frozen=True)
class ApproachSeries:
    """Running minimum of projected orbit distance with its tail fit."""

    target: tuple
    n_grid: tuple
    d_values: tuple
    exponent: float
    ratio_median: float
    ratio_max: float
    tail_window: tuple  # (n_low, n_high) used by the fit

    def __post_init__(self):
        d = self.d_values
        if any(b > a + 1e-15 for a, b in zip(d, d[1:])):
            raise ValueError("running minima must be non-increasing")
        if self.exponent < -1e-12:
            raise ValueError("approach exponent cannot be negative")


def approach_series(system, projection, x, p, n_grid, tail_decades=DEFAULT_TAIL_DECADES):
    """Minimal approach distances d_n at the grid points, with tail slopes.

    ``projection`` is a CoordinateProjection; ``p`` the projected target
    coordinates.  d_n is the minimum over steps 1..n, computed in one orbit
    pass; the running minimum is taken at the grid's marks only.
    """
    n_grid = np.asarray(n_grid, dtype=np.int64)
    if n_grid.size == 0 or n_grid[0] < 1 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n-grid must be increasing positive integers")
    target = np.asarray(p, dtype=float)
    axes = list(projection.axes)
    n_max = int(n_grid[-1])

    d_at_grid = np.empty(n_grid.size)
    best = np.inf
    lo = 0
    for n0, coords in system.orbit_blocks(x, 1, n_max + 1, block=1 << 14):
        # folded in place: fewer block-sized temporaries, whose churn can make
        # the heap trim and fault its pages in again every block
        deltas = coords[:, axes]  # a copy
        deltas -= target
        dist2 = squared_norms(wrap_deltas(deltas, out=deltas))
        # the running minimum at this block's marks only: each segment up to a
        # mark reduced, then those minima carried forward
        hi = np.searchsorted(n_grid, n0 + len(dist2))
        if hi > lo:
            marks = n_grid[lo:hi] - n0
            seg = np.minimum.reduceat(dist2[:marks[-1] + 1], np.r_[0, marks[:-1] + 1])
            d_at_grid[lo:hi] = np.minimum(np.minimum.accumulate(seg), best)
            lo = hi
        best = min(best, dist2.min())
    d_at_grid = np.sqrt(d_at_grid)

    tail_lo = n_max / 10.0 ** tail_decades
    tail = n_grid >= max(tail_lo, 2)
    if not tail.any():
        tail = n_grid >= n_grid[-1]
    xs = np.log(n_grid[tail].astype(float))
    ys = -np.log(d_at_grid[tail])
    slope = fit_line(xs, ys)[0] if tail.sum() >= 2 else 0.0
    pos = xs > 0
    ratios = ys[pos] / xs[pos] if pos.any() else np.zeros(1)
    return ApproachSeries(
        target=tuple(target.tolist()),
        n_grid=tuple(int(n) for n in n_grid),
        d_values=tuple(float(v) for v in d_at_grid),
        exponent=float(max(slope, 0.0)),
        ratio_median=float(np.median(ratios)),
        ratio_max=float(ratios.max()),
        tail_window=(int(n_grid[tail][0]), int(n_max)),
    )
