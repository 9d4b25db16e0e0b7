"""Hitting times into sublevel targets, power-law exponent fits, and the
shrinking-target counter with its expectation.

Hitting time is the first n >= 1 with f(T^n x) <= r; n = 0 never counts.
Because the sublevels nest, one orbit pass serves a whole radius ladder: a
scan records the first passage below every rung it crosses, and
``estimate_R`` fits the times it gave.  Censored rungs (no hit up to the
cap) are excluded from fits and reported as a censor fraction; fitted
exponents are then lower bounds only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllCensoredError, InvalidBetaError
from .observables import _mc_hits, exact_measure, window_slopes

DEFAULT_SCAN_BLOCK = 1 << 13
SCAN_CHUNK = 1 << 10  # orbit rows a ladder scan steps each start by
SCAN_BATCH_ROWS = 1 << 14  # orbit rows a first_hits step holds, whatever the start count
WINDOW_FRACTION = 0.9


@dataclass(frozen=True)
class HittingRecord:
    """One start's hitting time at one radius; tau None means censored."""

    radius: float
    tau: int | None

    def __post_init__(self):
        if self.tau is not None and self.tau < 1:
            raise ValueError("hitting times count from n = 1")

    @property
    def censored(self):
        return self.tau is None


def first_hits(system, points, f, radii, cap, chunk=SCAN_CHUNK):
    """First n in [1, cap] with f(T^n x) <= r for every start x and every rung
    r of a non-increasing ladder: (taus, censored), (starts, rungs) arrays;
    censored taus hold cap.

    Unresolved starts step in lockstep by ``chunk`` rows, the steps of
    ``orbit_blocks(x, 1, cap + 1, chunk)``, so each sees the floats of its
    own scan, and retire once their deepest rung is hit.  As the sublevels
    nest, the rungs hit are a prefix, and a first passage below the next
    rung hits every rung down to its value.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    radii = np.fromiter(radii, dtype=float)
    taus = np.zeros((len(points), radii.size), dtype=np.int64)  # set at each passage's top rung
    reached = np.zeros(len(points), dtype=np.intp)  # rungs hit so far
    group = max(1, SCAN_BATCH_ROWS // chunk)
    for lo in range(0, len(points) if radii.size else 0, group):  # no rung: no scan
        active = np.arange(lo, min(lo + group, len(points)))
        for n, coords, live in system._blocks(points[lo:lo + group], 1, cap + 1, chunk):
            size = coords.shape[1]
            vals = f.values(coords.reshape(active.size * size, -1)).reshape(-1, size)
            todo = np.arange(active.size)  # rows that may pass their next rung here
            while todo.size:
                hit = vals[todo] <= radii[reached[active[todo]], None]
                new = hit.any(axis=1)
                todo, first = todo[new], hit[new].argmax(axis=1)
                ids = active[todo]
                taus[ids, reached[ids]] = n + first
                reached[ids] = np.searchsorted(-radii, -vals[todo, first], side="right")
                todo = todo[reached[ids] < radii.size]
            live[:] = reached[active] < radii.size  # the rest retire
            active = active[live]
    taus = np.maximum.accumulate(taus, axis=1)  # each passage's tau on every rung it hit
    censored = np.arange(radii.size) >= reached[:, None]
    taus[censored] = cap
    return taus, censored


def ladder_hitting_times(system, x, f, ladder, cap):
    """Hitting records for every rung of a decreasing ladder: ``first_hits``
    of one start, in rung order and non-decreasing in tau."""
    radii = list(ladder)
    taus, censored = first_hits(system, [x], f, radii, cap)
    return [HittingRecord(r, t) for r, t in zip(radii, np.where(censored, None, taus)[0].tolist())]


@dataclass(frozen=True)
class ExponentEstimate:
    """Sliding-window slopes of log tau against -log r for one start point.

    ``exponent`` is the slope over the full usable window; upper/lower are
    the extreme sliding-window slopes.  When any rung was censored the
    estimates are lower bounds only.
    """

    r_upper: float
    r_lower: float
    exponent: float
    pairs: tuple  # of (-log r, log tau) over uncensored rungs
    censor_fraction: float

    def __post_init__(self):
        if self.r_lower > self.r_upper + 1e-9:
            raise ValueError("window extremes out of order")


def default_window(n_usable):
    return max(4, math.ceil(WINDOW_FRACTION * n_usable))


def estimate_R(ladder, taus, window=None):
    """Hitting-exponent estimate of one start from its hitting times over a
    radius ladder, one per rung with None for a censored rung.

    Censored rungs are dropped before fitting.  The default window spans
    ceil(0.9 m) of the m usable rungs, wide enough to tame the log-scale
    noise of single hitting times while keeping distinct windows for the
    lim sup / lim inf split.
    """
    usable = [(r, t) for r, t in zip(ladder, taus) if t is not None]
    # nesting makes tau non-increasing in r; violations would be a scan bug
    if any(a[1] > b[1] for a, b in zip(usable, usable[1:])):
        raise ValueError(f"hitting times must be non-decreasing along the ladder: {taus}")
    if not usable:
        raise AllCensoredError("every rung censored at the cap")
    censor_fraction = 1.0 - len(usable) / len(taus)
    x_pairs = np.array([-math.log(r) for r, _ in usable])
    y_pairs = np.array([math.log(t) for _, t in usable])
    pairs = tuple(zip(x_pairs.tolist(), y_pairs.tolist()))
    if len(usable) == 1:
        return ExponentEstimate(0.0, 0.0, 0.0, pairs, censor_fraction)
    r_upper, r_lower, exponent, _ = window_slopes(x_pairs, y_pairs,
                                                  window or default_window(len(usable)))
    return ExponentEstimate(r_upper, r_lower, exponent, pairs, censor_fraction)


@dataclass(frozen=True)
class BCCounter:
    """Shrinking-target hit counter at index k with its expected value."""

    k: int
    z: int
    expected: float
    ratio: float

    def __post_init__(self):
        if not 0 <= self.z <= self.k + 1:
            raise ValueError("counter outside [0, k+1]")


def power_law_radii(beta, k_max):
    """Radii r_i = i^-beta for i = 0..k_max with the r_0 := 1 convention."""
    tail = np.arange(1, k_max + 1, dtype=float) ** -beta
    return np.concatenate([[1.0], tail])


def bc_checkpoints(k_max):
    """The k at which a counter series reads Z_k: every k up to 1000, else
    about 200 log-spaced k from 0 to k_max."""
    if k_max <= 1000:
        return list(range(k_max + 1))
    marks = np.unique(np.geomspace(1, k_max, 200).astype(int))
    return sorted(set([0, *marks.tolist(), k_max]))


def bc_targets(system, f, beta, k_max, d_upper, measures="exact", seed=0,
               n_samples=200_000):
    """The shrinking targets {f <= r_i} of a Borel-Cantelli run: the radii
    r_i = i^-beta for i = 0..k_max, and the expected counts
    E(Z_k) = sum over i <= k of mu{f <= r_i} at the k of ``bc_checkpoints``.

    beta must satisfy 0 < beta < 1/d_upper, d_upper the upper sublevel
    exponent (closed form or estimated).  The i = 0 rung uses r_0 = 1 with
    its measure clamped to the full space.  measures: "exact" (closed form
    required, else ValueError) or "mc" (empirical sublevel law from one
    invariant sample).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if d_upper > 0 and not 0 < beta < 1.0 / d_upper:
        raise InvalidBetaError(f"beta must lie in (0, {1.0 / d_upper}); got {beta}")
    if beta <= 0:
        raise InvalidBetaError("beta must be positive")
    radii = power_law_radii(beta, k_max)
    expected = np.cumsum(_measures_for(system, f, radii, measures, seed, n_samples))
    return radii, expected[bc_checkpoints(k_max)]


def bc_counter_series(system, x, f, radii, expected):
    """Cumulative counter Z_k of orbit entries into the targets
    {f <= radii[i]} at time i, read at the k of ``bc_checkpoints`` against
    the expected counts there (see ``bc_targets``).
    """
    hits = np.empty(len(radii), dtype=bool)
    for n0, coords in system.orbit_blocks(x, 0, len(radii), block=DEFAULT_SCAN_BLOCK):
        vals = f.values(coords)
        hits[n0:n0 + len(vals)] = vals <= radii[n0:n0 + len(vals)]
    z = np.cumsum(hits)
    return [BCCounter(k=k, z=int(z[k]), expected=float(e), ratio=float(z[k] / e))
            for k, e in zip(bc_checkpoints(len(radii) - 1), expected)]


def _measures_for(system, f, radii, measures, seed, n_samples):
    if measures == "exact":
        mu = exact_measure(system, f, radii)
        if mu is None:
            raise ValueError(
                f"no closed-form measure for some r in [{radii.min()}, {radii.max()}]")
        return mu
    if measures == "mc":
        return np.array(_mc_hits(f, radii, system, seed, n_samples)) / n_samples
    raise ValueError("measures must be 'exact' or 'mc'")
