"""Return-time statistics in sublevel targets.

Starts are drawn from the invariant measure conditioned on the target
(direct draws where the target has closed form, rejection sampling
otherwise) and scanned once into a ReturnSample; its first-return times
feed the rescaled survival curve
g(t) = fraction of starts with tau >= t / mu(S_r), the sup distance of that
curve from exp(-t), and the long-return indicator
mu{x in S_r : tau > l / mu(S_r)} / mu(S_r).

Conventions: curves use tau >= threshold, the long-return set uses a strict
inequality, exactly as defined; the two differ only when the threshold is
attained, which cannot happen for non-integer thresholds.  Returns censored
at the cap stay in the numerator up to t = cap * mu and the curve is flagged
beyond.  The caller gives both mu(S_r) and the cap; a cap of 100 mean-return
times, as the return-stats kind derives, truncates a mass of about exp(-100)
under an exponential law.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RejectionStallError
from .hitting import SCAN_CHUNK, first_hits
from .observables import DistToPoint, MeasureEstimate
from .points import FractionPoint, ReservoirPoint
from .rand import master_rng, point_bytes, subseed
from .reservoir import BitReservoir
from .systems import CircleRotation, Doubling, ToralAutomorphism

DEFAULT_T_GRID = tuple(round(0.1 * k, 10) for k in range(51))
STALL_ACCEPTANCE = 1e-6
REJECTION_CHUNK = 65_536  # candidates per rejection stream
REJECTION_FIRST = 256  # candidates in a stream's first prefix; each next is 4 times larger
_STALL_CHECK_AFTER = 2_000_000
_EDGE_GUARD = 2.0 ** -50


def sample_conditioned(system, f, r, seed, count, max_attempts=20_000_000):
    """``count`` points distributed as the invariant measure restricted to
    {f <= r}: direct draws for interval and disc targets under Lebesgue
    (``direct_window``), rejection sampling otherwise."""
    if count < 1:
        raise ValueError("count must be >= 1")
    window = direct_window(system, f, r)
    if window is None:
        return _rejection_sample(system, f, r, seed, count, max_attempts)
    if f.dim == 2:
        return _disc_dyadic_points(f.target, window, system.precision_bits, seed, count)
    if isinstance(system, Doubling):
        return _interval_reservoir_points(*window, seed, count)
    return _interval_dyadic_points(*window, system.precision_bits, seed, count)


def direct_window(system, f, r):
    """Where a direct draw of {f <= r} puts its starts: a disc's reach, its
    radius less an edge guard that also covers its truncation to a lattice
    coarser than a float, or an interval's lowest and highest lattice
    numerators; None for a rejection-sampled target.  ValueError when the
    target holds no admissible start."""
    if not (system.lebesgue and isinstance(f, DistToPoint)):
        return None
    if f.dim == 2 and isinstance(system, ToralAutomorphism) and r <= 0.5:
        bits = system.precision_bits
        guard = _EDGE_GUARD + (math.sqrt(2.0) * 2.0 ** -bits if bits < 53 else 0.0)
        if r <= guard:
            raise ValueError(f"radius {r!r} does not exceed the disc sampler's edge guard "
                             f"{guard!r} at {bits} bits")
        return r - guard
    if f.dim != 1 or not isinstance(system, (Doubling, CircleRotation)):
        return None
    bits = 64 if isinstance(system, Doubling) else system.precision_bits
    center, r = f.target[0], min(r, 0.5)
    lo = int(math.ceil((center - r + _EDGE_GUARD) * (1 << bits)))
    hi = int(math.floor((center + r - _EDGE_GUARD) * (1 << bits)))
    if r <= _EDGE_GUARD or lo > hi:
        raise ValueError(f"no point of the 2^-{bits} lattice lies within the radius {r!r}, "
                         f"less the edge guard 2^-50, of {center!r}")
    return lo, hi


def _interval_reservoir_points(lo, hi, seed, count):
    # The prefix must carry full 64-bit entropy: drawing a float and scaling
    # leaves its low ~11 bits zero, and those zero blocks slide through the
    # observation window and align onto dyadic targets, faking short returns.
    rng = master_rng(subseed(seed, "conditioned-prefix"))
    scale = 1 << 64
    draws = rng.integers(0, hi - lo + 1, size=count, dtype=np.uint64).tolist()
    return [ReservoirPoint(BitReservoir(seed, i, prefix=((lo + d) % scale).to_bytes(8, "big")))
            for i, d in enumerate(draws)]


def _interval_dyadic_points(lo, hi, bits, seed, count):
    scale, span = 1 << bits, hi - lo + 1
    return [FractionPoint.on_lattice(((lo + int.from_bytes(raw, "big") % span) % scale,), scale)
            for raw in point_bytes(subseed(seed, "conditioned"), count, (bits + 7) // 8 + 8)]


def _disc_dyadic_points(center, reach, bits, seed, count):
    # polar draw at float resolution, low-order bits topped up with fresh
    # randomness so the points do not sit on a coarse dyadic sublattice.
    # Stream layout per start: two doubles (words 0 and 1), then each
    # coordinate's tail as Generator.bytes would give it: a draw of k bytes
    # takes ceil(k / 4) 32-bit halves, so the second tail starts
    # 4 * ceil(k / 4) bytes after the first
    scale = 1 << bits
    cx, cy = center
    head_bits, low_bits = min(bits, 53), max(bits - 53, 0)
    tail = (low_bits + 7) // 8
    second = 16 + 4 * -(-tail // 4)
    drop = tail * 8 - low_bits
    points = []
    for raw in point_bytes(subseed(seed, "conditioned"), count, second + tail):
        u, v = [(int.from_bytes(raw[k:k + 8], "little") >> 11) * 2.0 ** -53 for k in (0, 8)]
        rho = reach * math.sqrt(u)
        theta = 2.0 * math.pi * v
        nums = []
        for c, off, at in ((cx, rho * math.cos(theta), 16), (cy, rho * math.sin(theta), second)):
            head = int(((c + off) % 1.0) * (1 << head_bits)) % (1 << head_bits)
            low = int.from_bytes(raw[at:at + tail], "big") >> drop
            nums.append((head << low_bits) | low)
        points.append(FractionPoint.on_lattice(nums, scale))
    return points


def _rejection_sample(system, f, r, seed, count, max_attempts):
    accepted = []
    attempts = 0
    stream = 0
    while len(accepted) < count:
        # candidates are the engine's own points, tested at their floats; a
        # stream is drawn in growing prefixes until one holds the points
        # still needed (sample_invariant is prefix-stable), an empty prefix
        # going straight to the whole chunk, and counts as a whole chunk
        need, size = count - len(accepted), REJECTION_FIRST
        while True:
            size = min(size, REJECTION_CHUNK)
            candidates = system.sample_invariant(subseed(seed, f"rej{stream}"), size)
            keep = np.flatnonzero(f.values(system.orbit_batch(candidates, 0, 1)[:, 0]) <= r)
            if keep.size >= need or size == REJECTION_CHUNK:
                break
            size = 4 * size if keep.size else REJECTION_CHUNK
        accepted += [candidates[i] for i in keep[:need]]
        attempts += REJECTION_CHUNK
        stream += 1
        if attempts >= _STALL_CHECK_AFTER or attempts >= max_attempts:
            rate = len(accepted) / attempts
            if rate < STALL_ACCEPTANCE:
                raise RejectionStallError(
                    f"acceptance rate {rate:.2e} after {attempts} draws"
                )
            if attempts >= max_attempts and len(accepted) < count:
                raise RejectionStallError(
                    f"only {len(accepted)}/{count} accepted in {max_attempts} draws"
                )
    return accepted


def _scan_chunk(mean_return):
    """Rows a return scan steps each start by: half a mean return, in 64..2048."""
    return max(64, int(min(4 * mean_return, 1 << 14)) // 8)


def conditioned_return_times(system, f, r, seed, count, cap, chunk=SCAN_CHUNK):
    """First-return times of conditioned starts, stepped ``chunk`` rows at a
    time; censored entries hold cap.

    Returns (taus, censored): int64 array and boolean mask, index-aligned
    with sample_conditioned(system, f, r, seed, count).
    """
    points = sample_conditioned(system, f, r, seed, count)
    taus, censored = first_hits(system, points, f, [float(r)], cap, chunk)
    return taus[:, 0], censored[:, 0]


@dataclass(frozen=True, eq=False)
class ReturnSample:
    """First-return times of the conditioned starts in one target.

    Every return statistic (curve, Kac product, long-return indicators) is a
    pure function of one sample, so a run draws and scans its starts once.
    """

    radius: float
    measure: float
    cap: int
    taus: np.ndarray  # int64; censored entries hold cap
    censored: np.ndarray  # bool, index-aligned with taus


def return_sample(system, f, r, seed, count, cap, measure):
    """Draw ``count`` starts conditioned on {f <= r} and scan their returns
    up to ``cap`` steps; ``measure`` is mu(S_r), which rescales the times."""
    if measure <= 0:
        raise ValueError("target has vanishing measure estimate")
    taus, censored = conditioned_return_times(system, f, r, seed, count, cap,
                                              chunk=_scan_chunk(1.0 / measure))
    return ReturnSample(radius=float(r), measure=float(measure), cap=int(cap),
                        taus=taus, censored=censored)


@dataclass(frozen=True)
class ReturnCurve:
    """Empirical rescaled survival function of return times."""

    radius: float
    measure: float
    t_grid: tuple
    g_values: tuple
    sample_count: int
    cap: int
    censored_count: int
    flagged: tuple  # grid points where censoring leaves g an upper bound

    def __post_init__(self):
        g = self.g_values
        if any(b > a + 1e-12 for a, b in zip(g, g[1:])):
            raise ValueError("survival curve must be non-increasing")
        if any(not 0.0 <= v <= 1.0 for v in g):
            raise ValueError("survival values lie in [0, 1]")


def return_curve(sample, t_grid=DEFAULT_T_GRID):
    """Empirical g(t) = fraction of conditioned starts with tau >= t/mu."""
    taus, censored, mu = sample.taus, sample.censored, sample.measure
    grid = tuple(float(t) for t in t_grid)
    n_censored = int(censored.sum())
    return ReturnCurve(
        radius=sample.radius, measure=mu, t_grid=grid,
        g_values=tuple(int(np.count_nonzero((taus >= t / mu) | censored)) / len(taus)
                       for t in grid),
        sample_count=len(taus), cap=sample.cap, censored_count=n_censored,
        flagged=tuple(t / mu > sample.cap and n_censored > 0 for t in grid),
    )


def exp_law_distance(curve):
    """sup over the grid of |g(t) - exp(-t)|."""
    return max(
        abs(g - math.exp(-t)) for t, g in zip(curve.t_grid, curve.g_values)
    )


def triviality_indicator(sample, l_value):
    """Empirical mu{x in S_r : tau > l/mu} / mu(S_r), as a MeasureEstimate.

    Reads the same sample as return_curve, so the indicator at l equals the
    curve at t = l whenever l/mu is not an attained integer.
    """
    n = len(sample.taus)
    threshold = l_value / sample.measure
    hits = int(np.count_nonzero((sample.taus > threshold) | sample.censored))
    return MeasureEstimate.from_hits(hits, n)


def kac_statistic(sample):
    """(mean return time * mu, stderr of that product) over the sample.

    Kac's lemma makes the expectation exactly 1 for ergodic systems;
    censored returns enter at the cap, biasing the mean down by at most the
    censored tail mass.
    """
    scaled = sample.taus * sample.measure
    return float(scaled.mean()), float(scaled.std(ddof=1) / math.sqrt(len(scaled)))


def count_jump_clusters(curve):
    """Number of maximal runs of consecutive grid steps where g decreases.

    A pure step-function limit (rotations) shows as a handful of clusters;
    an exponential limit decreases at almost every grid step.
    """
    drops = [False] + [b < a for a, b in zip(curve.g_values, curve.g_values[1:])]
    return sum(d and not prev for prev, d in zip(drops, drops[1:]))
