"""Correlation estimation for Lipschitz observables, decay-rate fits, and a
numerical consistency check of the sublevel intersection bound.

Correlation here means Cov(phi o T^n, psi) estimated over invariant samples.
A test function is anything with ``values``, ``sup_bound`` and
``lipschitz``: the ``LipschitzFunction``s built here, or an observable itself.
Norms follow the sup + Lipschitz convention, with the two terms recorded
separately.  The decay fit compares an exponential model against a
power law on the lags that clear the noise floor (3x the half-width); the
fitted envelope, inflated by its residual, stands in for the unknowable true
decay function when bounding intersection measures.

A correlation holds one float column per lag and never a whole exact
sample.  On the doubling reservoir the estimate draws its byte rows once,
in the parent, and maps its lags over the workers (``parallel.pmap``).  On
the orbit engines (cat, rotations, Manneville-Pomeau) it maps groups of
sample points over the workers, each group drawing and stepping its own
points.  Either way every sum runs over the whole sample in one order, and
each covariance is computed in its lag's column, so the bytes are the same
at any worker count.  The joint preimage counts of the intersection check
step their groups in process.
"""

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateSeriesError, NoDecayFitError
from .observables import (
    MAX_FREQUENCY,
    Z_95,
    MeasureEstimate,
    estimate_measure,
    fit_line,
)
from .parallel import pmap
from .points import FloatPoint
from .rand import master_rng, subseed
from .reservoir import bulk_window_floats
from .systems import Doubling, MannevillePomeau

NOISE_FLOOR_FACTOR = 3.0
MIN_USABLE_LAGS = 6
DECAY_FIT_HINT = (f"a fast-mixing system's correlations (cat's, for one) fall below the noise "
                  f"floor before {MIN_USABLE_LAGS} lags; for intersection-bound, change "
                  "decay_phi, decay_lags or decay_samples (more samples lower the floor)")
_CHUNK = 1 << 15  # reservoir samples, or orbit rows, per chunk
_SLAB = 1 << 10  # dyadicmix rows per pass through its (rows, depth + 1) buffer


@dataclass(frozen=True)
class LipschitzFunction:
    """Bounded Lipschitz test function with its norm data."""

    fn: object  # callable on (n, d) coordinate arrays
    sup_bound: float
    lipschitz: float

    def values(self, coords):
        return self.fn(coords)


def _cosine_values(freq, coords):
    return np.cos(2.0 * math.pi * freq * np.asarray(coords, dtype=float)[:, 0])


def cosine_wave(freq):
    """cos(2 pi k x_1); a single Fourier mode of the first coordinate."""
    if abs(freq) > MAX_FREQUENCY:
        raise ValueError(f"frequency must lie in -{MAX_FREQUENCY}..{MAX_FREQUENCY}")
    return LipschitzFunction(partial(_cosine_values, freq), 1.0, 2.0 * math.pi * abs(freq))


def _constant_values(c, coords):
    return np.full(np.asarray(coords).shape[0], c)


def constant_function(c):
    return LipschitzFunction(partial(_constant_values, float(c)), abs(float(c)), 0.0)


def _dyadic_mix_values(freqs, weights, coords):
    """cos(outer(angles, freqs)) @ weights, bit for bit, one slab of rows at a
    time in one reused buffer.  A one-row tail joins the slab before it:
    numpy takes a one-row matmul as a dot product, which sums in another order."""
    angles = 2.0 * math.pi * np.asarray(coords, dtype=float)[:, 0]
    out = np.empty(len(angles))
    buf = np.empty((min(_SLAB + 1, len(angles)), len(freqs)))
    bounds = [*range(0, max(len(angles) - 1, 1), _SLAB), len(angles)]
    for lo, hi in zip(bounds, bounds[1:]):
        terms = buf[:hi - lo]
        np.multiply(angles[lo:hi, None], freqs, out=terms)
        np.cos(terms, out=terms)
        np.matmul(terms, weights, out=out[lo:hi])
    return out


def dyadic_harmonic_mix(depth=10):
    """sum_j 2^-j cos(2 pi 2^j x_1) for j = 0..depth.

    Unlike distance observables (triangle waves carry only odd harmonics,
    so their doubling autocorrelations vanish identically), this mix couples
    across octaves: under the doubling map its autocovariance is exactly
    (2/3) 2^-n (1 - 4^(n-depth-1)) for n <= depth, a clean exponential with
    a closed form to test against.
    """
    # float64 coordinates carry 53 bits; higher octaves are constant
    if not 0 <= depth <= 52:
        raise ValueError(f"dyadicmix depth must lie in 0..52, got {depth}")
    # powers of two, so each float product equals the integer-frequency one
    freqs = 2.0 ** np.arange(depth + 1)
    weights = 2.0 ** -np.arange(depth + 1)
    lip = float(2.0 * math.pi * (depth + 1))
    return LipschitzFunction(partial(_dyadic_mix_values, freqs, weights),
                             float(weights.sum()), lip)


@dataclass(frozen=True)
class CorrelationSeries:
    """|Cov(phi o T^n, psi)| estimates over a set of lags."""

    lags: tuple
    values: tuple
    half_widths: tuple
    phi_norm: tuple  # (sup, lipschitz)
    psi_norm: tuple

    def __post_init__(self):
        lags = tuple(int(n) for n in self.lags)
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError("lags must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("correlation magnitudes are non-negative")
        object.__setattr__(self, "lags", lags)

    def usable(self):
        """Indices of lags above the noise floor."""
        return [i for i, (v, hw) in enumerate(zip(self.values, self.half_widths))
                if v > NOISE_FLOOR_FACTOR * hw]


def _reservoir_rows(byte_seed, n_samples, max_lag):
    """Raw byte rows of ``n_samples`` doubling reservoir points, wide enough
    for the window at bit offset ``max_lag`` (windows at bit offset n are
    the orbit), drawn from ``byte_seed`` one chunk of rows at a time."""
    rng = master_rng(byte_seed)
    rows = np.empty((n_samples, (max_lag + 64) // 8 + 2), dtype=np.uint8)
    for lo in range(0, n_samples, _CHUNK):
        part = rows[lo:lo + _CHUNK]
        part[:] = rng.integers(0, 256, size=part.shape, dtype=np.uint8)
    return rows


def _reservoir_column(rows, fn, lag):
    """fn at time ``lag`` along the orbits of the reservoir points ``rows``."""
    column = np.empty(len(rows))
    for lo in range(0, len(rows), _CHUNK):
        column[lo:lo + _CHUNK] = fn.values(
            bulk_window_floats(rows[lo:lo + _CHUNK], lag).reshape(-1, 1))
    return column


def _lagged_values(system, fns, lags, byte_seed, point_seed, n_samples, workers=1):
    """fns[i] at time lags[i] along the orbits of ``n_samples`` invariant
    sample points: yields one whole column per lag, in order.

    Doubling reservoir points are raw byte rows drawn from ``byte_seed``,
    and each column is read from them when asked for.  Other systems step
    groups of ``_CHUNK // (max_lag + 1)`` points of the ``point_seed``
    sample together (``orbit_batch``), one ``pmap`` task per group, and each
    task returns only its rows of the columns, which are joined column by
    column.  An exact engine's task draws its own points
    (``sample_invariant``'s index range); Manneville-Pomeau's sample is one
    orbit, drawn here as floats, which the tasks read through the fork.
    """
    if isinstance(system, Doubling):
        rows = _reservoir_rows(byte_seed, n_samples, max(lags))
        for fn, lag in zip(fns, lags):
            yield _reservoir_column(rows, fn, lag)
        return
    max_lag = max(lags)
    group = max(1, _CHUNK // (max_lag + 1))
    if isinstance(system, MannevillePomeau):
        floats = system.sample_invariant_floats(point_seed, n_samples)
        draw = lambda lo: [FloatPoint(tuple(x)) for x in floats[lo:lo + group]]
    else:
        draw = lambda lo: system.sample_invariant(point_seed, min(group, n_samples - lo), lo)

    def group_rows(lo):
        vals = system.orbit_batch(draw(lo), 0, max_lag + 1)
        return [fn.values(vals[:, lag]) for fn, lag in zip(fns, lags)]

    parts = pmap(group_rows, range(0, n_samples, group), workers)
    for _ in fns:  # each column's group rows go as it is joined
        yield np.concatenate([part.pop(0) for part in parts])


def _covariance(phi, psi_c):
    """(|Cov|, 95 % half-width) of a phi column against the centered psi
    column, computed in ``phi``, which it overwrites; the half-width comes
    from the sample variance of the centered products (normal
    approximation).  The steps are the float operations of
    ``prod = (phi - phi.mean()) * psi_c`` and of numpy's
    ``prod.std(ddof=1)``, in their order, so the bytes are theirs."""
    n = len(phi)
    phi -= phi.mean()
    phi *= psi_c
    mean = float(phi.mean())
    phi -= mean
    phi *= phi
    std = math.sqrt(float(phi.sum()) / (n - 1))
    return abs(mean), Z_95 * std / math.sqrt(n)


def _checked_lags(lags):
    """``lags`` as a tuple of ints; ValueError unless they are integers >= 0,
    strictly increasing."""
    try:
        lags = tuple(operator.index(n) for n in lags)
    except TypeError:
        raise ValueError(f"lags must be integers, got {lags!r}") from None
    if not lags or lags[0] < 0 or any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValueError(f"lags must be integers >= 0, strictly increasing, got {lags}")
    return lags


# n_samples stays the sixth positional argument: perfbench's span counter
# (tracing._correlation_samples) reads it from args[5]
def estimate_correlation(system, phi, psi, lags, seed, n_samples, workers=1):
    """Monte Carlo |Cov(phi o T^n, psi)| for each lag n, with 95 % half-widths.

    ``lags`` must be integers >= 0, strictly increasing (ValueError before
    any draw otherwise).  On the doubling reservoir ``pmap`` maps the lags
    themselves over the workers; every lag reads the one sample and the
    centered psi, which reach the workers through the fork.  Orbit engines
    map groups of sample points over the workers (``_lagged_values``).  Each
    sum runs over the same arrays in the same order, so the bytes do not
    depend on ``workers``.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    lags = _checked_lags(lags)
    byte_seed = subseed(seed, "corr-bytes")
    if isinstance(system, Doubling):
        rows = _reservoir_rows(byte_seed, n_samples, max(lags))
        psi_c = _reservoir_column(rows, psi, 0)
        psi_c -= psi_c.mean()
        pairs = pmap(lambda lag: _covariance(_reservoir_column(rows, phi, lag), psi_c), lags,
                     workers)
    else:
        lagged = _lagged_values(system, (psi,) + (phi,) * len(lags), (0, *lags), byte_seed,
                                seed, n_samples, workers)
        psi_c = next(lagged)
        psi_c -= psi_c.mean()
        pairs = [_covariance(column, psi_c) for column in lagged]
    return CorrelationSeries(
        lags=lags,
        values=tuple(v for v, _ in pairs),
        half_widths=tuple(hw for _, hw in pairs),
        phi_norm=(phi.sup_bound, phi.lipschitz),
        psi_norm=(psi.sup_bound, psi.lipschitz),
    )


DECAY_EXPONENTIAL = "exponential"
DECAY_POLYNOMIAL = "polynomial"
DECAY_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DecayFit:
    """Fitted correlation decay model.

    kind "exponential" means amplitude * exp(-rate n); "polynomial" means
    amplitude * n^-rate.  ``amplitude`` is already inflated by the rms fit
    residual, so the fit acts as an envelope rather than a best guess.
    """

    kind: str
    rate: float | None
    amplitude: float | None
    fit_window: tuple
    residual: float | None

    def envelope(self, n):
        """Decay envelope at lag n; undefined for inconclusive fits."""
        if self.kind == DECAY_EXPONENTIAL:
            return self.amplitude * math.exp(-self.rate * n)
        if self.kind == DECAY_POLYNOMIAL:
            return self.amplitude * float(n) ** -self.rate
        raise NoDecayFitError("inconclusive decay fit has no envelope")


def fit_decay(series):
    """Classify a correlation series as exponential or power-law decay.

    Lags below the noise floor are excluded.  With no usable lags the
    verdict is inconclusive; with fewer than MIN_USABLE_LAGS the series is
    degenerate; otherwise the lower-residual model wins.
    """
    idx = series.usable()
    if not idx:
        return DecayFit(DECAY_INCONCLUSIVE, None, None, (), None)
    if len(idx) < MIN_USABLE_LAGS:
        raise DegenerateSeriesError(
            f"only {len(idx)} lags above the noise floor; need {MIN_USABLE_LAGS}: {DECAY_FIT_HINT}"
        )
    ns = np.array([series.lags[i] for i in idx], dtype=float)
    logv = np.log([series.values[i] for i in idx])

    slope_e, icept_e, _ = fit_line(ns, logv)
    sse_e = float(((logv - (icept_e + slope_e * ns)) ** 2).sum())
    slope_p, icept_p, _ = fit_line(np.log(ns), logv)
    sse_p = float(((logv - (icept_p + slope_p * np.log(ns))) ** 2).sum())

    window = (int(ns[0]), int(ns[-1]))
    candidates = []
    if slope_e < 0:
        candidates.append((sse_e, DECAY_EXPONENTIAL, -slope_e, icept_e))
    if slope_p < 0:
        candidates.append((sse_p, DECAY_POLYNOMIAL, -slope_p, icept_p))
    if not candidates:
        return DecayFit(DECAY_INCONCLUSIVE, None, None, window, None)
    sse, kind, rate, icept = min(candidates)
    rms = math.sqrt(sse / len(idx))
    return DecayFit(kind, rate, math.exp(icept + rms), window, rms)


def intersection_bound_check(system, f, ladder, k, j, seed, n_samples, decay):
    """Estimate mu{T^k x in S_r_k and T^j x in S_r_j} against its bound.

    Returns (lhs, rhs): lhs a MeasureEstimate, rhs the product of the
    coarser sublevel measures plus the correlation term
    4 lip^2 Phi(k - j) / ((r_{k-1} - r_k)(r_{j-1} - r_j)) evaluated on the
    fitted decay envelope.
    """
    if not k > j >= 1:
        raise ValueError("need k > j >= 1")
    radii = list(ladder)
    if k >= len(radii):
        raise ValueError("ladder does not reach index k")
    if decay is None or decay.kind == DECAY_INCONCLUSIVE:
        raise NoDecayFitError("intersection bound needs a fitted decay envelope, and the "
                              "decay fit is inconclusive: " + DECAY_FIT_HINT)

    lhs = _joint_preimage_measure(system, f, radii[k], radii[j], k, j, seed, n_samples)
    mu_k = estimate_measure(f, radii[k - 1], system, subseed(seed, "mu-k"), n_samples)
    mu_j = estimate_measure(f, radii[j - 1], system, subseed(seed, "mu-j"), n_samples)
    lip = f.lipschitz
    denom = (radii[k - 1] - radii[k]) * (radii[j - 1] - radii[j])
    rhs = mu_k.estimate * mu_j.estimate + 4.0 * lip * lip * decay.envelope(k - j) / denom
    return lhs, rhs


def _joint_preimage_measure(system, f, r_k, r_j, k, j, seed, n_samples):
    at_k, at_j = _lagged_values(system, (f, f), (k, j), subseed(seed, "joint-bytes"),
                                subseed(seed, "joint"), n_samples)
    hits = int(np.count_nonzero((at_k <= r_k) & (at_j <= r_j)))
    return MeasureEstimate.from_hits(hits, n_samples)
