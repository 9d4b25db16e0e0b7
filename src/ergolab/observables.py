"""Nonnegative Lipschitz observables and their sublevel-set statistics.

An observable f >= 0 induces targets {f <= r} (boundary inclusive).  This
module provides the observable catalog, the linear mollifier interpolating
between nested sublevel indicators, the sublevel measures mu{f <= r}, and
the log-log slope estimator for the sublevel scaling exponents (the lim sup /
lim inf analogues of local dimension).  One resolver, ``_closed_form``, gives
an observable's Lebesgue law and exponent; one helper, ``_mc_hits``, draws and
counts every Monte Carlo sample, and ``MeasureEstimate.from_hits`` turns each
count into an estimate.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from statistics import NormalDist

import numpy as np

from .errors import DegenerateLadderError
from .grammar import Rule, parse_axes, parse_numbers, parse_spec
from .points import torus_distances

# largest |k| of the cos:<k> and wave:<k> Fourier modes: k x then keeps at
# least 33 of a coordinate's 53 bits below the period
MAX_FREQUENCY = 1 << 20


Z_95 = NormalDist().inv_cdf(0.5 + 0.95 / 2.0)  # the normal quantile of every 95 % interval


def binomial_half_width(hits, n):
    """Normal-approximation 95 % half-width for hits/n, smoothed away from 0 and 1."""
    smoothed = (hits + 0.5) / (n + 1.0)
    return Z_95 * math.sqrt(smoothed * (1.0 - smoothed) / n)


# ---------------------------------------------------------------------------
# observable catalog


@dataclass(frozen=True)
class DistToPoint:
    """f(x) = quotient-metric distance to a fixed target point."""

    target: tuple

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(float(t) for t in self.target))

    lipschitz = 1.0

    @property
    def dim(self):
        return len(self.target)

    @property
    def sup_bound(self):
        return math.sqrt(self.dim) / 2.0

    def values(self, coords):
        return torus_distances(np.asarray(coords, dtype=float), np.array(self.target))


@dataclass(frozen=True)
class DistToProjectedPoint:
    """Distance from selected coordinates to a target in the projected torus."""

    axes: tuple
    target: tuple

    def __post_init__(self):
        axes = tuple(int(a) for a in self.axes)
        target = tuple(float(t) for t in self.target)
        if len(axes) != len(target) or len(set(axes)) != len(axes):
            raise ValueError("one target value per projected coordinate, each distinct")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "target", target)

    lipschitz = 1.0

    @property
    def sup_bound(self):
        return math.sqrt(len(self.axes)) / 2.0

    def values(self, coords):
        sub = np.asarray(coords, dtype=float)[:, list(self.axes)]
        return torus_distances(sub, np.array(self.target))


@dataclass(frozen=True)
class PushforwardDist:
    """f(x) = distance from F(x) to a fixed image point y0.

    ``image_map`` is any observation map exposing apply(), image_distances()
    and a Lipschitz constant (see ergolab.observed).
    """

    image_map: object
    image_point: tuple

    def __post_init__(self):
        object.__setattr__(self, "image_point", tuple(float(v) for v in self.image_point))

    @property
    def lipschitz(self):
        return self.image_map.lipschitz

    @property
    def sup_bound(self):
        return self.image_map.distance_sup

    def values(self, coords):
        return self.image_map.image_distances(np.asarray(coords, dtype=float), self.image_point)


@dataclass(frozen=True)
class Slack:
    """f(x) = max(0, inner(x) - margin): fattened sublevels {inner <= margin + r}."""

    inner: object
    margin: float

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be non-negative")

    @property
    def lipschitz(self):
        return self.inner.lipschitz

    @property
    def sup_bound(self):
        return self.inner.sup_bound

    def values(self, coords):
        return np.maximum(self.inner.values(coords) - self.margin, 0.0)


@dataclass(frozen=True)
class WeightedSum:
    """Positive combination sum_i w_i f_i of observables."""

    terms: tuple  # of (weight, observable)

    def __post_init__(self):
        terms = tuple((float(w), f) for w, f in self.terms)
        if not terms or any(w <= 0 for w, _ in terms):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "terms", terms)

    @property
    def lipschitz(self):
        return sum(w * f.lipschitz for w, f in self.terms)

    @property
    def sup_bound(self):
        return sum(w * f.sup_bound for w, f in self.terms)

    def values(self, coords):
        out = self.terms[0][0] * self.terms[0][1].values(coords)
        for w, f in self.terms[1:]:
            out += w * f.values(coords)
        return out


def evaluate(f, point):
    """f at a single phase point."""
    return float(f.values(point.float_coords().reshape(1, -1))[0])


def torus_target(target, dim, periodic=True):
    """``target`` when it has ``dim`` coordinates, each in [0, 1) on a
    periodic codomain (differences fold correctly only there) and any finite
    value on a flat one; else ValueError."""
    if len(target) != dim or periodic and not all(0.0 <= t < 1.0 for t in target):
        where = " in [0, 1)" if periodic else ""
        raise ValueError(f"target needs {dim} coordinates{where}: {target}")
    return target


def _projdist(text, dim):
    axes, _, target = text.partition(":")
    axes = parse_axes(axes, dim)
    return DistToProjectedPoint(axes, torus_target(parse_numbers(target), len(axes)))


def _slack(text, dim):
    margin, _, inner = text.partition(":")
    (margin,) = parse_numbers(margin)
    return Slack(parse_observable(inner, dim), margin)


def _pushdist(text, dim):
    from .observed import parse_observation_map

    map_spec, _, image = text.rpartition(":")
    image_map = parse_observation_map(map_spec, dim)
    return PushforwardDist(image_map, torus_target(parse_numbers(image), image_map.codomain_dim,
                                                   image_map.periodic_codomain))


OBSERVABLE_RULES = {
    "dist:": Rule(lambda text, dim: DistToPoint(torus_target(parse_numbers(text), dim)),
                  "<c1,..,cd>", "distance to a point of [0, 1)^d"),
    "projdist:": Rule(_projdist, "<axes>:<coords>",
                      "distance in the listed coordinates (1-based, distinct)"),
    "slack:": Rule(_slack, "<m>:<rule>", "max(0, f - m) for the inner rule f"),
    "pushdist:": Rule(_pushdist, "<map>:<image>",
                      "distance of F(x) to a finite image point, F an observation map"),
}


def parse_observable(spec, dim):
    """The observable a config rule names on T^dim (see ``OBSERVABLE_RULES``)."""
    return parse_spec(OBSERVABLE_RULES, "observable rule", spec, dim)


# ---------------------------------------------------------------------------
# radius ladders


@dataclass(frozen=True)
class RadiusLadder:
    """Strictly decreasing radii r_0 > ... > r_K with gap r_{k+1} > c * r_k."""

    radii: tuple
    gap_constant: float = None

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if len(radii) < 2:
            raise ValueError("ladder needs at least two rungs")
        if radii[-1] <= 0:
            raise ValueError("radii must be positive")
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        ratios = [b / a for a, b in zip(radii, radii[1:])]
        c = self.gap_constant
        if c is None:
            c = min(ratios) * (1.0 - 1e-12)
        if not 0 < c < 1:
            raise ValueError("gap constant must lie in (0, 1)")
        if any(rat <= c for rat in ratios):
            raise ValueError(f"gap condition violated: some r_k+1/r_k <= c = {c}")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "gap_constant", c)

    @classmethod
    def dyadic(cls, start_exp, stop_exp, per_octave=1):
        """Radii 2^-e for e = start_exp .. stop_exp in steps of 1/per_octave."""
        n = int(round((stop_exp - start_exp) * per_octave))
        exps = [start_exp + k / per_octave for k in range(n + 1)]
        return cls(tuple(2.0 ** -e for e in exps))

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return iter(self.radii)


# ---------------------------------------------------------------------------
# mollifier


def mollifier_values(f, r_prev, r, coords):
    """Linear interpolation between the indicators of S_r and S_r_prev.

    1 inside S_r, 0 outside S_r_prev, (r_prev - f)/(r_prev - r) between; its
    Lipschitz constant is lip(f)/(r_prev - r).
    """
    if not 0 < r < r_prev:
        raise ValueError("need 0 < r < r_prev")
    vals = f.values(coords)
    return np.clip((r_prev - vals) / (r_prev - r), 0.0, 1.0)


def mollifier(f, r_prev, r, point):
    return float(mollifier_values(f, r_prev, r, point.float_coords().reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# measures


@lru_cache(maxsize=None)
def _ball_volume(k):
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def _closed_form(f):
    """(law, exponent) of f under Lebesgue measure, or None.

    ``law`` maps an array of radii r >= 0 to the float64 array of mu{f <= r},
    or to None when some radius has no closed form.  ``exponent`` is the
    limiting sublevel exponent lim log mu{f <= r} / log r, or None when the
    closed form does not pin it.
    """
    if isinstance(f, (DistToPoint, DistToProjectedPoint)):
        return partial(_ball_measures, len(f.target)), float(len(f.target))
    if isinstance(f, Slack) and (inner := _closed_form(f.inner)) is not None:
        at_margin = inner[0](np.array([f.margin]))
        return (lambda radii: inner[0](radii + f.margin),
                0.0 if at_margin is not None and at_margin[0] > 0 else None)
    if isinstance(f, PushforwardDist) and hasattr(f.image_map, "sublevel_measure"):
        image_map = f.image_map
        return partial(_pointwise, image_map.sublevel_measure), image_map.sublevel_dimension()
    return None


def exact_measure(system, f, r):
    """Closed-form Lebesgue measure of {f <= r}, or None when unavailable.

    Covers distance balls (r <= 1/2 in dimension >= 2; any r in dimension 1),
    coordinate strips, slack-fattened versions of those, and observation maps
    that publish their own sublevel law.  Negative radii have measure 0.

    ``r`` is one radius or a 1-d array of radii.  A scalar gives a float; an
    array gives a float64 array, or None when any radius has no closed form.
    The closed form is resolved once per call, and every array entry equals
    the scalar call on that radius bit for bit.
    """
    radii = np.asarray(r, dtype=float)
    live = ~(radii < 0)
    out = np.zeros(radii.shape)
    if live.any():
        closed = _closed_form(f) if system.lebesgue else None
        vals = closed[0](radii[live]) if closed is not None else None
        if vals is None:
            return None
        out[live] = vals
    return float(out) if out.ndim == 0 else out


def _pointwise(law, radii):
    # scalar Python arithmetic per radius: numpy's array ** rounds
    # differently from scalar ** in some last bits
    vals = [law(r) for r in radii.tolist()]
    if any(v is None for v in vals):
        return None
    return np.array(vals, dtype=float)


def _ball_measures(k, radii):
    if k == 1:
        return np.minimum(2.0 * radii, 1.0)
    return _pointwise(partial(_ball_measure, k), radii)


def _ball_measure(k, r):
    if k == 1:
        return min(2.0 * r, 1.0)
    if r <= 0.5:
        return _ball_volume(k) * r ** k
    if r >= math.sqrt(k) / 2.0:
        return 1.0
    return None


def exact_dimension(system, f):
    """Limiting sublevel exponent when the closed form pins it; else None."""
    closed = _closed_form(f) if system.lebesgue else None
    return closed[1] if closed is not None else None


@dataclass(frozen=True)
class MeasureEstimate:
    """mu(S_r) with a normal-approximation confidence half-width."""

    estimate: float
    half_width: float
    sample_count: int
    exact: bool = False

    @classmethod
    def from_hits(cls, hits, n):
        """The Monte Carlo fraction hits / n with its 95 % half-width."""
        return cls(hits / n, binomial_half_width(hits, n), n)


def _mc_hits(f, radii, system, seed, n_samples):
    """Counts of one invariant sample of ``n_samples`` points in {f <= r},
    one per radius r of ``radii``."""
    vals = f.values(system.sample_invariant_floats(seed, n_samples))
    vals.sort()
    return np.searchsorted(vals, radii, side="right").tolist()


def estimate_measure(f, r, system, seed, n_samples):
    """mu{f <= r}: closed form when available, else a Monte Carlo fraction."""
    closed = exact_measure(system, f, r)
    if closed is not None:
        return MeasureEstimate(closed, 0.0, 0, exact=True)
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    (hits,) = _mc_hits(f, [r], system, seed, n_samples)
    return MeasureEstimate.from_hits(hits, n_samples)


def measure_profile(f, ladder, system, seed, n_samples):
    """Measure estimates for every rung, sharing one invariant sample.

    Sharing the sample makes the profile exactly monotone in r and prices
    the whole ladder at one sampling pass, made only for rungs that lack a
    closed form.
    """
    closed = [exact_measure(system, f, r) for r in ladder]
    open_radii = [r for r, v in zip(ladder, closed) if v is None]
    hits = iter(_mc_hits(f, open_radii, system, seed, n_samples) if open_radii else ())
    return [MeasureEstimate(v, 0.0, 0, exact=True) if v is not None
            else MeasureEstimate.from_hits(next(hits), n_samples) for v in closed]


# ---------------------------------------------------------------------------
# dimension estimation


MIN_EXPECTED_HITS = 20
AGREEMENT_TOLERANCE = 0.1  # widest upper/lower gap that still gives one exponent


def sliding_slopes(x, y, width):
    """Least-squares slopes over every contiguous window of ``width`` points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = []
    for i in range(len(x) - width + 1):
        xs = x[i:i + width]
        ys = y[i:i + width]
        xc = xs - xs.mean()
        out.append(float((xc * (ys - ys.mean())).sum() / (xc * xc).sum()))
    return np.array(out)


def fit_line(x, y):
    """Slope, intercept and slope standard error of a least-squares line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    sxx = float((xc * xc).sum())
    slope = float((xc * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float((resid * resid).sum()) / dof / sxx)
    return slope, intercept, stderr


def window_slopes(x, y, width):
    """The largest and smallest least-squares slopes over the windows of
    ``width`` consecutive points (clamped to 2..len(x)), then the slope over
    all the points and its standard error."""
    slopes = sliding_slopes(x, y, min(max(int(width), 2), len(x)))
    slope, _, stderr = fit_line(x, y)
    return float(slopes.max()), float(slopes.min()), slope, stderr


@dataclass(frozen=True)
class DimensionEstimate:
    """Sliding-window slope summary of log mu(S_r) against log r."""

    d_upper: float
    d_lower: float
    slope: float
    slope_stderr: float
    window: tuple  # (first rung index used, last rung index used)
    profile: tuple = ()  # the measure estimate of every rung

    @property
    def d_point(self):
        """Single exponent when the upper/lower pair agrees, else None."""
        if self.d_upper - self.d_lower <= AGREEMENT_TOLERANCE:
            return 0.5 * (self.d_upper + self.d_lower)
        return None


def estimate_dimension(f, ladder, system, seed, n_per_rung, window=4):
    """Sublevel scaling exponents from log-log slopes over the ladder.

    Rungs whose Monte Carlo estimate would see fewer than MIN_EXPECTED_HITS
    hits are dropped; at least four usable rungs are required.  d_upper and
    d_lower are the extreme sliding-window slopes (default window 4 rungs).
    """
    estimates = measure_profile(f, ladder, system, seed, n_per_rung)
    radii = list(ladder)
    usable = [
        k for k, est in enumerate(estimates)
        if est.estimate > 0 and (est.exact or est.estimate * n_per_rung >= MIN_EXPECTED_HITS)
    ]
    if len(usable) < 4:
        raise DegenerateLadderError(
            f"only {len(usable)} usable rungs; need at least 4"
        )
    x = np.log([radii[k] for k in usable])
    y = np.log([estimates[k].estimate for k in usable])
    return DimensionEstimate(*window_slopes(x, y, window), window=(usable[0], usable[-1]),
                             profile=tuple(estimates))
