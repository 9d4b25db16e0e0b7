"""Observed systems: observation maps, observed hitting times, pushforward
dimension and the finite-difference Jacobian rank check.

Observation maps are smooth as maps of the torus: coordinate projections and
integer-matrix maps respect periodicity (their codomain carries the quotient
metric), circle-wave embeddings land in flat Euclidean space.  Real-matrix
"flat" maps are deliberately absent; they tear at the wrap-around and break
the Lipschitz contract.
"""

import ast
import math
from dataclasses import dataclass

import numpy as np

from .grammar import Rule, parse_axes, parse_numbers, parse_spec
from .hitting import SCAN_CHUNK, HittingRecord
from .observables import MAX_FREQUENCY, PushforwardDist, _ball_measure, estimate_dimension
from .points import squared_norms, wrap_deltas


class _ObservationMap:
    """Each map supplies apply() and whether its codomain is periodic."""

    def image_distances(self, coords, image_point):
        """Distances from F(coords) to image_point in the codomain's metric."""
        deltas = self.apply(coords) - np.asarray(image_point)
        d = wrap_deltas(deltas) if self.periodic_codomain else np.abs(deltas)
        return np.sqrt(squared_norms(d))


@dataclass(frozen=True)
class CoordinateProjection(_ObservationMap):
    """Projection of T^d onto a subset of coordinates (periodic codomain)."""

    axes: tuple
    dim: int

    periodic_codomain = True

    def __post_init__(self):
        axes = tuple(int(a) for a in self.axes)
        if len(set(axes)) != len(axes) or any(not 0 <= a < self.dim for a in axes):
            raise ValueError("invalid projection axes")
        object.__setattr__(self, "axes", axes)

    @property
    def codomain_dim(self):
        return len(self.axes)

    lipschitz = 1.0

    @property
    def distance_sup(self):
        return math.sqrt(len(self.axes)) / 2.0

    def apply(self, coords):
        return np.asarray(coords, dtype=float)[:, list(self.axes)]

    def sublevel_measure(self, r):
        return _ball_measure(len(self.axes), r)

    def sublevel_dimension(self):
        return float(len(self.axes))


@dataclass(frozen=True)
class LinearMap(_ObservationMap):
    """Integer-matrix map of the torus, y = M x mod 1 (periodic codomain).

    Integral entries keep the map continuous on the torus; the matrix need
    not be square or invertible, so rank deficiency is available.
    """

    matrix: tuple

    periodic_codomain = True

    def __post_init__(self):
        mat = tuple(tuple(int(v) for v in row) for row in self.matrix)
        if mat != tuple(tuple(row) for row in self.matrix):
            raise ValueError("matrix entries must be integers")
        if not mat or any(len(row) != len(mat[0]) for row in mat):
            raise ValueError("matrix rows must have equal length")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self):
        return len(self.matrix[0])

    @property
    def codomain_dim(self):
        return len(self.matrix)

    @property
    def lipschitz(self):
        return float(np.linalg.norm(np.array(self.matrix), 2))

    @property
    def distance_sup(self):
        return math.sqrt(self.codomain_dim) / 2.0

    def apply(self, coords):
        y = np.asarray(coords, dtype=float) @ np.array(self.matrix, dtype=float).T
        y -= np.floor(y)
        return y


@dataclass(frozen=True)
class CircleWave(_ObservationMap):
    """Smooth embedding x -> (cos 2 pi k x_a, sin 2 pi k x_a) into flat R^2."""

    frequency: int
    axis: int = 0

    periodic_codomain = False
    codomain_dim = 2

    def __post_init__(self):
        if not 1 <= self.frequency <= MAX_FREQUENCY:
            raise ValueError(f"frequency must lie in 1..{MAX_FREQUENCY}")

    @property
    def lipschitz(self):
        return 2.0 * math.pi * self.frequency

    distance_sup = 2.0

    def apply(self, coords):
        angles = 2.0 * math.pi * self.frequency * np.asarray(coords, dtype=float)[:, self.axis]
        return np.column_stack([np.cos(angles), np.sin(angles)])

    def sublevel_measure(self, r):
        # chord distance 2|sin(pi k u)| <= r has measure (2/pi) asin(r/2)
        if r >= 2.0:
            return 1.0
        return (2.0 / math.pi) * math.asin(r / 2.0)

    def sublevel_dimension(self):
        return 1.0


@dataclass(frozen=True)
class Constant(_ObservationMap):
    """Constant observation map; the degenerate rank-0 case."""

    value: tuple

    periodic_codomain = False
    lipschitz = 0.0
    distance_sup = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in self.value))

    @property
    def codomain_dim(self):
        return len(self.value)

    def apply(self, coords):
        n = np.asarray(coords).shape[0]
        return np.tile(np.array(self.value), (n, 1))

    def sublevel_measure(self, r):
        return 1.0 if r >= 0.0 else 0.0

    def sublevel_dimension(self):
        return 0.0


def _linear(text, dim):
    try:
        lin = LinearMap(tuple(tuple(row) for row in ast.literal_eval(text)))
    except (SyntaxError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"linear map needs an integer matrix [[..], ..]: {exc}") from None
    if lin.dim != dim:
        raise ValueError(f"linear map expects domain dimension {lin.dim}")
    return lin


def _wave(text, dim):
    freq, colon, axis = text.partition(":")
    (axis,) = parse_axes(axis, dim) if colon else (0,)
    return CircleWave(int(freq), axis)


OBSERVATION_MAPS = {
    "identity": Rule(lambda text, dim: CoordinateProjection(tuple(range(dim)), dim), "",
                     "every coordinate"),
    "proj:": Rule(lambda text, dim: CoordinateProjection(parse_axes(text, dim), dim),
                  "<axes>", "the listed coordinates (1-based, distinct)"),
    "proj": Rule(lambda text, dim: CoordinateProjection(parse_axes(",".join(text), dim), dim),
                 "<digits>", "the same, one digit per coordinate: proj12"),
    "linear:": Rule(_linear, "[[..],..]", "integer matrix acting mod 1"),
    "wave:": Rule(_wave, "<k>[:<axis>]",
                  "(cos, sin)(2 pi k x_axis) into flat R^2, k <= 2^20, axis 1 by default"),
    "const:": Rule(lambda text, dim: Constant(parse_numbers(text)), "<values>",
                   "constant map, rank 0"),
}


def parse_observation_map(spec, dim):
    """The observation map a config spec names on T^dim (see ``OBSERVATION_MAPS``)."""
    return parse_spec(OBSERVATION_MAPS, "observation map", spec, dim)


def observed_hitting_time(system, x, x0_image, image_map, r, cap):
    """First k in [1, cap] with dist(F(T^k x), y0) <= r.

    ``x0_image`` is the target's image y0 = F(x0).  Scans the orbit applying
    the observation map directly, in the ``SCAN_CHUNK``-row steps of
    ``first_hits``: a small tau steps one chunk, and every engine's floats
    here are the ones ``first_hits`` sees, rotations' included (their floats
    depend on where a step starts).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    y0 = np.asarray(x0_image, dtype=float)
    for n0, coords in system.orbit_blocks(x, 1, cap + 1, block=SCAN_CHUNK):
        dists = image_map.image_distances(coords, y0)
        hits = np.flatnonzero(dists <= r)
        if hits.size:
            return HittingRecord(r, n0 + int(hits[0]))
    return HittingRecord(r, None)


def pushforward_dimension(system, image_map, x0, ladder, seed, n_per_rung, window=4):
    """Scaling exponent of the pushforward measure at F(x0).

    Delegates to the sublevel-dimension estimator with the observable
    f(x) = dist(F(x), F(x0)); the two exponents coincide by definition.
    """
    y0 = image_map.apply(x0.float_coords().reshape(1, -1))[0]
    f = PushforwardDist(image_map, tuple(y0))
    return estimate_dimension(f, ladder, system, seed, n_per_rung, window=window)


@dataclass(frozen=True)
class RankReport:
    """Singular-value summary of a finite-difference Jacobian."""

    base_point: tuple
    step: float
    singular_values: tuple
    rank: int
    tolerance: float


RANK_TOL_ABS = 1e-6
RANK_TOL_REL = 1e-8


def jacobian_rank(image_map, x, h=1e-5):
    """Rank of dF at x from central differences and an SVD.

    Differences in periodic codomains are wrapped to the shortest
    representative before dividing.  h must lie in [1e-8, 1e-2].
    """
    if not 1e-8 <= h <= 1e-2:
        raise ValueError("step h outside [1e-8, 1e-2]")
    base = x.float_coords()
    d = base.size
    probes = np.tile(base, (2 * d, 1))
    for j in range(d):
        probes[2 * j, j] = (base[j] + h) % 1.0
        probes[2 * j + 1, j] = (base[j] - h) % 1.0
    images = image_map.apply(probes)
    m = images.shape[1]
    jac = np.empty((m, d))
    for j in range(d):
        delta = images[2 * j] - images[2 * j + 1]
        if image_map.periodic_codomain:
            delta = (delta + 0.5) % 1.0 - 0.5
        jac[:, j] = delta / (2.0 * h)
    singulars = np.linalg.svd(jac, compute_uv=False)
    smax = singulars[0] if singulars.size else 0.0
    tol = max(RANK_TOL_ABS, RANK_TOL_REL * smax)
    rank = int(np.count_nonzero(singulars > tol))
    return RankReport(
        base_point=tuple(base),
        step=h,
        singular_values=tuple(float(s) for s in singulars),
        rank=rank,
        tolerance=tol,
    )
