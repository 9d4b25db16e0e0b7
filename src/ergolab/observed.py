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

from .hitting import HittingRecord
from .observables import PushforwardDist, estimate_dimension
from .points import wrap_deltas


def _flat_or_wrapped_distances(deltas, periodic):
    d = wrap_deltas(deltas) if periodic else np.abs(deltas)
    return np.sqrt((d * d).sum(axis=1))


@dataclass(frozen=True)
class CoordinateProjection:
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

    def image_distances(self, coords, image_point):
        return _flat_or_wrapped_distances(self.apply(coords) - np.asarray(image_point), True)

    def sublevel_measure(self, r):
        k = len(self.axes)
        from .observables import _ball_measure

        return _ball_measure(k, r)

    def sublevel_dimension(self):
        return float(len(self.axes))


@dataclass(frozen=True)
class LinearMap:
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
        return (np.asarray(coords, dtype=float) @ np.array(self.matrix, dtype=float).T) % 1.0

    def image_distances(self, coords, image_point):
        return _flat_or_wrapped_distances(self.apply(coords) - np.asarray(image_point), True)


@dataclass(frozen=True)
class CircleWave:
    """Smooth embedding x -> (cos 2 pi k x_a, sin 2 pi k x_a) into flat R^2."""

    frequency: int
    axis: int = 0

    periodic_codomain = False
    codomain_dim = 2

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("frequency must be positive")

    @property
    def lipschitz(self):
        return 2.0 * math.pi * self.frequency

    distance_sup = 2.0

    def apply(self, coords):
        angles = 2.0 * math.pi * self.frequency * np.asarray(coords, dtype=float)[:, self.axis]
        return np.column_stack([np.cos(angles), np.sin(angles)])

    def image_distances(self, coords, image_point):
        return _flat_or_wrapped_distances(self.apply(coords) - np.asarray(image_point), False)

    def sublevel_measure(self, r):
        # chord distance 2|sin(pi k u)| <= r has measure (2/pi) asin(r/2)
        if r >= 2.0:
            return 1.0
        return (2.0 / math.pi) * math.asin(r / 2.0)

    def sublevel_dimension(self):
        return 1.0


@dataclass(frozen=True)
class Constant:
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

    def image_distances(self, coords, image_point):
        return _flat_or_wrapped_distances(self.apply(coords) - np.asarray(image_point), False)

    def sublevel_measure(self, r):
        return 1.0 if r >= 0.0 else 0.0

    def sublevel_dimension(self):
        return 0.0


def parse_observation_map(spec, dim):
    """Observation map from a config string.

    Grammar (coordinates 1-based): "proj:1,2" or compact "proj12",
    "identity", "linear:[[1,0],[2,0]]", "wave:3" (optional ":axis"),
    "const:0.5,0.5".
    """
    if spec == "identity":
        return CoordinateProjection(tuple(range(dim)), dim)
    kind, _, rest = spec.partition(":")
    if kind == "proj":
        axes = tuple(int(a) - 1 for a in rest.split(","))
        return CoordinateProjection(axes, dim)
    if kind.startswith("proj") and kind[4:].isdigit():
        axes = tuple(int(ch) - 1 for ch in kind[4:])
        return CoordinateProjection(axes, dim)
    if kind == "linear":
        try:
            lin = LinearMap(tuple(tuple(row) for row in ast.literal_eval(rest)))
        except (SyntaxError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"linear map needs an integer matrix [[..], ..]: {exc}") from None
        if lin.dim != dim:
            raise ValueError(f"linear map expects domain dimension {lin.dim}")
        return lin
    if kind == "wave":
        parts = rest.split(":")
        freq = int(parts[0])
        axis = int(parts[1]) - 1 if len(parts) > 1 else 0
        if not 0 <= axis < dim:
            raise ValueError("wave axis out of range")
        return CircleWave(freq, axis)
    if kind == "const":
        return Constant(tuple(float(v) for v in rest.split(",")))
    raise ValueError(f"unknown observation map: {spec}")


def observed_hitting_time(system, x, x0_image, image_map, r, cap):
    """First k in [1, cap] with dist(F(T^k x), y0) <= r.

    ``x0_image`` is the target's image y0 = F(x0).  Scans the orbit applying
    the observation map directly; constant maps short-circuit to k = 1.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if isinstance(image_map, Constant):
        return HittingRecord(point_id=0, radius=r, tau=1, cap=cap, steps_used=1)
    y0 = np.asarray(x0_image, dtype=float)
    for n0, coords in system.orbit_blocks(x, 1, cap + 1, block=1 << 12):
        dists = image_map.image_distances(coords, y0)
        hits = np.flatnonzero(dists <= r)
        if hits.size:
            tau = n0 + int(hits[0])
            return HittingRecord(point_id=0, radius=r, tau=tau, cap=cap, steps_used=tau)
    return HittingRecord(point_id=0, radius=r, tau=None, cap=cap, steps_used=cap)


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


def jacobian_rank(image_map, x, h=1e-5, tol_abs=1e-6, tol_rel=1e-8):
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
    tol = max(tol_abs, tol_rel * smax)
    rank = int(np.count_nonzero(singulars > tol))
    return RankReport(
        base_point=tuple(base),
        step=h,
        singular_values=tuple(float(s) for s in singulars),
        rank=rank,
        tolerance=tol,
    )
