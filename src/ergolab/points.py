"""Phase points on the d-torus and the quotient metric.

Three coordinate engines coexist:

* ``FractionPoint`` — exact rationals in [0, 1).  Used by the rotation and
  toral-automorphism engines (B-bit dyadic samples by default).
* ``ReservoirPoint`` — an offset into a seeded random binary expansion: the
  doubling map's points, where one step is a shift.
* ``FloatPoint`` — plain doubles, for the non-rigorous float engines.

Observables always evaluate on float projections of the coordinates; only
the dynamics itself is exact.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .reservoir import BitReservoir


def unit_fraction(value):
    """Coerce ``value`` to a Fraction and check it lies in [0, 1).

    Accepts Fraction, int, and strings like "3/8" or "0.25".  Floats are
    rejected: a literal such as 0.3 is not the rational 3/10, and silent
    binary truncation here has been a recurring source of confusion.
    """
    if isinstance(value, float):
        raise TypeError(
            "float coordinates are ambiguous; pass a Fraction or string "
            "(e.g. '3/8'), or use FractionPoint.from_float for the exact "
            "binary value"
        )
    if type(value) is Fraction and 0 <= value.numerator < value.denominator:
        return value
    frac = Fraction(value)
    if not 0 <= frac < 1:
        raise ValueError(f"coordinate {frac} outside [0, 1)")
    return frac


@dataclass(frozen=True)
class FractionPoint:
    """Point of T^d with exact rational coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(unit_fraction(c) for c in self.coords))

    @classmethod
    def from_float(cls, *values):
        """Build from floats, taking each at its exact binary value."""
        return cls(tuple(Fraction(v) for v in values))

    @property
    def dim(self):
        return len(self.coords)

    def float_coords(self):
        return np.array([float(c) for c in self.coords])


@dataclass(frozen=True)
class ReservoirPoint:
    """One-dimensional point given by a bit-reservoir handle and offset."""

    bits: BitReservoir
    offset: int = 0

    @property
    def dim(self):
        return 1

    def float_coords(self):
        return np.array([self.bits.window_float(self.offset)])


@dataclass(frozen=True)
class FloatPoint:
    """Point with double-precision coordinates (non-rigorous engines)."""

    coords: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coords)
        if any(not 0.0 <= c < 1.0 for c in cs):
            raise ValueError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self):
        return len(self.coords)

    def float_coords(self):
        return np.array(self.coords)


def wrap_deltas(deltas, out=None):
    """Componentwise shortest displacement on the torus: |d| folded to [0, 1/2],
    into ``out`` if given (it may be ``deltas``)."""
    d = np.abs(deltas, out=out)
    return np.minimum(d, 1.0 - d, out=d)


def torus_distance(a, b):
    """Quotient metric on T^d: min over integer translates, then Euclidean."""
    d = wrap_deltas(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(np.sqrt((d * d).sum()))


def torus_distances(points, target):
    """Vectorized quotient metric from rows of ``points`` (n, d) to ``target``."""
    return np.sqrt(squared_norms(wrap_deltas(points - target)))


def squared_norms(d):
    """Squared Euclidean norm of each row of ``d`` (n, k): the column products
    added left to right, which is bit for bit ``(d * d).sum(axis=1)`` (numpy
    sums 8 or more columns pairwise, so those take its reduction)."""
    if not 1 <= d.shape[1] < 8:
        return (d * d).sum(axis=1)
    total = d[:, 0] * d[:, 0]
    for col in d.T[1:]:
        total += col * col
    return total
