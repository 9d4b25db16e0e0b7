"""Phase points on the d-torus and the quotient metric.

Three coordinate engines coexist:

* ``FractionPoint`` — exact rationals in [0, 1), held as integer numerators
  over one common denominator: the rotation and toral-automorphism engines'
  state.  Their samples are points of the 2^-B lattice, built straight from
  the drawn B-bit integers over 2^B; the reduced ``Fraction`` coordinates are
  built only when ``coords`` is read.
* ``ReservoirPoint`` — an offset into a seeded random binary expansion: the
  doubling map's points, where one step is a shift.
* ``FloatPoint`` — plain doubles, for the non-rigorous float engines.

Observables always evaluate on float projections of the coordinates; only
the dynamics itself is exact.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
            "(e.g. '3/8'), or Fraction(x) for the float's exact binary value"
        )
    frac = Fraction(value)
    if not 0 <= frac < 1:
        raise ValueError(f"coordinate {frac} outside [0, 1)")
    return frac


class FractionPoint:
    """Point of T^d with exact rational coordinates nums[i] / den.

    ``FractionPoint(coords)`` takes Fractions, ints or strings such as "3/8"
    over their least common denominator; ``on_lattice`` takes numerators in
    [0, den) as they are, unreduced.  Equality and hash are those of the
    coordinate values, however the point was built.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coords):
        coords = [unit_fraction(c) for c in coords]
        self.den = lcm(*(c.denominator for c in coords))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in coords)

    @classmethod
    def on_lattice(cls, nums, den):
        """The point (nums[0] / den, ...), each numerator in [0, den)."""
        p = object.__new__(cls)
        p.nums, p.den = tuple(nums), den
        return p

    @property
    def coords(self):
        """The coordinates as reduced Fractions, built when read."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def dim(self):
        return len(self.nums)

    def float_coords(self):
        return np.array([v / self.den for v in self.nums])  # int / int rounds to nearest

    def __eq__(self, other):
        return type(other) is FractionPoint and self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"FractionPoint(coords={self.coords!r})"


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
