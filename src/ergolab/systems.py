"""Catalog of measure-preserving model systems with exact orbit iteration.

Engines
-------
* Doubling map x -> 2x mod 1 on the bit reservoir: a point is a seeded
  random binary expansion and T is the one-bit shift, so orbit position n is
  an O(1) window read and orbits are unbounded.
* Hyperbolic (or any unimodular) toral automorphisms: integer matrix action
  on B-bit dyadic fractions, exact and invertible.  A 2x2 matrix on any
  dyadic lattice runs through ``_AnchorKernel``, any number of
  starts and rows at once (``orbit_batch``, or a scan's batch).  Exact
  anchors every m steps (m = 30 for the cat map) follow the trace
  recurrence x_(j+2) = T x_(j+1) - D x_j of A^m, on one Python int per start
  that packs both coordinates.  The rows between them come from uint64
  offset arithmetic on each anchor's top 128 lattice bits; the carry from
  the bits below is estimated in float64 under a proven error bound, and the
  rare undecided row (about 1 in 10^4 for cat) is recomputed exactly.  One
  cat start at B = 512 costs about 37 ns/row on a 2-core machine.  Other
  points step row by row.
* Circle rotations by a B-bit fixed-point angle, exact and invertible.
* Manneville-Pomeau x -> x + x^(1+s) mod 1: double-precision engine, kept
  for contrast with the rapidly mixing systems; results carry a
  "float-engine" caveat.

Bulk orbit evaluation (`orbit_blocks`) yields float coordinate arrays for
the estimators; the underlying state stays exact for the exact engines.
An engine defines three things: ``_block_start(p, start)``, its state at
``start``; ``_batch_step(states, size)``, the next ``size`` rows of many
states at once, computed from the states alone; and ``_point``, the point a
state stands for.  ``_SystemBase._blocks`` is the one step loop over them,
behind ``orbit_blocks``, ``orbit_batch`` and ``hitting.first_hits``, which
retires starts between steps through the loop's live mask;
``orbit_window(p, n)`` is ``_point(*_block_start(p, n))``.
A scan's state is a plain tuple, no point object, and ``_point(*state)``
builds its point: an automorphism's or rotation's integer numerators over one
denominator (2^B for sampled starts), ``(nums, den)``; the doubling map's
``(reservoir, offset)``; Manneville-Pomeau's ``(x,)``.  Floats, per engine:
the reservoir's 64-bit window rounded to nearest (the top 2^10 read
1 - 2^-53); 2-d automorphisms on a dyadic lattice truncate to 53 bits (the
exact value below 53), other automorphisms round to nearest; a rotation step
rounds its state to nearest and adds float offsets j alpha, so its floats
depend on where steps start (at most 1.5e-13 from exact over a 1024-row
golden step, 2.5e-12 over a 16 384-row one, measured over 8 starts);
Manneville-Pomeau is its own double-precision orbit.  Every error is far
below the estimators' radii.
"""

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import factorial, isqrt, lcm

import numpy as np

from .grammar import Rule, parse_spec
from .points import FloatPoint, FractionPoint, ReservoirPoint
from .rand import master_rng, point_bytes
from .reservoir import BitReservoir, stream_window_floats

DEFAULT_PRECISION_BITS = 512
# a config's bound on B: building golden's angle alone took 22 s at 4 * 10^6
# bits; the Liouville angle's 10^-720 term needs 2 392
MAX_PRECISION_BITS = 1 << 16
DEFAULT_BLOCK = 1 << 14


class _SystemBase:
    """Shared orbit access; concrete systems define the dynamics."""

    exact = True
    lebesgue = True  # the invariant measure is Lebesgue
    caveats = ()

    def orbit_window(self, p, n):
        """T^n(p) as a phase point. n = 0 returns p itself."""
        if n < 0:
            raise ValueError("step index must be non-negative")
        if n == 0:
            return p
        return self._point(*self._block_start(p, n))

    # Every engine re-binds orbit_blocks and defines sample_invariant in its
    # own class body: perfbench/tracing.py wraps vars(cls)[name] per engine,
    # and without them the per-engine layer metrics are lost.
    def orbit_blocks(self, p, start, stop, block=DEFAULT_BLOCK):
        """Yield (n0, coords) with coords[i] = float coords of T^(n0+i)(p).

        Covers n = start..stop-1 in blocks; used by every scanning
        estimator.  The one-point view of ``_blocks``; no work happens
        before the first block is drawn.
        """
        for n, coords, _ in self._blocks([p], start, stop, block):
            yield n, coords[0]

    def _blocks(self, points, start, stop, rows):
        """Yield (n0, coords, live), coords[k, i] the float coords of
        T^(n0+i) of the k-th live point, ``rows`` steps at a time (fewer at
        ``stop``): the one loop over ``_block_start`` and
        ``_batch_step(states, size)``.  ``live`` is a fresh all-True mask:
        clearing an entry retires that point before the next step, and the
        loop ends once none is left."""
        if start < 0:
            raise ValueError("step index must be non-negative")
        states = [self._block_start(p, start) for p in points]
        n = start
        while states and n < stop:
            coords, states = self._batch_step(states, min(rows, stop - n))
            live = np.ones(len(states), dtype=bool)
            yield n, coords, live
            states = list(compress(states, live))
            n += coords.shape[1]

    def orbit_batch(self, points, start, stop):
        """Float coordinates of T^n(p) for n in [start, stop) of every point
        p, stepped together: a (len(points), stop - start, d) array."""
        parts = [coords for _, coords, _ in self._blocks(points, start, stop, DEFAULT_BLOCK)]
        if not parts:
            return np.empty((len(points), max(stop - start, 0), self.dim))
        return np.concatenate(parts, axis=1)

    def sample_per_seed(self, seeds):
        """``sample_invariant(s, 1)[0]`` for every seed s; the lattice
        engines draw them all in one pass."""
        return [self.sample_invariant(s, 1)[0] for s in seeds]

    def sample_invariant_floats(self, seed, count):
        """Invariant samples as a float array (count, d); fast path for
        estimators.  Lebesgue systems draw uniforms from the master stream."""
        return master_rng(seed).random((count, self.dim))


@dataclass(frozen=True)
class Doubling(_SystemBase):
    """Doubling map on the circle; its points are ``ReservoirPoint``s."""

    dim = 1
    mixing_class = "exponential"

    _point = ReservoirPoint
    orbit_blocks = _SystemBase.orbit_blocks

    def _block_start(self, p, start):
        return p.bits, p.offset + start

    def _batch_step(self, states, size):
        vals = stream_window_floats(states, size)
        return vals[..., None], [(bits, offset + size) for bits, offset in states]

    def sample_invariant(self, seed, count):
        """Reservoir points distributed per Lebesgue."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [ReservoirPoint(BitReservoir(seed, i)) for i in range(count)]


def _lattice_points(self, seed, count, first=0):
    """Points first..first+count-1 of the uniform draw on the 2^-B lattice
    under ``seed``, or, given a list of ``count`` seeds, point ``first`` of
    the draw under each; coordinate j of point i is the top B bits of the
    first ceil(B / 8) bytes, big-endian, of the stream of index i d + j."""
    if count < 1:
        raise ValueError("count must be >= 1")
    d, bits = self.dim, self.precision_bits
    nbytes = (bits + 7) // 8
    indices = range(first * d, (first + count) * d)
    if isinstance(seed, list):  # one seed per point: d streams under each
        seed, indices = [s for s in seed for _ in range(d)], [*indices[:d]] * count
    nums = [int.from_bytes(raw, "big") >> (nbytes * 8 - bits)
            for raw in point_bytes(seed, indices, nbytes)]
    return [FractionPoint.on_lattice(nums[i:i + d], 1 << bits) for i in range(0, len(nums), d)]


def _lattice_per_seed(self, seeds):
    """Point 0 of the lattice draw under every seed, in one pass."""
    return _lattice_points(self, list(seeds), len(seeds))


def _int_matrix(rows):
    mat = tuple(tuple(int(v) for v in row) for row in rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return mat


def _int_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    det = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in mat[1:])
        det += (-1) ** j * mat[0][j] * _int_det(minor)
    return det


@dataclass(frozen=True)
class ToralAutomorphism(_SystemBase):
    """Automorphism of T^d from a unimodular integer matrix."""

    matrix: tuple
    precision_bits: int = DEFAULT_PRECISION_BITS

    mixing_class = "exponential"

    def __post_init__(self):
        mat = _int_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if abs(_int_det(mat)) != 1:
            raise ValueError("matrix determinant must be +-1")
        object.__setattr__(self, "_kernel", _AnchorKernel(mat) if len(mat) == 2 else None)

    @property
    def dim(self):
        return len(self.matrix)

    def _jump(self, nums, modulus, n):
        """Numerators n steps on; a unimodular map keeps the denominator."""
        if n == 0:
            return list(nums)
        mat = self.matrix if n == 1 else _matrix_power(self.matrix, n, modulus)
        return [sum(m * v for m, v in zip(row, nums)) % modulus for row in mat]

    _point = FractionPoint.on_lattice
    orbit_blocks = _SystemBase.orbit_blocks

    def _block_start(self, p, start):
        return self._jump(p.nums, p.den, start), p.den

    def _batch_step(self, states, size):
        # 2x2 on a dyadic lattice: each coordinate's top 53 bits (exact
        # below 53), the starts on one lattice in one kernel pass; else each
        # coordinate rounded to nearest, row by row
        coords, after = np.empty((len(states), size, self.dim)), list(states)
        lattices = {}
        for i, (nums, modulus) in enumerate(states):
            if self._kernel and modulus & (modulus - 1) == 0:
                lattices.setdefault(modulus, []).append(i)
                continue
            rows = []
            for _ in range(size):
                rows.append([v / modulus for v in nums])
                nums = self._jump(nums, modulus, 1)
            coords[i], after[i] = rows, (nums, modulus)
        for modulus, idx in lattices.items():
            nums = self._kernel.rows([states[i][0] for i in idx], modulus, size, coords, idx)
            for i, v in zip(idx, nums):
                after[i] = v, modulus
        return coords, after

    sample_invariant = _lattice_points
    sample_per_seed = _lattice_per_seed


def _matrix_power(mat, n, modulus):
    n0 = len(mat)
    result = tuple(tuple(int(i == j) for j in range(n0)) for i in range(n0))
    base = mat
    while n:
        if n & 1:
            result = _mat_mul(result, base, modulus)
        base = _mat_mul(base, base, modulus)
        n >>= 1
    return result


def _mat_mul(a, b, modulus=None):
    n = len(a)
    prod = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return prod if modulus is None else tuple(tuple(v % modulus for v in row) for row in prod)


ANCHOR_ENTRY_BOUND = 1 << 40  # |A^k| below it keeps each float carry within 2^-10
MAX_ANCHOR_GAP = 64
SLAB_ROWS = 1 << 12  # rows one kernel pass holds, whatever the start count


class _AnchorKernel:
    """Rows of a 2x2 automorphism on the 2^-B lattice as top-53-bit floats.

    Anchors x_0, x_m, x_2m, ... are exact, with m <= 64 the largest gap whose
    A^k, k < m, have entries below 2^40 (m = 30 for the cat map).  P = A^m
    satisfies P^2 = T P - D I, T its trace and D = det P = +-1, so each
    coordinate of the anchors obeys x_(j+2) = T x_(j+1) - D x_j mod 2^B.  A
    start's two coordinates are packed into one Python int (``_layout``):
    after one jump A^m for the second anchor, each anchor costs three big-int
    operations, and one ``to_bytes`` per anchor writes a pass's anchors into
    one buffer, whose uint64 limbs hold the H and L below.  On a 2-core
    machine this took one cat start at B = 512 from 56 to 37 ns/row.

    For k < m the top 64 lattice bits of x_(j+k) are (A^k H + c) mod 2^64 in
    uint64, where H and L are the upper and lower 64 of the anchor's top 128
    lattice bits (zero-padded below B = 128).  The carry is
    c = floor((A^k L + delta) 2^-64), where delta, from the bits below L, lies
    in [-N_k, P_k], the row sums of A^k's negative and positive entries (0
    when B <= 128).

    The carry is estimated in float64.  Let t be the dot product of a row
    (a_0, a_1) of A^k, exact in a float, with the rounded fl(L_i 2^-64):
    each term carries one relative rounding of 2^-53 from the conversion and
    at most two from its product and the sum, fused or not, so t lies within
    e_k = 3 s_k 2^-53 (to first order; s_k = |a_0| + |a_1|) of A^k L 2^-64,
    and the true sum within [t - e_k - N_k 2^-64, t + e_k + P_k 2^-64].
    floor(t) is therefore the carry whenever frac(t) lies in
    [e_k + N_k 2^-64, 1 - e_k - P_k 2^-64).
    The kernel pads e_k to (4 s_k + 4) 2^-53, which also covers the roundings
    of frac(t) and of the bounds themselves.  Any other row, about 1 in 10^4
    for the cat map, is recomputed exactly from its anchor.  At B <= 64, L = 0
    and every carry is 0.
    The floats are (top64 >> 11) * 2^-53, bit for bit x >> (B - 53); below
    B = 53 the top 64 bits are x 2^(64 - B), so the float is x 2^-B exactly.
    """

    def __init__(self, mat):
        powers, nxt = [((1, 0), (0, 1))], mat
        while (len(powers) < MAX_ANCHOR_GAP
               and max(abs(v) for row in nxt for v in row) < ANCHOR_ENTRY_BOUND):
            powers.append(nxt)
            nxt = _mat_mul(nxt, mat)
        self.gap = len(powers)
        self.powers = (*powers, nxt)  # A^0 .. A^m, exact
        (p, q), (r, s) = nxt
        self.trace, self.det = p + s, p * s - q * r  # of P = A^m; det is +-1
        self._layouts = {}
        # [column, 2k + row]: x's coordinates times these are A^k x, k < m
        coef = np.array(powers, dtype=np.int64).transpose(2, 0, 1).reshape(2, -1)
        self.fcoef, self.ucoef = coef.astype(float), coef.view(np.uint64)
        # frac(t) outside [low, high): the carry is undecided
        slack = (4 * np.abs(coef).sum(axis=0) + 4) * 2.0 ** -53
        self.low = slack + np.where(coef < 0, -coef, 0).sum(axis=0) * 2.0 ** -64
        self.high = 1 - slack - np.where(coef > 0, coef, 0).sum(axis=0) * 2.0 ** -64

    def rows(self, starts, modulus, size, out, idx):
        """Write ``size`` rows from each start's numerators into out[idx];
        return the numerators after them."""
        m, mask, bits = self.gap, modulus - 1, modulus.bit_length() - 1
        shift, field, spare, keep = self._layout(bits)
        trace, minus = self.trace, self.det == 1
        (p, q), (r, s) = self.powers[m]
        count = -(-size // m)  # anchors per start
        chains = []  # each start's anchors, packed
        for a, b in starts:
            y0 = (a | b << field) << shift
            chain = [y0]
            if count > 1:  # the second anchor by one jump, the rest by the recurrence
                y1 = ((p * a + q * b) & mask | ((r * a + s * b) & mask) << field) << shift
                chain.append(y1)
                for _ in range(count - 2):
                    y2 = trace * y1 + spare
                    y0, y1 = y1, (y2 - y0 if minus else y2 + y0) & keep
                    chain.append(y1)
            chains.append(chain)
        width = max(1, SLAB_ROWS // (m * len(starts)))
        for j0 in range(0, count, width):
            take = min(width * m, size - j0 * m)  # rows per start in this slab
            anchors = [y for chain in chains for y in chain[j0:j0 + width]]
            vals = self._floats(anchors, bits, min(take, m))  # take < m: one anchor a start
            out[idx, j0 * m:j0 * m + take] = vals.reshape(len(chains), -1, 2)[:, :take]
        # each start's last anchor, unpacked, then the steps from it
        (p, q), (r, s) = self.powers[size - (count - 1) * m]
        after = []
        for chain in chains:
            a, b = (chain[-1] >> shift) & mask, chain[-1] >> (shift + field)
            after.append(((p * a + q * b) & mask, (r * a + s * b) & mask))
        return after

    def _layout(self, bits):
        """(shift, field, spare, keep): an anchor on the 2^-bits lattice packed
        as one int, and the constants of its recurrence step.

        Coordinate i, shifted up by ``shift`` so that its top bit ends a
        uint64 limb at bit top = bits + shift >= 128, is field i of ``field``
        >= top + bitlen|T| + 3 bits, a multiple of 64.  The next anchor is
        T y1 + spare - D y0 masked by ``keep`` to each coordinate's bits:
        ``spare`` adds 2^top to every field once per negative term, so each
        field of the sum lies in [0, (|T| + 1) 2^top], below 2^field, and no
        carry or borrow crosses fields.
        """
        if bits not in self._layouts:
            top = max(128, -(-bits // 64) * 64)
            field = -(-(top + abs(self.trace).bit_length() + 3) // 64) * 64
            ones = 1 | 1 << field  # one in each field
            spare = (max(-self.trace, 0) + (self.det == 1)) * ones << top
            self._layouts[bits] = top - bits, field, spare, ((1 << top) - 1) * ones
        return self._layouts[bits]

    def _exact(self, x, k, mask, bits):
        """A^k x, k < m, as a top-53-bit float pair, from Python ints."""
        (a, b), shift = x, bits - 53
        return [(((e * a + f * b) & mask) >> shift) * 2.0 ** -53 for e, f in self.powers[k]]

    def _floats(self, anchors, bits, rows):
        """A^k x as top-53-bit floats for each packed anchor x and k < rows <= m:
        an (n, rows, 2) array."""
        shift, field, _, _ = self._layout(bits)
        hi = (bits + shift) // 64 - 1  # H's limb in each field; L's is the one below
        words = b"".join([y.to_bytes(field // 4, "little") for y in anchors])
        words = np.frombuffer(words, dtype="<u8").reshape(-1, 2, field // 64)
        cols = slice(2 * rows)
        top = words[:, :, hi] @ self.ucoef[:, cols]  # A^k H, wrapping mod 2^64
        if bits > 64:  # else L is 0 and so is every carry
            # A^k L 2^-64, within e_k
            t = (words[:, :, hi - 1] * 2.0 ** -64) @ self.fcoef[:, cols]
            carry = np.floor(t)
            top += carry.astype(np.int64).view(np.uint64)
            t -= carry
            undecided = (t < self.low[cols]) | (t >= self.high[cols])
        top >>= 11
        top = (top.view(np.int64) * 2.0 ** -53).reshape(-1, rows, 2)
        if bits > 64 and undecided.any():
            mask = (1 << bits) - 1
            for a, k in zip(*np.nonzero(undecided[:, 0::2] | undecided[:, 1::2])):
                y = anchors[a]
                x = (y >> shift) & mask, y >> (shift + field)  # the anchor, unpacked
                top[a, k] = self._exact(x, k, mask, bits)
        return top


@dataclass(frozen=True)
class CircleRotation(_SystemBase):
    """Rotation x -> x + alpha mod 1 with alpha a B-bit fixed-point fraction."""

    alpha_numerator: int
    precision_bits: int = DEFAULT_PRECISION_BITS

    dim = 1
    mixing_class = "none"

    def __post_init__(self):
        if not 0 <= self.alpha_numerator < (1 << self.precision_bits):
            raise ValueError("alpha numerator outside [0, 2^B)")

    @property
    def alpha(self):
        return Fraction(self.alpha_numerator, 1 << self.precision_bits)

    @classmethod
    def from_fraction(cls, alpha, precision_bits=DEFAULT_PRECISION_BITS):
        """Rotation by ``alpha`` truncated to B fractional bits."""
        alpha = Fraction(alpha)
        if not 0 <= alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        num = (alpha.numerator << precision_bits) // alpha.denominator
        return cls(num, precision_bits)

    @classmethod
    def golden(cls, precision_bits=DEFAULT_PRECISION_BITS):
        """Rotation by (sqrt(5) - 1) / 2 truncated to B bits."""
        num = (isqrt(5 << (2 * precision_bits)) - (1 << precision_bits)) // 2
        return cls(num, precision_bits)

    @classmethod
    def liouville(cls, precision_bits=DEFAULT_PRECISION_BITS):
        """Rotation by sum over n=1..6 of 10^(-n!) truncated to B bits."""
        alpha = sum(Fraction(1, 10 ** factorial(n)) for n in range(1, 7))
        return cls.from_fraction(alpha, precision_bits)

    _point = FractionPoint.on_lattice
    orbit_blocks = _SystemBase.orbit_blocks

    def _block_start(self, p, start):
        # p + start alpha mod 1 over den = lcm(p.den, 2^B), not reduced
        den = lcm(p.den, 1 << self.precision_bits)
        return ((p.nums[0] * (den // p.den)
                 + start * self.alpha_numerator * (den >> self.precision_bits)) % den,), den

    def _batch_step(self, states, size):
        # each state's float, rounded to nearest, then float offsets j alpha;
        # the states themselves step exactly
        bits = self.precision_bits
        alpha = self.alpha_numerator / (1 << bits)
        vals = np.array([num / den for (num,), den in states])[:, None] + np.arange(size) * alpha
        after = [(((num + size * self.alpha_numerator * (den >> bits)) % den,), den)
                 for (num,), den in states]
        vals -= np.floor(vals)
        return vals[..., None], after

    sample_invariant = _lattice_points
    sample_per_seed = _lattice_per_seed


@dataclass(frozen=True)
class MannevillePomeau(_SystemBase):
    """Intermittent map x -> x + x^(1+s) mod 1 on the double-precision engine."""

    s: float

    BURN_IN = 10_000  # steps from a uniform draw before the first sample
    STRIDE = 10  # steps between consecutive samples
    dim = 1
    mixing_class = "polynomial"
    exact = False
    lebesgue = False
    caveats = ("float-engine",)

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("Manneville-Pomeau parameter s must lie in (0, 1)")

    def _orbit(self, x, count, stride):
        """The engine's one loop: x and every ``stride``-th orbit point after
        it, ``count`` in all (8 bytes each), and the point ``stride`` steps
        after the last."""
        e, out, steps = 1.0 + self.s, array("d"), range(stride)
        for _ in range(count):
            out.append(x)
            for _ in steps:
                x += x ** e
                if x >= 1.0:
                    x -= 1.0
        return out, x

    _point = staticmethod(lambda x: FloatPoint((x,)))
    orbit_blocks = _SystemBase.orbit_blocks

    def _block_start(self, p, start):
        return (self._orbit(p.coords[0], 1, start)[1],)

    def _batch_step(self, states, size):
        coords, after = np.empty((len(states), size, 1)), []
        for i, (x,) in enumerate(states):
            coords[i, :, 0], x = self._orbit(x, size, 1)
            after.append((x,))
        return coords, after

    def sample_invariant(self, seed, count):
        """Points off one long orbit, after burn-in, spaced by the stride."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [FloatPoint((x,)) for x in self.sample_invariant_floats(seed, count)[:, 0]]

    def sample_invariant_floats(self, seed, count):
        rng = master_rng(seed)
        x = float(rng.random())
        while x == 0.0:
            x = float(rng.random())
        x = self.orbit_window(FloatPoint((x,)), self.BURN_IN).coords[0]
        return np.frombuffer(self._orbit(x, count, self.STRIDE)[0]).reshape(-1, 1)


CAT_MATRIX = ((2, 1), (1, 1))


def _rotation(text, bits):
    if text in ("golden", "liouville"):
        return getattr(CircleRotation, text)(bits)
    return CircleRotation.from_fraction(Fraction(text), bits)


# the catalog's system ids; a parser takes the argument and the lattice bits
SYSTEMS = {
    "doubling": Rule(lambda text, bits: Doubling(), "",
                     "doubling map 2x mod 1, bit-reservoir engine: exact, unbounded orbits"),
    "cat": Rule(lambda text, bits: ToralAutomorphism(CAT_MATRIX, precision_bits=bits), "",
                "cat map [[2,1],[1,1]] on T^2, exact on the B-bit dyadic lattice"),
    "rotation:": Rule(_rotation, "<alpha|golden|liouville>",
                      "rotation by a B-bit angle; liouville: sum of 10^-n! over n <= 6",
                      example="golden"),
    "mp:": Rule(lambda text, bits: MannevillePomeau(float(text)), "<s>",
                "Manneville-Pomeau map x + x^(1+s) mod 1, s in (0, 1), double precision",
                example="0.5"),
}


def system_from_id(system_id, precision_bits=None):
    """The system a catalog id names (see ``SYSTEMS``), at B = precision_bits."""
    return parse_spec(SYSTEMS, "system", system_id, precision_bits or DEFAULT_PRECISION_BITS)
