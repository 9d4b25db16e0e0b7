"""Fast closed-form checks runnable from the CLI.

Each check is an exactly computable example (no Monte Carlo, no tolerance
games); together they exercise every module's entry points in milliseconds.
"""

import math
from fractions import Fraction

from .observables import (
    DistToPoint,
    PushforwardDist,
    RadiusLadder,
    estimate_measure,
    evaluate,
    exact_measure,
    mollifier,
)
from .hitting import first_hits, ladder_hitting_times, power_law_radii
from .observed import Constant, CoordinateProjection, LinearMap, jacobian_rank
from .points import FloatPoint, FractionPoint, ReservoirPoint, torus_distance
from .reservoir import BitReservoir
from .returns import ReturnCurve, exp_law_distance
from .systems import CAT_MATRIX, CircleRotation, Doubling, ToralAutomorphism


def _cat_blocks_are_truncated(cat):
    """Blocks of 37 over steps 0..99, across several anchors of the kernel,
    against the exact orbit's top 53 bits; the second start's low bits are
    all ones, so its carries are undecided and recomputed exactly."""
    bits = cat.precision_bits
    p = cat.sample_invariant(0, 1)[0]
    low = (1 << (bits - 53)) - 1
    ones = FractionPoint(tuple(Fraction(int(c * (1 << bits)) | low, 1 << bits) for c in p.coords))
    return all(
        [row for _, blk in cat.orbit_blocks(q, 0, 100, block=37) for row in blk.tolist()]
        == [[(int(c * (1 << bits)) >> (bits - 53)) * 2.0 ** -53
             for c in cat.orbit_window(q, n).coords] for n in range(100)]
        for q in (p, ones)
    )


def _batched_scan_is_plain_orbit(rotation):
    """first_hits over 40 starts and three rungs against each orbit_values.
    The 64-row chunk does not divide cap 300, so the last chunk is short;
    taus fall in every chunk, most starts pass two rungs at once, one deepest
    rung is censored.  Past step 64 the rotation floats of a chunked scan and
    of one 300-row step differ in the last bits, far from every radius."""
    f, radii = DistToPoint((0.375,)), [0.03, 0.008, 0.002]
    points = rotation.sample_invariant(0, 40)
    taus, censored = first_hits(rotation, points, f, radii, 300, chunk=64)
    hits = [[(f.values(rotation.orbit_values(p, 1, 301)) <= r).nonzero()[0] for r in radii]
            for p in points]
    return (taus.tolist() == [[int(h[0]) + 1 if h.size else 300 for h in row] for row in hits]
            and censored.tolist() == [[not h.size for h in row] for row in hits])


def _checks():
    doubling = Doubling()
    # reservoir starts from binary expansions: 3/8 = 0.011, 1/5 = 0.(0011)
    three_eighths = ReservoirPoint(BitReservoir(0, 0, prefix=b"\x60" + bytes(8)))
    one_fifth = ReservoirPoint(BitReservoir(0, 0, prefix=b"\x33" * 16))
    cat = ToralAutomorphism(CAT_MATRIX)
    quarter = CircleRotation.from_fraction("1/4")
    radii = 0.6 - power_law_radii(0.5, 1000)  # from -0.4 up past the clamp at 1/2

    yield "doubling step 3/8 -> 3/4", lambda: (
        doubling.step(three_eighths).float_coords()[0] == 0.75
    )
    yield "cat map step (1/2,1/2) -> (1/2,0)", lambda: (
        cat.step(FractionPoint(("1/2", "1/2"))).coords
        == (Fraction(1, 2), Fraction(0))
    )
    yield "rotation step 7/8 + 1/4 -> 1/8", lambda: (
        quarter.step(FractionPoint(("7/8",))).coords[0] == Fraction(1, 8)
    )
    yield "cat blocks at B = 512 are the exact orbit truncated to 53 bits", lambda: (
        _cat_blocks_are_truncated(cat)
    )
    yield "all-ones reservoir window reads below 1", lambda: (
        max(BitReservoir(0, 0, prefix=b"\xff" * 9).window_floats(0, 9)) < 1.0
    )
    yield "quotient metric dist(0.9, 0) = 0.1", lambda: (
        abs(torus_distance([0.9], [0.0]) - 0.1) < 1e-12
    )
    yield "interval measure mu{dist<=0.1} = 0.2", lambda: (
        estimate_measure(DistToPoint((0.5,)), 0.1, doubling, 0, 100).estimate == 0.2
    )
    yield "disc measure = pi r^2", lambda: (
        abs(estimate_measure(DistToPoint((0.0, 0.0)), 0.1, cat, 0, 100).estimate
            - math.pi * 0.01) < 1e-12
    )
    yield "interval measures over a radius array equal the scalar values", lambda: (
        exact_measure(doubling, DistToPoint((0.5,)), radii).tolist()
        == [exact_measure(doubling, DistToPoint((0.5,)), r) for r in radii.tolist()]
    )
    yield "mollifier midpoint value 1/2", lambda: (
        abs(mollifier(DistToPoint((0.0,)), 0.2, 0.1, FloatPoint((0.15,))) - 0.5) < 1e-12
    )
    yield "hitting 1/5 -> tau = 2 at r = 0.25", lambda: (
        ladder_hitting_times(doubling, one_fifth, DistToPoint((0.0,)), [0.25], 100)[0].tau == 2
    )
    yield "rotation hitting 0 -> 1/2 in two steps", lambda: (
        ladder_hitting_times(quarter, FractionPoint((0,)), DistToPoint((0.5,)), [0.1],
                             100)[0].tau == 2
    )
    yield "batched ladder scan equals the plain orbit on the golden rotation", lambda: (
        _batched_scan_is_plain_orbit(CircleRotation.golden())
    )
    yield "shrinking radii start at r_0 = 1", lambda: (
        power_law_radii(0.5, 4).tolist()[0] == 1.0
    )
    yield "ladder gap condition accepted", lambda: (
        len(RadiusLadder.dyadic(3, 14)) == 12
    )
    yield "sup distance of exact exponential curve is 0", lambda: (
        exp_law_distance(ReturnCurve(
            0.1, 0.2, (0.0, 1.0, 2.0),
            (1.0, math.exp(-1.0), math.exp(-2.0)), 10, 100, 0,
            (False, False, False),
        )) == 0.0
    )
    yield "rank: identity projection has rank 2", lambda: (
        jacobian_rank(CoordinateProjection((0, 1), 2), FloatPoint((0.3, 0.8))).rank == 2
    )
    yield "rank: (x, 2x) has rank 1", lambda: (
        jacobian_rank(LinearMap(((1, 0), (2, 0))), FloatPoint((0.3, 0.8))).rank == 1
    )
    yield "rank: constant map has rank 0", lambda: (
        jacobian_rank(Constant((0.5,)), FloatPoint((0.3, 0.8))).rank == 0
    )
    yield "observed constant map is everywhere at its value", lambda: (
        evaluate(PushforwardDist(Constant((0.5,)), (0.5,)), FloatPoint((0.1, 0.2))) == 0.0
    )


def run_selftest(stream):
    failures = 0
    for label, check in _checks():
        try:
            ok = bool(check())
        except Exception as exc:  # a crashing check is a failing check
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        stream.write(f"{'PASS' if ok else 'FAIL'}  {label}\n")
        failures += not ok
    stream.write(f"{'all checks passed' if not failures else f'{failures} failures'}\n")
    return 0 if failures == 0 else 1
