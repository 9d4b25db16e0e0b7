"""Experiment kinds: each kind's config fields, run and report headline.

``KINDS`` is the one table of experiment kinds.  An entry declares the
fields of the kind's own section, the shared sections it reads
(``SHARED``), its run and its report headline.  Config loading derives the
known sections and keys from it and parses every field once, so a run reads
typed values from ``config.params``, ``config.observable`` and
``config.ladder``.
"""

import math
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, InvalidBetaError
from .flow import approach_series, log_grid
from .grammar import Rule, parse_numbers, parse_spec
from .hitting import bc_counter_series, bc_targets, estimate_R, first_hits, ladder_hitting_times
from .mixing import (
    cosine_wave,
    constant_function,
    dyadic_harmonic_mix,
    estimate_correlation,
    fit_decay,
    intersection_bound_check,
)
from .observables import (
    PushforwardDist,
    RadiusLadder,
    estimate_dimension,
    estimate_measure,
    exact_dimension,
    parse_observable,
    torus_target,
)
from .observed import (
    OBSERVATION_MAPS,
    jacobian_rank,
    observed_hitting_time,
    parse_observation_map,
    pushforward_dimension,
)
from .parallel import pmap
from .rand import master_rng, subseed
from .returns import (
    count_jump_clusters,
    direct_window,
    exp_law_distance,
    kac_statistic,
    return_curve,
    return_sample,
    triviality_indicator,
)

# hitting exponents are floored by the measure-scaling exponents; the slack
# absorbs finite-sample noise in the reported inequality flags
EXPONENT_FLOOR_SLACK = 0.15
# bounds what a typo in per_octave or the exponents makes loading allocate
MAX_DYADIC_RUNGS = 10_000
# bounds the lags x samples orbit-value matrix a correlation run builds
MAX_LAG = 1000
# bounds the t-grid of a return-stats run (the default grid has 50 steps)
MAX_GRID_STEPS = 10_000
# bounds a Borel-Cantelli run's length: each point holds several float arrays
# of k_max + 1 and scans k_max steps (one doubling point at 10^7: 1.1 s and a
# 359 MB peak); the acceptance config uses 10^5
MAX_K_MAX = 10_000_000
# bounds on the other count fields, so that a typo fails at load time; each
# is at least 10x the largest acceptance or default value [in brackets], and
# the cost of a run at the bound is from timings at workers 1, linear in it
# Monte Carlo draws [4 * 10^5]: 2.4 min and 1 GB for a 9-lag cat correlation
MAX_SAMPLES = 10_000_000
# start points [500]: 2 min and 1.5 GB for Borel-Cantelli at k_max = 10^5
MAX_POINTS = 10_000
# return-stats starts [10^4]: 5 s on cat
MAX_RETURN_SAMPLES = 100_000
# flow-analogue steps per point [10^6]: 13 s a cat point, in flat memory
MAX_N_MAX = 100_000_000
# scan caps, explicit or derived [10^7]: a censored start takes cap steps,
# and a derived cap reached 10^25 at small radii
MAX_CAP = 100_000_000

REQUIRED = object()


@dataclass(frozen=True)
class Field:
    parse: Callable  # text -> value, raising ValueError
    default: object = REQUIRED  # the default text; None: the value is None
    dim: bool = False  # parse also takes the system's dimension


@dataclass(frozen=True)
class Kind:
    fields: dict  # the kind's own section, named after the kind
    # (config, workers) -> (data, summary, companions), written as returned:
    # data and summary plain Python (dicts with str keys, lists, str, int,
    # float, bool, None), each companion a (header, rows) CSV, cells by str
    run: Callable
    headline: Callable  # summary -> report headline
    shared: tuple = ()  # SHARED sections the kind needs
    optional: tuple = ()  # SHARED sections built only when present
    check: Callable = None  # cross-field check of the parsed config
    floor_flag: Callable = "".format_map  # summary -> report floor flag; none by default


# ---------------------------------------------------------------------------
# field parsers


def nonempty(value):
    if not value:
        raise ValueError("required")
    return value


def integer(low, high=None):
    def parse(value):
        number = int(value)
        if number < low:
            raise ValueError(f"must be >= {low}, got {number}")
        if high is not None and number > high:
            raise ValueError(f"must be <= {high}, got {number}")
        return number

    return parse


count = integer(1)
sample_count = integer(1, MAX_SAMPLES)
point_count = integer(1, MAX_POINTS)
scan_cap = integer(1, MAX_CAP)


def finite(value):
    (number,) = parse_numbers(value)
    return number


def positive(value):
    number = finite(value)
    if number <= 0:
        raise ValueError(f"must be positive, got {number!r}")
    return number


def choice(*options):
    def parse(value):
        if value not in options:
            raise ValueError(f"must be one of {options}, got {value!r}")
        return value

    return parse


def parse_lag_spec(spec):
    """Lags "lo..hi" (inclusive) or "n1,n2,...": increasing, in 0..MAX_LAG."""
    if ".." in spec:
        lo, hi = (int(v) for v in spec.split(".."))
        lags = range(lo, hi + 1)
    else:
        lags = [int(v) for v in spec.split(",")]
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError(f"lags must be strictly increasing: {spec!r}")
    if not lags or lags[0] < 0:
        raise ValueError(f"lags must be a non-empty range of integers >= 0: {spec!r}")
    if lags[-1] > MAX_LAG:
        raise ValueError(f"lags must not exceed {MAX_LAG}: {spec!r}")
    return lags


# correlation test functions, all of the first coordinate but obs:
FUNCTION_SPECS = {
    "cos:": Rule(lambda text, dim: cosine_wave(int(text)), "<k>", "cos(2 pi k x), |k| <= 2^20"),
    "dyadicmix:": Rule(lambda text, dim: dyadic_harmonic_mix(int(text)), "<depth>",
                       "sum of 2^-j cos(2 pi 2^j x) over j = 0..depth (depth <= 52)"),
    "const:": Rule(lambda text, dim: constant_function(finite(text)), "<c>", "the constant c"),
    "obs:": Rule(parse_observable, "<rule>", "an observable rule"),
}


def parse_function_spec(spec, dim):
    """The correlation function a config spec names (see ``FUNCTION_SPECS``)."""
    return parse_spec(FUNCTION_SPECS, "function spec", spec, dim)


# flow-analogue projections: the coordinate projections among the observation maps
PROJECTIONS = {prefix: OBSERVATION_MAPS[prefix] for prefix in ("identity", "proj:", "proj")}


def _pairs(value):
    pairs = tuple(tuple(int(v) for v in token.split(":")) for token in value.split(","))
    if not all(len(pair) == 2 and pair[0] > pair[1] >= 1 for pair in pairs):
        raise ValueError(f"need k:j pairs with k > j >= 1, got {value!r}")
    return pairs


# ---------------------------------------------------------------------------
# shared sections: (fields, build), build raising ConfigError


def _build_ladder(v):
    if v.kind == "explicit":
        if v.radii is None:
            raise ConfigError("ladder.radii", "required")
        try:
            return RadiusLadder(v.radii, v.gap_constant)
        except ValueError as exc:
            raise ConfigError("ladder.radii", str(exc)) from None
    for key in ("start_exp", "stop_exp"):
        if getattr(v, key) is None:
            raise ConfigError(f"ladder.{key}", "required")
    if (v.stop_exp - v.start_exp) * v.per_octave >= MAX_DYADIC_RUNGS:
        raise ConfigError("ladder", f"more than {MAX_DYADIC_RUNGS} rungs")
    try:
        return RadiusLadder.dyadic(v.start_exp, v.stop_exp, v.per_octave)
    except (ValueError, OverflowError) as exc:
        raise ConfigError("ladder", str(exc)) from None


SHARED = {
    "observable": ({"rule": Field(parse_observable, dim=True)}, lambda v: v.rule),
    "ladder": ({
        "kind": Field(choice("dyadic", "explicit"), "dyadic"),
        "start_exp": Field(finite, None),
        "stop_exp": Field(finite, None),
        "per_octave": Field(count, "1"),
        "radii": Field(parse_numbers, None),
        "gap_constant": Field(finite, None),
    }, _build_ladder),
}


# ---------------------------------------------------------------------------
# helpers


def _derived_cap(config, hits, mu):
    """ceil(hits / mu), the cap at which a start expects ``hits`` entries into
    a target of measure mu; ConfigError above MAX_CAP, or when mu vanished."""
    if mu <= 0 or hits / mu > MAX_CAP:
        raise ConfigError(f"{config.kind}.cap", f"the derived cap, {hits:g} / the target measure "
                          f"{mu:.3g}, exceeds {MAX_CAP}; use a larger radius or set cap")
    return math.ceil(hits / mu)


def _cap_for(config, system, f, smallest_r):
    """The explicit cap, else one giving 50 expected hits at the smallest radius."""
    if config.params.cap is not None:
        return config.params.cap
    est = estimate_measure(f, smallest_r, system, subseed(config.seed, "cap"), 200_000)
    return _derived_cap(config, 50.0, est.estimate)


def _quartiles(values):
    vals = sorted(values)
    return {
        "median": float(median(vals)),
        "q25": float(np.percentile(vals, 25)),
        "q75": float(np.percentile(vals, 75)),
    }


# ---------------------------------------------------------------------------
# per-point tasks


def _ladder_task(system, f, ladder, cap, window, points):
    taus, censored = first_hits(system, points, f, ladder, cap)
    return [(row, estimate_R(ladder, row, window))
            for row in np.where(censored, None, taus).tolist()]


def _rank_dimension_task(system, image_map, ladder, seed, n_per_rung, window, item):
    index, point = item
    est = pushforward_dimension(system, image_map, point, ladder, subseed(seed, f"rk{index}"),
                                n_per_rung, window=window)
    return est, jacobian_rank(image_map, point)


def _ladder_scans(config, f, workers):
    """The cap and each start's (taus, estimate), tau None on a censored
    rung; each worker scans one contiguous slice of the starts together."""
    system, ladder, p = config.system, config.ladder, config.params
    cap = _cap_for(config, system, f, min(ladder))
    points = system.sample_invariant(config.seed, p.points)
    task = partial(_ladder_task, system, f, ladder, cap, p.window)
    k = min(workers, p.points)
    parts = [points[i * p.points // k:(i + 1) * p.points // k] for i in range(k)]
    return cap, [pair for part in pmap(task, parts, workers) for pair in part]


# ---------------------------------------------------------------------------
# experiment kinds


def _run_hitting(config, workers):
    system, f, ladder = config.system, config.observable, config.ladder
    window = config.params.window
    cap, results = _ladder_scans(config, f, workers)

    estimates = [est for _, est in results]
    record_rows = [[i, r, t if t else "", int(t is None)]
                   for i, (taus, _) in enumerate(results) for r, t in zip(ladder, taus)]
    d_est = estimate_dimension(f, ladder, system, subseed(config.seed, "dims"),
                               n_per_rung=200_000)
    med_upper = float(median(e.r_upper for e in estimates))
    med_lower = float(median(e.r_lower for e in estimates))
    summary = {
        "cap": cap,
        "points": config.params.points,
        "window": window if window else "default: ceil(0.9 x usable rungs)",
        "R_upper": _quartiles([e.r_upper for e in estimates]),
        "R_lower": _quartiles([e.r_lower for e in estimates]),
        "exponent": _quartiles([e.exponent for e in estimates]),
        "censor_fraction_mean": float(np.mean([e.censor_fraction for e in estimates])),
        "d_upper": d_est.d_upper,
        "d_lower": d_est.d_lower,
        "d_slope": d_est.slope,
        "exponent_floor_upper_holds": bool(med_upper >= d_est.d_upper - EXPONENT_FLOOR_SLACK),
        "exponent_floor_lower_holds": bool(med_lower >= d_est.d_lower - EXPONENT_FLOOR_SLACK),
    }
    data = {
        "records": record_rows,
        "per_point": [
            {
                "point_id": i,
                "r_upper": e.r_upper,
                "r_lower": e.r_lower,
                "exponent": e.exponent,
                "censor_fraction": e.censor_fraction,
                "pairs": [[a, b] for a, b in e.pairs],
            }
            for i, e in enumerate(estimates)
        ],
    }
    companions = {
        "records.csv": (["point_id", "r", "tau", "censored"], record_rows),
    }
    return data, summary, companions


def _hitting_floor_flag(summary):
    holds = summary["exponent_floor_upper_holds"] and summary["exponent_floor_lower_holds"]
    return "holds" if holds else "violated"


def _run_dimension(config, workers):
    system, f, ladder = config.system, config.observable, config.ladder
    n_per_rung = config.params.samples_per_rung
    est = estimate_dimension(f, ladder, system, config.seed, n_per_rung,
                             window=config.params.window)
    rows = [
        [k, r, m.estimate, m.half_width, int(m.exact)]
        for k, (r, m) in enumerate(zip(ladder, est.profile))
    ]
    data = {"rungs": rows}
    summary = {
        "d_upper": est.d_upper,
        "d_lower": est.d_lower,
        "slope": est.slope,
        "slope_stderr": est.slope_stderr,
        "d_point": est.d_point,
        "window": list(est.window),
    }
    return data, summary, {"rungs.csv": (["rung", "r", "mu", "half_width", "exact"], rows)}


def _run_borel_cantelli(config, workers):
    system, f, p = config.system, config.observable, config.params
    d_upper = exact_dimension(system, f)
    if d_upper is None:
        d_upper = estimate_dimension(
            f, RadiusLadder.dyadic(3, 10), system,
            subseed(config.seed, "bc-dim"), 100_000,
        ).d_upper
    try:
        radii, expected = bc_targets(system, f, p.beta, p.k_max, d_upper, p.measures,
                                     subseed(config.seed, "bc-mc"), p.mc_samples)
    except InvalidBetaError as exc:
        raise ConfigError("borel-cantelli.beta", str(exc)) from None
    except ValueError as exc:  # the targets' measures have no closed form
        raise ConfigError("borel-cantelli.measures", f"{exc}; set measures = mc") from None
    points = system.sample_invariant(config.seed, p.points)
    task = partial(bc_counter_series, system, f=f, radii=radii, expected=expected)
    results = pmap(task, points, workers)

    rows = []
    final_ratios = []
    for index, series in enumerate(results):
        final_ratios.append(series[-1].ratio)
        for counter in series:
            rows.append([index, counter.k, counter.z, counter.expected, counter.ratio])
    ratios = np.array(final_ratios)
    summary = {
        "beta": p.beta,
        "k_max": p.k_max,
        "points": p.points,
        "final_ratio": _quartiles(final_ratios),
        "final_ratio_mean": float(ratios.mean()),
        "fraction_in_band": float(np.mean((ratios >= 0.8) & (ratios <= 1.2))),
        "expected_final": results[0][-1].expected,
    }
    data = {"counters": rows}
    return data, summary, {"counters.csv": (["point_id", "k", "z", "expected", "ratio"], rows)}


def _run_correlation(config, workers):
    p = config.params
    psi = p.phi if p.psi is None else p.psi
    series = estimate_correlation(config.system, p.phi, psi, p.lags, config.seed, p.samples,
                                  workers=workers)
    try:
        decay = fit_decay(series)
        decay_summary = {
            "kind": decay.kind,
            "rate": decay.rate,
            "amplitude": decay.amplitude,
            "residual": decay.residual,
            "fit_window": list(decay.fit_window),
        }
    except DegenerateSeriesError as exc:
        decay_summary = {"kind": "degenerate", "detail": str(exc)}
    rows = [
        [lag, v, hw] for lag, v, hw in zip(series.lags, series.values, series.half_widths)
    ]
    data = {"series": rows}
    summary = {
        "samples": p.samples,
        "phi_norm": list(series.phi_norm),
        "psi_norm": list(series.psi_norm),
        "decay": decay_summary,
        "usable_lags": len(series.usable()),
    }
    return data, summary, {"series.csv": (["lag", "value", "half_width"], rows)}


def _correlation_headline(summary):
    decay = summary["decay"]
    rate = decay.get("rate")
    return f"decay={decay['kind']}" + (f" rate={rate:.3f}" if rate is not None else "")


def _run_intersection_bound(config, workers):
    system, f, p = config.system, config.observable, config.params
    decay = fit_decay(estimate_correlation(
        system, p.decay_phi, p.decay_phi, p.decay_lags,
        subseed(config.seed, "decay"), p.decay_samples, workers=workers,
    ))
    rows = []
    all_hold = True
    for k, j in p.pairs:
        lhs, rhs = intersection_bound_check(
            system, f, config.ladder, k, j, subseed(config.seed, f"pair{k}:{j}"),
            p.samples, decay,
        )
        holds = lhs.estimate <= rhs + lhs.half_width
        all_hold = all_hold and holds
        rows.append([k, j, lhs.estimate, lhs.half_width, rhs, int(holds)])
    data = {"pairs": rows}
    summary = {
        "decay_kind": decay.kind,
        "decay_rate": decay.rate,
        "all_hold": bool(all_hold),
        "checked": len(rows),
    }
    return data, summary, {
        "pairs.csv": (["k", "j", "lhs", "lhs_half_width", "rhs", "holds"], rows)
    }


def _check_intersection_bound(config):
    for k, _ in config.params.pairs:
        if k >= len(config.ladder):
            raise ConfigError("intersection-bound.pairs",
                              f"the ladder has no rung {k} (it has {len(config.ladder)})")


def _check_return_stats(config):
    if config.params.grid_max / config.params.grid_step > MAX_GRID_STEPS:
        raise ConfigError("return-stats", f"grid_max / grid_step exceeds {MAX_GRID_STEPS} steps")
    try:  # the target must hold a start of its direct draw
        direct_window(config.system, config.observable, config.params.radius)
    except ValueError as exc:
        raise ConfigError("return-stats.radius", str(exc)) from None


def _run_return_stats(config, workers):
    system, f, p = config.system, config.observable, config.params
    r = p.radius
    steps = int(round(p.grid_max / p.grid_step))
    t_grid = tuple(round(k * p.grid_step, 10) for k in range(steps + 1))

    measure_est = estimate_measure(f, r, system, subseed(config.seed, "measure"), 200_000)
    if measure_est.estimate <= 0:  # even with an explicit cap: no return time to rescale by
        raise ConfigError("return-stats.radius", "the target's measure estimate is 0; "
                          "use a larger radius")
    # 100 mean returns
    cap = p.cap or _derived_cap(config, 100.0, measure_est.estimate)
    sample = return_sample(system, f, r, config.seed, p.samples, cap=cap,
                           measure=measure_est.estimate)
    curve = return_curve(sample, t_grid)
    kac_product, kac_stderr = kac_statistic(sample)
    indicators = [(l, triviality_indicator(sample, l)) for l in p.l_values]
    curve_rows = [
        [t, g, int(flag)] for t, g, flag in zip(curve.t_grid, curve.g_values, curve.flagged)
    ]
    data = {
        "curve": curve_rows,
        "indicators": [[l, ind.estimate, ind.half_width] for l, ind in indicators],
    }
    summary = {
        "radius": r,
        "measure": sample.measure,
        "measure_exact": measure_est.exact,
        "cap": sample.cap,
        "censored": curve.censored_count,
        "sup_distance_to_exponential": exp_law_distance(curve),
        "jump_clusters": count_jump_clusters(curve),
        "kac_product": kac_product,
        "kac_stderr": kac_stderr,
    }
    return data, summary, {
        "curve.csv": (["t", "g", "censor_flag"], curve_rows),
        "indicators.csv": (["l", "value", "half_width"],
                           data["indicators"]),
    }


def _run_observed_exponent(config, workers):
    system, p, ladder = config.system, config.params, config.ladder
    f = PushforwardDist(p.map, p.image_point)
    cap, results = _ladder_scans(config, f, workers)
    estimates = [est for _, est in results]
    dim_est = estimate_dimension(f, ladder, system, subseed(config.seed, "pf-dim"), 100_000)
    rows = [[i, est.exponent, est.r_upper, est.r_lower, est.censor_fraction]
            for i, est in enumerate(estimates)]
    summary = {
        "cap": cap,
        "exponent": _quartiles([est.exponent for est in estimates]),
        "R_upper": _quartiles([est.r_upper for est in estimates]),
        "R_lower": _quartiles([est.r_lower for est in estimates]),
        "pushforward_dimension": dim_est.slope,
    }
    return ({"per_point": rows}, summary,
            {"exponents.csv": (["point_id", "exponent", "r_upper", "r_lower",
                                "censor_fraction"], rows)})


def _run_rank_dimension(config, workers):
    system, p = config.system, config.params
    window = p.window or 4
    points = system.sample_invariant(config.seed, p.points)
    task = partial(_rank_dimension_task, system, p.map, config.ladder, config.seed,
                   p.samples_per_rung, window)
    results = pmap(task, enumerate(points), workers)
    rows = []
    agree = 0
    for index, (est, report) in enumerate(results):
        ok = abs(est.slope - report.rank) <= 0.25
        agree += ok
        rows.append([index, est.slope, est.d_lower, est.d_upper, report.rank, int(ok)])
    summary = {
        "points": p.points,
        "agreement_fraction": agree / p.points,
        "ranks": sorted({row[4] for row in rows}),
    }
    return ({"per_point": rows}, summary,
            {"ranks.csv": (["point_id", "slope", "d_lower", "d_upper", "rank",
                            "agree"], rows)})


def _run_observed_equality(config, workers):
    # randomized identity check: observed hitting vs plain hitting with the
    # pushforward observable, two independent scan paths
    system, image_map, n_cases = config.system, config.params.map, config.params.points
    cap = config.params.cap or 4_000
    rng = master_rng(subseed(config.seed, "equality"))
    points = system.sample_invariant(config.seed, n_cases)
    rows = []
    n_equal = 0
    for i, x in enumerate(points):
        base = system.sample_invariant(subseed(config.seed, f"base{i}"), 1)[0]
        y0 = tuple(image_map.apply(base.float_coords().reshape(1, -1))[0])
        r = float(2.0 ** -rng.integers(2, 8))
        obs = observed_hitting_time(system, x, y0, image_map, r, cap)
        plain = ladder_hitting_times(system, x, PushforwardDist(image_map, y0), [r], cap)[0]
        equal = (obs.tau == plain.tau)
        n_equal += equal
        rows.append([i, r, obs.tau if obs.tau else "", plain.tau if plain.tau else "",
                     int(equal)])
    summary = {"cases": n_cases, "equal": n_equal, "all_equal": bool(n_equal == n_cases)}
    return ({"cases": rows}, summary,
            {"equality.csv": (["case", "r", "observed_tau", "hitting_tau", "equal"],
                              rows)})


_OBSERVED_MODES = {
    "hitting-exponent": _run_observed_exponent,
    "rank-dimension": _run_rank_dimension,
    "equality": _run_observed_equality,
}


def _check_observed(config):
    p = config.params
    if p.mode != "equality" and config.ladder is None:
        raise ConfigError("ladder", f"required by observed.mode = {p.mode}")
    if p.mode == "hitting-exponent":
        if p.image_point is None:
            raise ConfigError("observed.image_point", "required by mode hitting-exponent")
        try:
            torus_target(p.image_point, p.map.codomain_dim, p.map.periodic_codomain)
        except ValueError as exc:
            raise ConfigError("observed.image_point", f"{exc}, one per image axis") from None


def _observed_headline(summary):
    if "agreement_fraction" in summary:
        return f"rank-dim agree={summary['agreement_fraction']:.2f}"
    if "all_equal" in summary:
        return f"equality {summary['equal']}/{summary['cases']}"
    return f"observed exponent={summary['exponent']['median']:.3f}"


def _run_flow_analogue(config, workers):
    system, p = config.system, config.params
    grid = log_grid(p.n_max)
    points = system.sample_invariant(config.seed, p.points)
    task = partial(approach_series, system, p.projection, p=p.target, n_grid=grid,
                   tail_decades=p.tail_decades)
    results = pmap(task, points, workers)

    curve_rows = []
    exp_rows = []
    exponents = []
    for index, series in enumerate(results):
        exponents.append(series.exponent)
        exp_rows.append([index, series.exponent, series.ratio_median, series.ratio_max])
        for n, d in zip(series.n_grid, series.d_values):
            curve_rows.append([index, n, d])
    summary = {
        "points": p.points,
        "n_max": p.n_max,
        "exponent": _quartiles(exponents),
        "ratio_median": _quartiles([s.ratio_median for s in results]),
        "tail_window": list(results[0].tail_window),
    }
    data = {"exponents": exp_rows, "series": curve_rows}
    return data, summary, {
        "series.csv": (["point_id", "n", "d_n"], curve_rows),
        "exponents.csv": (["point_id", "exponent", "ratio_median", "ratio_max"], exp_rows),
    }


def _check_flow_analogue(config):
    try:
        torus_target(config.params.target, len(config.params.projection.axes))
    except ValueError as exc:
        raise ConfigError("flow-analogue.target", f"{exc}, one per projected axis") from None


KINDS = {
    "dimension": Kind(
        {"samples_per_rung": Field(sample_count, "100000"), "window": Field(count, "4")},
        _run_dimension,
        "slope={slope:.3f} [{d_lower:.3f}, {d_upper:.3f}]".format_map,
        shared=("observable", "ladder"),
    ),
    "hitting": Kind(
        {"points": Field(point_count), "cap": Field(scan_cap, None), "window": Field(count, None)},
        _run_hitting,
        "R_up={R_upper[median]:.3f} R_low={R_lower[median]:.3f} "
        "d_up={d_upper:.3f} d_low={d_lower:.3f}".format_map,
        shared=("observable", "ladder"),
        floor_flag=_hitting_floor_flag,
    ),
    "borel-cantelli": Kind(
        {
            "beta": Field(finite),  # its range (0, 1/d_upper) is checked by the run
            "k_max": Field(integer(1, MAX_K_MAX)),
            "points": Field(point_count),
            "measures": Field(choice("exact", "mc"), "exact"),
            "mc_samples": Field(sample_count, "200000"),
        },
        _run_borel_cantelli,
        "Z/E final={final_ratio[median]:.3f} mean={final_ratio_mean:.3f} "
        "in-band={fraction_in_band:.2f}".format_map,
        shared=("observable",),
    ),
    "correlation": Kind(
        {
            "phi": Field(parse_function_spec, dim=True),
            "psi": Field(parse_function_spec, None, dim=True),  # None: psi = phi
            "lags": Field(parse_lag_spec),
            "samples": Field(integer(1000, MAX_SAMPLES), "100000"),  # estimate_correlation's floor
        },
        _run_correlation, _correlation_headline,
    ),
    "intersection-bound": Kind(
        {
            "pairs": Field(_pairs),
            "samples": Field(sample_count, "100000"),
            "decay_phi": Field(parse_function_spec, "dyadicmix:10", dim=True),
            "decay_lags": Field(parse_lag_spec, "1..8"),
            "decay_samples": Field(integer(1000, MAX_SAMPLES), "300000"),
        },
        _run_intersection_bound,
        "pairs={checked} all_hold={all_hold}".format_map,
        shared=("observable", "ladder"),
        check=_check_intersection_bound,
    ),
    "return-stats": Kind(
        {
            "radius": Field(positive),
            "samples": Field(integer(1, MAX_RETURN_SAMPLES)),
            "cap": Field(scan_cap, None),
            "l_values": Field(parse_numbers, "20"),
            "grid_max": Field(positive, "5.0"),
            "grid_step": Field(positive, "0.1"),
        },
        _run_return_stats,
        "sup|g-exp|={sup_distance_to_exponential:.3f} jumps={jump_clusters} "
        "kac={kac_product:.3f}".format_map,
        shared=("observable",),
        check=_check_return_stats,
    ),
    "observed": Kind(
        {
            "mode": Field(choice(*_OBSERVED_MODES)),
            "map": Field(parse_observation_map, dim=True),
            "points": Field(point_count),
            # None: derived (hitting-exponent) or 4000 (equality)
            "cap": Field(scan_cap, None),
            "image_point": Field(parse_numbers, None),
            "samples_per_rung": Field(sample_count, "50000"),
            # None: ceil(0.9 x usable rungs) (hitting-exponent) or 4 (rank-dimension)
            "window": Field(count, None),
        },
        lambda config, workers: _OBSERVED_MODES[config.params.mode](config, workers),
        _observed_headline,
        optional=("ladder",),
        check=_check_observed,
    ),
    "flow-analogue": Kind(
        {
            "projection": Field(partial(parse_spec, PROJECTIONS, "projection"), "identity", True),
            "points": Field(point_count),
            "n_max": Field(integer(1, MAX_N_MAX)),
            "target": Field(parse_numbers),
            "tail_decades": Field(positive, "3.0"),
        },
        _run_flow_analogue,
        "exponent={exponent[median]:.3f}".format_map,
        check=_check_flow_analogue,
    ),
}
