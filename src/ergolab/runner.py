"""Experiment runner: dispatch, atomic persistence, reports.

Results are JSON documents with a config echo, a deterministic data section
and fitted summaries; heavyweight record streams also land in CSV
companions next to the JSON.  The (config, seed) pair fully determines the
config/data/summary sections; worker counts and wall time live in meta.
Files are written atomically (temp file, then rename), so an interrupted
run never leaves a partial result at the output path.
"""

import json
import math
import os
import time
from statistics import median

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, DegenerateSeriesError, SchemaMismatchError
from .flow import approach_series, log_grid
from .hitting import bc_counter_series, estimate_R, ladder_hitting_times
from .mixing import (
    cosine_wave,
    constant_function,
    dyadic_harmonic_mix,
    estimate_correlation,
    fit_decay,
    from_observable,
    intersection_bound_check,
)
from .observables import (
    PushforwardDist,
    estimate_dimension,
    estimate_measure,
    exact_dimension,
    parse_observable,
)
from .observed import jacobian_rank, observed_hitting_time, parse_observation_map, pushforward_dimension
from .parallel import pmap, resolve_workers
from .rand import subseed
from .returns import (
    count_jump_clusters,
    exp_law_distance,
    kac_statistic,
    return_curve,
    return_sample,
    triviality_indicator,
)
from .systems import catalog_entries

SCHEMA_VERSION = "1"
# hitting exponents are floored by the measure-scaling exponents; the slack
# absorbs finite-sample noise in the reported inequality flags
EXPONENT_FLOOR_SLACK = 0.15


# ---------------------------------------------------------------------------
# helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def data_section_bytes(result):
    """Canonical bytes of the seed-determined sections of a result."""
    payload = {key: result[key] for key in ("config", "data", "summary")}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _cap_for(config, system, f, smallest_r, section):
    explicit = config.get_int(section, "cap")
    if explicit:
        return explicit
    est = estimate_measure(f, smallest_r, system, subseed(config.seed, "cap"), 200_000)
    if est.estimate <= 0:
        raise ConfigError(f"{section}.cap", "target measure vanished; set cap explicitly")
    return int(math.ceil(50.0 / est.estimate))


def _positive_int(config, section, key, **kwargs):
    value = config.get_int(section, key, **kwargs)
    if value < 1:
        raise ConfigError(f"{section}.{key}", f"must be >= 1, got {value}")
    return value


def _quartiles(values):
    vals = sorted(values)
    return {
        "median": float(median(vals)),
        "q25": float(np.percentile(vals, 25)),
        "q75": float(np.percentile(vals, 75)),
    }


def parse_lag_spec(spec):
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in spec.split(",")]


def parse_function_spec(spec, dim):
    kind, _, rest = spec.partition(":")
    if kind == "cos":
        return cosine_wave(int(rest))
    if kind == "dyadicmix":
        return dyadic_harmonic_mix(int(rest))
    if kind == "const":
        return constant_function(float(rest))
    if kind == "obs":
        return from_observable(parse_observable(rest, dim), rest)
    raise ConfigError("correlation.phi", f"unknown function spec {spec!r}")


# ---------------------------------------------------------------------------
# per-point tasks (top level so they pickle for the process pool)


def _hitting_task(args):
    system, f, ladder, cap, window, index, point = args
    records = ladder_hitting_times(system, point, f, ladder, cap, point_id=index)
    est = estimate_R(system, point, f, ladder, cap, window=window,
                     point_id=index, records=records)
    return records, est


def _bc_task(args):
    system, f, beta, k_max, measures, seed, n_samples, d_upper, index, point = args
    series = bc_counter_series(
        system, point, f, beta, k_max, measures=measures, seed=seed,
        n_samples=n_samples, d_upper=d_upper,
    )
    return index, series


def _flow_task(args):
    system, projection, target, n_grid, tail_decades, index, point = args
    series = approach_series(system, projection, point, target, n_grid,
                             tail_decades=tail_decades)
    return index, series


def _observed_exponent_task(args):
    system, f, ladder, cap, window, index, point = args
    est = estimate_R(system, point, f, ladder, cap, window=window, point_id=index)
    return index, est


def _rank_dimension_task(args):
    system, image_map, ladder, seed, n_per_rung, window, index, point = args
    est = pushforward_dimension(system, image_map, point, ladder, seed, n_per_rung,
                                window=window)
    report = jacobian_rank(image_map, point)
    return index, est, report


# ---------------------------------------------------------------------------
# experiment implementations


def _run_hitting(config, workers):
    system = config.system
    f = config.observable()
    ladder = config.ladder()
    n_points = config.get_int("hitting", "points", required=True)
    window = config.get_int("hitting", "window") or None
    cap = _cap_for(config, system, f, min(ladder), "hitting")
    points = system.sample_invariant(config.seed, n_points)
    tasks = [(system, f, ladder, cap, window, i, p) for i, p in enumerate(points)]
    results = pmap(_hitting_task, tasks, workers)

    record_rows = []
    estimates = []
    for records, est in results:
        estimates.append(est)
        for rec in records:
            record_rows.append([rec.point_id, rec.radius, rec.tau if rec.tau else "",
                                int(rec.censored)])
    d_est = estimate_dimension(f, ladder, system, subseed(config.seed, "dims"),
                               n_per_rung=200_000)
    med_upper = float(median(e.r_upper for e in estimates))
    med_lower = float(median(e.r_lower for e in estimates))
    summary = {
        "cap": cap,
        "points": n_points,
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


def _run_dimension(config, workers):
    system = config.system
    f = config.observable()
    ladder = config.ladder()
    n_per_rung = config.get_int("dimension", "samples_per_rung", default=100_000)
    window = config.get_int("dimension", "window", default=4)
    est = estimate_dimension(f, ladder, system, config.seed, n_per_rung, window=window)
    from .observables import measure_profile

    profile = measure_profile(f, ladder, system, config.seed, n_per_rung)
    rows = [
        [k, r, m.estimate, m.half_width, int(m.exact)]
        for k, (r, m) in enumerate(zip(ladder, profile))
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
    system = config.system
    f = config.observable()
    beta = config.get_float("borel-cantelli", "beta", required=True)
    k_max = _positive_int(config, "borel-cantelli", "k_max", required=True)
    n_points = _positive_int(config, "borel-cantelli", "points", required=True)
    measures = config.get("borel-cantelli", "measures", default="exact")
    if measures not in ("exact", "mc"):
        raise ConfigError("borel-cantelli.measures",
                          f"must be 'exact' or 'mc', got {measures!r}")
    mc_samples = _positive_int(config, "borel-cantelli", "mc_samples", default=200_000)
    d_upper = exact_dimension(system, f)
    if d_upper is None:
        from .observables import RadiusLadder

        d_upper = estimate_dimension(
            f, RadiusLadder.dyadic(3, 10), system,
            subseed(config.seed, "bc-dim"), 100_000,
        ).d_upper
    points = system.sample_invariant(config.seed, n_points)
    tasks = [
        (system, f, beta, k_max, measures, subseed(config.seed, "bc-mc"),
         mc_samples, d_upper, i, p)
        for i, p in enumerate(points)
    ]
    results = pmap(_bc_task, tasks, workers)

    rows = []
    final_ratios = []
    for index, series in results:
        final_ratios.append(series[-1].ratio)
        for counter in series:
            rows.append([index, counter.k, counter.z, counter.expected, counter.ratio])
    ratios = np.array(final_ratios)
    summary = {
        "beta": beta,
        "k_max": k_max,
        "points": n_points,
        "final_ratio": _quartiles(final_ratios),
        "final_ratio_mean": float(ratios.mean()),
        "fraction_in_band": float(np.mean((ratios >= 0.8) & (ratios <= 1.2))),
        "expected_final": results[0][1][-1].expected,
    }
    data = {"counters": rows}
    return data, summary, {"counters.csv": (["point_id", "k", "z", "expected", "ratio"], rows)}


def _run_correlation(config, workers):
    system = config.system
    phi = parse_function_spec(config.get("correlation", "phi", required=True), system.dim)
    psi_spec = config.get("correlation", "psi")
    psi = parse_function_spec(psi_spec, system.dim) if psi_spec else phi
    lags = parse_lag_spec(config.get("correlation", "lags", required=True))
    n_samples = config.get_int("correlation", "samples", default=100_000)
    series = estimate_correlation(system, phi, psi, lags, config.seed, n_samples)
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
        "samples": n_samples,
        "phi_norm": list(series.phi_norm),
        "psi_norm": list(series.psi_norm),
        "decay": decay_summary,
        "usable_lags": len(series.usable()),
    }
    return data, summary, {"series.csv": (["lag", "value", "half_width"], rows)}


def _run_intersection_bound(config, workers):
    system = config.system
    f = config.observable()
    ladder = config.ladder()
    pairs = []
    for token in config.get("intersection-bound", "pairs", required=True).split(","):
        k_str, _, j_str = token.partition(":")
        pairs.append((int(k_str), int(j_str)))
    n_samples = config.get_int("intersection-bound", "samples", default=100_000)
    decay_phi = parse_function_spec(
        config.get("intersection-bound", "decay_phi", default="dyadicmix:10"), system.dim
    )
    decay_lags = parse_lag_spec(config.get("intersection-bound", "decay_lags", default="1..8"))
    decay_samples = config.get_int("intersection-bound", "decay_samples", default=300_000)
    decay = fit_decay(estimate_correlation(
        system, decay_phi, decay_phi, decay_lags,
        subseed(config.seed, "decay"), decay_samples,
    ))
    rows = []
    all_hold = True
    for k, j in pairs:
        lhs, rhs = intersection_bound_check(
            system, f, ladder, k, j, subseed(config.seed, f"pair{k}:{j}"),
            n_samples, decay,
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


def _run_return_stats(config, workers):
    system = config.system
    f = config.observable()
    r = config.get_float("return-stats", "radius", required=True)
    if not r > 0:
        raise ConfigError("return-stats.radius", f"must be positive, got {r!r}")
    n_samples = config.get_int("return-stats", "samples", required=True)
    grid_max = config.get_float("return-stats", "grid_max", default=5.0)
    grid_step = config.get_float("return-stats", "grid_step", default=0.1)
    steps = int(round(grid_max / grid_step))
    t_grid = tuple(round(k * grid_step, 10) for k in range(steps + 1))

    measure_est = estimate_measure(f, r, system, subseed(config.seed, "measure"), 200_000)
    sample = return_sample(system, f, r, config.seed, n_samples,
                           cap=config.get_int("return-stats", "cap"),
                           measure=measure_est.estimate)
    curve = return_curve(sample, t_grid)
    kac_product, kac_stderr = kac_statistic(sample)
    l_values = [
        float(v) for v in config.get("return-stats", "l_values", default="20").split(",")
    ]
    indicators = [triviality_indicator(sample, l) for l in l_values]
    curve_rows = [
        [t, g, int(flag)] for t, g, flag in zip(curve.t_grid, curve.g_values, curve.flagged)
    ]
    data = {
        "curve": curve_rows,
        "indicators": [[ind.l_value, ind.value, ind.half_width] for ind in indicators],
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


def _run_observed(config, workers):
    system = config.system
    mode = config.get("observed", "mode", required=True)
    image_map = parse_observation_map(
        config.get("observed", "map", required=True), system.dim
    )
    if mode == "hitting-exponent":
        return _run_observed_exponent(config, workers, system, image_map)
    if mode == "rank-dimension":
        return _run_rank_dimension(config, workers, system, image_map)
    if mode == "equality":
        return _run_observed_equality(config, workers, system, image_map)
    raise ConfigError("observed.mode", f"unknown mode {mode!r}")


def _run_observed_exponent(config, workers, system, image_map):
    image_point = tuple(
        float(v) for v in config.get("observed", "image_point", required=True).split(",")
    )
    f = PushforwardDist(image_map, image_point)
    ladder = config.ladder()
    n_points = config.get_int("observed", "points", required=True)
    window = config.get_int("observed", "window") or None
    cap = _cap_for(config, system, f, min(ladder), "observed")
    points = system.sample_invariant(config.seed, n_points)
    tasks = [(system, f, ladder, cap, window, i, p) for i, p in enumerate(points)]
    results = pmap(_observed_exponent_task, tasks, workers)
    exps = [est.exponent for _, est in results]
    uppers = [est.r_upper for _, est in results]
    lowers = [est.r_lower for _, est in results]
    dim_est = pushforward_dimension(system, image_map, points[0], ladder,
                                    subseed(config.seed, "pf-dim"), 100_000)
    rows = [[i, est.exponent, est.r_upper, est.r_lower, est.censor_fraction]
            for i, est in results]
    summary = {
        "cap": cap,
        "exponent": _quartiles(exps),
        "R_upper": _quartiles(uppers),
        "R_lower": _quartiles(lowers),
        "pushforward_dimension": dim_est.slope,
    }
    return ({"per_point": rows}, summary,
            {"exponents.csv": (["point_id", "exponent", "r_upper", "r_lower",
                                "censor_fraction"], rows)})


def _run_rank_dimension(config, workers, system, image_map):
    ladder = config.ladder()
    n_points = config.get_int("observed", "points", required=True)
    n_per_rung = config.get_int("observed", "samples_per_rung", default=50_000)
    window = config.get_int("observed", "window", default=4)
    points = system.sample_invariant(config.seed, n_points)
    tasks = [
        (system, image_map, ladder, subseed(config.seed, f"rk{i}"), n_per_rung,
         window, i, p)
        for i, p in enumerate(points)
    ]
    results = pmap(_rank_dimension_task, tasks, workers)
    rows = []
    agree = 0
    for index, est, report in results:
        ok = abs(est.slope - report.rank) <= 0.25
        agree += ok
        rows.append([index, est.slope, est.d_lower, est.d_upper, report.rank, int(ok)])
    summary = {
        "points": n_points,
        "agreement_fraction": agree / n_points,
        "ranks": sorted({row[4] for row in rows}),
    }
    return ({"per_point": rows}, summary,
            {"ranks.csv": (["point_id", "slope", "d_lower", "d_upper", "rank",
                            "agree"], rows)})


def _run_observed_equality(config, workers, system, image_map):
    # randomized identity check: observed hitting vs plain hitting with the
    # pushforward observable, two independent scan paths
    from .hitting import hitting_time
    from .rand import master_rng

    n_cases = config.get_int("observed", "points", required=True)
    cap = config.get_int("observed", "cap", default=4_000)
    rng = master_rng(subseed(config.seed, "equality"))
    points = system.sample_invariant(config.seed, n_cases)
    rows = []
    n_equal = 0
    for i, x in enumerate(points):
        base = system.sample_invariant(subseed(config.seed, f"base{i}"), 1)[0]
        y0 = image_map.apply(base.float_coords().reshape(1, -1))[0]
        r = float(2.0 ** -rng.integers(2, 8))
        obs = observed_hitting_time(system, x, tuple(y0), image_map, r, cap)
        plain = hitting_time(system, x, PushforwardDist(image_map, tuple(y0)), r, cap)
        equal = (obs.tau == plain.tau)
        n_equal += equal
        rows.append([i, r, obs.tau if obs.tau else "", plain.tau if plain.tau else "",
                     int(equal)])
    summary = {"cases": n_cases, "equal": n_equal, "all_equal": bool(n_equal == n_cases)}
    return ({"cases": rows}, summary,
            {"equality.csv": (["case", "r", "observed_tau", "hitting_tau", "equal"],
                              rows)})


def _run_flow_analogue(config, workers):
    system = config.system
    projection = parse_observation_map(
        config.get("flow-analogue", "projection", default="identity"), system.dim
    )
    n_points = config.get_int("flow-analogue", "points", required=True)
    n_max = config.get_int("flow-analogue", "n_max", required=True)
    tail_decades = config.get_float("flow-analogue", "tail_decades", default=3.0)
    target_spec = config.get("flow-analogue", "target", required=True)
    target = tuple(float(v) for v in target_spec.split(","))
    grid = log_grid(n_max)
    points = system.sample_invariant(config.seed, n_points)
    tasks = [(system, projection, target, grid, tail_decades, i, p)
             for i, p in enumerate(points)]
    results = pmap(_flow_task, tasks, workers)

    curve_rows = []
    exp_rows = []
    exponents = []
    for index, series in results:
        exponents.append(series.exponent)
        exp_rows.append([index, series.exponent, series.ratio_median, series.ratio_max])
        for n, d in zip(series.n_grid, series.d_values):
            curve_rows.append([index, n, d])
    summary = {
        "points": n_points,
        "n_max": n_max,
        "exponent": _quartiles(exponents),
        "ratio_median": _quartiles([s.ratio_median for _, s in results]),
        "tail_window": list(results[0][1].tail_window),
    }
    data = {"exponents": exp_rows, "series": curve_rows}
    return data, summary, {
        "series.csv": (["point_id", "n", "d_n"], curve_rows),
        "exponents.csv": (["point_id", "exponent", "ratio_median", "ratio_max"], exp_rows),
    }


_RUNNERS = {
    "hitting": _run_hitting,
    "dimension": _run_dimension,
    "borel-cantelli": _run_borel_cantelli,
    "correlation": _run_correlation,
    "intersection-bound": _run_intersection_bound,
    "return-stats": _run_return_stats,
    "observed": _run_observed,
    "flow-analogue": _run_flow_analogue,
}


def run(config: ExperimentConfig, workers=None):
    """Execute one experiment and persist its result atomically.

    Returns the result document.  The JSON lands at config.output; record
    streams land in CSV companions named <output-stem>.<name>.
    """
    workers = resolve_workers(workers if workers is not None else config.workers)
    system = config.system
    started = time.perf_counter()
    data, summary, companions = _RUNNERS[config.kind](config, workers)
    wall = time.perf_counter() - started

    result = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "meta": {
            "wall_time_s": wall,
            "workers": workers,
            "engine": {
                "exact": bool(system.exact),
                "caveats": list(system.caveats),
            },
        },
        "data": _jsonable(data),
        "summary": _jsonable(summary),
    }
    _atomic_write_text(config.output, json.dumps(result, indent=1, sort_keys=True))
    stem = config.output[:-5] if config.output.endswith(".json") else config.output
    for name, (header, rows) in companions.items():
        _write_csv(f"{stem}.{name}", header, rows)
    return result


def load_result(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# report generation


def _report_row(result):
    cfg = result["config"]
    summary = result["summary"]
    kind = cfg["experiment.kind"]
    row = {
        "kind": kind,
        "system": cfg["experiment.system"],
        "seed": cfg["experiment.seed"],
        "exact_engine": result["meta"]["engine"]["exact"],
        "caveats": ";".join(result["meta"]["engine"]["caveats"]),
        "headline": "",
        "floor_flag": "",
    }
    if kind == "hitting":
        row["headline"] = (
            f"R_up={summary['R_upper']['median']:.3f} "
            f"R_low={summary['R_lower']['median']:.3f} "
            f"d_up={summary['d_upper']:.3f} d_low={summary['d_lower']:.3f}"
        )
        holds = summary["exponent_floor_upper_holds"] and summary["exponent_floor_lower_holds"]
        row["floor_flag"] = "holds" if holds else "violated"
    elif kind == "dimension":
        row["headline"] = (
            f"slope={summary['slope']:.3f} "
            f"[{summary['d_lower']:.3f}, {summary['d_upper']:.3f}]"
        )
    elif kind == "borel-cantelli":
        row["headline"] = (
            f"Z/E final={summary['final_ratio']['median']:.3f} "
            f"mean={summary['final_ratio_mean']:.3f} "
            f"in-band={summary['fraction_in_band']:.2f}"
        )
    elif kind == "correlation":
        decay = summary["decay"]
        rate = decay.get("rate")
        row["headline"] = f"decay={decay['kind']}" + (
            f" rate={rate:.3f}" if rate is not None else ""
        )
    elif kind == "intersection-bound":
        row["headline"] = (
            f"pairs={summary['checked']} all_hold={summary['all_hold']}"
        )
    elif kind == "return-stats":
        row["headline"] = (
            f"sup|g-exp|={summary['sup_distance_to_exponential']:.3f} "
            f"jumps={summary['jump_clusters']} kac={summary['kac_product']:.3f}"
        )
    elif kind == "observed":
        if "agreement_fraction" in summary:
            row["headline"] = f"rank-dim agree={summary['agreement_fraction']:.2f}"
        elif "all_equal" in summary:
            row["headline"] = f"equality {summary['equal']}/{summary['cases']}"
        else:
            row["headline"] = f"observed exponent={summary['exponent']['median']:.3f}"
    elif kind == "flow-analogue":
        row["headline"] = f"exponent={summary['exponent']['median']:.3f}"
    return row


def report(results, out_path=None):
    """Human-readable summary table for a batch of persisted results.

    Raises SchemaMismatchError on empty input or mixed schema versions.
    Flags are computed from persisted summaries only.
    """
    if not results:
        raise SchemaMismatchError("no results given")
    versions = {r.get("schema_version") for r in results}
    if len(versions) != 1:
        raise SchemaMismatchError(f"mixed schema versions: {sorted(versions)}")
    if versions != {SCHEMA_VERSION}:
        raise SchemaMismatchError(f"unsupported schema versions: {sorted(versions)}")

    rows = [_report_row(r) for r in results]
    headers = ["kind", "system", "seed", "headline", "floor_flag", "caveats"]
    widths = {
        h: max(len(h), *(len(str(row[h])) for row in rows)) for h in headers
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
    text = "\n".join(lines) + "\n"
    if out_path:
        _atomic_write_text(out_path, text)
        _write_csv(
            f"{out_path}.csv",
            headers,
            [[row[h] for h in headers] for row in rows],
        )
    return text


def catalog_listing():
    """Text listing of systems, observable rules and observation maps."""
    lines = ["systems:"]
    for entry in catalog_entries():
        lines.append(
            f"  {entry['id']:<36} dim={entry['dimension']} "
            f"mixing={entry['mixing']}"
        )
        lines.append(f"      {entry['description']}")
        lines.append(f"      notes: {entry['notes']}")
    lines.append("")
    lines.append("observable rules:")
    lines.append("  dist:<c1,..,cd>            distance to a point")
    lines.append("  projdist:<axes>:<coords>   distance in projected coordinates (1-based)")
    lines.append("  slack:<m>:<rule>           max(0, f - m) for an inner rule")
    lines.append("  pushdist:<map>:<image>     distance of F(x) to an image point")
    lines.append("")
    lines.append("observation maps:")
    lines.append("  identity | proj:<axes> | linear:[[..]] | wave:<k> | const:<values>")
    return "\n".join(lines) + "\n"
