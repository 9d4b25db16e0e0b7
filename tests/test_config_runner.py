import json

import numpy as np
import pytest

from ergolab import hitting, kinds
from ergolab.config import parse_config_text
from ergolab.errors import ConfigError, InvalidBetaError, SchemaMismatchError
from ergolab.kinds import MAX_K_MAX, MAX_N_MAX, MAX_POINTS, MAX_RETURN_SAMPLES, MAX_SAMPLES
from ergolab.observables import PushforwardDist, estimate_dimension
from ergolab.parallel import ENV_WORKERS, MAX_WORKERS
from ergolab.rand import subseed
from ergolab.runner import (
    _atomic_write_text,
    catalog_listing,
    data_section_bytes,
    load_result,
    report,
    run,
)
from ergolab.systems import MAX_PRECISION_BITS

DIMENSION_CONFIG = """
[experiment]
kind = dimension
system = doubling
seed = 77
output = {out}

[observable]
rule = dist:0.5

[ladder]
kind = dyadic
start_exp = 3
stop_exp = 12

[dimension]
samples_per_rung = 1000
"""

HITTING_CONFIG = """
[experiment]
kind = hitting
system = doubling
seed = 99
output = {out}

[observable]
rule = dist:0.375

[ladder]
kind = dyadic
start_exp = 3
stop_exp = 9

[hitting]
points = 12
"""

RETURN_STATS_CONFIG = """
[experiment]
kind = return-stats
system = doubling
seed = 5
output = {out}

[observable]
rule = dist:0.375

[return-stats]
radius = {radius}
samples = 20
l_values = 0.5,20
"""


BC_CONFIG = """
[experiment]
kind = borel-cantelli
system = doubling
seed = 3
output = {out}

[observable]
rule = dist:0.375

[borel-cantelli]
{fields}
"""
BC_FIELDS = {"beta": "0.5", "k_max": "100", "points": "2", "measures": "mc",
             "mc_samples": "1000"}


def bc_config_text(out, **changes):
    fields = {**BC_FIELDS, **changes}
    return BC_CONFIG.format(out=out, fields="\n".join(f"{k} = {v}" for k, v in fields.items()))


# the two lag fields, by name, in configs that load with any lags up to MAX_LAG
LAG_CONFIGS = {
    "correlation.lags": """
[experiment]
kind = correlation
system = doubling
seed = 5
output = {out}

[correlation]
phi = cos:1
lags = {lags}
samples = 1000
""",
    "intersection-bound.decay_lags": """
[experiment]
kind = intersection-bound
system = doubling
seed = 5
output = {out}

[observable]
rule = dist:0.375

[ladder]
kind = dyadic
start_exp = 1
stop_exp = 8

[intersection-bound]
pairs = 7:2
decay_lags = {lags}
""",
}

# every count field bounded at load time: (kind, sections with {value}, bound)
_RULE = "[observable]\nrule = dist:0.3,0.7\n"
_LADDER = "[ladder]\nkind = dyadic\nstart_exp = 1\nstop_exp = 8\n"
_BC = _RULE + "[borel-cantelli]\nbeta = 0.3\nk_max = 100\n"
_FLOW = "[flow-analogue]\ntarget = 0.31,0.77\n"
_RANK = _LADDER + "[observed]\nmode = rank-dimension\nmap = identity\n"
COUNT_BOUNDS = {
    "correlation.samples": (
        "[correlation]\nphi = cos:1\nlags = 1..3\nsamples = {value}", MAX_SAMPLES),
    "intersection-bound.samples": (
        _RULE + _LADDER + "[intersection-bound]\npairs = 7:2\nsamples = {value}", MAX_SAMPLES),
    "intersection-bound.decay_samples": (
        _RULE + _LADDER + "[intersection-bound]\npairs = 7:2\ndecay_samples = {value}",
        MAX_SAMPLES),
    "borel-cantelli.mc_samples": (_BC + "points = 2\nmc_samples = {value}", MAX_SAMPLES),
    "borel-cantelli.points": (_BC + "points = {value}", MAX_POINTS),
    "return-stats.samples": (
        _RULE + "[return-stats]\nradius = 0.05\nsamples = {value}", MAX_RETURN_SAMPLES),
    "dimension.samples_per_rung": (
        _RULE + _LADDER + "[dimension]\nsamples_per_rung = {value}", MAX_SAMPLES),
    "hitting.points": (_RULE + _LADDER + "[hitting]\npoints = {value}", MAX_POINTS),
    "observed.points": (_RANK + "points = {value}", MAX_POINTS),
    "observed.samples_per_rung": (_RANK + "points = 2\nsamples_per_rung = {value}",
                                  MAX_SAMPLES),
    "flow-analogue.points": (_FLOW + "points = {value}\nn_max = 100", MAX_POINTS),
    "flow-analogue.n_max": (_FLOW + "points = 2\nn_max = {value}", MAX_N_MAX),
}


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "res.json"
        cfg = parse_config_text(DIMENSION_CONFIG.format(out=out))
        assert cfg.kind == "dimension"
        assert cfg.seed == 77
        assert len(cfg.ladder) == 10
        assert cfg.observable.target == (0.5,)

    def test_missing_seed(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json").replace("seed = 77\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "experiment.seed" in str(err.value)

    def test_unknown_system(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json").replace(
            "system = doubling", "system = horocycle")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "experiment.system" in str(err.value)

    def test_gap_violation_names_ladder(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json").replace(
            "kind = dyadic\nstart_exp = 3\nstop_exp = 12",
            "kind = explicit\nradii = 0.1,0.01\ngap_constant = 0.5")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "ladder" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json") + "\nturbo = yes\n"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_stray_section_rejected(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json") + (
            "\n[hitting]\npoints = 5\n")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "hitting" in str(err.value)

    @pytest.mark.parametrize("key", ["workers", "precision_bits"])
    def test_non_integer_experiment_field_named(self, tmp_path, key):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json").replace(
            "seed = 77\n", f"seed = 77\n{key} = two\n")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == f"experiment.{key}"

    def test_precision_bits_bound_loads_and_one_more_is_named(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json").replace(
            "system = doubling", "system = rotation:golden")
        bound = f"seed = 77\nprecision_bits = {MAX_PRECISION_BITS}\n"
        config = parse_config_text(text.replace("seed = 77\n", bound))
        assert config.system.precision_bits == MAX_PRECISION_BITS
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, {"precision_bits": MAX_PRECISION_BITS + 1})
        assert err.value.field == "experiment.precision_bits"

    def test_seed_bounds_load_and_one_beyond_is_named(self, tmp_path):
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json")
        for seed in (0, (1 << 64) - 1):
            assert parse_config_text(text, {"seed": seed}).seed == seed
        for seed in (-1, 1 << 64):
            with pytest.raises(ConfigError) as err:
                parse_config_text(text, {"seed": seed})
            assert err.value.field == "experiment.seed"

    def test_workers_bound_loads_and_one_more_is_named(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        text = DIMENSION_CONFIG.format(out=tmp_path / "r.json")
        assert parse_config_text(text, {"workers": MAX_WORKERS}).workers == MAX_WORKERS
        assert 1 <= parse_config_text(text).workers <= MAX_WORKERS
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, {"workers": MAX_WORKERS + 1})
        assert err.value.field == "experiment.workers"
        monkeypatch.setenv(ENV_WORKERS, str(MAX_WORKERS + 1))
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == ENV_WORKERS
        assert parse_config_text(text, {"workers": 3}).workers == 3  # the key wins

    def test_k_max_bound_loads_and_one_more_is_named(self, tmp_path):
        config = parse_config_text(bc_config_text(tmp_path / "r.json", k_max=MAX_K_MAX))
        assert config.params.k_max == MAX_K_MAX
        with pytest.raises(ConfigError) as err:
            parse_config_text(bc_config_text(tmp_path / "r.json", k_max=MAX_K_MAX + 1))
        assert err.value.field == "borel-cantelli.k_max"

    @pytest.mark.parametrize("field", COUNT_BOUNDS)
    def test_count_bound_loads_and_one_more_is_named(self, tmp_path, field):
        kind, key = field.split(".")
        sections, bound = COUNT_BOUNDS[field]
        text = (f"[experiment]\nkind = {kind}\nsystem = cat\nseed = 5\n"
                f"output = {tmp_path / 'r.json'}\n{sections}\n")
        assert getattr(parse_config_text(text.format(value=bound)).params, key) == bound
        with pytest.raises(ConfigError) as err:
            parse_config_text(text.format(value=bound + 1))
        assert err.value.field == field

    @pytest.mark.parametrize("radius", ["-0.1", "0"])
    def test_non_positive_return_radius_named(self, tmp_path, radius):
        with pytest.raises(ConfigError) as err:
            parse_config_text(RETURN_STATS_CONFIG.format(out=tmp_path / "r.json",
                                                         radius=radius))
        assert err.value.field == "return-stats.radius"

    def test_borel_cantelli_fields_accepted(self, tmp_path):
        run(parse_config_text(bc_config_text(tmp_path / "r.json")), workers=1)
        assert (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("measures", "foo"), ("k_max", "0"), ("points", "0"), ("mc_samples", "0"),
    ])
    def test_bad_borel_cantelli_field_named(self, tmp_path, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(bc_config_text(tmp_path / "r.json", **{key: value}))
        assert err.value.field == f"borel-cantelli.{key}"

    @pytest.mark.parametrize("field", sorted(LAG_CONFIGS))
    @pytest.mark.parametrize("lags", ["1..99999999999", "0..1001", "5,1001"])
    def test_lags_bounded_above(self, tmp_path, field, lags):
        text = LAG_CONFIGS[field].format(out=tmp_path / "r.json", lags=lags)
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == field

    @pytest.mark.parametrize("field", sorted(LAG_CONFIGS))
    def test_lags_up_to_the_bound_load(self, tmp_path, field):
        text = LAG_CONFIGS[field].format(out=tmp_path / "r.json", lags="998,1000")
        params = parse_config_text(text).params
        assert list(params.lags if field == "correlation.lags" else params.decay_lags) \
            == [998, 1000]

    def test_overrides(self, tmp_path):
        cfg = parse_config_text(
            DIMENSION_CONFIG.format(out=tmp_path / "r.json"),
            overrides={"seed": 123},
        )
        assert cfg.seed == 123


class TestRunner:
    def test_dimension_run_matches_direct_estimate(self, tmp_path):
        out = tmp_path / "dim.json"
        cfg = parse_config_text(DIMENSION_CONFIG.format(out=out))
        result = run(cfg, workers=1)
        from ergolab.observables import DistToPoint, RadiusLadder, estimate_dimension
        from ergolab.systems import Doubling

        direct = estimate_dimension(DistToPoint((0.5,)), RadiusLadder.dyadic(3, 12),
                                    Doubling(), seed=77, n_per_rung=1000)
        assert result["summary"]["slope"] == direct.slope
        assert result["summary"]["d_upper"] == direct.d_upper
        assert out.exists()
        assert (tmp_path / "dim.rungs.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = run(parse_config_text(HITTING_CONFIG.format(out=out1)), workers=1)
        r2 = run(parse_config_text(HITTING_CONFIG.format(out=out2)), workers=1)
        assert data_section_bytes(r1) == data_section_bytes(r2)

    def test_worker_count_does_not_change_data(self, tmp_path):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        r1 = run(parse_config_text(HITTING_CONFIG.format(out=out1)), workers=1)
        r2 = run(parse_config_text(HITTING_CONFIG.format(out=out2)), workers=2)
        assert data_section_bytes(r1) == data_section_bytes(r2)
        assert r1["meta"]["workers"] == 1
        assert r2["meta"]["workers"] == 2

    @pytest.mark.parametrize("kind, sections", [
        ("correlation", "[correlation]\nphi = dyadicmix:10\npsi = cos:1\nlags = 1..9\n"
                        "samples = 3000"),
        ("intersection-bound", "[observable]\nrule = dist:0.375\n[ladder]\nkind = dyadic\n"
                               "start_exp = 1\nstop_exp = 6\n[intersection-bound]\n"
                               "pairs = 3:1,5:2\nsamples = 2000\ndecay_lags = 1..6\n"
                               "decay_samples = 200000"),
    ])
    def test_correlation_lags_do_not_depend_on_worker_count(self, tmp_path, kind, sections):
        text = (f"[experiment]\nkind = {kind}\nsystem = doubling\nseed = 41\n"
                f"output = {{out}}\n{sections}\n")
        results = [run(parse_config_text(text.format(out=tmp_path / f"w{w}.json")), workers=w)
                   for w in (1, 2)]
        assert len({data_section_bytes(r) for r in results}) == 1

    @pytest.mark.parametrize("system, sections", [
        ("mp:0.3", "[observable]\nrule = dist:0.5\n[hitting]\npoints = 13\ncap = 20000"),
        ("cat", "[observable]\nrule = dist:0.3,0.7\n[hitting]\npoints = 13\ncap = 20000"),
        ("cat", "[observed]\nmode = hitting-exponent\nmap = proj:1\nimage_point = 0.5\n"
                "points = 13"),
    ], ids=["hitting-mp", "hitting-cat", "observed-exponent"])
    def test_ladder_scans_do_not_depend_on_worker_count(self, tmp_path, system, sections):
        # 13 starts: one slice at workers 1, of 6 and 7 starts at 2, of 4, 4 and 5 at 3
        kind = "observed" if "[observed]" in sections else "hitting"
        text = (f"[experiment]\nkind = {kind}\nsystem = {system}\nseed = 31\n"
                "output = {out}\n[ladder]\nkind = dyadic\nstart_exp = 2\nstop_exp = 7\n"
                f"{sections}\n")
        results = [run(parse_config_text(text.format(out=tmp_path / f"w{w}.json")), workers=w)
                   for w in (1, 2, 3)]
        assert [r["meta"]["workers"] for r in results] == [1, 2, 3]
        assert len(results[0]["data"]["per_point"]) == 13
        assert len({data_section_bytes(r) for r in results}) == 1

    def test_ladder_scans_give_each_worker_one_slice(self, tmp_path, monkeypatch):
        calls, scanned, first_hits = [], [], kinds.first_hits

        def serial_pmap(fn, items, workers):
            calls.append((workers, [len(part) for part in items]))
            return [fn(item) for item in items]

        def recording(system, points, *args):
            scanned.append(len(points))
            return first_hits(system, points, *args)

        monkeypatch.setattr(kinds, "pmap", serial_pmap)
        monkeypatch.setattr(kinds, "first_hits", recording)
        for workers in (1, 2, 5, 20):
            run(parse_config_text(HITTING_CONFIG.format(out=tmp_path / "h.json")), workers)
        assert calls == [(1, [12]), (2, [6, 6]), (5, [2, 2, 3, 2, 3]), (20, [1] * 12)]
        assert scanned == [12, 6, 6, 2, 2, 3, 2, 3] + [1] * 12

    def test_persisted_file_round_trips(self, tmp_path):
        out = tmp_path / "h.json"
        result = run(parse_config_text(HITTING_CONFIG.format(out=out)), workers=1)
        loaded = load_result(out)
        assert data_section_bytes(loaded) == data_section_bytes(result)
        assert loaded["config"]["experiment.seed"] == "99"

    def test_no_partial_file_on_failure(self, tmp_path, monkeypatch):
        out = tmp_path / "fail.json"
        cfg = parse_config_text(HITTING_CONFIG.format(out=out))
        import dataclasses

        from ergolab.kinds import KINDS

        def boom(config, workers):
            raise RuntimeError("midway failure")

        monkeypatch.setitem(KINDS, "hitting", dataclasses.replace(KINDS["hitting"], run=boom))
        with pytest.raises(RuntimeError):
            run(cfg, workers=1)
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_stale_temp_names_do_not_block_a_run(self, tmp_path):
        # the fixed temp names of an older writer, left as directories
        (tmp_path / ".dim.json.tmp").mkdir()
        (tmp_path / ".dim.rungs.csv.tmp").mkdir()
        run(parse_config_text(DIMENSION_CONFIG.format(out=tmp_path / "dim.json")), workers=1)
        assert (tmp_path / "dim.json").exists()
        assert (tmp_path / "dim.rungs.csv").exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            _atomic_write_text(tmp_path / "x.txt", "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_json_written_after_companions(self, tmp_path):
        (tmp_path / "dim.rungs.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            run(parse_config_text(DIMENSION_CONFIG.format(out=tmp_path / "dim.json")),
                workers=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dim.rungs.csv"]

    def test_return_stats_samples_and_scans_once(self, tmp_path, monkeypatch):
        # the curve, Kac and both indicators read one return sample
        import ergolab.returns as returns_module

        calls = {"sample_conditioned": 0, "conditioned_return_times": 0}

        def counting(name):
            original = getattr(returns_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(returns_module, name, counting(name))
        cfg = parse_config_text(RETURN_STATS_CONFIG.format(out=tmp_path / "r.json",
                                                           radius=0.03125))
        result = run(cfg, workers=1)
        assert calls == {"sample_conditioned": 1, "conditioned_return_times": 1}
        assert len(result["data"]["indicators"]) == 2

    def test_borel_cantelli_builds_its_targets_once(self, tmp_path, monkeypatch):
        calls = []
        real = hitting.exact_measure

        def counting(system, f, r):
            calls.append(np.shape(r))
            return real(system, f, r)

        monkeypatch.setattr(hitting, "exact_measure", counting)
        text = bc_config_text(tmp_path / "r.json", points=3, measures="exact")
        result = run(parse_config_text(text), workers=1)
        assert calls == [(101,)]  # one call over all k_max + 1 radii, not one per point
        assert {row[0] for row in result["data"]["counters"]} == {0, 1, 2}

    def test_missing_closed_form_raises_before_any_pool(self, tmp_path, forks):
        # cat's dist: rule has no closed-form measure for r in (0.5, sqrt(2)/2),
        # and 3^-0.4 lies there
        text = bc_config_text(tmp_path / "r.json", beta="0.4", points="4", measures="exact")
        config = parse_config_text(text.replace("system = doubling", "system = cat")
                                   .replace("dist:0.375", "dist:0.3,0.7"))
        with pytest.raises(InvalidBetaError, match="no closed-form measure"):
            run(config, workers=2)
        assert not forks and not list(tmp_path.iterdir())

    def test_observed_exponent_reports_the_dimension_at_its_target(self, tmp_path):
        # on mp the pushforward measure near the neutral fixed point 0 scales
        # differently from its scaling at a typical image point
        text = ("[experiment]\nkind = observed\nsystem = mp:0.3\nseed = 5\n"
                f"output = {tmp_path / 'r.json'}\n[observed]\nmode = hitting-exponent\n"
                "map = proj:1\nimage_point = 0.0\npoints = 2\ncap = 20000\n"
                "[ladder]\nkind = dyadic\nstart_exp = 3\nstop_exp = 8\n")
        config = parse_config_text(text)
        f = PushforwardDist(config.params.map, config.params.image_point)
        at_target = estimate_dimension(f, config.ladder, config.system,
                                       subseed(5, "pf-dim"), 100_000).slope
        assert run(config, workers=1)["summary"]["pushforward_dimension"] == at_target
        assert at_target < 0.9

    def test_float_serialization_round_trips(self, tmp_path):
        out = tmp_path / "dim.json"
        result = run(parse_config_text(DIMENSION_CONFIG.format(out=out)), workers=1)
        loaded = json.loads(out.read_text())
        assert loaded["summary"]["slope"] == result["summary"]["slope"]


class TestReport:
    def test_table_contains_floor_flag(self, tmp_path):
        out = tmp_path / "h.json"
        result = run(parse_config_text(HITTING_CONFIG.format(out=out)), workers=1)
        text = report([result])
        assert "holds" in text or "violated" in text
        assert "hitting" in text

    def test_report_writes_companions(self, tmp_path):
        out = tmp_path / "h.json"
        result = run(parse_config_text(HITTING_CONFIG.format(out=out)), workers=1)
        report_path = tmp_path / "report.txt"
        report([result], str(report_path))
        assert report_path.exists()
        assert (tmp_path / "report.txt.csv").exists()

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaMismatchError):
            report([])

    def test_version_mismatch_rejected(self, tmp_path):
        out = tmp_path / "h.json"
        result = run(parse_config_text(HITTING_CONFIG.format(out=out)), workers=1)
        other = dict(result)
        other["schema_version"] = "0"
        with pytest.raises(SchemaMismatchError) as err:
            report([result, other])
        assert "0" in str(err.value)


def test_catalog_listing_mentions_required_ids():
    text = catalog_listing()
    for token in ("doubling", "cat", "rotation:", "liouville", "mp:<s>", "float-engine"):
        assert token in text
