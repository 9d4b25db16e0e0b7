import json

import pytest

from ergolab.cli import main
from ergolab.config import parse_config_text
from ergolab.kinds import FUNCTION_SPECS, parse_function_spec
from ergolab.observables import OBSERVABLE_RULES, parse_observable
from ergolab.observed import OBSERVATION_MAPS, parse_observation_map
from ergolab.parallel import ENV_WORKERS
from ergolab.systems import SYSTEMS, system_from_id


CONFIG = """
[experiment]
kind = dimension
system = cat
seed = 5
output = {out}

[observable]
rule = dist:0.25,0.75

[ladder]
kind = dyadic
start_exp = 3
stop_exp = 10

[dimension]
samples_per_rung = 500
"""

RETURN_CONFIG = """
[experiment]
kind = return-stats
system = doubling
seed = 5
output = {out}

[observable]
rule = dist:0.375

[return-stats]
radius = -0.1
samples = 20
"""


@pytest.mark.parametrize("system,target", [
    ("doubling", "0.375"), ("cat", "0.3,0.7"), ("rotation:golden", "0.375"),
])
def test_rejection_sampled_return_starts_run_on_exact_engines(tmp_path, capsys, system, target):
    # a slack: target has no direct sampler, so its starts are drawn by rejection
    text = (RETURN_CONFIG.replace("system = doubling", f"system = {system}")
            .replace("dist:0.375", f"slack:0.01:dist:{target}")
            .replace("radius = -0.1", "radius = 0.05"))
    cfg_path = tmp_path / "slack.ini"
    cfg_path.write_text(text.format(out=tmp_path / "o.json"))
    assert main(["run", str(cfg_path), "--workers", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_catalog_command(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "doubling" in out and "mp:<s>" in out


def test_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    out_path = tmp_path / "exp.json"
    cfg_path.write_text(CONFIG.format(out=out_path))
    assert main(["run", str(cfg_path), "--workers", "1"]) == 0
    assert out_path.exists()
    result = json.loads(out_path.read_text())
    assert result["summary"]["slope"] == 2.0

    assert main(["report", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "dimension" in out


def test_run_seed_override(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    out_path = tmp_path / "exp.json"
    cfg_path.write_text(CONFIG.format(out=out_path))
    assert main(["run", str(cfg_path), "--seed", "123", "--workers", "1"]) == 0
    result = json.loads(out_path.read_text())
    assert result["config"]["experiment.seed"] == "123"


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[experiment]\nkind = dimension\n")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err


def test_config_that_is_not_utf8_exits_2_without_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "bin.ini"
    cfg_path.write_bytes(b"\xff\xfe[experiment]\n")
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"ConfigError]: {cfg_path}: not UTF-8 text" in err
    assert "Traceback" not in err


def _result_bytes(kind):
    # a valid config and meta over an empty summary
    return json.dumps({
        "schema_version": "1",
        "config": {"experiment.kind": kind, "experiment.system": "doubling",
                   "experiment.seed": "5"},
        "meta": {"engine": {"exact": True, "caveats": []}},
        "data": {},
        "summary": {},
    }).encode()


NOT_RESULTS = {
    "markdown": "# ergolab\n".encode(),
    "not-utf8": b"\xff\xfe{}",
    "no-config": b'{"schema_version": "1"}',
    "list": b"[1]",
    "hollow": b'{"schema_version":"1","config":{},"meta":{},"data":{},"summary":{}}',
    "empty-summary": _result_bytes("hitting"),
    "unknown-kind": _result_bytes("nope"),
}


@pytest.mark.parametrize("content", NOT_RESULTS.values(), ids=NOT_RESULTS.keys())
def test_report_on_a_file_that_is_not_a_result_exits_2(tmp_path, capsys, content):
    path = tmp_path / "not-a-result.json"
    path.write_bytes(content)
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error[SchemaMismatchError]: {path}: not a result file" in err
    assert "Traceback" not in err


BC_CONFIG = """
[experiment]
kind = borel-cantelli
system = doubling
seed = 5
output = {out}

[observable]
rule = dist:0.375

[borel-cantelli]
beta = 0.5
k_max = 100
points = 2
measures = foo
"""


CORRELATION_CONFIG = """
[experiment]
kind = correlation
system = doubling
seed = 5
output = {out}

[correlation]
phi = cos:1
lags = 1..3
samples = 1000
"""

FLOW_CONFIG = """
[experiment]
kind = flow-analogue
system = cat
seed = 5
output = {out}

[flow-analogue]
projection = identity
points = 2
n_max = 100
target = 0.31,0.77
"""

OBSERVED_CONFIG = """
[experiment]
kind = observed
system = cat
seed = 5
output = {out}

[observed]
mode = hitting-exponent
map = proj:1
image_point = 0.5
points = 2

[ladder]
kind = dyadic
start_exp = 3
stop_exp = 6
"""

RETURN_OK = RETURN_CONFIG.replace("radius = -0.1", "radius = 0.05")

HITTING_CONFIG = CONFIG.replace("kind = dimension", "kind = hitting").replace(
    "[dimension]\nsamples_per_rung = 500", "[hitting]\npoints = 2")

INTERSECTION_CONFIG = CONFIG.replace("kind = dimension", "kind = intersection-bound").replace(
    "[dimension]\nsamples_per_rung = 500", "[intersection-bound]\npairs = 8:2")

TYPO = "10000000000000"  # 10^13, far above every count field's bound

BAD_FIELDS = {
    "workers": (CONFIG.replace("seed = 5\n", "seed = 5\nworkers = two\n"),
                "experiment.workers"),
    # a fork pool starts every worker at its first task
    "workers-above-bound": (CONFIG.replace("seed = 5\n", "seed = 5\nworkers = 100000\n"),
                            "experiment.workers"),
    "workers-0": (CONFIG.replace("seed = 5\n", "seed = 5\nworkers = 0\n"),
                  "experiment.workers"),
    "workers-flag-above-bound": (CONFIG, "experiment.workers", "--workers", "257"),
    # the random streams key on 64 bits: a wider seed would alias another
    "seed-negative": (CONFIG.replace("seed = 5\n", "seed = -1\n"), "experiment.seed"),
    "seed-above-bound": (CONFIG.replace("seed = 5\n", f"seed = {1 << 64}\n"),
                         "experiment.seed"),
    "seed-flag-above-bound": (CONFIG, "experiment.seed", "--seed", str(1 << 64)),
    "precision-bits": (CONFIG.replace("seed = 5\n", "seed = 5\nprecision_bits = -5\n"),
                       "experiment.precision_bits"),
    # an unbounded B would spend minutes building the system (isqrt for golden)
    "precision-bits-above-bound": (
        CONFIG.replace("system = cat", "system = rotation:golden").replace(
            "seed = 5\n", "seed = 5\nprecision_bits = 100000000\n"),
        "experiment.precision_bits"),
    "precision-bits-flag-above-bound": (CONFIG, "experiment.precision_bits",
                                        "--precision-bits", "65537"),
    "radius": (RETURN_CONFIG, "return-stats.radius"),
    # a target that holds no start of its direct draw: a radius within the
    # 2^-50 edge guard, a disc within the guard grown by the truncation to a
    # lattice coarser than a float, an interval with no lattice point
    "radius-doubling-guard": (RETURN_OK.replace("radius = 0.05", "radius = 1e-20"),
                              "return-stats.radius"),
    "radius-golden-guard": (
        RETURN_OK.replace("system = doubling", "system = rotation:golden")
        .replace("radius = 0.05", "radius = 1e-20"), "return-stats.radius"),
    "radius-cat-guard": (
        RETURN_OK.replace("system = doubling", "system = cat")
        .replace("dist:0.375", "dist:0.3,0.7").replace("radius = 0.05", "radius = 1e-20"),
        "return-stats.radius"),
    "radius-golden-no-lattice-point": (
        RETURN_OK.replace("system = doubling", "system = rotation:golden")
        .replace("seed = 5\n", "seed = 5\nprecision_bits = 8\n")
        .replace("dist:0.375", "dist:0.3").replace("radius = 0.05", "radius = 1e-4"),
        "return-stats.radius"),
    "radius-cat-40-bits": (
        RETURN_OK.replace("system = doubling", "system = cat")
        .replace("seed = 5\n", "seed = 5\nprecision_bits = 40\n")
        .replace("dist:0.375", "dist:0.3,0.7").replace("radius = 0.05", "radius = 1e-13"),
        "return-stats.radius"),
    "radius-cat-20-bits": (
        RETURN_OK.replace("system = doubling", "system = cat")
        .replace("seed = 5\n", "seed = 5\nprecision_bits = 20\n")
        .replace("dist:0.375", "dist:0.3,0.7").replace("radius = 0.05", "radius = 1e-7"),
        "return-stats.radius"),
    # a Monte Carlo measure estimate of 0, with an explicit cap
    "radius-mp-measure-0": (
        RETURN_OK.replace("system = doubling", "system = mp:0.5")
        .replace("samples = 20", "samples = 5\ncap = 1000")
        .replace("radius = 0.05", "radius = 1e-9"),
        "return-stats.radius"),
    "bc-measures": (BC_CONFIG, "borel-cantelli.measures"),
    # raised before any start is drawn: beta outside (0, 1/d_upper), and
    # exact measures on a system with no closed form
    "bc-beta-above-bound": (BC_CONFIG.replace("beta = 0.5", "beta = 2.0").replace(
        "measures = foo\n", ""), "borel-cantelli.beta"),
    "bc-measures-no-closed-form": (
        BC_CONFIG.replace("system = doubling", "system = mp:0.3").replace(
            "measures = foo\n", ""), "borel-cantelli.measures"),
    "bc-k-max-above-bound": (
        BC_CONFIG.replace("k_max = 100\n", "k_max = 10000000000000\n").replace(
            "measures = foo\n", ""),
        "borel-cantelli.k_max"),
    "per-octave": (CONFIG.replace("stop_exp = 10", "stop_exp = 10\nper_octave = x"),
                   "ladder.per_octave"),
    "start-exp": (CONFIG.replace("start_exp = 3", "start_exp = two"), "ladder.start_exp"),
    "psi": (CORRELATION_CONFIG + "psi = bogus:1\n", "correlation.psi"),
    "lags": (CORRELATION_CONFIG.replace("lags = 1..3", "lags = 1..x"), "correlation.lags"),
    "correlation-samples": (CORRELATION_CONFIG.replace("samples = 1000", "samples = 100"),
                            "correlation.samples"),
    "dist-nan": (CONFIG.replace("dist:0.25,0.75", "dist:nan,0.75"), "observable.rule"),
    "dist-outside": (CONFIG.replace("dist:0.25,0.75", "dist:0.25,1.0"), "observable.rule"),
    "projdist-nan": (CONFIG.replace("dist:0.25,0.75", "projdist:1:nan"), "observable.rule"),
    "pushdist-nan": (CONFIG.replace("dist:0.25,0.75", "pushdist:proj12:nan,0.5"),
                     "observable.rule"),
    "flow-projection": (FLOW_CONFIG.replace("identity", "linear:[[1,0],[0,1]]"),
                        "flow-analogue.projection"),
    "linear-fraction": (CONFIG.replace("dist:0.25,0.75", "pushdist:linear:[[1.5,0]]:0.5"),
                        "observable.rule"),
    "flow-target": (FLOW_CONFIG.replace("0.31,0.77", "x"), "flow-analogue.target"),
    "flow-target-axes": (FLOW_CONFIG.replace("0.31,0.77", "0.31"), "flow-analogue.target"),
    # torus coordinates lie in [0, 1), as dist: targets do
    "flow-target-range": (FLOW_CONFIG.replace("0.31,0.77", "2.05,0.77"), "flow-analogue.target"),
    "flow-target-negative": (FLOW_CONFIG.replace("0.31,0.77", "0.31,-0.23"),
                             "flow-analogue.target"),
    "image-point-range": (OBSERVED_CONFIG.replace("image_point = 0.5", "image_point = 1.5"),
                          "observed.image_point"),
    "image-point-linear-range": (
        OBSERVED_CONFIG.replace("map = proj:1", "map = linear:[[1,1]]")
        .replace("image_point = 0.5", "image_point = -0.25"), "observed.image_point"),
    "image-point-identity-range": (
        OBSERVED_CONFIG.replace("map = proj:1", "map = identity")
        .replace("image_point = 0.5", "image_point = 0.5,1.0"), "observed.image_point"),
    "pushdist-range": (CONFIG.replace("dist:0.25,0.75", "pushdist:proj:1:2.1"),
                       "observable.rule"),
    "pushdist-linear-range": (CONFIG.replace("dist:0.25,0.75", "pushdist:linear:[[1,0]]:1.0"),
                              "observable.rule"),
    "cap-0": (HITTING_CONFIG + "cap = 0\n", "hitting.cap"),
    "window-0": (HITTING_CONFIG + "window = 0\n", "hitting.window"),
    "image-point": (OBSERVED_CONFIG.replace("image_point = 0.5\n", ""),
                    "observed.image_point"),
    "image-point-axes": (OBSERVED_CONFIG.replace("image_point = 0.5", "image_point = 0.5,0.5"),
                         "observed.image_point"),
    "observed-ladder": (OBSERVED_CONFIG.split("[ladder]")[0], "ladder"),
    "pairs": (INTERSECTION_CONFIG, "intersection-bound.pairs"),
    "projdist-repeated-axes": (CONFIG.replace("dist:0.25,0.75", "projdist:1,1:0.5,0.5"),
                               "observable.rule"),
    "const-nan": (OBSERVED_CONFIG.replace("map = proj:1", "map = const:nan"), "observed.map"),
    "rotation-zero-denominator": (CONFIG.replace("system = cat", "system = rotation:1/0"),
                                  "experiment.system"),
    "cos-overflow": (CORRELATION_CONFIG.replace("cos:1", "cos:" + "9" * 400),
                     "correlation.phi"),
    "cos-frequency": (CORRELATION_CONFIG.replace("cos:1", "cos:1" + "0" * 300),
                      "correlation.phi"),
    "wave-frequency": (OBSERVED_CONFIG.replace("map = proj:1", "map = wave:" + "9" * 400),
                       "observed.map"),
    "pushdist-wave-frequency": (
        CONFIG.replace("dist:0.25,0.75", "pushdist:wave:" + "9" * 400 + ":1,0"),
        "observable.rule"),
    "output-directory": (RETURN_OK.replace("{out}", "{dir}"), "experiment.output"),
    "output-separator": (RETURN_OK.replace("{out}", "{dir}/new/"), "experiment.output"),
    "grid-step": (RETURN_OK + "grid_step = 1e-320\n", "return-stats"),
    "grid-max": (RETURN_OK + "grid_max = 1e9\n", "return-stats"),
    # count fields that size one allocation or one scan
    "correlation-samples-above-bound": (
        CORRELATION_CONFIG.replace("samples = 1000", f"samples = {TYPO}"), "correlation.samples"),
    "intersection-samples-above-bound": (
        INTERSECTION_CONFIG.replace("pairs = 8:2", f"pairs = 8:2\nsamples = {TYPO}"),
        "intersection-bound.samples"),
    "decay-samples-above-bound": (
        INTERSECTION_CONFIG.replace("pairs = 8:2", f"pairs = 8:2\ndecay_samples = {TYPO}"),
        "intersection-bound.decay_samples"),
    "bc-mc-samples-above-bound": (
        BC_CONFIG.replace("measures = foo", f"measures = mc\nmc_samples = {TYPO}"),
        "borel-cantelli.mc_samples"),
    "bc-points-above-bound": (
        BC_CONFIG.replace("points = 2", f"points = {TYPO}").replace("measures = foo\n", ""),
        "borel-cantelli.points"),
    "return-samples-above-bound": (RETURN_OK.replace("samples = 20", f"samples = {TYPO}"),
                                   "return-stats.samples"),
    "dimension-samples-above-bound": (
        CONFIG.replace("samples_per_rung = 500", f"samples_per_rung = {TYPO}"),
        "dimension.samples_per_rung"),
    "observed-samples-above-bound": (
        OBSERVED_CONFIG.replace("points = 2", f"points = 2\nsamples_per_rung = {TYPO}"),
        "observed.samples_per_rung"),
    "observed-points-above-bound": (OBSERVED_CONFIG.replace("points = 2", f"points = {TYPO}"),
                                    "observed.points"),
    "hitting-points-above-bound": (HITTING_CONFIG.replace("points = 2", f"points = {TYPO}"),
                                   "hitting.points"),
    "flow-points-above-bound": (FLOW_CONFIG.replace("points = 2", f"points = {TYPO}"),
                                "flow-analogue.points"),
    "flow-n-max-above-bound": (FLOW_CONFIG.replace("n_max = 100", f"n_max = {TYPO}"),
                               "flow-analogue.n_max"),
    # scan caps, explicit or derived: a tau is an int64, and a cap of 10^25
    # scans without end
    "hitting-cap-above-bound": (HITTING_CONFIG + f"cap = {10 ** 20}\n", "hitting.cap"),
    "return-cap-above-bound": (RETURN_OK + f"cap = {10 ** 20}\n", "return-stats.cap"),
    "observed-cap-above-bound": (
        OBSERVED_CONFIG.replace("points = 2", f"points = 2\ncap = {10 ** 20}"), "observed.cap"),
    "hitting-derived-cap-above-bound": (HITTING_CONFIG.replace("stop_exp = 10", "stop_exp = 40"),
                                        "hitting.cap"),
    "return-derived-cap-above-bound": (
        RETURN_OK.replace("system = doubling", "system = cat")
        .replace("dist:0.375", "dist:0.3,0.7").replace("radius = 0.05", "radius = 1e-13"),
        "return-stats.cap"),
    # a chain of slacks deep enough to exhaust the parser's recursion
    "slack-chain": (CONFIG.replace("dist:0.25,0.75", "slack:0:" * 400 + "dist:0.25,0.75"),
                    "observable.rule"),
    "obs-slack-chain": (CORRELATION_CONFIG.replace("cos:1", "obs:" + "slack:0:" * 400 + "dist:0.5"),
                        "correlation.phi"),
}


@pytest.mark.parametrize("text", [
    OBSERVED_CONFIG.replace("map = proj:1", "map = wave:1")
    .replace("image_point = 0.5", "image_point = 1.5,-2.0"),
    OBSERVED_CONFIG.replace("map = proj:1", "map = const:3")
    .replace("image_point = 0.5", "image_point = 7"),
    CONFIG.replace("dist:0.25,0.75", "pushdist:wave:1:1.5,-2.0"),
], ids=["observed-wave", "observed-const", "pushdist-wave"])
def test_flat_codomain_image_points_take_any_finite_value(tmp_path, text):
    config = parse_config_text(text.format(out=tmp_path / "o.json"))
    assert config.kind in ("observed", "dimension")


@pytest.mark.parametrize("row", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_bad_field_exits_2_without_traceback(tmp_path, capsys, row):
    text, field, *flags = row  # then any command-line flags
    cfg_path = tmp_path / "bad.ini"
    (tmp_path / "d").mkdir()
    cfg_path.write_text(text.format(out=tmp_path / "o.json", dir=tmp_path / "d"))
    assert main(["run", str(cfg_path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"ConfigError]: {field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.json").exists()
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("value", ["abc", "0", "257"])
def test_bad_worker_environment_exits_2_before_any_pool(tmp_path, capsys, monkeypatch,
                                                         forks, value):
    monkeypatch.setenv(ENV_WORKERS, value)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BC_CONFIG.replace("measures = foo\n", "").format(
        out=tmp_path / "o.json"))
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"ConfigError]: {ENV_WORKERS}" in err
    assert "Traceback" not in err
    assert not forks and not list(tmp_path.glob("o.*"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_error_raised_in_a_worker_exits_2_without_traceback(tmp_path, capsys, workers):
    # cap = 1 censors every rung, and the estimate fails inside a pool task
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        HITTING_CONFIG.replace("system = cat", "system = doubling")
        .replace("dist:0.25,0.75", "dist:0.375").replace("stop_exp = 10", "stop_exp = 8")
        .replace("points = 2", "points = 4\ncap = 1").format(out=tmp_path / "o.json"))
    assert main(["run", str(cfg_path), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "error[AllCensoredError]: every rung censored at the cap" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("o.*"))


def test_missing_closed_form_exits_2_before_any_pool(tmp_path, capsys, forks):
    # cat's dist: rule has no closed-form measure for r in (0.5, sqrt(2)/2),
    # and 3^-0.4 lies there: the run's targets fail before any start is scanned
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        BC_CONFIG.replace("system = doubling", "system = cat")
        .replace("dist:0.375", "dist:0.3,0.7").replace("beta = 0.5", "beta = 0.4")
        .replace("points = 2", "points = 4").replace("measures = foo", "measures = exact")
        .format(out=tmp_path / "o.json"))
    assert main(["run", str(cfg_path), "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert "error[ConfigError]: borel-cantelli.measures: no closed-form measure" in err
    assert "set measures = mc" in err
    assert "Traceback" not in err
    assert not forks and not list(tmp_path.glob("o.*"))


def test_output_flag_naming_a_directory_exits_2_before_the_run(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(RETURN_OK.format(out=tmp_path / "o.json"))
    assert main(["run", str(cfg_path), "--output", str(tmp_path)]) == 2
    assert "ConfigError]: experiment.output" in capsys.readouterr().err
    assert not list(tmp_path.parent.glob(tmp_path.name + ".*.csv"))


GRAMMARS = {
    "systems": (SYSTEMS, system_from_id),
    "observable-rules": (OBSERVABLE_RULES, lambda spec: parse_observable(spec, 2)),
    "observation-maps": (OBSERVATION_MAPS, lambda spec: parse_observation_map(spec, 2)),
    "correlation-functions": (FUNCTION_SPECS, lambda spec: parse_function_spec(spec, 2)),
}


@pytest.mark.parametrize("table,parse", GRAMMARS.values(), ids=GRAMMARS.keys())
def test_catalog_and_unknown_prefix_errors_list_every_rule(capsys, table, parse):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for prefix, rule in table.items():
        assert f"  {prefix}{rule.syntax} " in out
    with pytest.raises(ValueError) as err:
        parse("mystery:1")
    assert str(err.value).endswith("prefixes: " + ", ".join(table))


def test_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/path.ini"]) == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
