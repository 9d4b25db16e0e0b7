import json

import pytest

from ergolab.cli import main


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


@pytest.mark.parametrize("text,field", [
    (CONFIG.replace("seed = 5\n", "seed = 5\nworkers = two\n"), "experiment.workers"),
    (RETURN_CONFIG, "return-stats.radius"),
    (BC_CONFIG, "borel-cantelli.measures"),
], ids=["workers", "radius", "bc-measures"])
def test_bad_field_exits_2_without_traceback(tmp_path, capsys, text, field):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(text.format(out=tmp_path / "o.json"))
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"ConfigError]: {field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


def test_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/path.ini"]) == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
