"""Config fuzz: loads and tiny runs of mutated acceptance configs, and tiny
runs of every catalog system with every observable rule.

Loading a config with one value replaced by a drawn string either succeeds
or raises ConfigError naming the field; a run either finishes or raises a
package error.  No other exception may escape, because the CLI turns only
package errors into exit code 2 without a traceback.
"""

import configparser
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ergolab import returns
from ergolab.config import parse_config_text
from ergolab.errors import ConfigError, ErgolabError
from ergolab.kinds import KINDS
from ergolab.observables import OBSERVABLE_RULES
from ergolab.runner import run
from ergolab.systems import SYSTEMS, system_from_id
from test_acceptance import _CONFIGS


def _parsed(name):
    parser = configparser.ConfigParser()
    parser.read_string(_CONFIGS[name].format(out="out.json"))
    return parser


# (config name, section, key) for every value in the acceptance configs
_KEYS = [(name, section, key)
         for name in _CONFIGS for section, keys in _parsed(name).items() for key in keys]

_VALUES = st.lists(
    st.sampled_from(list("0123456789-.:,[]") + ["nan"]), max_size=10,
).map("".join)


def _mutated(name, section, key, value, parser=None):
    parser = parser or _parsed(name)
    parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.sampled_from(_KEYS), _VALUES)
def test_mutated_acceptance_config_loads_or_raises_config_error(where, value):
    try:
        parse_config_text(_mutated(*where, value))
    except ConfigError:
        pass


# keys that only set a run's length: the load fuzz covers them, and a drawn
# value such as points = 66899 only makes a long run
_RUN_LENGTH = {"points", "samples", "samples_per_rung", "mc_samples", "decay_samples",
               "n_max", "k_max", "cap", "lags", "stop_exp", "per_octave"}
# the lengths a mutated run takes instead; every kind with a cap gets one
_SHRUNK = {"points": "2", "samples": "1000", "samples_per_rung": "4000",
           "decay_samples": "100000", "n_max": "2000", "k_max": "300", "cap": "20000"}


def _shrunk(name):
    parser = _parsed(name)
    kind = parser["experiment"]["kind"]
    for key, value in _SHRUNK.items():
        if key in parser[kind] or (key == "cap" and key in KINDS[kind].fields):
            parser[kind][key] = value
    return parser


@settings(derandomize=True, max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([where for where in _KEYS if where[2] not in _RUN_LENGTH]), _VALUES)
def test_mutated_acceptance_config_runs_or_raises_a_package_error(tmp_path, monkeypatch,
                                                                  where, value):
    # a drawn output path is relative: the run writes it under tmp_path
    monkeypatch.chdir(tmp_path)
    try:
        config = parse_config_text(_mutated(*where, value, _shrunk(where[0])))
    except ConfigError:
        return
    try:
        run(config, workers=1)
    except ErgolabError:
        pass


# each run kind at a tiny size: its own section, and a ladder where it takes one
_LADDER = "[ladder]\nkind = dyadic\nstart_exp = 2\nstop_exp = 5\n"
_RUN_SECTIONS = {
    "return-stats": "[return-stats]\nradius = 0.05\nsamples = 5\n",
    "hitting": _LADDER + "[hitting]\npoints = 2\ncap = 2000\n",
    "borel-cantelli": "[borel-cantelli]\nbeta = 0.3\nk_max = 50\npoints = 2\n"
                      "measures = mc\nmc_samples = 1000\n",
    "dimension": _LADDER + "[dimension]\nsamples_per_rung = 1000\n",
}


def _rule(prefix, dim):
    """A rule of each observable prefix on T^dim."""
    target = ",".join(["0.375", "0.7"][:dim])
    return {"dist:": f"dist:{target}", "projdist:": "projdist:1:0.375",
            "slack:": f"slack:0.01:dist:{target}",
            "pushdist:": f"pushdist:identity:{target}"}[prefix]


@pytest.mark.parametrize("kind", sorted(_RUN_SECTIONS))
@pytest.mark.parametrize("prefix", sorted(OBSERVABLE_RULES))
@pytest.mark.parametrize("system", [prefix + rule.example for prefix, rule in SYSTEMS.items()])
def test_every_system_and_rule_runs_or_raises_a_package_error(tmp_path, monkeypatch,
                                                              system, prefix, kind):
    # the non-dist rules draw their return starts by rejection; a small
    # candidate chunk keeps the exact engines' cases fast
    monkeypatch.setattr(returns, "REJECTION_CHUNK", 1024)
    text = (f"[experiment]\nkind = {kind}\nsystem = {system}\nseed = 3\n"
            f"output = {tmp_path / 'out.json'}\n"
            f"[observable]\nrule = {_rule(prefix, system_from_id(system).dim)}\n"
            + _RUN_SECTIONS[kind])
    try:
        run(parse_config_text(text), workers=1)
    except ErgolabError:
        pass
