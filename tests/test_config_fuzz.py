"""Load-time fuzz: one value of an acceptance config replaced by a drawn string.

Loading either succeeds or raises ConfigError naming the field; no other
exception may escape, because the CLI turns only package errors into exit
code 2 without a traceback.
"""

import configparser
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.config import parse_config_text
from ergolab.errors import ConfigError
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


def _mutated(name, section, key, value):
    parser = _parsed(name)
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
