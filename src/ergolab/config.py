"""Experiment configuration: flat key = value sections, strictly validated.

The format is INI (configparser): diff-friendly, hand-editable, no nesting.
Every config names its experiment kind, a catalog system, a seed (no
implicit entropy, ever) and an output path; the kind decides which further
sections apply.  Unknown sections or keys are errors, as are ladders that
violate the gap condition or ids that do not resolve.
"""

import configparser
from dataclasses import dataclass, field

from .errors import ConfigError
from .observables import RadiusLadder, parse_observable
from .systems import system_from_id

EXPERIMENT_KINDS = (
    "dimension",
    "hitting",
    "borel-cantelli",
    "correlation",
    "intersection-bound",
    "return-stats",
    "observed",
    "flow-analogue",
)

_KNOWN_KEYS = {
    "experiment": {"kind", "system", "seed", "output", "workers", "precision_bits"},
    "observable": {"rule"},
    "ladder": {"kind", "start_exp", "stop_exp", "per_octave", "radii", "gap_constant"},
    "dimension": {"samples_per_rung", "window"},
    "hitting": {"points", "cap", "window"},
    "borel-cantelli": {"beta", "k_max", "points", "measures", "mc_samples"},
    "correlation": {"phi", "psi", "lags", "samples"},
    "intersection-bound": {
        "pairs", "samples", "decay_phi", "decay_lags", "decay_samples",
    },
    "return-stats": {"radius", "samples", "cap", "l_values", "grid_max", "grid_step"},
    "observed": {"map", "mode", "points", "cap", "image_point", "samples_per_rung", "window"},
    "flow-analogue": {"projection", "points", "n_max", "target", "tail_decades"},
}

_SECTION_FOR_KIND = {
    "dimension": {"observable", "ladder", "dimension"},
    "hitting": {"observable", "ladder", "hitting"},
    "borel-cantelli": {"observable", "borel-cantelli"},
    "correlation": {"correlation"},
    "intersection-bound": {"observable", "ladder", "intersection-bound"},
    "return-stats": {"observable", "return-stats"},
    "observed": {"observed", "ladder"},
    "flow-analogue": {"flow-analogue"},
}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    kind: str
    system_id: str
    seed: int
    output: str
    workers: int | None
    precision_bits: int | None
    sections: dict = field(default_factory=dict)

    @property
    def system(self):
        return system_from_id(self.system_id, self.precision_bits)

    def observable(self):
        rule = self.get("observable", "rule")
        return parse_observable(rule, self.system.dim)

    def ladder(self):
        section = self.sections.get("ladder", {})
        kind = section.get("kind", "dyadic")
        if kind == "dyadic":
            try:
                start = float(section["start_exp"])
                stop = float(section["stop_exp"])
            except KeyError as missing:
                raise ConfigError(f"ladder.{missing.args[0]}", "required") from None
            per_octave = int(section.get("per_octave", 1))
            try:
                return RadiusLadder.dyadic(start, stop, per_octave)
            except ValueError as exc:
                raise ConfigError("ladder", str(exc)) from None
        if kind == "explicit":
            try:
                radii = tuple(float(v) for v in section["radii"].split(","))
            except KeyError:
                raise ConfigError("ladder.radii", "required") from None
            gap = section.get("gap_constant")
            try:
                return RadiusLadder(radii, float(gap) if gap else None)
            except ValueError as exc:
                raise ConfigError("ladder.radii", str(exc)) from None
        raise ConfigError("ladder.kind", f"unknown ladder kind {kind!r}")

    def get(self, section, key, default=None, required=None):
        value = self.sections.get(section, {}).get(key, default)
        if value is None and required:
            raise ConfigError(f"{section}.{key}", "required")
        return value

    def get_int(self, section, key, default=None, required=None):
        value = self.get(section, key, default, required)
        if value is None:
            return None
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}", f"not an integer: {value!r}") from None

    def get_float(self, section, key, default=None, required=None):
        value = self.get(section, key, default, required)
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}", f"not a number: {value!r}") from None

    def echo(self):
        """Flat section.key -> value mapping for result reproduction."""
        flat = {
            "experiment.kind": self.kind,
            "experiment.system": self.system_id,
            "experiment.seed": str(self.seed),
        }
        if self.precision_bits:
            flat["experiment.precision_bits"] = str(self.precision_bits)
        for section, keys in sorted(self.sections.items()):
            for key, value in sorted(keys.items()):
                flat[f"{section}.{key}"] = str(value)
        return flat


def _experiment_int(exp, key):
    """Integer value of an optional [experiment] key, None when absent."""
    if key not in exp:
        return None
    try:
        return int(exp[key])
    except ValueError:
        raise ConfigError(f"experiment.{key}", f"not an integer: {exp[key]!r}") from None


def parse_config_text(text, overrides=None):
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", f"not parseable: {exc}") from None

    if "experiment" not in parser:
        raise ConfigError("experiment", "missing [experiment] section")

    sections = {
        name: dict(parser[name]) for name in parser.sections()
    }
    exp = sections.pop("experiment")
    for key, value in (overrides or {}).items():
        if value is not None:
            exp[key] = str(value)

    for name, keys in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(name, "unknown section")
        unknown = set(keys) - _KNOWN_KEYS[name]
        if unknown:
            raise ConfigError(f"{name}.{sorted(unknown)[0]}", "unknown key")
    unknown = set(exp) - _KNOWN_KEYS["experiment"]
    if unknown:
        raise ConfigError(f"experiment.{sorted(unknown)[0]}", "unknown key")

    kind = exp.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment.kind", f"must be one of {EXPERIMENT_KINDS}")
    allowed = _SECTION_FOR_KIND[kind]
    stray = set(sections) - allowed
    if stray:
        raise ConfigError(sorted(stray)[0], f"section not used by kind {kind!r}")

    if "seed" not in exp:
        raise ConfigError("experiment.seed", "required; no implicit entropy")
    seed = _experiment_int(exp, "seed")

    system_id = exp.get("system")
    if not system_id:
        raise ConfigError("experiment.system", "required")
    precision_bits = _experiment_int(exp, "precision_bits")
    try:
        system_from_id(system_id, precision_bits)
    except (KeyError, ValueError) as exc:
        raise ConfigError("experiment.system", str(exc)) from None

    output = exp.get("output")
    if not output:
        raise ConfigError("experiment.output", "required")

    workers = _experiment_int(exp, "workers")

    config = ExperimentConfig(
        kind=kind,
        system_id=system_id,
        seed=seed,
        output=output,
        workers=workers,
        precision_bits=precision_bits,
        sections=sections,
    )
    # surface ladder/observable problems at load time
    if "ladder" in sections:
        config.ladder()
    if "observable" in sections:
        try:
            config.observable()
        except ValueError as exc:
            raise ConfigError("observable.rule", str(exc)) from None
    return config


def load_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)
