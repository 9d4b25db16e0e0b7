"""Experiment configuration: flat key = value sections, strictly validated.

The format is INI (configparser): diff-friendly, hand-editable, no nesting.
Every config names its experiment kind, a catalog system, a seed (no
implicit entropy, ever) and an output path; the kind decides which further
sections apply.  The kind table (``ergolab.kinds``) names the sections and
keys each kind reads; every value is parsed and checked here, at load time,
and any bad value raises a ConfigError naming its section.key.  Unknown
sections or keys are errors, as are ladders that violate the gap condition
or ids that do not resolve.
"""

import configparser
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import ConfigError
from .kinds import KINDS, REQUIRED, SHARED, Field, choice, integer, nonempty
from .observables import RadiusLadder
from .parallel import ENV_WORKERS, resolve_workers
from .systems import MAX_PRECISION_BITS, system_from_id


def _output_path(value):
    if not os.path.basename(nonempty(value)) or os.path.isdir(value):
        raise ValueError(f"names a directory, not a result file: {value!r}")
    return value


_EXPERIMENT = {
    "kind": Field(choice(*KINDS)),
    "system": Field(nonempty),
    # required: no implicit entropy; the random streams key on 64 bits
    "seed": Field(integer(0, (1 << 64) - 1)),
    "output": Field(_output_path),
    "workers": Field(int, None),  # its range is checked with ERGOLAB_WORKERS
    "precision_bits": Field(integer(1, MAX_PRECISION_BITS), None),
}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description.

    ``sections`` keeps the raw text of every section but [experiment] for
    the result echo.  ``system`` is the resolved (immutable) system;
    ``params`` holds the kind's own section parsed; ``observable`` and
    ``ladder`` the shared sections, None when unused.
    """

    kind: str
    system_id: str
    seed: int
    output: str
    workers: int
    precision_bits: int | None
    system: object
    sections: dict = field(default_factory=dict)
    params: SimpleNamespace = None
    observable: object = None
    ladder: RadiusLadder = None

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


def _parse_fields(section, fields, raw, dim):
    """Every field of a section parsed, defaults filled in; ConfigError names it."""
    values = {}
    for key, spec in fields.items():
        value = raw.get(key, spec.default)
        if value is REQUIRED:
            raise ConfigError(f"{section}.{key}", "required")
        if value is not None:
            try:
                value = spec.parse(value, dim) if spec.dim else spec.parse(value)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}", str(exc)) from None
        values[key] = value
    return SimpleNamespace(**values)


def _check_keys(section, fields, raw):
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}", "unknown key")


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
    raw_exp = sections.pop("experiment")
    for key, value in (overrides or {}).items():
        if value is not None:
            raw_exp[key] = str(value)
    _check_keys("experiment", _EXPERIMENT, raw_exp)
    exp = _parse_fields("experiment", _EXPERIMENT, raw_exp, None)
    try:
        workers = resolve_workers(exp.workers)
    except ValueError as exc:
        source = ENV_WORKERS if exp.workers is None else "experiment.workers"
        raise ConfigError(source, str(exc)) from None

    kind = KINDS[exp.kind]
    used = {exp.kind: kind.fields}
    used.update((name, SHARED[name][0]) for name in kind.shared + kind.optional)
    for name, keys in sections.items():
        if name not in used:
            known = name in KINDS or name in SHARED
            raise ConfigError(name, f"section not used by kind {exp.kind!r}" if known
                              else "unknown section")
        _check_keys(name, used[name], keys)

    try:
        system = system_from_id(exp.system, exp.precision_bits)
    except ValueError as exc:
        raise ConfigError("experiment.system", str(exc)) from None

    shared = {}
    for name in kind.shared + tuple(n for n in kind.optional if n in sections):
        fields, build = SHARED[name]
        shared[name] = build(_parse_fields(name, fields, sections.get(name, {}), system.dim))
    config = ExperimentConfig(
        kind=exp.kind,
        system_id=exp.system,
        seed=exp.seed,
        output=exp.output,
        workers=workers,
        precision_bits=exp.precision_bits,
        system=system,
        sections=sections,
        params=_parse_fields(exp.kind, kind.fields, sections.get(exp.kind, {}), system.dim),
        **shared,
    )
    if kind.check:
        kind.check(config)
    return config


def load_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(str(path), f"not UTF-8 text ({exc})") from None
    return parse_config_text(text, overrides)
