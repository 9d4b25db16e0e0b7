"""Experiment runner: dispatch, atomic persistence, reports.

Results are JSON documents with a config echo, a deterministic data section
and fitted summaries; heavyweight record streams also land in CSV
companions next to the JSON.  The (config, seed) pair fully determines the
config/data/summary sections; worker counts and wall time live in meta.
Files are written atomically (unique temp file, then rename), and the JSON
is written after its CSV companions, so an interrupted run never leaves a
partial result at the output path.
"""

import json
import os
import tempfile
import time

from .errors import SchemaMismatchError
from .kinds import FUNCTION_SPECS, KINDS
from .observables import OBSERVABLE_RULES
from .observed import OBSERVATION_MAPS
from .systems import SYSTEMS, system_from_id

SCHEMA_VERSION = "1"
RESULT_KEYS = {"schema_version", "config", "meta", "data", "summary"}


# ---------------------------------------------------------------------------
# helpers


def _atomic_write_text(path, text):
    """Write through a unique temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                               dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def data_section_bytes(result):
    """Canonical bytes of the seed-determined sections of a result."""
    payload = {key: result[key] for key in ("config", "data", "summary")}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def run(config, workers=None):
    """Execute one experiment and persist its result atomically.

    Returns the result document.  The JSON lands at config.output; record
    streams land in CSV companions named <output-stem>.<name>.
    """
    workers = config.workers if workers is None else workers
    system = config.system
    started = time.perf_counter()
    data, summary, companions = KINDS[config.kind].run(config, workers)
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
        "data": data,
        "summary": summary,
    }
    stem = config.output[:-5] if config.output.endswith(".json") else config.output
    for name, (header, rows) in companions.items():
        _write_csv(f"{stem}.{name}", header, rows)
    _atomic_write_text(config.output, json.dumps(result, indent=1, sort_keys=True))
    return result


def load_result(path):
    """A persisted result; SchemaMismatchError names a file that is not one,
    or whose config, meta or summary lacks a field its report row reads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SchemaMismatchError(f"{path}: not a result file ({exc})") from None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        raise SchemaMismatchError(f"{path}: not a result file (keys {sorted(RESULT_KEYS)})")
    try:
        _report_row(result)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"{path}: not a result file ({exc!r})") from None
    return result


# ---------------------------------------------------------------------------
# report generation


def _report_row(result):
    cfg = result["config"]
    summary = result["summary"]
    kind = KINDS[cfg["experiment.kind"]]
    return {
        "kind": cfg["experiment.kind"],
        "system": cfg["experiment.system"],
        "seed": cfg["experiment.seed"],
        "exact_engine": result["meta"]["engine"]["exact"],
        "caveats": ";".join(result["meta"]["engine"]["caveats"]),
        "headline": kind.headline(summary),
        "floor_flag": kind.floor_flag(summary),
    }


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
    """Text listing of the config grammars, rendered from their rule tables."""
    line = "  {:<34} {}".format
    lines = ["systems:"]
    for prefix, rule in SYSTEMS.items():
        system = system_from_id(prefix + rule.example)
        caveats = "".join(f" caveat={c}" for c in system.caveats)
        lines += [line(prefix + rule.syntax, rule.help),
                  f"      dim={system.dim} mixing={system.mixing_class}{caveats}"]
    for title, table in (("observable rules", OBSERVABLE_RULES),
                         ("observation maps", OBSERVATION_MAPS),
                         ("correlation functions", FUNCTION_SPECS)):
        lines += ["", f"{title}:"] + [line(p + r.syntax, r.help) for p, r in table.items()]
    return "\n".join(lines) + "\n"
