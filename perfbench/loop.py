"""Closed-loop measuring process for one workload.

Usage: python3 loop.py SPEC.json RESULT.json

SPEC names the workload, its generated config texts, the worker count and
the mode.  One client runs the configs one after another through
``ergolab.runner.run``; the next run starts when the previous one returns.

* ``measure``: passes over the configs until ``seconds`` have elapsed and
  at least ``min_passes`` are done.  Each pass reports its wall time and the
  CPU time of this process plus its pool workers.
* ``trace``: one untraced pass at the given worker count (per-config wall
  times, output bytes), then at workers=1 an untraced, a traced and another
  untraced pass (the per-layer metrics and the tracing overhead).

Every run's data digest must equal the reference digest recorded for the
config and seed (``digests.json``) and the first run of the same config, and
the persisted JSON must read back to the same bytes; any mismatch or
exception is a failure.  Running in its own process keeps the resource usage to this
process and its pool workers.
"""

import hashlib
import json
import os
import resource
import sys
import time

from tracing import Tracer, attach, layer_metrics


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _output_bytes(path):
    stem = path[:-5] if path.endswith(".json") else path
    directory = os.path.dirname(path)
    prefix = os.path.basename(stem) + "."
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory)
               if f == os.path.basename(path) or f.startswith(prefix))


class ConfigLoop:
    """Runs config passes and checks every result against the reference."""

    def __init__(self, configs, reference):
        from ergolab import config, runner

        self.config_mod = config
        self.runner_mod = runner
        self.configs = configs
        self.reference = reference
        self.digests = {}
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.first_results = {}

    def one_pass(self, workers, tracer=None):
        """Run every config once; returns (wall_s, cpu_s, {name: wall_s}, bytes)."""
        wall = cpu = 0.0
        per_config = {}
        out_bytes = 0
        for run_id, (name, text) in enumerate(self.configs):
            self.attempted += 1
            if tracer is not None:
                tracer.run_id = run_id
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                config = self.config_mod.parse_config_text(text)
                result = self.runner_mod.run(config, workers=workers)
            except Exception as exc:  # a failed run is counted, not fatal
                self._fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            t, c = time.perf_counter() - t0, _cpu_s() - c0
            wall += t
            cpu += c
            per_config[name] = t
            problem = self._check(name, config.output, result)
            if problem:
                self._fail(f"{name}: {problem}")
            out_bytes += _output_bytes(config.output)
        return wall, cpu, per_config, out_bytes

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def _check(self, name, path, result):
        """None when the result is correct, else what is wrong with it."""
        data = self.runner_mod.data_section_bytes(result)
        digest = hashlib.sha256(data).hexdigest()
        if name in self.reference and self.reference[name] != digest:
            return "data digest differs from the reference digest"
        if name not in self.digests:
            self.digests[name] = digest
            self.first_results[name] = result
        elif self.digests[name] != digest:
            return "data digest differs from the first run"
        with open(path, encoding="utf-8") as fh:
            persisted = self.runner_mod.data_section_bytes(json.load(fh))
        if persisted != data:
            return "persisted JSON differs from the result"
        return None


def measure(runs, spec):
    passes = []
    started = time.perf_counter()
    while (len(passes) < spec["min_passes"]
           or time.perf_counter() - started < spec["seconds"]):
        wall, cpu, per_config, _ = runs.one_pass(spec["workers"])
        passes.append({"wall_s": wall, "cpu_s": cpu, "configs": per_config})
    out = {"passes": passes, "peak_rss_mb": _peak_rss_mb()}
    if spec.get("keep_results"):
        out["results"] = runs.first_results
    return out


def trace(runs, spec):
    _, _, per_config, out_bytes = runs.one_pass(spec["workers"])
    # untraced passes on both sides of the traced one, so drift between
    # passes does not read as tracing cost
    _, plain_before, _, _ = runs.one_pass(1)
    tracer = Tracer()
    with attach(tracer) as missing:
        _, traced_cpu, _, _ = runs.one_pass(1, tracer)
    _, plain_after, _, _ = runs.one_pass(1)
    plain_cpu = (plain_before + plain_after) / 2.0
    tracer.save(spec["trace_path"])
    metrics = layer_metrics(tracer)
    for name, _ in runs.configs:
        metrics[f"runner.{name}.wall_s"] = per_config.get(name, 0.0)
    metrics["runner.output_bytes"] = out_bytes
    metrics["trace.overhead"] = traced_cpu / plain_cpu - 1.0 if plain_cpu else 0.0
    return {"layers": metrics, "missing_targets": missing}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    runs = ConfigLoop([tuple(c) for c in spec["configs"]], spec["reference"])
    out = (trace if spec["mode"] == "trace" else measure)(runs, spec)
    out.update(attempted=runs.attempted, failed=runs.failed,
               failures=runs.failures, digests=runs.digests)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
