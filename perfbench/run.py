"""ergolab benchmark: closed-loop runs of the acceptance-config workloads.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all --full

One client drives ``ergolab.runner.run`` over a workload's configs, one
after another, at workers = nproc.  With ``--trace 0`` it prints the
end-to-end metrics (mean pass wall and CPU time, peak RSS, set-up time);
with ``--trace 1`` the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

``--seed`` offsets every config seed (0 reproduces the acceptance seeds).
Timed runs divide each config's sample counts by the workload's divisor;
``--full`` runs the acceptance sizes instead and, at seed 0, gates the
acceptance criteria of ``tests/test_acceptance.py`` on the results.
"""

import argparse
import contextlib
import inspect
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy

from tracing import layer_unit
from workloads import (WORKLOADS, config_texts, load_acceptance, missing_sources,
                       reference_digests, repo_root)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
MIN_PASSES = 3
# per workload: a timed run's set-up probes, its passes and the pass that
# overruns --seconds end well inside this margin; a full run has one pass
TIMED_MARGIN_S = 150.0
FULL_LIMIT_S = 900.0
ALL_CONFIGS = tuple(name for names, _ in WORKLOADS.values() for name in names)
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Failure(Exception):
    """A benchmark step that could not produce a measurement."""


def _kill(proc):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _child(args, deadline):
    """Run a helper process to completion within the deadline."""
    proc = subprocess.Popen([sys.executable, *args], start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise Failure(f"{os.path.basename(args[0])} exceeded its time limit") from None
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise Failure(f"{os.path.basename(args[0])} failed:\n{err.strip()}")


def _setup_s(root, configs_path, deadline):
    """Seconds from a fresh interpreter to ready-to-run, one sample."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), root, configs_path],
        start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select(
            [proc.stdout], [], [], max(deadline - time.monotonic(), 1.0))
        line = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - started
        if not readable:
            raise Failure("set-up probe exceeded its time limit")
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        _kill(proc)
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise Failure(f"set-up probe failed:\n{err.strip()}")
    return elapsed


def run_workload(root, acceptance, workload, args, work):
    """Measure one workload; returns the loop result plus its metrics."""
    deadline = time.monotonic() + (
        FULL_LIMIT_S if args.full else args.seconds + TIMED_MARGIN_S)
    divisor = 1 if args.full else WORKLOADS[workload][1]
    out_dir = os.path.join(work, workload)
    os.makedirs(out_dir)
    configs = config_texts(acceptance, workload, args.seed, divisor, out_dir)
    reference = reference_digests(args.full, args.seed)
    if not reference:
        print(f"{workload}: no reference digests for seed {args.seed}; "
              "the data digests are checked only against repeats", file=sys.stderr)
    spec = {
        "root": root,
        "configs": configs,
        "workers": len(os.sched_getaffinity(0)),
        "mode": "trace" if args.trace else "measure",
        "seconds": 0.0 if args.full else args.seconds,
        "min_passes": 1 if args.full else MIN_PASSES,
        "keep_results": args.full,
        "reference": reference,
        "trace_path": os.path.join(os.path.dirname(work), f"trace-{workload}.npz"),
    }
    spec_path = os.path.join(work, f"{workload}.spec.json")
    result_path = os.path.join(work, f"{workload}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    setup = []
    if not args.trace:
        configs_path = os.path.join(work, f"{workload}.configs.json")
        with open(configs_path, "w", encoding="utf-8") as fh:
            json.dump(configs, fh)
        setup = [_setup_s(root, configs_path, deadline) for _ in range(SETUP_REPEATS)]
    _child([os.path.join(HERE, "loop.py"), spec_path, result_path], deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if args.trace:
        metrics = {f"runner.{name}.wall_s": 0.0 for name in ALL_CONFIGS}
        metrics.update(result["layers"])
        units = {name: layer_unit(name) for name in metrics}
    else:
        # the mean over the run is its throughput; on a shared 2-vCPU VM the
        # speed switches between a fast and a slow state every few seconds,
        # and a median over the passes then jumps between the two
        passes = result["passes"]
        metrics = {
            "wall_s": statistics.mean(p["wall_s"] for p in passes),
            "cpu_s": statistics.mean(p["cpu_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


class _Pending(Exception):
    """A criterion needs a config from a workload that has not run yet."""


class _Lab:
    """The acceptance suite's ``Lab`` interface over this benchmark's results."""

    def __init__(self, results):
        self._results = results
        self.read = set()

    def result(self, name):
        if name not in self._results:
            raise _Pending(name)
        self.read.add(name)
        return self._results[name]

    def summary(self, name):
        return self.result(name)["summary"]


def acceptance_criteria(acceptance):
    """Criterion and invariant tests that need nothing but the lab fixture.

    The others rerun configs or write their own files (criterion 11, the
    report test), so a benchmark cannot evaluate them on its results.
    """
    return {
        name: fn for name, fn in vars(acceptance).items()
        if name.startswith(("test_criterion_", "test_invariant_"))
        and list(inspect.signature(fn).parameters) == ["lab"]
    }


def gate(criteria, results, verdicts):
    """Evaluate every undecided criterion whose configs have all run.

    Returns the config names read by criteria that failed.
    """
    failed_configs = set()
    for name, fn in criteria.items():
        if name in verdicts:
            continue
        lab = _Lab(results)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                fn(lab)
        except _Pending:
            continue
        except Exception as exc:  # an assertion or a missing summary key
            verdicts[name] = f"FAIL {type(exc).__name__}: {exc}"
            failed_configs |= lab.read
            continue
        verdicts[name] = "PASS"
    return failed_configs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="acceptance sizes; gate the acceptance criteria at seed 0")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = repo_root()
    missing = missing_sources(root)
    if missing:
        print(f"ergolab sources not found under {root}: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    acceptance = load_acceptance(root)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"# nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} seed={args.seed} "
          f"{'full' if args.full else 'timed'} trace={args.trace}")
    criteria = acceptance_criteria(acceptance) if args.full and args.seed == 0 else {}
    verdicts = {}
    results = {}
    measured = {}
    gated_out = set()
    work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        for workload in workloads:
            try:
                measured[workload] = run_workload(root, acceptance, workload, args, work)
            except Failure as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                return 1
            results.update(measured[workload].get("results", {}))
            gated_out |= gate(criteria, results, verdicts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    combined = {}
    for workload, res in measured.items():
        for message in res["failures"]:
            print(f"{workload}: FAILED {message}", file=sys.stderr)
        for target in res.get("missing_targets", ()):
            print(f"{workload}: trace target not found: {target}", file=sys.stderr)
        # in full mode each config runs once, so a config failing a criterion
        # is one failed run
        w_failed = min(res["failed"] + len(gated_out & set(WORKLOADS[workload][0])),
                       res["attempted"])
        attempted += res["attempted"]
        failed += w_failed
        print(f"{workload:<15} {'fail_frac':<42} {w_failed / res['attempted']:>14.4f} "
              f"({w_failed}/{res['attempted']} runs)")
        for name, metric in res["metrics"].items():
            print(f"{workload:<15} {name:<42} {metric['value']:>14.4f} {metric['unit']}")
            combined[name if len(measured) == 1 else f"{workload}.{name}"] = metric
        for config in WORKLOADS[workload][0]:
            walls = [p["configs"][config] for p in res.get("passes", ())
                     if config in p["configs"]]
            if walls:
                print(f"# {workload:<13} {config:<42} {statistics.mean(walls):>14.4f} s")
    for name in criteria:
        print(f"# {name}: {verdicts.get(name, 'not evaluated: its workloads did not run')}")
    correct = failed == 0 and all(v == "PASS" for v in verdicts.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
