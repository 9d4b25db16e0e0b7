"""Benchmark self-test: tracing changes no bytes and counts repeat exactly.

Usage: python3 perfbench/selftest.py

For each workload, at seed 0, the timed-run sizes and workers=1: one
untraced pass, then two traced passes.  Every run's data digest must equal
the reference digest and the untraced run's, and every count-type layer
metric must be identical between the two traced passes.  Exits 0 when all
hold.
"""

import os
import shutil
import sys

from loop import ConfigLoop
from tracing import COUNT_SUFFIXES, Tracer, attach, layer_metrics
from workloads import WORKLOADS, config_texts, load_acceptance, reference_digests, repo_root


def check(acceptance, workload, out_dir):
    """Problems found for one workload; empty when the self-test holds."""
    runs = ConfigLoop(
        config_texts(acceptance, workload, 0, WORKLOADS[workload][1], out_dir),
        reference_digests(False, 0))
    runs.one_pass(1)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with attach(tracer) as missing:
            runs.one_pass(1, tracer)
        metrics = layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
    problems = list(runs.failures)
    problems += [f"trace target not found: {t}" for t in missing]
    problems += [f"{k} differs between traced runs: {counts[0][k]} != {counts[1][k]}"
                 for k in counts[0] if counts[0][k] != counts[1][k]]
    return problems


def main():
    root = repo_root()
    acceptance = load_acceptance(root)
    work = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}")
    ok = True
    try:
        for workload in WORKLOADS:
            out_dir = os.path.join(work, workload)
            os.makedirs(out_dir)
            problems = check(acceptance, workload, out_dir)
            ok = ok and not problems
            print(f"{workload}: {'PASS' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
