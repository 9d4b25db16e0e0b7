"""Record the reference data digests the benchmark gates every run on.

Usage: python3 perfbench/reference.py

Runs every workload's configs once through ``ergolab.runner.run`` at the
timed sizes for each seed in ``REFERENCE_SEEDS``, and at the acceptance
sizes for seed 0, and writes the sha256 of each result's data section to
``digests.json``.  A change that alters the data bytes on purpose reruns
this script and commits the new file with it.
"""

import json
import os
import shutil
import sys

from loop import ConfigLoop
from workloads import (REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, config_texts,
                       load_acceptance, repo_root)


def digests(acceptance, seed, full, work):
    """{config: digest} over every workload for one seed and size."""
    out = {}
    for workload, (_, divisor) in WORKLOADS.items():
        out_dir = os.path.join(work, f"{workload}-{seed}-{int(full)}")
        os.makedirs(out_dir)
        runs = ConfigLoop(
            config_texts(acceptance, workload, seed, 1 if full else divisor, out_dir), {})
        runs.one_pass(len(os.sched_getaffinity(0)))
        if runs.failures:
            raise SystemExit(f"{workload} seed {seed}: " + "; ".join(runs.failures))
        out.update(runs.digests)
        shutil.rmtree(out_dir)
    return out


def main():
    root = repo_root()
    acceptance = load_acceptance(root)
    work = os.path.join(root, ".perfbench", f"reference-{os.getpid()}")
    try:
        reference = {
            "timed": {str(seed): digests(acceptance, seed, False, work)
                      for seed in REFERENCE_SEEDS},
            "full": {"0": digests(acceptance, 0, True, work)},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
