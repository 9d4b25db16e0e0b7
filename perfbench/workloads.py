"""Benchmark workloads: named groups of the acceptance configs.

The configs are imported by name from ``tests/test_acceptance.py``; nothing
here copies their text.  A workload run may shrink each config's sample
counts by the workload's divisor (every other key is kept, so the work done
per sample point is the acceptance config's own) and offsets every config
seed by the benchmark seed.  Seed 0 at divisor 1 reproduces the acceptance
runs exactly.
"""

import importlib.util
import json
import os
import re
import sys

# Keys that count independent sample points or Monte Carlo draws.  Dividing
# them shortens a run without changing what one point costs.  The
# intersection config's decay_samples stays whole: its decay fit needs six
# lags above the noise floor, and a fifth of the draws leaves five.
SCALED_KEYS = ("points", "samples")

# name -> (acceptance configs, divisor for the timed runs)
# The divisors bring one pass of each workload to a few seconds on two
# cores, so a timed run holds several passes and reports their mean.
WORKLOADS = {
    "lattice-scan": (("flow", "observed_equality_proj", "observed_equality_wave"), 25),
    "return-stats": (
        ("returns_doubling", "returns_golden", "returns_cat", "returns_liouville"), 10),
    "counters": (("borel_cantelli", "intersection"), 5),
    "hitting-corpus": (
        ("hit_doubling", "hit_doubling_fine", "hit_cat", "hit_golden",
         "hit_liouville", "hit_mp", "observed_exponent", "rank_identity",
         "rank_proj", "rank_wave", "rank_linear", "rank_const"),
        2),
}

# Data digests of every config at the timed sizes for these seeds, and at the
# acceptance sizes for seed 0, written by reference.py.
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
REFERENCE_SEEDS = range(64)

_SEED_LINE = re.compile(r"^(\s*seed\s*=\s*)(\d+)\s*$", re.MULTILINE)
_SCALED_LINE = re.compile(
    r"^(\s*(?:%s)\s*=\s*)(\d+)\s*$" % "|".join(SCALED_KEYS), re.MULTILINE
)


def repo_root():
    """The checkout root: the parent of this benchmark's directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def missing_sources(root):
    """Paths the benchmark needs from the checkout that are absent."""
    needed = (os.path.join("src", "ergolab", "runner.py"),
              os.path.join("tests", "test_acceptance.py"))
    return [p for p in needed if not os.path.isfile(os.path.join(root, p))]


def load_acceptance(root):
    """The acceptance test module, imported from its file."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    path = os.path.join(root, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("perfbench_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def config_texts(acceptance, workload, seed, divisor, out_dir):
    """[(name, config text)] for one workload, in run order."""
    names = WORKLOADS[workload][0]
    out = []
    for name in names:
        text = acceptance._CONFIGS[name].format(
            out=os.path.join(out_dir, f"{name}.json"))
        text = _SEED_LINE.sub(lambda m: f"{m.group(1)}{int(m.group(2)) + seed}", text)
        if divisor > 1:
            text = _SCALED_LINE.sub(
                lambda m: f"{m.group(1)}{max(1, int(m.group(2)) // divisor)}", text)
        out.append((name, text))
    return out


def reference_digests(full, seed):
    """{config: sha256 of its data section} recorded for this size and seed.

    Empty when no reference was recorded for the seed.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    return reference["full" if full else "timed"].get(str(seed), {})
