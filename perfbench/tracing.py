"""Span tracing of the ergolab layers, attached from outside the package.

``attach`` wraps the public functions and methods listed in ``TARGETS``
wherever ergolab looks them up (module globals bound by ``from .x import
y``, or the class attribute for methods), so no file of the package changes.
Every wrapped call records a span: name, start, end, parent span, run id and
up to two work counts.  Spans stay in memory in flat arrays and are written
out once the traced pass ends.  A layer's self time is its span's duration
minus the durations of its direct child spans.

Generators (``orbit_blocks``) get one span per ``next()``, so engine time is
the time spent producing blocks, not the time the consumer holds them.
"""

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

CALL, BLOCKS = "call", "blocks"
ENGINES = {
    "Doubling": "doubling",
    "ToralAutomorphism": "cat",
    "CircleRotation": "rotation",
    "MannevillePomeau": "mp",
}
OBSERVABLES = ("DistToPoint", "DistToProjectedPoint", "PushforwardDist", "Slack",
               "WeightedSum")


def _size(args, kwargs, result):
    return len(result), 0


def _samples(args, kwargs, result):
    return result.sample_count, 0


def _profile_samples(args, kwargs, result):
    return max((m.sample_count for m in result), default=0), 0


def _rungs(args, kwargs, result):
    return len(result), sum(rec.tau is None for rec in result)


def _correlation_samples(args, kwargs, result):
    return int(kwargs["n_samples"] if "n_samples" in kwargs else args[5]), 0


# (module, function or Class.method, span name, kind, counter)
TARGETS = (
    *(("systems", f"{cls}.orbit_blocks", f"systems.{engine}", BLOCKS, None)
      for cls, engine in ENGINES.items()),
    *(("systems", f"{cls}.sample_invariant", "systems.sample_invariant", CALL, None)
      for cls in ENGINES),
    ("reservoir", "BitReservoir.window_floats", "reservoir.window_floats", CALL, _size),
    ("reservoir", "bulk_window_floats", "reservoir.bulk_window_floats", CALL, _size),
    *(("observables", f"{cls}.values", "observables.values", CALL, _size)
      for cls in OBSERVABLES),
    ("observables", "exact_measure", "observables.exact_measure", CALL, None),
    ("observables", "estimate_measure", "observables.estimate_measure", CALL, _samples),
    ("observables", "measure_profile", "observables.measure_profile", CALL,
     _profile_samples),
    ("observables", "estimate_dimension", "observables.estimate_dimension", CALL, None),
    ("hitting", "ladder_hitting_times", "hitting.scan", CALL, _rungs),
    ("hitting", "estimate_R", "hitting.fit", CALL, None),
    ("hitting", "bc_counter_series", "hitting.bc", CALL, None),
    ("returns", "sample_conditioned", "returns.sample", CALL, _size),
    ("returns", "conditioned_return_times", "returns.scan", CALL, None),
    ("mixing", "estimate_correlation", "mixing.correlation", CALL, _correlation_samples),
    ("mixing", "intersection_bound_check", "mixing.intersection", CALL, None),
    ("observed", "observed_hitting_time", "observed.hitting", CALL, None),
    ("observed", "pushforward_dimension", "observed.pushforward", CALL, None),
    ("observed", "jacobian_rank", "observed.rank", CALL, None),
    ("flow", "approach_series", "flow.approach", CALL, None),
    ("parallel", "pmap", "parallel.pmap", CALL, _size),
    ("runner", "run", "runner.run", CALL, None),
    ("config", "parse_config_text", "config.parse", CALL, None),
)


class Tracer:
    """In-memory span store with an open-span stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.c1 = array("q")
        self.c2 = array("q")
        self.stack = []
        self.run_id = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.c1.append(0)
        self.c2.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "run": np.frombuffer(self.run, dtype=np.intc),
            "c1": np.frombuffer(self.c1, dtype=np.int64),
            "c2": np.frombuffer(self.c2, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _call_wrapper(tracer, nid, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            tracer.c1[i], tracer.c2[i] = count(args, kwargs, result)
        return result

    return traced


def _blocks_wrapper(tracer, nid, method):
    @functools.wraps(method)
    def traced(*args, **kwargs):
        blocks = method(*args, **kwargs)
        try:
            while True:
                i = tracer.open(nid)
                try:
                    item = next(blocks, None)
                finally:
                    tracer.close(i)
                if item is None:
                    return
                tracer.c1[i] = len(item[1])
                yield item
        finally:
            blocks.close()

    return traced


@contextlib.contextmanager
def attach(tracer):
    """Wrap every target while the block runs; yields the missing targets."""
    patches = []
    missing = []
    for module_name, target, span, kind, count in TARGETS:
        module = importlib.import_module(f"ergolab.{module_name}")
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{target}")
            continue
        nid = tracer.name_id(span)
        wrapper = (_blocks_wrapper(tracer, nid, original) if kind == BLOCKS
                   else _call_wrapper(tracer, nid, original, count))
        if owner_name:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "ergolab" or name.startswith("ergolab.")) and \
                    vars(mod).get(attr) is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    try:
        yield missing
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)


# count-type per-layer metrics; these must repeat exactly between traced runs
COUNT_SUFFIXES = (".steps", ".calls", ".elems", ".samples", ".rungs", ".censored",
                  ".points", ".items")


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith((".ns_per_step", ".ns_per_elem")):
        return "ns"
    if name == "runner.output_bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "s"


def layer_metrics(tracer):
    """Per-layer work counts and times from the recorded spans."""
    a = tracer.arrays()
    name, parent, c1, c2 = a["name"], a["parent"], a["c1"], a["c2"]
    n = name.size
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def mask(span):
        nid = tracer._ids.get(span, -2)
        return name == nid

    def calls(span):
        return int(mask(span).sum())

    def s(span, of=None):
        return float((dur if of is None else of)[mask(span)].sum())

    def count(span, col=c1):
        return int(col[mask(span)].sum())

    def per(total_s, units, scale=1e9):
        return total_s / units * scale if units else 0.0

    m = {}
    for engine in ENGINES.values():
        span = f"systems.{engine}"
        steps = count(span)
        m[f"{span}.steps"] = steps
        m[f"{span}.self_s"] = s(span, self_t)
        m[f"{span}.ns_per_step"] = per(s(span), steps)
    m["systems.sample_invariant.calls"] = calls("systems.sample_invariant")
    m["systems.sample_invariant.s"] = s("systems.sample_invariant")
    for fn in ("window_floats", "bulk_window_floats"):
        m[f"reservoir.{fn}.calls"] = calls(f"reservoir.{fn}")
        m[f"reservoir.{fn}.s"] = s(f"reservoir.{fn}")

    values_id = tracer._ids.get("observables.values", -2)
    outer = (name == values_id) & (parent_name != values_id)
    elems = int(c1[outer].sum())
    m["observables.values.elems"] = elems
    m["observables.values.s"] = float(dur[outer].sum())
    m["observables.values.ns_per_elem"] = per(float(dur[outer].sum()), elems)
    m["observables.exact_measure.calls"] = calls("observables.exact_measure")
    m["observables.exact_measure.s"] = s("observables.exact_measure")
    mc = (mask("observables.estimate_measure") | mask("observables.measure_profile")) \
        & (c1 > 0)
    m["observables.mc.samples"] = int(c1[mc].sum())
    m["observables.mc.s"] = float(dur[mc].sum())

    m["hitting.scan.calls"] = calls("hitting.scan")
    m["hitting.scan.rungs"] = count("hitting.scan")
    m["hitting.scan.censored"] = count("hitting.scan", c2)
    m["hitting.scan.self_s"] = s("hitting.scan", self_t)
    m["hitting.fit.calls"] = calls("hitting.fit")
    m["hitting.fit.s"] = s("hitting.fit", self_t)
    m["hitting.bc.calls"] = calls("hitting.bc")
    m["hitting.bc.self_s"] = s("hitting.bc", self_t)

    m["returns.sample.calls"] = calls("returns.sample")
    m["returns.sample.points"] = count("returns.sample")
    m["returns.sample.s"] = s("returns.sample")
    m["returns.scan.calls"] = calls("returns.scan")
    m["returns.scan.s"] = s("returns.scan")

    m["mixing.correlation.samples"] = count("mixing.correlation")
    m["mixing.correlation.s"] = s("mixing.correlation")
    m["mixing.intersection.calls"] = calls("mixing.intersection")
    m["mixing.intersection.s"] = s("mixing.intersection")

    m["observed.hitting.calls"] = calls("observed.hitting")
    m["observed.hitting.s"] = s("observed.hitting")
    m["observed.pushforward.s"] = s("observed.pushforward")
    m["observed.rank.calls"] = calls("observed.rank")
    m["observed.rank.s"] = s("observed.rank")

    m["flow.approach.calls"] = calls("flow.approach")
    m["flow.approach.self_s"] = s("flow.approach", self_t)

    run_id = tracer._ids.get("runner.run", -2)
    m["parallel.pmap.calls"] = calls("parallel.pmap")
    m["parallel.pmap.items"] = count("parallel.pmap")
    pmap_in_run = mask("parallel.pmap") & (parent_name == run_id)
    m["parallel.serial_s"] = s("runner.run") - float(dur[pmap_in_run].sum())
    m["runner.self_s"] = s("runner.run", self_t)
    m["config.parse_s"] = s("config.parse")
    return m
