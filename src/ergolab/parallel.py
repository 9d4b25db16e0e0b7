"""Deterministic fan-out over sample points.

Tasks are pure functions of their arguments; the pool only changes wall
time, never results.  Output order always matches input order, so any
worker count produces identical downstream records.
"""

import os
from concurrent.futures import ProcessPoolExecutor

ENV_WORKERS = "ERGOLAB_WORKERS"
# a config's bound on the worker count: a fork pool starts every worker at
# its first task, so a typo such as 100000 would fork until the machine runs
# out of processes; 256 is above any desk machine's core count
MAX_WORKERS = 256


def resolve_workers(requested=None):
    """Worker count: explicit argument, else environment, else CPU count
    (at most MAX_WORKERS); ValueError when outside [1, MAX_WORKERS]."""
    if requested is None:
        env = os.environ.get(ENV_WORKERS)
        if not env:
            return min(os.cpu_count() or 1, MAX_WORKERS)
        requested = int(env)
    if not 1 <= requested <= MAX_WORKERS:
        raise ValueError(f"must be in [1, {MAX_WORKERS}], got {requested}")
    return requested


def chunk_size(count, workers):
    """Items per pool task: about four tasks per worker."""
    return max(1, count // (workers * 4))


def pmap(fn, items, workers):
    """map(fn, items) preserving order, fanned out over at most one process
    per item when workers > 1."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk_size(len(items), workers)))
