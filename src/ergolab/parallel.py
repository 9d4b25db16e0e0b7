"""Deterministic fan-out over sample points.

Tasks are pure functions of their arguments; the pool only changes wall
time, never results.  Output order always matches input order, so any
worker count produces identical downstream records.
"""

import os
from concurrent.futures import ProcessPoolExecutor

ENV_WORKERS = "ERGOLAB_WORKERS"


def resolve_workers(requested=None):
    """Worker count: explicit argument, else environment, else CPU count."""
    if requested is not None and requested > 0:
        return int(requested)
    env = os.environ.get(ENV_WORKERS)
    if env:
        value = int(env)
        if value > 0:
            return value
    return os.cpu_count() or 1


def chunk_size(count, workers):
    """Items per pool task: about four tasks per worker."""
    return max(1, count // (workers * 4))


def pmap(fn, items, workers):
    """map(fn, items) preserving order, fanned out when workers > 1."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk_size(len(items), workers)))
