import pytest

from ergolab import parallel
from ergolab.parallel import ENV_WORKERS, MAX_WORKERS, pmap, resolve_workers


def _square(x):
    return x * x


def test_pmap_preserves_order_serial():
    assert pmap(_square, range(10), workers=1) == [x * x for x in range(10)]


def test_pmap_preserves_order_parallel():
    assert pmap(_square, range(25), workers=2) == [x * x for x in range(25)]


def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "7")
    assert resolve_workers(3) == 3


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "5")
    assert resolve_workers(None) == 5


def test_resolve_workers_default(monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    assert resolve_workers(None) >= 1


def test_pmap_starts_at_most_one_process_per_item(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    assert pmap(_square, range(3), workers=MAX_WORKERS) == [0, 1, 4]
    assert pmap(_square, range(5), workers=2) == [0, 1, 4, 9, 16]
    assert pmap(_square, range(1), workers=MAX_WORKERS) == [0]
    assert started == [3, 2]
