import os
import signal
import time

import pytest

from ergolab import parallel
from ergolab.errors import ConfigError, DegenerateLadderError
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


def test_pmap_starts_at_most_one_process_per_item(forks):
    started = []
    for count, workers in ((3, MAX_WORKERS), (5, 2), (1, MAX_WORKERS)):
        before = len(forks)
        assert pmap(_square, range(count), workers=workers) == [x * x for x in range(count)]
        if len(forks) > before:
            started.append(len(forks) - before)
    assert started == [3, 2]


def _exit_on_two(x):
    if x == 2:
        os._exit(3)
    return x


def test_pmap_names_the_status_of_a_worker_that_dies():
    with pytest.raises(RuntimeError, match="exit status 3"):
        pmap(_exit_on_two, range(6), workers=2)


def _fail_on_three(x):
    if x == 3:
        raise DegenerateLadderError(f"item {x}")
    return x


def test_pmap_reraises_a_task_error_as_its_type():
    with pytest.raises(DegenerateLadderError, match="item 3"):
        pmap(_fail_on_three, range(6), workers=2)


def _fail_with_two_arguments(x):
    raise ConfigError("section.field", f"item {x}")


def test_pmap_sends_an_error_that_cannot_travel_as_its_text():
    # ConfigError's pickle calls its two-argument constructor with one argument
    with pytest.raises(RuntimeError, match="ConfigError: section.field: item 0"):
        pmap(_fail_with_two_arguments, range(4), workers=2)


def test_pmap_items_reach_the_workers_unpickled(forks):
    items = [(lambda x, k=k: x + k, k) for k in range(5)]
    assert pmap(lambda item: item[0](10), items, workers=2) == [10, 11, 12, 13, 14]
    assert len(forks) == 2


def test_pmap_kills_and_reaps_its_workers_on_interrupt():
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            pmap(time.sleep, [30.0, 30.0], workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 10.0


def test_pmap_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(parallel.os, "fork")
    assert pmap(lambda x: x + 1, range(4), workers=2) == [1, 2, 3, 4]
