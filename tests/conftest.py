import os

import pytest

from ergolab import parallel


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which a child process of this one still exists."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left {'running' if pid == 0 else 'unreaped'}")


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children ``parallel`` forks while the test runs."""
    started = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(parallel.os, "fork", recording_fork)
    return started
