"""Deterministic fan-out over sample points.

Tasks are pure functions of their arguments; the fan-out only changes wall
time, never results.  Output order always matches input order, so any
worker count produces identical downstream records.

``pmap`` forks all of its workers at once, at most one per item.  The task
function and the items reach each child through the fork, so neither is
pickled; only the results (or the task's exception) travel back, streamed
through the child's own pipe by ``pickle.dump`` and ``pickle.load``, so
neither side holds a whole payload.  Where ``os.fork`` does not exist, every
run is serial, with the same bytes.
"""

import os
import pickle
import signal
import traceback

ENV_WORKERS = "ERGOLAB_WORKERS"
# a config's bound on the worker count: pmap forks all its workers at once,
# so a typo such as 100000 would fork until the machine runs out of
# processes; 256 is above any desk machine's core count
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


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of its error."""

    def __str__(self):
        return self.args[0]


def _error_outcome(exc):
    """(False, (exception, traceback text)) for the task error being handled;
    an exception that would not survive the trip is sent as a RuntimeError
    carrying its text."""
    text = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return False, (exc, text)


def _run_child(fn, share, write_fd, parent_fds):
    """The forked child's whole life: it never returns to its caller.  A
    result that cannot be pickled cuts the payload short, and the child
    exits 1 with its traceback on stderr."""
    status = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        with os.fdopen(write_fd, "wb") as out:
            try:
                outcome = True, [fn(item) for item in share]
            except Exception as exc:
                outcome = _error_outcome(exc)
            pickle.dump(outcome, out, protocol=5)
        status = 0
    except Exception:  # the report must reach stderr before os._exit
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def pmap(fn, items, workers):
    """map(fn, items) preserving order.  When workers > 1, forks
    k = min(workers, len(items)) children at once; child w maps items[w::k]
    and sends its results back through its own pipe.  A task's exception is
    re-raised here as the same type; no child outlives the call."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    pids, pipes = [], []  # a pid becomes None once reaped
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, items[w::workers], write_fd,
                               [pipe.fileno() for pipe in pipes])
            finally:
                os.close(write_fd)
            pids.append(pid)
        results = [None] * len(items)
        for w, pipe in enumerate(pipes):
            try:
                outcome = pickle.load(pipe)
            except Exception as exc:  # a cut payload, or one that does not load
                outcome = exc
            _, status = os.waitpid(pids[w], 0)
            pids[w] = None
            # a child exits 0 only once its whole payload is written
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(
                    f"pmap worker {w} ended without a result, exit status {code}")
            if isinstance(outcome, Exception):
                raise outcome
            ok, value = outcome
            if not ok:
                error, text = value
                raise error from _RemoteTraceback(text)
            results[w::workers] = value
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
