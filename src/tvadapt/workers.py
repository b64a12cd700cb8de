"""Work on every usable core: forked processes for tape-free shares, threads for taped ones.

``map_shares(fn, count)`` returns ``[fn(share) for share in shares]`` for
contiguous, near-equal slices of ``range(count)``. The caller runs the
first share itself. One child forked per further share runs each of the
others, sends its result back over a pipe, pickled, and leaves with
``os._exit``. A child reaches the caller's arrays, parameters and closures
through fork's copy-on-write, so nothing is sent to it, and what it writes
stays its own. Every child is reaped before the call returns or raises.

The shares run inline, one after another in the caller, when one core is
usable, when ``os.fork`` is missing, when another Python thread is alive
(the fork could copy a lock that thread holds, in BLAS for one, and the
child would deadlock on it), and inside a share, so no worker forks
grandchildren. A fork and its reaping cost about 6 ms from a 110 MB
process on a 2-core x86_64 VM, more from a larger one, since the page
tables are copied.

``map_threads(fn, args)`` runs taped row blocks (``tensor.row_blocks``),
whose tapes cannot leave the process, on the standard library's thread
pool, sized by ``processes()``. Every helper is joined before it returns
or raises, so no helper is alive when a map forks.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from .exceptions import WorkerError

# True while this process runs a share, in the caller or in a child
_in_share = False


def processes():
    """How many processes a map may use now: 1 whenever the shares must run inline."""
    if _in_share or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not on macOS
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def shares(count, parts):
    """``range(count)`` cut into ``parts`` contiguous, near-equal slices, in order."""
    return [slice(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def map_shares(fn, count, most=None):
    """``[fn(share) for share in shares]``, the shares on every usable core.

    ``shares`` are contiguous, near-equal slices of ``range(count)``, one
    per process ``processes()`` allows, and no more than ``most``. The
    results keep share order and must pickle. If shares fail, the error of
    the lowest-numbered one is raised with its own type, as the serial loop
    would raise it. A failure in the caller's own share kills the children.
    """
    global _in_share
    parts = max(1, min(processes(), count, most or count))
    cuts = shares(count, parts)
    if parts == 1:
        return [fn(cuts[0])]
    children = []
    _in_share = True
    try:
        for share in cuts[1:]:
            children.append(_fork(fn, share))
        results = [fn(cuts[0])]
        while children:
            results.append(_result(*children.pop(0)))
        return results
    finally:
        _in_share = False
        for pid, reader in children:
            os.kill(pid, signal.SIGKILL)
            reader.close()
            os.waitpid(pid, 0)


def map_threads(fn, args):
    """``[fn(a) for a in args]``: ``args[0]`` in the caller, each other on a helper thread.

    Each helper runs in a copy of the caller's context, so grad mode
    holds, and is joined before this returns or raises. If calls fail,
    the error of the lowest-numbered one is raised with its own type.
    """
    with ThreadPoolExecutor(len(args)) as pool:  # leaving the block joins every helper
        helpers = [pool.submit(contextvars.copy_context().run, fn, a) for a in args[1:]]
        first = fn(args[0])
    return [first] + [helper.result() for helper in helpers]


def _fork(fn, share):
    """Start a child that runs ``fn(share)``; returns its pid and the read end of its pipe.

    A fork that fails (no memory or process ids left, say) closes the
    pipe and raises ``WorkerError``.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as err:
        os.close(read_fd)
        os.close(write_fd)
        raise WorkerError(f"cannot fork a worker: {err}") from err
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:  # the child: whatever happens, it ends in os._exit
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn(share)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # sent to the caller, which raises it
            payload = _error_payload(exc)
        with open(write_fd, "wb") as out:
            out.write(payload)
    finally:
        os._exit(0)


def _error_payload(exc):
    """``exc`` pickled, or a ``WorkerError`` naming it if it does not survive the round trip."""
    try:
        payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        return payload
    except Exception:
        stand_in = WorkerError(f"{type(exc).__name__}: {exc} (the error cannot be pickled)")
        return pickle.dumps((False, stand_in), pickle.HIGHEST_PROTOCOL)


def _result(pid, reader):
    """Read a child's result, reap it, and return the result or raise its error."""
    try:
        with reader:
            payload = reader.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise WorkerError(f"worker {pid} was killed by signal {-code}")
    try:
        ok, value = pickle.loads(payload)
    except Exception as err:  # a child that died before or while writing
        raise WorkerError(f"worker {pid} sent no readable result ({err!r})") from None
    if not ok:
        raise value
    return value
