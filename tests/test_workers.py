"""Forked worker processes: results, errors, reaping and the inline fallback.

Three usable cores are forced on any host, so ``map_shares`` splits
``range(count)`` into three shares: the caller runs the first and two
forked workers run the others. Every case ends with no child process
left, running or unreaped.
"""

import os
import signal
import threading
import time

import pytest
from conftest import assert_no_child_left

from tvadapt import workers
from tvadapt.exceptions import WorkerError


@pytest.fixture(autouse=True)
def three_processes(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


class ShareFailure(RuntimeError):
    pass


class Unpicklable(RuntimeError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # a lambda does not pickle


class Unreadable(RuntimeError):
    def __init__(self, message, code):  # pickles, but unpickling calls it with one argument
        super().__init__(message)
        self.code = code


def _fail_in(index, error):
    """A share function that raises ``error`` in share ``index`` (start 0, 3 or 6 of 9)."""
    def share(part):
        if part.start == 3 * index:
            raise error
        return list(range(part.start, part.stop))
    return share


def test_results_keep_share_order_across_processes(call_log):
    def share(part):
        call_log.add(os.getpid())
        return [i * i for i in range(part.start, part.stop)]

    assert workers.map_shares(share, 9) == [[0, 1, 4], [9, 16, 25], [36, 49, 64]]
    assert_no_child_left()
    pids = call_log.records()
    assert len(set(pids)) == 3 and os.getpid() in pids


def test_most_limits_the_shares():
    assert workers.map_shares(lambda part: (part.start, part.stop), 9, most=2) == [(0, 4), (4, 9)]
    assert workers.map_shares(lambda part: (part.start, part.stop), 0) == [(0, 0)]
    assert_no_child_left()


@pytest.mark.parametrize("index", [1, 2])
def test_error_in_a_worker_is_raised_with_its_type(index):
    with pytest.raises(ShareFailure, match=f"share {index}$"):
        workers.map_shares(_fail_in(index, ShareFailure(f"share {index}")), 9)
    assert_no_child_left()


def test_lowest_failing_share_wins():
    def share(part):
        if part.start == 6:
            raise ShareFailure("share 2")
        if part.start == 3:
            time.sleep(0.1)  # so that the later share fails first
            raise ShareFailure("share 1")
        return []

    with pytest.raises(ShareFailure, match="share 1$"):
        workers.map_shares(share, 9)
    assert_no_child_left()


def test_error_in_the_callers_share_kills_the_workers():
    def share(part):
        if part.start == 0:
            raise ShareFailure("share 0")
        time.sleep(60)  # killed long before this ends

    started = time.monotonic()
    with pytest.raises(ShareFailure, match="share 0$"):
        workers.map_shares(share, 9)
    assert time.monotonic() - started < 30
    assert_no_child_left()


@pytest.mark.parametrize("error", [Unpicklable("no pickle"), Unreadable("no unpickle", 7)],
                         ids=["dumps", "loads"])
def test_error_that_cannot_be_pickled_is_a_worker_error(error):
    with pytest.raises(WorkerError, match=f"{type(error).__name__}: no .*cannot be pickled"):
        workers.map_shares(_fail_in(1, error), 9)
    assert_no_child_left()


def test_worker_killed_by_a_signal_is_a_worker_error():
    caller = os.getpid()

    def share(part):
        if os.getpid() != caller and part.start == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return []

    with pytest.raises(WorkerError, match=f"killed by signal {int(signal.SIGKILL)}"):
        workers.map_shares(share, 9)
    assert_no_child_left()


def _assert_inline(call_log):
    caller = os.getpid()
    got = workers.map_shares(lambda part: (call_log.add(os.getpid()), part)[1], 9)
    assert got == [slice(0, 9)]
    assert call_log.records() == [caller]
    assert_no_child_left()


def test_inline_while_another_thread_is_alive(monkeypatch, call_log):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with another thread alive"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert workers.processes() == 1
        _assert_inline(call_log)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert workers.processes() == 3


def test_inline_without_os_fork(monkeypatch, call_log):
    monkeypatch.delattr(os, "fork")
    assert workers.processes() == 1
    _assert_inline(call_log)


def test_inline_inside_a_worker(call_log):
    # a map inside a share runs inline in that share's process: no grandchildren
    caller = os.getpid()

    def inner(part):
        call_log.add(("inner", os.getpid(), os.getppid()))
        return part.stop - part.start

    def outer(part):
        call_log.add(("outer", os.getpid(), workers.processes()))
        return workers.map_shares(inner, 4)

    assert workers.map_shares(outer, 9) == [[4]] * 3
    assert_no_child_left()
    records = call_log.records()
    outer_pids = {pid for kind, pid, _ in records if kind == "outer"}
    inner_pids = {pid for kind, pid, _ in records if kind == "inner"}
    assert len(outer_pids) == 3 and inner_pids == outer_pids
    assert all(n == 1 for kind, _, n in records if kind == "outer")
    # each inner map ran in the caller or in a worker the caller forked
    assert all(parent == os.getppid() if pid == caller else parent == caller
               for kind, pid, parent in records if kind == "inner")
    assert workers.processes() == 3  # the caller may fork again after the map


def test_a_failed_fork_closes_its_pipe_and_raises_worker_error(monkeypatch):
    pipes = []
    pipe, fork = os.pipe, os.fork

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def second_fork_fails():
        if len(pipes) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(WorkerError, match="cannot fork a worker") as raised:
        workers.map_shares(lambda part: list(range(part.start, part.stop)), 9)
    assert isinstance(raised.value.__cause__, BlockingIOError)
    assert_no_child_left()  # the first worker was killed and reaped
    assert len(pipes) == 2
    for fd in (fd for ends in pipes for fd in ends):  # both pipes closed, no fd leaked
        with pytest.raises(OSError):
            os.fstat(fd)
