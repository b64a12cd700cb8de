"""Helpers shared by the test modules."""

import os
import pickle
import time

import numpy as np
import pytest


class CallLog:
    """Records added in this process and in worker processes forked from it.

    A forked worker writes to its own copy of any list, so each record goes
    to a file of its own, named by process id and a per-process counter.
    ``records()`` reads them back in the order they were added.
    """

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def add(self, record):
        self.count += 1
        path = self.directory / f"{os.getpid()}-{self.count}"
        path.write_bytes(pickle.dumps((time.monotonic_ns(), record)))

    def records(self):
        entries = [pickle.loads(path.read_bytes()) for path in self.directory.iterdir()]
        return [record for _, record in sorted(entries, key=lambda entry: entry[0])]

    def clear(self):
        for path in self.directory.iterdir():
            path.unlink()


@pytest.fixture
def call_log(tmp_path):
    directory = tmp_path / "calls"
    directory.mkdir()
    return CallLog(directory)


def assert_no_child_left():
    """No child process of this one is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bits(x):
    """The raw float64 bits of an array, for bitwise comparisons."""
    return np.ascontiguousarray(x).view(np.uint64)
