"""Settings shared by every test module.

A cross-fit runs its folds in forked children (``kernels._fork_map``).
A test that leaves a child process behind, running or unreaped, fails:
the process twin of the ``filterwarnings`` rule in ``pyproject.toml`` that
fails a test leaking a file. So does a test that leaves a thread it
started running: the package starts no thread of its own.
``process_log`` lets a test that counts calls count those its children
make as well, and ``cpus`` fixes the CPU count the map sees.
"""
import ast
import os
import threading
from collections.abc import Sequence

import pytest

from dtebounds import kernels


@pytest.fixture(autouse=True)
def _no_thread_left():
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"the test left threads behind: {left}")


@pytest.fixture(autouse=True)
def _no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind "
                f"({f'pid {pid}, exited' if pid else 'still running'})")


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(w)`` makes the map see w CPUs."""
    with kernels._one_blas_thread():
        if not kernels._BLAS:
            pytest.skip("no BLAS thread count to hold: the map runs inline")

    def on(w):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(w)))
    return on


class ProcessLog(Sequence):
    """A list of entries that forked children append to as well: each
    ``append`` writes one line with ``O_APPEND`` to a file, tagged with the
    writing process. Entries must round-trip through ``repr``."""

    def __init__(self, path):
        self.path = path

    def append(self, entry):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {entry!r}\n".encode())
        finally:
            os.close(fd)

    def _lines(self):
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return []
        return [(pid, ast.literal_eval(entry)) for pid, _, entry
                in (line.partition(" ") for line in lines)]

    def by_process(self):
        """The entries of each process that wrote any, in order."""
        out = {}
        for pid, entry in self._lines():
            out.setdefault(pid, []).append(entry)
        return list(out.values())

    def __getitem__(self, i):
        return [entry for _, entry in self._lines()][i]

    def __len__(self):
        return len(self._lines())

    def __iter__(self):
        return iter([entry for _, entry in self._lines()])

    def __eq__(self, other):
        return list(self) == other

    __hash__ = None

    def __repr__(self):
        return repr(list(self))


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process.log")
