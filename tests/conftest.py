import os
import threading

import pytest

from deconvbox import make_grid

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid4():
    return make_grid(4)


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8)


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16)


def affinity_mask():
    """The calling thread's CPU mask, or None where the platform has no affinity calls."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def threads_and_affinity_restored():
    """Fail a test that leaves a thread alive or the main thread's CPU mask changed.

    A run or a probe may start threads bound to CPUs of the caller's mask (the
    CLI, `verify` and the demos all run through them); each must be joined when
    it ends, and the caller's own mask is never changed. The mask is checked
    only where the platform has the affinity calls.
    """
    threads, mask = set(threading.enumerate()), affinity_mask()
    yield
    left = [t.name for t in threading.enumerate() if t not in threads]
    now = affinity_mask()
    if now != mask:
        os.sched_setaffinity(0, mask)
    assert not left, f"threads left alive: {left}"
    assert now == mask, f"CPU mask left as {sorted(now)}, was {sorted(mask)}"
