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


@pytest.fixture(autouse=True)
def threads_and_affinity_restored():
    """Fail a test that leaves a thread alive or the main thread's CPU mask changed.

    A run binds its thread and starts helper threads (the CLI, `verify`, the
    probe and the demos all run through it); each must be undone when it ends.
    """
    threads, mask = set(threading.enumerate()), os.sched_getaffinity(0)
    yield
    left = [t.name for t in threading.enumerate() if t not in threads]
    now = os.sched_getaffinity(0)
    if now != mask:
        os.sched_setaffinity(0, mask)
    assert not left, f"threads left alive: {left}"
    assert now == mask, f"CPU mask left as {sorted(now)}, was {sorted(mask)}"
