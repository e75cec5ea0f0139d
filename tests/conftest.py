"""A time limit on every test, standard library only.

A library fault that loops for ever would otherwise hang the whole
suite: each test's call runs under a SIGALRM timer and fails, naming
the limit, when the timer fires.  The slowest test takes about 2 s.
Hosts without SIGALRM run the tests without a limit.
"""

from __future__ import annotations

import signal

import pytest

TIME_LIMIT = 60  # seconds per test


def _expire(signum, frame):
    pytest.fail(f"test exceeded the per-test time limit of {TIME_LIMIT} s", pytrace=False)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
