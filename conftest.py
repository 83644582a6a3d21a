"""A per-test time limit for tests/ and perfbench/, with the standard
library alone (no timeout plugin is installed).

Each phase of a test (setup, call, teardown) may run for the ini key
`test_time_limit`, in seconds: 60 by default, 0 for no limit, and `-o
test_time_limit=2` changes it for one run. A SIGALRM timer raises
TestTimeLimit inside the phase when the time is up, which fails the test
and names it. TestTimeLimit is a BaseException, so hypothesis does not
take it for a falsifying example to shrink: it ends a `@given` test at
once. A stall inside C code, where no Python signal handler can run, is
ended _BACKSTOP seconds later by faulthandler, which dumps every thread's
traceback (the test's frame among them) and exits the process. Without
SIGALRM (Windows) there is no limit.
"""
from __future__ import annotations

import faulthandler
import os
import signal
import sys

import pytest

# seconds past the limit after which faulthandler ends a stalled process
_BACKSTOP = 10.0


class TestTimeLimit(BaseException):
    """A phase of a test ran past the per-test time limit."""

    __test__ = False  # not a test class, whatever its name


_STDERR = pytest.StashKey[int]()


def pytest_addoption(parser):
    parser.addini("test_time_limit", "seconds each phase of a test may run "
                  "before it fails (0: no limit)", default="60")


def pytest_configure(config):
    # a copy of the terminal's stderr, which output capture does not
    # redirect, for faulthandler's traceback
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


def _limited(item):
    """Run one phase of item's protocol under the time limit."""
    limit = float(item.config.getini("test_time_limit"))
    if limit <= 0 or not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TestTimeLimit(f"{item.nodeid} ran past the {limit:g} s limit "
                            "(ini key test_time_limit)")

    old = signal.signal(signal.SIGALRM, expire)
    faulthandler.dump_traceback_later(limit + _BACKSTOP, exit=True,
                                      file=item.config.stash[_STDERR])
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, old)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _limited(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _limited(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    yield from _limited(item)
