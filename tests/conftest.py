"""Suite-wide guard against hangs.

The exact solvers loop until their pivoting rule or relaxation says
stop, so a fault can keep one pivoting forever. Each test, with the set-up
of its fixtures, runs under a faulthandler alarm: a test still running
after HANG_S seconds dumps every thread's traceback to stderr and ends
the run with exit status 1, which then fails instead of hanging. The
slowest tests take a few seconds.

The alarm is armed around the whole test protocol rather than in an
autouse fixture, because module-scoped fixtures (such as the comparison
in test_single_pass.py) are set up before any function-scoped one.
"""

import faulthandler
import os

import pytest

HANG_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # While a test's output is captured, fd 2 points at a capture file
    # that is lost when the alarm ends the process, so the alarm writes
    # to a copy of fd 2 taken here, between captures.
    stderr = os.dup(2)
    faulthandler.dump_traceback_later(HANG_S, file=stderr, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)
