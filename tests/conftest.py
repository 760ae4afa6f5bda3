"""Every test runs under a time limit: a test still running after
TIME_LIMIT seconds dumps every thread's traceback and ends the session
with exit code 1. A hang inside a LAPACK call holds the GIL, so no
Python-level alarm can interrupt it; faulthandler's watchdog thread
works in C and can."""

import faulthandler
import os

import pytest

TIME_LIMIT = 60.0   # s; the slowest test takes under 2 s

_stderr_fd = None


def pytest_configure(config):
    # global capture is suspended here, so fd 2 is the terminal's stderr;
    # at import time it is pytest's capture file, whose content a killed
    # session never prints
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(TIME_LIMIT, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
