"""Test-suite settings shared by every module.

hypothesis runs under one profile: `derandomize=True` draws the same
examples on every run, so a failure reproduces from the test id alone, and
`database=None` keeps no store of failing examples.  hypothesis still caches
the constants it reads from local source files; that cache goes to a
temporary directory removed when the session ends, so the suite writes no
`.hypothesis/` directory.

Every test must end every process and thread it starts: one that leaves a
live child process or a new thread fails.  A test still running after
HANG_SECONDS dumps every thread's stack to stderr, so a deadlock between a
round's workers shows where the calling process waits instead of hanging
silently.  The dump is triggered by SIGALRM, not by a watchdog thread, so
that the test process stays single-threaded when the training pool forks.
"""

import faulthandler
import multiprocessing
import os
import signal
import sys
import tempfile
import threading

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fednsim", derandomize=True, database=None)
settings.load_profile("fednsim")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="fednsim-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

HANG_SECONDS = 300
_ALARM = hasattr(signal, "SIGALRM")
_hang_stderr = None


def pytest_configure(config):
    global _hang_stderr
    if _ALARM:  # stderr is not captured yet: the dump goes to a copy of the terminal's
        _hang_stderr = os.fdopen(os.dup(sys.stderr.fileno()), "w")
        faulthandler.register(signal.SIGALRM, file=_hang_stderr, all_threads=True)


def pytest_unconfigure(config):
    if _hang_stderr is not None:
        faulthandler.unregister(signal.SIGALRM)
        _hang_stderr.close()
    _HYPOTHESIS_HOME.cleanup()


@pytest.fixture(autouse=True)
def _leaves_no_process_or_thread():
    threads = set(threading.enumerate())
    if _ALARM:
        signal.alarm(HANG_SECONDS)
    yield
    if _ALARM:
        signal.alarm(0)
    children = multiprocessing.active_children()
    for child in children:  # so that the next test starts clean
        child.terminate()
        child.join()
    new_threads = [t.name for t in threading.enumerate() if t not in threads]
    assert not children and not new_threads, (
        f"left running: processes {[c.pid for c in children]}, threads {new_threads}")
