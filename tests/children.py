"""One way for a test to run Python code in a child process.

A test runs code in a child when the code may allocate what a hostile
header claims, wait on a FIFO or train without end, or when it needs an
environment that is read once, when numpy loads, such as the BLAS thread
count.  `run_child` gives every child the same argv, environment,
address-space limit, per-case alarm and timeout; a test that needs another
environment lays its variables over that one.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ADDRESS_SPACE = 2 << 30  # bytes; a hostile header claims far more
CASE_TIMEOUT_S = 10
TIMEOUT_S = 120

# Runs first in every child: caps the address space, and defines `case`
PREAMBLE = f"""\
import contextlib, io, json, os, resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))


class Hung(BaseException):  # past cli.main's `except Exception`
    pass


def _hung(signum, frame):
    raise Hung


signal.signal(signal.SIGALRM, _hung)


def case(call, stdout=True):
    \"\"\"[call()'s value, or "hung" when it outlasts {CASE_TIMEOUT_S} s, what it wrote to
    stdout (unless `stdout` is false, when it writes to the real one) and to stderr].\"\"\"
    out, err = io.StringIO(), io.StringIO()
    signal.alarm({CASE_TIMEOUT_S})
    try:
        with contextlib.redirect_stderr(err), (
                contextlib.redirect_stdout(out) if stdout else contextlib.nullcontext()):
            value = call()
    except Hung:
        value = "hung"
    finally:
        signal.alarm(0)
    return [value, out.getvalue(), err.getvalue()]


"""


def run_child(script: str, *args: str, env: dict[str, str | None] | None = None,
              **run) -> subprocess.CompletedProcess:
    """Runs PREAMBLE and then `script` in a child Python, with `args` after
    them in its argv, and waits up to TIMEOUT_S for it to end.

    The child has the package's source and the tests on its path, numpy's
    BLAS on one thread, and stdout block-buffered, as it is on a pipe by
    default.  `env` is laid over all that: each of its variables is set to
    its str, or dropped when None.  The child's stdout and stderr are
    captured as text unless `run`, passed on to `subprocess.run`, says
    where they go.
    """
    paths = [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]
    overlay = {"OPENBLAS_NUM_THREADS": "1", "PYTHONUNBUFFERED": None,
               "PYTHONPATH": os.pathsep.join(filter(None, paths))} | (env or {})
    run.setdefault("stdout", subprocess.PIPE)
    run.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-c", PREAMBLE + script, *args], text=True,
                          env={k: v for k, v in (os.environ | overlay).items() if v is not None},
                          timeout=TIMEOUT_S, check=False, **run)
