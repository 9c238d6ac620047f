"""Test-suite settings shared by every module.

hypothesis runs under one profile: `derandomize=True` draws the same
examples on every run, so a failure reproduces from the test id alone, and
`database=None` keeps no store of failing examples.  hypothesis still caches
the constants it reads from local source files; that cache goes to a
temporary directory removed when the session ends, so the suite writes no
`.hypothesis/` directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fednsim", derandomize=True, database=None)
settings.load_profile("fednsim")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="fednsim-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
