import os
import signal
import subprocess
import sys

import pytest

# Wall-clock limit per test, well above the slowest test (criterion 4,
# about 16 s on 2 vCPUs).  An event loop that stops advancing, such as one racing
# contacts with no cross-profile pair left, then fails with a traceback
# instead of hanging the suite.  The limit covers the test's whole run,
# setup and teardown included, so a module-scoped fixture that hangs while
# the first test that uses it sets up is cut too.
TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Raised in a test that outran the limit.  Not an ``Exception``, so
    the CLI's exit-code mapping lets it through rather than turning it
    into exit 4."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_fresh(code: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports from this one's
    ``sys.path``, and return the finished process with its output as text.
    For what a test's own process cannot show: which modules a cold import
    loads, or how a command behaves with a module missing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=check
    )
