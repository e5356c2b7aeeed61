import signal

import pytest

# Wall-clock limit per test, well above the slowest test (criterion 4,
# about 30 s).  An event loop that stops advancing, such as one racing
# contacts with no cross-profile pair left, then fails with a traceback
# instead of hanging the suite.
TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Raised in a test that outran the limit.  Not an ``Exception``, so
    the CLI's exit-code mapping lets it through rather than turning it
    into exit 4."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
