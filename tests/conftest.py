"""A time limit on every test: one that runs longer than ``LIMIT_S`` fails.

A broken pivot step can cycle or let its ints grow without bound; the alarm
turns that into a failed test instead of a suite that never ends.  The
slowest test takes about 13 s on a 2-core Xeon.  Where ``SIGALRM`` does not
exist (Windows) there is no limit.
"""

import signal

import pytest

LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"the test ran longer than {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
