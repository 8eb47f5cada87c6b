import signal

import pytest


@pytest.fixture()
def alarm():
    """Fail, rather than hang, a test that does not finish within 5 s."""
    def expire(signum, frame):
        raise TimeoutError("no result within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
