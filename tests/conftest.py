import contextlib
import signal

import pytest
from hypothesis import HealthCheck, settings

# Exhaustive algebra on larger n can be slow per example; wall-clock
# deadlines just make the suite flaky under load.
settings.register_profile(
    "kleinforge",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kleinforge")


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` raises TimeoutError after s seconds, so a
    regression that would never return fails the test instead of hanging it."""
    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(*_):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
