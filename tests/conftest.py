import contextlib
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "tailbound",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tailbound")


@pytest.fixture
def run_cli():
    """Run the installed CLI as a subprocess; returns CompletedProcess."""

    def _run(*argv, **kw):
        return subprocess.run(
            [sys.executable, "-m", "tailbound", *map(str, argv)],
            capture_output=True,
            text=True,
            **kw,
        )

    return _run


class TimeLimitExceeded(Exception):
    """Not an OSError (as TimeoutError is), so no handler under test takes it."""


@pytest.fixture(scope="session")
def time_limit():
    """Context manager factory: a block still running after `seconds` raises
    TimeLimitExceeded, so a search that fails to finish fails its test instead
    of stalling the suite.  Session-scoped, so hypothesis tests can take it."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeLimitExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
