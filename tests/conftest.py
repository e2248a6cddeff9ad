import sys

import pytest
from hypothesis import HealthCheck, settings

# Property tests over million-row arrays can trip the default 200 ms
# deadline on loaded CI machines; correctness here is deterministic per
# example, so wall-clock deadlines only add flakes.
settings.register_profile(
    "washdetect", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("washdetect")


@pytest.fixture
def fast_thread_switches():
    """A 1 µs switch interval, so that threads take turns at nearly every
    bytecode."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)
