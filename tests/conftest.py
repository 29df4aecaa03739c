import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mbzero import zerocensus as zc

# The OS thread count of this process at each fork, read in the parent
# just after the fork, where Python 3.12+ counts threads for its fork
# warning.  The warning filter in pyproject.toml cannot fail a test on
# every version (os.fork swallows the error on 3.12.1 and 3.13.0), so the
# count is checked here.  Nothing is recorded where /proc is missing.
FORK_THREAD_COUNTS = []


def _record_fork_thread_count():
    if os.path.isdir("/proc/self/task"):
        FORK_THREAD_COUNTS.append(len(os.listdir("/proc/self/task")))


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=_record_fork_thread_count)


@pytest.fixture(autouse=True)
def forks_single_threaded():
    """Fail a test during which a fork saw more than one OS thread."""
    del FORK_THREAD_COUNTS[:]
    yield FORK_THREAD_COUNTS
    threaded = [n for n in FORK_THREAD_COUNTS if n > 1]
    assert not threaded, f"forked beside other threads: counts {threaded}"


@pytest.fixture(scope="session")
def beta_catalog():
    return zc.scan_zeros("beta", 17.0)


@pytest.fixture(scope="session")
def zeta_catalog_60():
    return zc.scan_zeros("zeta", 60.0)


@pytest.fixture(scope="session")
def zeta_catalog_110():
    return zc.scan_zeros("zeta", 110.0)


@pytest.fixture(scope="session")
def zeta_catalog_full():
    """Desk-scale ceiling census, ~79 zeros; shared by the heavy tests."""
    return zc.scan_zeros("zeta", 200.0)
