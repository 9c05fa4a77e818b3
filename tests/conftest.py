import os
import sys

import pytest

from ustep import evaluation

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs `os.sched_getaffinity` reports, and so whether
    `sweep` runs serially (1) or forks up to that many workers.  Asking
    for more than one skips the test where the call does not exist, since
    `sweep` never forks there."""
    def report(n):
        if n > 1 and not hasattr(os, "sched_getaffinity"):
            pytest.skip("sweep forks workers only where "
                        "os.sched_getaffinity exists")
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return report


@pytest.fixture
def dying_workers(usable_cpus, monkeypatch):
    """Fork sweep workers that exit at once with status 1, as a crashed
    worker would.  Run in the test's own process, the same call fails the
    test instead of ending it."""
    usable_cpus(4)
    caller = os.getpid()

    def die(config, messages):
        if os.getpid() == caller:
            raise AssertionError("sweep scored a grid point in the caller")
        os._exit(1)

    monkeypatch.setattr(evaluation, "_template_ids", die)
