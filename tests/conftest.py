import os
import sys

import pytest

from ustep import cli, evaluation

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs `os.sched_getaffinity` reports, and so whether
    `sweep` runs serially (1) or forks up to that many workers, and
    whether masked `parse --input FILE` runs serially (1) or forks two
    mask workers (2 or more).  Asking for more than one skips the test
    where the call does not exist, since nothing forks there."""
    def report(n):
        if n > 1 and not hasattr(os, "sched_getaffinity"):
            pytest.skip("sweep and parse fork workers only where "
                        "os.sched_getaffinity exists")
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return report


@pytest.fixture
def dying_workers(usable_cpus, monkeypatch):
    """Fork sweep and parse mask workers that exit at once with status 1,
    as a crashed worker would.  Run in the test's own process, the same
    call fails the test instead of ending it."""
    usable_cpus(4)
    caller = os.getpid()

    def die(*args):
        if os.getpid() == caller:
            raise AssertionError("a worker's function ran in the caller")
        os._exit(1)

    monkeypatch.setattr(evaluation, "_template_ids", die)
    monkeypatch.setattr(cli, "_mask_lines", die)


@pytest.fixture
def no_child_left():
    """A check that this process has no child left, running or not yet
    reaped.  `multiprocessing.active_children()` lists only the children
    that `multiprocessing` started, so it cannot see a raw `os.fork`."""
    def check():
        try:
            left = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        raise AssertionError(f"a child process is left: waitpid gave {left}")
    return check
