import gc
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from ustep.workers import forked_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="forked workers need os.fork")


class Refused(Exception):
    """An error of a type only this module defines."""


def test_forked_map_yields_in_order_from_workers_with_the_collector_off(
        no_child_left):
    collector_on = gc.isenabled()
    on_sigint = signal.getsignal(signal.SIGINT)
    parent = os.getpid()
    offset = 10     # a closure: fork hands it over without pickling

    def probe(item):
        return (item + offset, os.getpid() != parent, gc.isenabled(),
                signal.getsignal(signal.SIGINT) == signal.SIG_IGN)

    got = list(forked_map(probe, range(7), 2))
    assert got == [(i + 10, True, False, True) for i in range(7)]
    assert gc.isenabled() == collector_on
    assert signal.getsignal(signal.SIGINT) == on_sigint
    no_child_left()


def test_forked_map_hands_out_at_most_two_items_per_worker_ahead(
        tmp_path, no_child_left):
    path = tmp_path / "started"

    def note(index):
        # one write to a file opened for appending: notes never mix
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"%d\n" % index)
        finally:
            os.close(fd)
        return index

    def started():
        return sorted(map(int, path.read_bytes().split())) \
            if path.exists() else []

    workers, items = 2, 12
    for yielded in forked_map(note, range(items), workers):
        want = list(range(min(items, yielded + 2 * workers + 1)))
        deadline = time.monotonic() + 30
        while len(started()) < len(want) and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.02)    # time to begin on one item too many, if handed
        assert started() == want
    no_child_left()


def test_a_worker_exception_is_raised_in_the_caller_in_turn(no_child_left):
    def refuse_two(item):
        if item == 2:
            raise Refused(f"item {item}")
        return item

    results = forked_map(refuse_two, range(6), 2)
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(Refused, match="^item 2$"):
        next(results)
    no_child_left()


def test_a_dead_worker_raises_broken_process_pool(no_child_left):
    def die_at_three(item):
        if item == 3:
            os._exit(1)
        return item

    with pytest.raises(BrokenProcessPool):
        list(forked_map(die_at_three, range(20), 2))
    no_child_left()


def test_closing_forked_map_early_stops_its_workers(no_child_left):
    def slow_abs(item):
        time.sleep(0.01)
        return abs(item)

    results = forked_map(slow_abs, range(-1000, 0), 2)
    assert next(results) == 1000
    results.close()     # while each worker holds an item
    no_child_left()


def test_forked_map_forks_no_more_workers_than_items(monkeypatch,
                                                     no_child_left):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert list(forked_map(abs, [-5], 4)) == [5]
    assert len(forks) == 1
    no_child_left()
