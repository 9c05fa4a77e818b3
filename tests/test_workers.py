import gc
import multiprocessing
import os
import signal

import pytest

from ustep.workers import forked_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="forked workers need os.fork")


def test_forked_map_yields_in_order_from_workers_with_the_collector_off():
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
    assert multiprocessing.active_children() == []


def test_closing_forked_map_early_stops_its_workers():
    results = forked_map(abs, iter(range(-1000, 0)), 2)
    assert next(results) == 1000
    results.close()
    assert multiprocessing.active_children() == []
