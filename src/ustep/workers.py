"""Ordered fan-out of work to forked worker processes, for `sweep` and
`parse`."""

import gc
import os
import signal
from collections import deque


def usable_cpus():
    """CPUs this process may run on: `os.sched_getaffinity`, or 1 where
    that call does not exist."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


#: the function a worker applies, inherited from the parent by fork
_worker_fn = None


def _init_worker(fn):
    global _worker_fn
    _worker_fn = fn
    # what a worker builds holds no reference cycle and dies with the
    # worker, so a collection would only rescan its heap
    gc.disable()
    # Ctrl-C reaches the whole process group; the caller alone handles it
    # and shuts the pool down, so each worker does not print a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _call(item):
    return _worker_fn(item)


def forked_map(fn, items, workers):
    """Yield `fn(item)` for each of `items`, in order, computed in
    `workers` forked processes.

    The workers inherit `fn`, and all it refers to, by fork; only the
    items and results are pickled, so `fn` may be any callable.  No more
    than 2 * workers items are handed out beyond the latest result
    yielded, so `items` may be a stream larger than memory.  Closing the
    generator cancels the items not yet started, and waits for the rest.
    The workers run with the cyclic collector off and ignore SIGINT; the
    caller's settings are untouched, and an interrupt of the caller stops
    the pool once the items already started are done.  A worker that
    dies raises
    `concurrent.futures.process.BrokenProcessPool`.

    ProcessPoolExecutor, unlike multiprocessing.Pool, raises that error
    instead of hanging.  Forking a process that runs threads can deadlock
    the child, so call this before starting any.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=_init_worker, initargs=(fn,))
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(_call, item))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
