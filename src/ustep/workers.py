"""Ordered fan-out of work to forked worker processes, for `sweep` and
`parse`."""

import gc
import os
import signal


def usable_cpus():
    """CPUs this process may run on: `os.sched_getaffinity`, or 1 where
    that call does not exist."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


#: bytes of a task index on the task pipe and of a result's length on a
#: result pipe; a write this small to a pipe is atomic, so the workers can
#: share one task pipe and none reads a part of an index
_WORD = 8

#: bytes a result pipe holds, where the system allows it: the most an
#: unprivileged process may ask of Linux by default.  A worker done with
#: an item while the caller is busy then writes the result whole and goes
#: on; a default pipe of 64 KiB, less than one masked `parse` chunk,
#: stopped it and could leave a CPU idle
_RESULT_PIPE_BYTES = 1 << 20


def _serve(fn, items, tasks, results):
    """A worker's loop: for each index read from `tasks` until it ends,
    write `(index, ok, fn(items[index]) or the exception it raised)` to
    `results`, pickled and led by its length."""
    from pickle import dumps
    # what a worker builds holds no reference cycle and dies with the
    # worker, so a collection would only rescan its heap
    gc.disable()
    # Ctrl-C reaches the whole process group; the caller alone handles it
    # and ends the pool, so each worker does not print a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while task := os.read(tasks, _WORD):
        index = int.from_bytes(task, "little")
        try:
            blob = dumps((index, True, fn(items[index])))
        except Exception as exc:
            blob = dumps((index, False, exc))
        frame = memoryview(len(blob).to_bytes(_WORD, "little") + blob)
        while frame:
            frame = frame[os.write(results, frame):]


def broken_pool():
    """The error a dead worker raises, `BrokenProcessPool`, imported only
    once an exception needs it."""
    from concurrent.futures.process import BrokenProcessPool
    return BrokenProcessPool


def forked_map(fn, items, workers):
    """Yield `fn(item)` for each of the sequence `items`, in order,
    computed in `workers` forked processes, or one per item if there are
    fewer items.

    The workers inherit `fn` and `items`, and all they refer to, by fork;
    only indices into `items` and the pickled results cross pipes, so
    neither `fn` nor `items` need be picklable.  Every
    worker takes its next index from one shared pipe, so a slow item holds
    up only its own worker.  No more than 2 * workers indices are handed
    out beyond the result being yielded, and each worker's result pipe
    holds 1 MiB where Linux allows it, so a worker seldom waits for the
    caller to read.  Closing the generator hands out no more, closes every
    pipe and waits for each worker to finish the item it holds.  The
    workers run with the cyclic collector off and ignore SIGINT; the
    caller's settings are untouched, and an interrupt of the caller ends
    the pool in the same way.  An exception raised by `fn` is raised again
    in the caller when its item's turn comes; a worker that dies raises
    `concurrent.futures.process.BrokenProcessPool`.

    The caller runs no thread for the pool.  Forking a process that runs
    threads can deadlock the child, so call this before starting any.
    """
    import fcntl
    import pickle
    import selectors
    workers = min(workers, len(items))
    fds = list(os.pipe())       # what this process must close
    pids = []
    try:
        for _ in range(workers):
            fds += os.pipe()
            try:
                fcntl.fcntl(fds[-1], fcntl.F_SETPIPE_SZ, _RESULT_PIPE_BYTES)
            except (AttributeError, OSError):   # not Linux, or refused
                pass
        tasks_r, tasks_w, *pipes = fds
        readers = pipes[::2]
        for results_w in pipes[1::2]:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # a worker holds no other end, so it sees the task
                    # pipe end, and EPIPE on its own, once the caller
                    # closes them
                    for fd in fds:
                        if fd not in (tasks_r, results_w):
                            os.close(fd)
                    _serve(fn, items, tasks_r, results_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        for fd in (tasks_r, *pipes[1::2]):
            os.close(fd)
            fds.remove(fd)
        unread = {fd: bytearray() for fd in readers}
        done = {}               # index -> (ok, value), not yet yielded
        handed = 0
        with selectors.DefaultSelector() as waiting:
            for fd in readers:
                waiting.register(fd, selectors.EVENT_READ)
            for index in range(len(items)):
                end = min(len(items), index + 2 * workers + 1)
                if handed < end:
                    try:
                        os.write(tasks_w, b"".join(
                            i.to_bytes(_WORD, "little")
                            for i in range(handed, end)))
                    except BrokenPipeError:
                        raise broken_pool()("every worker process died") \
                            from None
                    handed = end
                while index not in done:
                    for key, _ in waiting.select():
                        data = os.read(key.fd, 1 << 16)
                        if not data:
                            # a worker ends early only by dying: the task
                            # pipe stays open until the caller is done
                            raise broken_pool()("a worker process died")
                        buffer = unread[key.fd]
                        buffer += data
                        while len(buffer) >= _WORD:
                            size = _WORD + int.from_bytes(buffer[:_WORD],
                                                          "little")
                            if len(buffer) < size:
                                break
                            i, ok, value = pickle.loads(buffer[_WORD:size])
                            del buffer[:size]
                            done[i] = ok, value
                ok, value = done.pop(index)
                if not ok:
                    raise value
                yield value
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
