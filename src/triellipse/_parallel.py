"""Independent numpy tasks on every CPU the process may run on.

numpy's FFTs release the interpreter lock, so the threads of one process
run them side by side.  Results come back in input order, so a caller that
adds them up in that order gets the same bits on any number of CPUs.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# FFT length below which the tasks run inline.  Measured on 2 cores: once
# the threads run, the pool beats the inline loop from about 1.6e4 points,
# but in a fresh process that analyses one record (16x and 8x padding)
# thread start-up and first-touch page faults put the break-even at about
# n = 16 000, i.e. transforms of 1.3e5 to 2.6e5 points.
_INLINE_BELOW = 1 << 17

_lock = threading.Lock()
_executor = None  # built on first use; None again in a forked child


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pool(workers: int):
    """The process's thread pool, built with ``workers`` threads on first use."""
    global _executor
    with _lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(workers, thread_name_prefix="triellipse")
        return _executor


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _executor, _lock
    _executor, _lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def map_ordered(fn: Callable[[T], R], items: Iterable[T], fft_length: int) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in input order.

    ``fft_length`` is the length of the transforms the tasks take.  Below
    the crossover, or on a single CPU, the tasks run inline and no thread
    is started.  Otherwise they run on the process's thread pool, with at
    most one task per worker plus one submitted ahead, so only those
    tasks and the result being consumed are held in memory.  An exception
    raised by a task is raised here, when its result is due.
    """
    workers = _cpus()
    if fft_length < _INLINE_BELOW or workers < 2:
        yield from map(fn, items)
        return
    pool = _pool(workers)
    pending = iter(items)
    # one task queued beyond the running ones, so no worker waits on the caller
    window = deque(pool.submit(fn, item) for item in islice(pending, workers + 1))
    try:
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(fn, item) for item in islice(pending, 1))
            yield result
    finally:
        for future in window:  # left over when a task or the caller raised
            if not future.cancel():
                future.exception()
