"""Independent tasks on every CPU the process may run on.

numpy's FFTs release the interpreter lock, so the threads of one process
run them side by side.  Results come back in input order, so a caller that
adds them up in that order gets the same bits on any number of CPUs.
Text formatting holds the lock, so it is shared out to forked processes
instead: :func:`fork_count` decides how many, :func:`forked` runs them.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterable, Iterator, NoReturn, TypeVar

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


# Table cells below which the table writers format in-process.  Measured on
# 2 cores in a fresh `analyze` process (29 columns over three tables): a
# fork, its temp files and the wait cost 4-8 ms, so the forked writer breaks
# even at about 2.3e4 cells (n = 800) and saves 19% of the write time at
# 4.6e4 cells, 33% at 9.3e4 and 44% at 3.7e5.  Another process on the same
# cores slows a fork down, so the crossover sits above the break-even, at
# 6.6e4 cells (n = 2 260 for `analyze`); every n = 800 table stays inline.
_FORK_BELOW = 1 << 16


def fork_count(cells: int) -> int:
    """How many processes should format ``cells`` table cells; 1 means in-process.

    One per CPU in the affinity mask from the crossover up; below it, on
    one CPU, or where ``os.fork`` is missing, a fork costs more than it saves.
    """
    if cells < _FORK_BELOW or not hasattr(os, "fork"):
        return 1
    return _cpus()


@contextmanager
def forked(task: Callable[[int], None], count: int, what: str) -> Iterator[None]:
    """Run ``task(j)`` for j = 1 .. count - 1, each in a forked child, while the block runs.

    The children start on entry and are all reaped on exit, also when the
    block raises.  A child leaves only through ``os._exit``, so it flushes
    no inherited buffer and runs no exit hook: whatever the task writes it
    must flush itself.  A child whose task raises exits with status 1 and
    sends the exception's text back through a pipe.  After a block that
    ends normally, the first child that failed is raised here as a
    ``ChildProcessError`` carrying that text or, for a child that left
    none (a signal ended it), ``what`` the task does and how it ended.
    """
    if count < 2:
        yield
        return
    read_end, write_end = os.pipe()
    pids = []
    try:
        for j in range(1, count):
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads (the FFT pool)
                # forks; a child runs only its task, which takes no lock of theirs
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _run_child(task, j, write_end)
            pids.append(pid)
        os.close(write_end)
        write_end = -1
        yield
    finally:
        if write_end >= 0:
            os.close(write_end)
        with open(read_end, "rb") as fh:
            report = fh.read()  # end of file once every child has exited
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    messages = dict(m.partition(b" ")[::2] for m in report.split(b"\0"))
    for j, status in enumerate(statuses, 1):
        code = os.waitstatus_to_exitcode(status)
        text = messages.get(str(j).encode())
        if code > 0 and text:
            raise ChildProcessError(text.decode(errors="replace"))
        if code:
            how = f"ended by {signal.Signals(-code).name}" if code < 0 else f"exited {code}"
            raise ChildProcessError(f"worker process {j} of {count} {what} {how}")


def _run_child(task: Callable[[int], None], j: int, write_end: int) -> NoReturn:
    code = 1
    try:
        task(j)
        code = 0
    except BaseException as exc:
        # at most 512 bytes (POSIX's least PIPE_BUF) go in one write, so the
        # messages of two children never interleave
        text = f"{j} {str(exc) or type(exc).__name__}".encode()
        os.write(write_end, text[:511] + b"\0")
    finally:
        os._exit(code)
