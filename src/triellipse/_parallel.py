"""Independent tasks on every CPU the process may run on.

numpy's FFTs release the interpreter lock, so the threads of one process
run them side by side.  Results come back in input order, so a caller that
adds them up in that order gets the same bits on any number of CPUs.  That
does not hold for the Slepian tapers: scipy's eigensolve runs on OpenBLAS,
whose thread count follows the CPU count and sets the tapers' last bits.
Text formatting holds the lock, and the multitaper summary of ``analyze``
can run beside the analysis chain, so both go to forked processes
instead: :func:`fork_count` decides how many, :func:`forked` runs them and
brings back their results, exceptions and warnings.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
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
def forked(task: Callable[[int], R], count: int, what: str) -> Iterator[list[R]]:
    """Run ``task(j)`` for j = 1 .. count - 1, each in a forked child, while the block runs.

    The children start on entry and are all reaped on exit, also when the
    block raises.  A child leaves only through ``os._exit``, so it flushes
    no inherited buffer and runs no exit hook: whatever the task writes it
    must flush itself.  Each child sends back through its own pipe, pickled,
    the task's return value or the exception it raised, and the warnings it
    recorded.  After a block that ends normally, the warnings are issued
    again here, child by child, each once per location as if it had been
    raised in this process; the yielded list then holds the return values
    in order of j.  The first child that failed is raised here: the task's
    exception, with its type and message, or, for a child that left no
    report (a signal ended it), a ``ChildProcessError`` naming ``what`` the
    task does and how it ended.
    """
    results: list[R] = []
    if count < 2:
        yield results
        return
    pids, pipes = [], []
    try:
        for j in range(1, count):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns when a process with threads (the FFT pool)
                    # forks; a child runs only its task, which takes no lock of theirs
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _run_child(task, j, write_end)
            finally:
                os.close(write_end)  # this process's copy; the child never gets here
            pids.append(pid)
        yield results
    finally:
        reports = []
        for read_end in pipes:
            with open(read_end, "rb") as fh:
                reports.append(fh.read())  # end of file once the child has exited
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    failures = []
    for j, (status, report) in enumerate(zip(statuses, reports), 1):
        code = os.waitstatus_to_exitcode(status)
        if code in (0, 1) and report:  # the child reported
            ok, value, warned = pickle.loads(report)
            _warn_again(warned)
            (results if ok else failures).append(value)
        else:
            how = f"ended by {signal.Signals(-code).name}" if code < 0 else f"exited {code}"
            failures.append(ChildProcessError(f"worker process {j} of {count} {what} {how}"))
    if failures:
        raise failures[0]


def _run_child(task: Callable[[int], R], j: int, write_end: int) -> NoReturn:
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                ok, value = True, task(j)
            except BaseException as exc:
                ok, value = False, exc
        warned = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        with open(write_end, "wb") as fh:
            fh.write(_report(ok, value, warned))
        code = 0 if ok else 1
    finally:
        os._exit(code)


def _report(ok: bool, value, warned: list) -> bytes:
    """The pickled ``(ok, value, warned)``; a value that cannot cross is replaced by its text."""
    try:
        report = pickle.dumps((ok, value, warned))
        pickle.loads(report)  # an exception whose class cannot be rebuilt from its args
        return report
    except Exception as exc:
        text = (str(value) or type(value).__name__) if not ok else f"result not sent back: {exc}"
        return pickle.dumps((False, ChildProcessError(text), warned))


def _warn_again(warned: list) -> None:
    """Issue warnings a child recorded, each shown here only if this process has not shown it.

    A warning is looked up in the registry of the module that raised it, the
    registry ``warnings.warn`` uses, so it counts once per location as it
    would had the child's work run in this process.
    """
    if not warned:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for text, category, filename, lineno in warned:
        module = modules.get(filename)
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(
            text, category, filename, lineno,
            module=module.__name__ if module else None, registry=registry,
        )
