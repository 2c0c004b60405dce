"""Forked processes for the table writers and the summary of ``analyze``.

The table writers of ``synth`` and ``spectrum`` format a block of rows
in many short numpy calls, with the interpreter lock held between them,
so above a size crossover they share the rows out to forked processes
(:func:`fork_count`).  ``analyze`` streams its chain's rows into its own
tables as they are made; beside that it runs the multitaper summary and
writes ``sphere_xhat.csv``, which need only the record, in one forked
child on long records (:func:`summary_in_child`), or in this process
before the chain (:func:`beside`).  :func:`forked` runs the children and
brings back their results, exceptions and warnings.  Every FFT runs
inline, in the calling thread.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator, NoReturn, TypeVar

R = TypeVar("R")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# Table cells below which the table writers of `synth` and `spectrum` format
# in-process.  A fork, its temp files and the wait cost a few ms.  Measured
# on 2 cores in fresh processes, forked writers against in-process ones,
# 20 alternating pairs per size, medians of the paired differences: `synth`
# (19 columns) +13 ms of 259 at 3.8e4 cells (forks won 4 of 20), +0.2 ms of
# 291 at 7.6e4 (10), +4.6 ms of 307 at 1.3e5 (7), -25 ms of 367 at 2.7e5
# (15) and -35 ms of 422 at 5.3e5 (13); `spectrum` (3 columns of the
# multitaper grid) +4.4 ms of 367 at 1.3e5 cells (9), -22 ms of 510 at
# 2.6e5 (15) and -82 ms of 719 at 5.3e5 (17).  So forks break even near
# 1.3e5 cells and win from twice that; the crossover stays at the first.
_FORK_BELOW = 1 << 17

# Samples below which `analyze` runs its multitaper summary and writes
# `sphere_xhat.csv` in-process, before the chain, instead of in a child
# beside it.  The child hides the shorter of the two halves, but costs a
# fork and the pages it copies; the taper solve loads the same LAPACK
# wrappers in either process.  Measured on 2 cores in fresh `analyze`
# processes, forked against in-process, alternating, medians of the paired
# differences: -11 ms of 305 at n = 4 520 (the child won 18 of 30 pairs),
# -24 of 358 at 6 000 (20 of 30), -12 of 389 at 8 192 (19 of 30), -33 and
# -29 of about 405 at 9 040 (14 of 20, 22 of 30), -17 of 486 at 12 000
# (18 of 30), -5 and -41 of about 530 at 18 000 (11 of 20, 22 of 30), -60
# and -87 of 650-758 at 32 768 (13 of 20, 25 of 30) and -75 of 758 at
# 36 000 (19 of 20).  Below 2^15 the child gains at most a few percent and
# loses a quarter to a third of the pairs; from 2^15 it gains about 10 %.
_SUMMARY_FORK_BELOW = 1 << 15


def fork_count(cells: int) -> int:
    """How many processes should format ``cells`` table cells; 1 means in-process.

    One per CPU in the affinity mask from the crossover up; below it, on
    one CPU, or where ``os.fork`` is missing, a fork costs more than it saves.
    """
    if cells < _FORK_BELOW or not hasattr(os, "fork"):
        return 1
    return _cpus()


def summary_in_child(samples: int) -> bool:
    """Whether ``analyze`` should run its summary and ``sphere_xhat.csv`` for a record in a forked child.

    Only from its own crossover up, with more than one CPU and ``os.fork``.
    """
    return samples >= _SUMMARY_FORK_BELOW and hasattr(os, "fork") and _cpus() > 1


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
                    # Python 3.12+ warns when a process with OS threads forks, and
                    # OpenBLAS starts its own at import; a child runs only its task,
                    # which takes no lock of theirs
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


@contextmanager
def beside(task: Callable[[], R], in_child: bool, what: str) -> Iterator[list[R]]:
    """Run ``task`` in a forked child while the block runs, or, if not ``in_child``, in this process before it.

    In a child it runs as the one task of :func:`forked` (``what`` names
    it there).  In this process it is handled as :func:`forked` handles a
    child: its warnings are recorded and issued again after a block that
    ends normally, and then an exception it raised is raised, so the
    block's own exception comes first and the ``note:`` and the message
    are those of a run in a child.  After the block the yielded list holds
    the task's result.
    """
    if in_child:
        with forked(lambda _: task(), 2, what) as results:
            yield results
        return
    failed = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            value = task()
    except Exception as exc:
        failed = exc
    results: list[R] = []
    yield results
    _warn_again(_recorded(caught))
    if failed is not None:
        raise failed
    results.append(value)


def _recorded(caught: list) -> list:
    """What ``warnings.catch_warnings(record=True)`` caught, as :func:`_warn_again` takes it."""
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _run_child(task: Callable[[int], R], j: int, write_end: int) -> NoReturn:
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                ok, value = True, task(j)
            except BaseException as exc:
                ok, value = False, exc
        warned = _recorded(caught)
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
