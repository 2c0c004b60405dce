"""Forked processes for the table writers and the summary of ``analyze``.

The table writers format a block of rows in many short numpy calls, with
the interpreter lock held between them, and the multitaper summary of
``analyze`` can run beside the analysis chain, so both go to forked
processes: :func:`fork_count` and :func:`summary_in_child` decide, each
from its own measured crossover, and :func:`forked` runs them and brings
back their results, exceptions and warnings.  Every FFT runs inline, in
the calling thread.
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


# Table cells below which the table writers format in-process.  Measured on
# 2 cores in fresh `analyze` processes (29 columns over three tables, numpy
# formatting, 15 alternating pairs per size): a fork, its temp files and
# the wait cost 4 ms, so at 2.3e4 cells (n = 800) the forked writers take
# 12.5 ms against 8.5 ms inline.  They break even at about 1e5 cells:
# +1.1 ms of 19 at 6.6e4 (n = 2 260; forks won 3 of 15 pairs), -4.6 ms of
# 36 at 1.3e5 (9 of 15) and -11 ms of 53 at 2.6e5 (14 of 15).  Another
# process on the same cores slows a fork down, so the crossover sits at
# the first of these, 1.3e5 cells (n = 4 520 for `analyze`).
_FORK_BELOW = 1 << 17

# Samples below which `analyze` computes its multitaper summary in-process.
# The child hides the chain's time behind its own, but costs a fork and the
# pages it copies; the taper solve loads the same LAPACK wrappers in either
# process.  Measured on 2 cores in fresh `analyze` processes, forked against
# in-process summary, alternating, medians of the paired differences: at
# n = 9 040 +2.8 ms of 453 (the child won 8 of 20 pairs), at 18 000 +20 ms
# of 738 and then -17 ms of 525 (8 and 16 of 20 pairs), at 36 000 -98 ms of
# 775 (17 of 20).  So the child wins consistently only above 2^15.
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
    """Whether ``analyze`` should compute the multitaper summary of a record in a forked child.

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
