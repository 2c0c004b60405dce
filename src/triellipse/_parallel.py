"""The forked child that runs ``analyze``'s summary beside its chain.

``analyze`` runs the multitaper summary and writes ``sphere_xhat.csv``,
which need only the record, in one forked child wherever the host has
``os.fork`` and more than one CPU, whatever the record's length; else in
this process before the chain.  :func:`beside` picks the layout and runs
that task either way, bringing back its result, exception and warnings
alike.  No table writer forks: every command formats its tables in the
process that writes them.  Every FFT runs inline, in the calling thread.
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


# One CPU keeps the summary in this process: under `taskset -c 0`, forked
# against in-process in alternating fresh `analyze` runs on seed-1 records
# (2-core x86), the child cost +20 ms of 193 at n = 800 (faster in 3 of 11
# pairs) and +85 ms of 1.10 s at 1e5 (0 of 7), though it peaked 3.3 and
# 4.9 MB lower.
def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@contextmanager
def beside(task: Callable[[], R], what: str) -> Iterator[list[R]]:
    """Run ``task`` in a forked child while the block runs, or, on one CPU or without ``os.fork``, here before it.

    Either way its outcome is taken after the block.  If the block raises,
    that exception goes on and the task's outcome is dropped.  Else the
    warnings the task recorded are issued again here, each once per
    location as if it had been raised in this process, and then its
    exception is raised, with its type and message, or its result is put
    in the yielded list.  So the block's own exception comes first, and
    the ``note:`` and the message of a run in a child are those of a run
    here.

    The child starts on entry and is reaped on exit, also when the block
    raises.  It leaves only through ``os._exit``, so it flushes no
    inherited buffer and runs no exit hook: whatever the task writes it
    must flush itself.  It sends back through a pipe, pickled, the task's
    return value or the exception it raised, and the warnings it
    recorded.  A child that left no report (a signal ended it) fails as a
    ``ChildProcessError`` naming ``what`` the task does and how it ended.
    """
    results: list[R] = []
    if not (hasattr(os, "fork") and _cpus() > 1):
        ok, value, warned = _outcome(task, Exception)
        yield results
    else:
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader:
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns when a process with OS threads forks, and
                    # OpenBLAS starts its own at import; a child runs only its task,
                    # which takes no lock of theirs
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _run_child(task, write_end)
            finally:
                os.close(write_end)  # this process's copy; the child never gets here
            try:
                yield results
            finally:
                report = reader.read()  # end of file once the child has exited
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code in (0, 1) and report:  # the child reported
            ok, value, warned = pickle.loads(report)
        else:
            how = f"ended by {signal.Signals(-code).name}" if code < 0 else f"exited {code}"
            # numbered as the first of two processes, the child and this one
            ok, value, warned = False, ChildProcessError(f"worker process 1 of 2 {what} {how}"), []
    _warn_again(warned)
    if not ok:
        raise value
    results.append(value)


def _outcome(task: Callable[[], R], catch: type[BaseException]) -> tuple[bool, object, list]:
    """``(ok, value, warned)``: the task's result or the ``catch`` it raised, and the warnings it recorded."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            ok, value = True, task()
        except catch as exc:
            ok, value = False, exc
    return ok, value, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _run_child(task: Callable[[], R], write_end: int) -> NoReturn:
    code = 1
    try:
        ok, value, warned = _outcome(task, BaseException)
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
