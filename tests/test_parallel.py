import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import triellipse
from triellipse import (
    RealSignal3,
    analytic_transform,
    make_random_modulated,
    multitaper_joint_spectrum,
    slepian_tapers,
)
from triellipse import _parallel
from triellipse._parallel import map_ordered
from triellipse.moments import joint_analytic_spectrum, spectral_moments

POOLED = 1 << 20  # an FFT length above the inline crossover


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the pooled path even on a machine with one CPU."""
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(triellipse.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("n, pad", [(16384, 8), (16385, 9)])
def test_pooled_spectra_match_batched_reference(two_cpus, n, pad):
    x = RealSignal3(make_random_modulated(n, 0).samples.real)
    xp = analytic_transform(x)
    assert min(16 * n, pad * n) >= _parallel._INLINE_BELOW

    # the joint spectrum as one batched complex FFT over the three components
    m = 16 * n
    spec = np.fft.fft(xp.samples, n=m, axis=0)
    raw = np.sum(np.abs(spec[: m // 2 + 1]) ** 2, axis=1)
    freqs = 2.0 * np.pi * np.arange(m // 2 + 1) / (m * xp.dt)
    got_freqs, got = joint_analytic_spectrum(xp)
    assert np.array_equal(got_freqs, freqs)
    assert np.array_equal(got, raw * (2.0 * np.pi / np.trapezoid(raw, freqs)))

    # the multitaper as one batched real FFT per taper
    ts = slepian_tapers(n, 2.0, 3)
    m = pad * n
    half = np.zeros(m // 2 + 1)
    for taper in ts.tapers:
        spec = np.fft.rfft(taper[:, None] * x.samples, n=m, axis=0)
        half += np.sum(np.abs(spec) ** 2, axis=1)
    half /= len(ts.tapers)
    if m % 2 == 0:
        half[1:-1] *= 2.0
    else:
        half[1:] *= 2.0
    freqs = 2.0 * np.pi * np.arange(half.size) / (m * x.dt)
    values = half / (np.trapezoid(half, freqs) / (2.0 * np.pi))
    mean, second = spectral_moments(freqs, values)
    est = multitaper_joint_spectrum(x, ts, pad_factor=pad)
    assert np.array_equal(est.values, values)
    assert est.moments.mean_freq == mean
    assert est.moments.second_central == second
    assert _parallel._executor is not None


def test_short_record_starts_no_thread():
    out = _python(
        "import threading\n"
        "from triellipse import RealSignal3, analyze_signal, make_random_modulated, "
        "multitaper_joint_spectrum, slepian_tapers\n"
        "x = RealSignal3(make_random_modulated(800, 0).samples.real)\n"
        "before = threading.active_count()\n"
        "analyze_signal(x)\n"
        "multitaper_joint_spectrum(x, slepian_tapers(800, 2.0, 3))\n"
        "print(before, threading.active_count())\n"
    )
    before, after = out.split()
    assert before == after


def test_synth_loads_neither_scipy_nor_thread_pool(tmp_path):
    out = _python(
        "import sys\n"
        "import triellipse.cli as cli\n"
        f"assert cli.main(['synth', '--mode', 'amplitude', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False False"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_analyze_leaves_scipy_to_the_summary_child(tmp_path):
    n = 4000  # above the writers' crossover, so the summary runs in a child
    csv = tmp_path / "in.csv"
    np.savetxt(csv, np.column_stack([np.arange(n), make_random_modulated(n, 0).samples.real]),
               fmt="%.17g", delimiter=",", header="t,x,y,z", comments="")
    out = _python(
        "import sys\n"
        "import triellipse.cli as cli\n"
        "cli._parallel._cpus = lambda: 2\n"
        f"assert cli.main(['analyze', {str(csv)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False"
    assert "mean_freq_multitaper" in (tmp_path / "o" / "summary.json").read_text()


@pytest.mark.parametrize("fft_length", [0, POOLED])
def test_task_exception_reaches_caller(two_cpus, fft_length):
    def task(i):
        if i == 2:
            raise ZeroDivisionError(f"task {i}")
        return i

    results = map_ordered(task, range(6), fft_length)
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(ZeroDivisionError, match="task 2"):
        next(results)


def test_results_come_in_input_order(two_cpus):
    # later items finish first; more tasks than workers
    def task(i):
        np.fft.fft(np.ones(1 << (18 - i)))
        return i

    assert list(map_ordered(task, range(8), POOLED)) == list(range(8))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_builds_its_own_pool(two_cpus):
    assert list(map_ordered(abs, [-1, -2, -3], POOLED)) == [1, 2, 3]
    child = multiprocessing.get_context("fork").Process(
        target=lambda: list(map_ordered(abs, [-1, -2, -3], POOLED))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


def _overflow():
    return np.float64(1e300) * np.float64(1e300)  # one warning location


class TwoPartError(Exception):
    def __init__(self, a, b):  # pickle rebuilds an exception from its args, here one string
        super().__init__(f"{a} and {b}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_brings_back_results_exceptions_and_warnings(deadline):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        with _parallel.forked(lambda j: (j, os.getpid(), _overflow()), 4, "probing") as results:
            assert results == []
            _overflow()
    assert [(j, v) for j, _, v in results] == [(1, np.inf), (2, np.inf), (3, np.inf)]
    assert os.getpid() not in {pid for _, pid, _ in results}
    # the children warned where this process had: shown once, as if all ran here
    assert [str(w.message) for w in caught] == ["overflow encountered in scalar multiply"]

    def failing(j):
        if j == 2:
            raise ZeroDivisionError(f"task {j}")
        if j == 3:
            raise TwoPartError("left", "right")

    with pytest.raises(ZeroDivisionError, match="^task 2$"):  # the first failure, type kept
        with _parallel.forked(failing, 4, "probing"):
            pass
    with pytest.raises(ChildProcessError, match="^left and right$"):
        with _parallel.forked(lambda j: failing(3), 2, "probing"):
            pass
    with pytest.raises(ChildProcessError, match="^worker process 1 of 2 probing exited 7$"):
        with _parallel.forked(lambda j: os._exit(7), 2, "probing"):
            pass
