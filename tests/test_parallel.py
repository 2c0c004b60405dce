import os
import warnings

import numpy as np
import pytest

from triellipse import (
    RealSignal3,
    analytic_transform,
    make_random_modulated,
    multitaper_joint_spectrum,
    slepian_tapers,
)
from triellipse import _parallel
from triellipse.moments import _exact_moments, _fft_length, joint_analytic_spectrum

from conftest import multitaper_grid_length, run_python


@pytest.mark.parametrize("n, pad", [(16384, 8), (16385, 9)])
def test_spectra_match_batched_reference(n, pad):
    x = RealSignal3(make_random_modulated(n, 0).samples.real)
    xp = analytic_transform(x)

    # the joint spectrum as one batched complex FFT over the three components
    m = 4 * _fft_length(n)
    spec = np.fft.fft(xp.samples, n=m, axis=0)
    raw = np.sum(np.abs(spec[: m // 2 + 1]) ** 2, axis=1)
    freqs = 2.0 * np.pi * np.arange(m // 2 + 1) / (m * xp.dt)
    got_freqs, got = joint_analytic_spectrum(xp)
    assert np.array_equal(got_freqs, freqs)
    assert np.array_equal(got, raw * (2.0 * np.pi / np.trapezoid(raw, freqs)))

    # the multitaper grid from the streamed power, normalised by hand
    ts = slepian_tapers(n, 2.0, 3)
    m = multitaper_grid_length(n, pad)
    columns = lambda scratch: (taper * x.samples[:, c] for taper in ts.tapers for c in range(3))
    half = np.empty(m // 2 + 1)
    mean, second = _exact_moments(columns, n, m, x.dt, real=True, grid=half)
    half /= len(ts.tapers)
    half[1:-1] *= 2.0
    freqs = 2.0 * np.pi * np.arange(half.size) / (m * x.dt)
    values = half / (np.trapezoid(half, freqs) / (2.0 * np.pi))
    est = multitaper_joint_spectrum(x, ts, pad_factor=pad)
    assert np.array_equal(est.values, values)
    assert est.moments.mean_freq == mean
    assert est.moments.second_central == second


def test_short_record_starts_no_thread():
    # nor a long one on two CPUs (16 385 samples at pad 8, a grid of more
    # than 2^17 points); scipy.linalg imports concurrent.futures, but only
    # a thread pool loads its submodule concurrent.futures.thread
    out = run_python(
        "import sys, threading\n"
        "from triellipse import RealSignal3, _parallel, analyze_signal, "
        "make_random_modulated, multitaper_joint_spectrum, slepian_tapers\n"
        "_parallel._cpus = lambda: 2\n"
        "x = RealSignal3(make_random_modulated(800, 0).samples.real)\n"
        "before = threading.active_count()\n"
        "analyze_signal(x)\n"
        "multitaper_joint_spectrum(x, slepian_tapers(800, 2.0, 3))\n"
        "x = RealSignal3(make_random_modulated(16385, 0).samples.real)\n"
        "multitaper_joint_spectrum(x, slepian_tapers(16385, 2.0, 3), pad_factor=8)\n"
        "print(before, threading.active_count(), 'concurrent.futures.thread' in sys.modules)\n"
    )
    before, after, futures = out.split()
    assert before == after
    assert futures == "False"


def test_synth_loads_neither_scipy_nor_thread_pool(tmp_path):
    out = run_python(
        "import sys\n"
        "import triellipse.cli as cli\n"
        f"assert cli.main(['synth', '--mode', 'amplitude', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(any(m.startswith('scipy') for m in sys.modules),\n"
        "      'concurrent.futures' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False False"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_analyze_leaves_scipy_to_the_summary_child(tmp_path):
    n = 800  # on two CPUs the summary runs in a child at any record length
    csv = tmp_path / "in.csv"
    np.savetxt(csv, np.column_stack([np.arange(n), make_random_modulated(n, 0).samples.real]),
               fmt="%.17g", delimiter=",", header="t,x,y,z", comments="")
    out = run_python(
        "import sys\n"
        "import triellipse.cli as cli\n"
        "cli._parallel._cpus = lambda: 2\n"
        f"assert cli.main(['analyze', {str(csv)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        # the taper solve loads scipy's LAPACK wrappers, not the scipy package
        "print(any(m.startswith('scipy') for m in sys.modules))\n"
    )
    assert out.splitlines()[-1] == "False"
    assert "mean_freq_multitaper" in (tmp_path / "o" / "summary.json").read_text()


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_taper_solve_leaves_scipy_linalg_unimported(tmp_path, command):
    # on one CPU the summary of analyze is computed in this process
    csv = tmp_path / "in.csv"
    np.savetxt(csv, np.column_stack([np.arange(800), make_random_modulated(800, 0).samples.real]),
               fmt="%.17g", delimiter=",", header="t,x,y,z", comments="")
    out = run_python(
        "import sys\n"
        "import triellipse.cli as cli\n"
        "cli._parallel._cpus = lambda: 1\n"
        f"assert cli.main([{command!r}, {str(csv)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print('scipy.linalg._flapack' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "True False"


def _overflow():
    return np.float64(1e300) * np.float64(1e300)  # one warning location


class TwoPartError(Exception):
    def __init__(self, a, b):  # pickle rebuilds an exception from its args, here one string
        super().__init__(f"{a} and {b}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_brings_back_results_exceptions_and_warnings(monkeypatch, deadline):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        with _parallel.beside(lambda: (os.getpid(), _overflow()), "probing") as results:
            assert results == []
            _overflow()
    [(pid, value)] = results
    assert pid != os.getpid() and value == np.inf
    # the child warned where this process had: shown once, as if both ran here
    assert [str(w.message) for w in caught] == ["overflow encountered in scalar multiply"]

    def failing(error):
        raise error

    with pytest.raises(ZeroDivisionError, match="^task 2$"):  # the type kept
        with _parallel.beside(lambda: failing(ZeroDivisionError("task 2")), "probing"):
            pass
    with pytest.raises(ChildProcessError, match="^left and right$"):
        with _parallel.beside(lambda: failing(TwoPartError("left", "right")), "probing"):
            pass
    with pytest.raises(ChildProcessError, match="^worker process 1 of 2 probing exited 7$"):
        with _parallel.beside(lambda: os._exit(7), "probing"):
            pass
