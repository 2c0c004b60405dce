"""Multitaper estimation of the joint analytic spectrum.

Discrete prolate spheroidal sequences (Slepian tapers) are computed from
the symmetric tridiagonal operator whose eigenvectors coincide with the
DPSS -- O(n) memory and numerically stable, as opposed to the dense
Toeplitz concentration matrix.  Each taper's in-band concentration is its
exact Rayleigh quotient against the sinc Toeplitz kernel (Slepian 1978),
evaluated from the taper's autocorrelation.  The joint spectrum estimate
averages the per-taper one-sided eigenspectra of each signal component,
sums over components, applies one-sided doubling, and normalizes to unit
integral.  No eigenspectrum is built: both routes are one call of the
streamed padded power of :mod:`triellipse.moments`
(``moments._padded_moments``), which transforms about ``n`` points per
taper, component and shift, inline in one buffer, and reduces each
shift's bins to the moments as they are made.
:func:`multitaper_joint_spectrum` also has each shift's bins written into
its grid; :func:`multitaper_moments`, which ``analyze`` needs, keeps
none, in O(n) memory.
The tridiagonal eigensolve calls LAPACK's ``dstebz`` and ``dstein``
through scipy's compiled wrappers, loaded from their file on the first
solve (:func:`eigh_tridiagonal`); the ``scipy.linalg`` package itself is
imported only if that file cannot be loaded.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import RealSignal3
from .moments import GlobalMoments, _padded_length, _padded_moments

__all__ = [
    "MIN_TAPER_SAMPLES",
    "TaperSet",
    "JointSpectrum",
    "slepian_tapers",
    "multitaper_joint_spectrum",
    "multitaper_moments",
]

#: Shortest record the Slepian tapers, and so the multitaper estimate, accept.
MIN_TAPER_SAMPLES = 64


@dataclass(frozen=True)
class TaperSet:
    """Orthonormal Slepian tapers with their in-band concentrations.

    ``tapers`` has shape (k, n), rows ordered by decreasing concentration.
    ``concentrations`` are the exact fractions of each taper's energy in
    ``|f| <= p / n``: Rayleigh quotients against the sinc Toeplitz kernel.
    At most ``2 p - 1`` tapers, rounded down, are admitted: beyond that
    the concentration drops quickly and the eigenspectra stop being useful.
    """

    tapers: np.ndarray
    time_bandwidth: float
    concentrations: np.ndarray


@dataclass(frozen=True)
class JointSpectrum:
    """One-sided multitaper estimate of the joint analytic spectrum.

    ``values`` are nonnegative and normalized so the trapezoidal integral
    of ``values / (2 pi)`` over ``freqs`` equals 1; ``moments`` holds the
    spectral mean frequency and second central moment of the estimate.
    """

    freqs: np.ndarray
    values: np.ndarray
    moments: GlobalMoments


def _concentrations(tapers: np.ndarray, half_bandwidth: float) -> np.ndarray:
    """Exact in-band energy fractions of the (k, n) taper rows.

    The Rayleigh quotient ``v' A v / v' v`` with ``A[i, j] = sin(2 pi W (i - j))
    / (pi (i - j))`` depends on ``v`` only through its autocorrelation, which a
    zero-padded real FFT gives.  Any length from ``2 n - 1`` up keeps that
    autocorrelation free of wrap-around, so the transform takes the 5-smooth
    length at or above ``2 n``.  One row is transformed at a time, into a
    (k, n) block of lags, and one matrix-vector product weighs them all.
    """
    n = tapers.shape[1]
    m = _padded_length(n, 2)
    acf = np.empty(tapers.shape)
    for row, taper in zip(acf, tapers):
        row[:] = np.fft.irfft(np.abs(np.fft.rfft(taper, n=m)) ** 2, n=m)[:n]
    lags = np.arange(1, n)
    kernel = np.empty(n)
    kernel[0] = 2.0 * half_bandwidth
    kernel[1:] = 2.0 * np.sin(2.0 * np.pi * half_bandwidth * lags) / (np.pi * lags)
    return acf @ kernel / acf[:, 0]


@functools.cache
def _stebz_stein():
    """LAPACK's ``dstebz`` and ``dstein``, loaded once per process (see :func:`eigh_tridiagonal`)."""
    try:
        scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
        if scipy is None:
            raise ImportError("scipy is not installed")
        linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg, "_flapack" + suffix)
            if os.path.isfile(path):
                break
        else:
            raise ImportError(f"no compiled _flapack module in {linalg}")
        # a single-phase extension module enters sys.modules under its own
        # name as it loads, so a later `import scipy.linalg` takes this one
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        return flapack.dstebz, flapack.dstein
    except (ImportError, OSError):
        from scipy.linalg import get_lapack_funcs

        return tuple(get_lapack_funcs(("stebz", "stein"), dtype=np.float64))


def _check_info(info: int, routine: str, failed: str) -> None:
    """scipy's check of a LAPACK ``info`` return, with scipy's messages."""
    if info < 0:
        raise ValueError(
            f"illegal value in argument {-info} of internal {routine} (eigh_tridiagonal)"
        )
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} (eigh_tridiagonal) {failed % info}")


def eigh_tridiagonal(
    d: np.ndarray, e: np.ndarray, il: int, iu: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``il`` to ``iu`` (0-based, inclusive) of a symmetric tridiagonal matrix.

    ``d`` is the diagonal and ``e`` the off-diagonal.  The eigenvalues come
    back in ascending order and the unit eigenvectors as the columns of
    the second array.  These are the LAPACK calls, in the same order and
    with the same arguments, that ``scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(il, iu))`` makes: bisection by ``dstebz``
    in block order, inverse iteration by ``dstein``, then a sort by
    eigenvalue.  So the results have its bits, and its checks: ``d`` and
    ``e`` must be finite, and a LAPACK failure raises
    ``numpy.linalg.LinAlgError`` (an illegal argument, ``ValueError``)
    with scipy's message.

    The two routines come from scipy's compiled f2py wrappers,
    ``scipy/linalg/_flapack``, loaded from their file on the first call
    without importing any scipy package.  The package is avoided because
    ``import scipy.linalg`` pulls in ``numpy.f2py``, ``numpy.testing`` and
    ``numpy.ma`` through scipy's array-API layer: about 28 MB and 0.27 s,
    against 4 MB and 15 ms for the extension alone (2-core x86), and more
    than the solve itself costs at 1e5 samples.  The file's name is
    private to scipy, so where it is missing or does not load, the
    routines come from scipy's public ``scipy.linalg.get_lapack_funcs``,
    with the same bits.
    """
    d = np.asarray_chkfinite(d)
    e = np.asarray_chkfinite(e)
    stebz, stein = _stebz_stein()
    m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, il + 1, iu + 1, 0.0, "B")
    _check_info(info, "stebz", "did not converge (LAPACK info=%d)")
    w = w[:m].copy()  # frees stebz's n-point array of eigenvalues
    v, info = stein(d, e, w, iblock, isplit)
    _check_info(info, "stein", "%d eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def _max_tapers(time_bandwidth: float) -> int:
    """The most tapers a time-bandwidth product p admits: the largest integer not above 2p - 1."""
    return math.floor(2 * time_bandwidth - 1)


def slepian_tapers(n_samples: int, time_bandwidth: float = 2.0, n_tapers: int | None = None) -> TaperSet:
    """Compute the first discrete prolate spheroidal sequences.

    Parameters
    ----------
    n_samples : int
        Taper length; at least ``MIN_TAPER_SAMPLES`` (64).
    time_bandwidth : float
        Time-bandwidth product p, with 0 < p < n_samples / 2; the half
        bandwidth is ``p / n_samples`` in cycles per sample.
    n_tapers : int, optional
        Number of tapers k, at most ``2 p - 1`` (the well-concentrated
        ones).  Defaults to that maximum, the largest integer not above
        ``2 p - 1``.

    Returns
    -------
    TaperSet
        Mutually orthonormal rows, each normalized so its first nonzero
        element is positive; concentrations are the exact Rayleigh
        quotients against the sinc kernel of half bandwidth ``p / n`` and
        strictly decreasing.
    """
    if n_samples < MIN_TAPER_SAMPLES:
        raise ValueError(
            f"need at least {MIN_TAPER_SAMPLES} samples for tapers, got {n_samples}"
        )
    if not 0 < time_bandwidth < n_samples / 2:
        raise ValueError(
            f"time-bandwidth product must lie in (0, n/2) = (0, {n_samples / 2:g}), "
            f"so the half bandwidth p/n stays below 0.5 cycles/sample; got {time_bandwidth}"
        )
    k_max = _max_tapers(time_bandwidth)
    if n_tapers is None:
        n_tapers = k_max
    if not 1 <= n_tapers <= k_max:
        raise ValueError(
            f"n_tapers must be between 1 and {k_max}, the largest integer not above "
            f"2*p-1 = {2 * time_bandwidth - 1:g}; got {n_tapers}"
        )
    w = time_bandwidth / n_samples
    i = np.arange(n_samples)
    diag = ((n_samples - 1) / 2.0 - i) ** 2 * np.cos(2.0 * np.pi * w)
    del i
    off = np.arange(1, n_samples) * np.arange(n_samples - 1, 0, -1) / 2.0
    _, vecs = eigh_tridiagonal(diag, off, n_samples - n_tapers, n_samples - 1)
    del diag, off  # the matrix is solved: not held through the concentrations
    tapers = vecs[:, ::-1].T  # descending eigenvalue order
    for row in tapers:
        lead = row[np.flatnonzero(row)[0]]
        if lead < 0:
            row *= -1.0
    return TaperSet(
        tapers=tapers,
        time_bandwidth=float(time_bandwidth),
        concentrations=_concentrations(tapers, w),
    )


def _grid_length(x: RealSignal3, tapers: TaperSet, pad_factor: int) -> int:
    """The multitaper DFT length for ``x``, after the checks both multitaper routes share."""
    n = x.n_samples
    if tapers.tapers.shape[1] != n:
        raise ValueError(
            f"taper length {tapers.tapers.shape[1]} does not match record length {n}"
        )
    if not np.any(x.samples):
        raise ValueError("zero-energy record: spectrum is undefined")
    return _padded_length(n, pad_factor)


def _tapered(x: RealSignal3, tapers: TaperSet):
    """The columns of the multitaper power: each taper times each component, in that order, written into the scratch buffer."""
    return lambda out: (
        np.multiply(taper, x.samples[:, c], out=out) for taper in tapers.tapers for c in range(3)
    )


def _energy(x: RealSignal3) -> float:
    # summed a component at a time, (p0 + p1) + p2: the bits of sum(axis=1)
    power = x.samples[:, 0] ** 2
    for c in (1, 2):
        power += x.samples[:, c] ** 2
    return 2.0 * float(np.trapezoid(power, dx=x.dt))


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """``np.trapezoid(y, x)`` of two 1-d arrays, to the bit, with one temporary of their size.

    numpy forms ``diff(x) * (y[1:] + y[:-1]) / 2.0`` in temporaries of
    that size and sums it pairwise.  Here the terms are formed in place in
    one array, ``diff(x)`` is taken a block at a time into a small buffer,
    and the one pairwise sum is numpy's.
    """
    terms = y[1:] + y[:-1]
    step = np.empty(1 << 12)
    for lo in range(0, terms.size, step.size):
        d = step[: min(step.size, terms.size - lo)]
        np.subtract(x[lo + 1:lo + 1 + d.size], x[lo:lo + d.size], out=d)
        terms[lo:lo + d.size] *= d
    terms /= 2.0
    return float(np.add.reduce(terms))


def multitaper_joint_spectrum(
    x: RealSignal3, tapers: TaperSet, pad_factor: int = 8
) -> JointSpectrum:
    """Multitaper estimate of the joint analytic spectrum of a real record.

    For each taper and each component, an eigenspectrum is the squared
    magnitude of the zero-padded one-sided real DFT of the tapered
    component.  Its length is at least ``pad_factor * n``, rounded up to a
    5-smooth length ``m`` (``moments._padded_length``) so that no record
    length sends the transforms down pocketfft's slow path.  The estimate averages
    eigenspectra over tapers, sums over components, applies one-sided
    doubling, and normalizes to unit integral.  Padding
    (``pad_factor >= 1``) refines the grid without changing the
    resolution, which stays at the taper bandwidth ``2 pi p / n``.

    The grid is filled one shift at a time by the call of
    ``moments._padded_moments`` that :func:`multitaper_moments` makes,
    given the grid: bin ``s k + r`` of every eigenspectrum is bin ``k`` of
    an ``L``-point FFT of the modulated tapered component (``L = m / s``
    the smallest divisor of ``m`` at least ``n``), and each shift's power,
    summed in taper and component order, is written into ``half[r::s]``
    and reduced to its moments as it is made.  No transform is longer than
    ``L``, and the grid and its frequencies are the only ``O(m)`` arrays.
    The moments are those of :func:`multitaper_moments`, bit for bit.  For
    given tapers the result is the same for any CPU count.  The tapers
    themselves are not: :func:`slepian_tapers` solves on OpenBLAS, whose
    thread count follows the CPU count and sets their last bits, and so
    those of the estimate.
    """
    m = _grid_length(x, tapers, pad_factor)
    half = np.empty(m // 2 + 1)
    mean, second = _padded_moments(
        _tapered(x, tapers), x.n_samples, m, x.dt, real=True, grid=half
    )
    half /= len(tapers.tapers)
    if m % 2 == 0:
        half[1:-1] *= 2.0
    else:
        half[1:] *= 2.0
    freqs = 2.0 * np.pi * np.arange(half.size) / (m * x.dt)
    half /= _trapezoid(half, freqs) / (2.0 * np.pi)
    return JointSpectrum(
        freqs=freqs,
        values=half,
        moments=GlobalMoments(energy=_energy(x), mean_freq=mean, second_central=second),
    )


def multitaper_moments(
    x: RealSignal3, tapers: TaperSet, pad_factor: int = 8
) -> GlobalMoments:
    """The moments of :func:`multitaper_joint_spectrum`, streamed instead of gridded.

    Same checks and the same call of ``moments._padded_moments``, given no
    grid: each shift's bins are dropped once reduced, so memory stays
    O(n).  The values are
    ``multitaper_joint_spectrum(x, tapers, pad_factor).moments``, bit for
    bit.
    """
    m = _grid_length(x, tapers, pad_factor)
    mean, second = _padded_moments(_tapered(x, tapers), x.n_samples, m, x.dt, real=True)
    return GlobalMoments(energy=_energy(x), mean_freq=mean, second_central=second)
