"""Multitaper estimation of the joint analytic spectrum.

Discrete prolate spheroidal sequences (Slepian tapers) are computed from
the symmetric tridiagonal operator whose eigenvectors coincide with the
DPSS -- O(n) memory and numerically stable, as opposed to the dense
Toeplitz concentration matrix.  That operator is centrosymmetric, so it
is solved as its two half-size parity blocks: the symmetric block by
index, and the antisymmetric block by value, between the symmetric
eigenvalues that bracket the wanted ones (:func:`slepian_tapers`).  Each
taper's in-band concentration is its exact Rayleigh quotient against the
sinc Toeplitz kernel (Slepian 1978), evaluated from the taper's
autocorrelation.  The joint spectrum estimate
averages the per-taper one-sided eigenspectra of each signal component,
sums over components, applies one-sided doubling, and normalizes to unit
integral.  No eigenspectrum is built: the grid is filled by the streamed
padded power of :mod:`triellipse.moments` (``moments._padded_moments``),
which transforms about ``n`` points per taper, component and shift,
inline in one buffer.  The grid is the least even 5-smooth length at or
above ``max(pad, 2) n``, so it ends on ``pi``, and the estimate's moments
are exact there: the mean frequency and second central moment of the
estimate over ``[0, pi]``, taken by ``moments._exact_moments`` as the
trapezoid over that grid plus the Euler-Maclaurin endpoint series.
:func:`multitaper_joint_spectrum` takes them from the one stream that
fills its grid; :func:`multitaper_moments`, which ``analyze`` needs,
keeps no grid, in O(n) memory.
Each block's eigensolve calls LAPACK's ``dstebz`` and ``dstein``
through scipy's compiled wrappers, loaded from their file on the first
solve (:func:`eigh_tridiagonal`), on one thread of scipy's bundled
OpenBLAS, so that the tapers' bits do not follow the CPU count; the
``scipy.linalg`` package itself is imported only if that file cannot be
loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .analytic import RealSignal3
from .moments import GlobalMoments, _exact_moments, _fft_length

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
    m = _fft_length(2 * n)
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


@functools.cache
def _openblas_threads():
    """The thread count getter and setter of scipy's bundled OpenBLAS, or None where it is not found.

    The library is ``scipy.libs/libscipy_openblas*``, the one ``_flapack``
    links against in scipy's wheels, found next to the package without
    importing scipy and opened by ``ctypes``.  That raises the peak
    resident memory of the process that solves by about 0.3 MB (the
    tapers at 1e5 samples).
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    libs = scipy.submodule_search_locations[0] + ".libs"
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if not name.startswith("libscipy_openblas"):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of scipy's bundled OpenBLAS, then restore its count."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _check_info(info: int, routine: str, failed: str) -> None:
    """scipy's check of a LAPACK ``info`` return, with scipy's messages."""
    if info < 0:
        raise ValueError(
            f"illegal value in argument {-info} of internal {routine} (eigh_tridiagonal)"
        )
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} (eigh_tridiagonal) {failed % info}")


def eigh_tridiagonal(
    d: np.ndarray, e: np.ndarray, select: str, select_range: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Selected eigenpairs of a symmetric tridiagonal matrix.

    ``d`` is the diagonal and ``e`` the off-diagonal.  ``select="i"``
    takes the eigenpairs with 0-based indices ``il`` to ``iu`` inclusive,
    ``select_range = (il, iu)``; ``select="v"`` takes those whose
    eigenvalues lie in the half-open interval ``(vl, vu]``,
    ``select_range = (vl, vu)``, however many there are.  The eigenvalues
    come back in ascending order and the unit eigenvectors as the columns
    of the second array.  These are the LAPACK calls, in the same order
    and with the same arguments, that ``scipy.linalg.eigh_tridiagonal(d,
    e, select=select, select_range=select_range)`` makes: bisection by
    ``dstebz`` in block order, inverse iteration by ``dstein``, then a
    sort by eigenvalue.  So the results have its bits, and its checks:
    ``d`` and ``e`` must be finite, and a LAPACK failure raises
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

    Both calls run on one thread of scipy's bundled OpenBLAS, whose count
    is restored afterwards (:func:`_openblas_threads`).  ``dstein`` calls
    level-1 BLAS there, which splits long reductions across threads, so
    the eigenvectors' last bits would otherwise follow the CPU count (and
    a second core would spin for nothing).  Where that library is not
    found, as with a scipy built against a system BLAS, the solve runs
    as that BLAS is set up, and its bits may follow the CPU count.
    """
    d = np.asarray_chkfinite(d)
    e = np.asarray_chkfinite(e)
    if select == "i":
        # scipy's Fortran (1-based) index range, and its unused value range
        args = 2, 0.0, 1.0, select_range[0] + 1, select_range[1] + 1
    elif select == "v":
        args = 1, float(select_range[0]), float(select_range[1]), 1, 1
    else:
        raise ValueError(f"select must be 'i' or 'v', got {select!r}")
    stebz, stein = _stebz_stein()
    with _one_blas_thread():
        m, w, iblock, isplit, info = stebz(d, e, *args, 0.0, "B")
        _check_info(info, "stebz", "did not converge (LAPACK info=%d)")
        w = w[:m].copy()  # frees stebz's array of eigenvalues, one per row
        v, info = stein(d, e, w, iblock, isplit)
        _check_info(info, "stein", "%d eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def _index(value, name: str) -> int:
    """``value`` as a Python int, through ``operator.index``: numpy's integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _max_tapers(time_bandwidth: float) -> int:
    """The most tapers a time-bandwidth product p admits: the largest integer not above 2p - 1."""
    return math.floor(2 * time_bandwidth - 1)


def _unfold(vectors: np.ndarray, rows: np.ndarray, parity: float) -> None:
    """Write a parity block's eigenvectors, last column first, into ``rows`` as tapers of that parity.

    A row is the column's first ``n // 2`` elements divided by ``sqrt(2)``,
    then their mirror image times ``parity`` (+1 or -1, so the parity holds
    to the bit), with the column's last element, or zero, in the middle of
    an odd row.  The signs are chosen so that each row's first nonzero
    element is positive.
    """
    n = rows.shape[1]
    half = n // 2
    for row, u in zip(rows, vectors.T[::-1]):
        sign = math.copysign(1.0, u[np.flatnonzero(u)[0]])
        np.divide(u[:half], sign * math.sqrt(2.0), out=row[:half])
        np.multiply(row[half - 1::-1], parity, out=row[n - half:])
        if n % 2:
            row[half] = sign * u[half] if parity > 0 else 0.0


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

    Raises
    ------
    TypeError
        If ``n_samples`` or ``n_tapers`` is not an integer (numpy's
        integers are accepted; ``100.5`` and ``3.0`` are not).
    ValueError
        If a bound above is broken.
    numpy.linalg.LinAlgError
        If the eigensolve fails, or its parity blocks' eigenvalues do not
        interleave as the theory says they must.

    Notes
    -----
    The tridiagonal operator is centrosymmetric, so each eigenvector is
    symmetric or antisymmetric, and each parity is an eigenvector of a
    half-size block (Slepian 1978; Cantoni & Butler 1976).  For ``n = 2h``
    both blocks are the operator's first ``h`` rows, with the off-diagonal
    element that couples row ``h - 1`` to its mirror image added to the
    last diagonal element (symmetric) or subtracted from it
    (antisymmetric).  For ``n = 2h + 1`` the symmetric block is the first
    ``h + 1`` rows with its last off-diagonal element times ``sqrt(2)``,
    and the antisymmetric block the first ``h`` rows.  Taper ``j`` has
    ``j`` sign changes, so the parities alternate down the spectrum,
    symmetric first: ``ls_0 > la_0 > ls_1 > la_1 > ...``.  The symmetric
    block is solved by index for its ``k // 2 + 1`` largest eigenpairs,
    and the antisymmetric block by value for the ``k // 2`` eigenpairs in
    ``(ls_{k//2}, ls_0]``.  Any other count there raises
    ``numpy.linalg.LinAlgError``.  Both solves go through
    :func:`eigh_tridiagonal`, and neither the ``n``-point diagonal nor
    the ``n``-point off-diagonal is formed.  The tapers are unfolded from
    the half vectors, so their parity holds to the bit.
    """
    n_samples = _index(n_samples, "n_samples")
    if n_tapers is not None:
        n_tapers = _index(n_tapers, "n_tapers")
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
    half, odd = divmod(n_samples, 2)
    # the operator's rows up to the middle: diag[:half + odd] and off[:half]
    diag = ((n_samples - 1) / 2.0 - np.arange(half + odd)) ** 2 * np.cos(2.0 * np.pi * w)
    off = np.arange(1, half + 1) * np.arange(n_samples - 1, n_samples - 1 - half, -1) / 2.0
    n_sym, n_anti = n_tapers // 2 + 1, n_tapers // 2  # the pairs each block gives
    if odd:
        off[-1] *= math.sqrt(2.0)  # the middle row's coupling, in symmetric (unit) coordinates
        w_sym, v_sym = eigh_tridiagonal(diag, off, "i", (half + 1 - n_sym, half))
    else:
        last = diag[-1]
        diag[-1] = last + off[-1]
        w_sym, v_sym = eigh_tridiagonal(diag, off[:-1], "i", (half - n_sym, half - 1))
        diag[-1] = last - off[-1]
    v_anti = v_sym[:, :0]  # one taper has no antisymmetric partner
    if n_anti:
        # the parities alternate down the spectrum, so the wanted antisymmetric
        # eigenvalues are those between the smallest and largest symmetric ones
        bracket = w_sym[0], w_sym[-1]
        w_anti, v_anti = eigh_tridiagonal(diag[:half], off[:half - 1], "v", bracket)
        if w_anti.size != n_anti:
            raise np.linalg.LinAlgError(
                f"the antisymmetric taper block has {w_anti.size} eigenvalues in "
                f"({bracket[0]!r}, {bracket[1]!r}], the symmetric block's bracket; "
                f"need {n_anti}"
            )
    del diag, off
    # allocated after both solves, so that the concentrations' transforms reuse
    # the solves' freed workspace: about 0.8 MB less peak resident memory in
    # analyze's summary process at 1e5 than if allocated between them
    tapers = np.empty((n_tapers, n_samples))
    _unfold(v_sym, tapers[0::2], 1.0)
    _unfold(v_anti, tapers[1::2], -1.0)
    del v_sym, v_anti  # not held through the concentrations
    return TaperSet(
        tapers=tapers,
        time_bandwidth=float(time_bandwidth),
        concentrations=_concentrations(tapers, w),
    )


def _grid_length(x: RealSignal3, tapers: TaperSet, pad_factor: int) -> int:
    """The multitaper grid's length for ``x``, after the checks both multitaper routes share.

    The least even 5-smooth length at or above ``max(pad_factor, 2) * n``:
    even and at least ``2 n``, so that the trapezoid plus the endpoint
    series gives the exact moments on it, and its last bin is ``pi / dt``.
    """
    n = x.n_samples
    if tapers.tapers.shape[1] != n:
        raise ValueError(
            f"taper length {tapers.tapers.shape[1]} does not match record length {n}"
        )
    if not np.any(x.samples):
        raise ValueError("zero-energy record: spectrum is undefined")
    pad_factor = _index(pad_factor, "pad_factor")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be at least 1, got {pad_factor}")
    return 2 * _fft_length(-(-max(pad_factor, 2) * n // 2))


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
    component.  Its length ``m`` is the least even 5-smooth length at or
    above ``max(pad_factor, 2) * n``: 5-smooth so that no record length
    sends the transforms down pocketfft's slow path, even so that the last
    bin is ``pi / dt``, and at least ``2 n`` so that the grid's moments are
    exact.  So pad 1 grids like pad 2.  The estimate averages eigenspectra
    over tapers, sums over components, applies one-sided doubling, and
    normalizes to unit integral over ``[0, pi / dt]``.  Padding
    (``pad_factor >= 1``) refines the grid without changing the
    resolution, which stays at the taper bandwidth ``2 pi p / n``.

    The grid is filled one shift at a time by ``moments._padded_moments``:
    bin ``s k + r`` of every eigenspectrum is bin ``k`` of an ``L``-point
    FFT of the modulated tapered component (``L = m / s`` the smallest
    divisor of ``m`` at least ``n``), and each shift's power, summed in
    taper and component order, is written into ``half[r::s]`` as it is
    made.  No transform is longer than ``L``, and the grid and its
    frequencies are the only ``O(m)`` arrays.  The same stream reduces the
    moments, which are :func:`multitaper_moments`, bit for bit.  The
    result is the same for any CPU count: the transforms are numpy's, and
    :func:`slepian_tapers` solves on one OpenBLAS thread wherever scipy's
    bundled OpenBLAS is found (:func:`eigh_tridiagonal`).
    """
    m = _grid_length(x, tapers, pad_factor)
    half = np.empty(m // 2 + 1)
    mean, second = _exact_moments(_tapered(x, tapers), x.n_samples, m, x.dt, real=True, grid=half)
    half /= len(tapers.tapers)
    half[1:-1] *= 2.0
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

    The exact mean frequency and second central moment of the multitaper
    estimate over ``[0, pi / dt]``: ``moments._exact_moments`` takes the
    trapezoid sums over the grid of :func:`multitaper_joint_spectrum`,
    the least even 5-smooth length at or above ``max(pad_factor, 2) * n``,
    and adds the Euler-Maclaurin endpoint series, whose lags come from one
    inverse transform of that grid's power.  Same checks as
    :func:`multitaper_joint_spectrum`, and no grid is kept: each shift's
    bins are dropped once reduced, so memory stays O(n).  The values are
    ``multitaper_joint_spectrum(x, tapers, pad_factor).moments``, bit for
    bit.  Being exact, they depend on ``pad_factor`` only through rounding:
    ``analyze`` takes pad 4, whose grid takes one real and two complex
    ``n``-point FFTs per taper and component.
    """
    m = _grid_length(x, tapers, pad_factor)
    mean, second = _exact_moments(_tapered(x, tapers), x.n_samples, m, x.dt, real=True)
    return GlobalMoments(energy=_energy(x), mean_freq=mean, second_central=second)
