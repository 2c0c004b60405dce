"""Multitaper estimation of the joint analytic spectrum.

Discrete prolate spheroidal sequences (Slepian tapers) are computed from
the symmetric tridiagonal operator whose eigenvectors coincide with the
DPSS -- O(n) memory and numerically stable, as opposed to the dense
Toeplitz concentration matrix.  Each taper's in-band concentration is its
exact Rayleigh quotient against the sinc Toeplitz kernel (Slepian 1978),
evaluated from the taper's autocorrelation.  The joint spectrum estimate
averages the per-taper one-sided eigenspectra of each signal component,
one real FFT per taper and component on the CPUs the process may use,
sums over components, applies one-sided doubling, and normalizes to unit
integral.  scipy, needed only for the tridiagonal eigensolve, is imported
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .analytic import RealSignal3
from .moments import GlobalMoments, spectral_moments

__all__ = [
    "MIN_TAPER_SAMPLES",
    "TaperSet",
    "JointSpectrum",
    "slepian_tapers",
    "multitaper_joint_spectrum",
]

#: Shortest record the Slepian tapers, and so the multitaper estimate, accept.
MIN_TAPER_SAMPLES = 64


@dataclass(frozen=True)
class TaperSet:
    """Orthonormal Slepian tapers with their in-band concentrations.

    ``tapers`` has shape (k, n), rows ordered by decreasing concentration.
    ``concentrations`` are the exact fractions of each taper's energy in
    ``|f| <= p / n``: Rayleigh quotients against the sinc Toeplitz kernel.
    Only the first ``2 p - 1`` tapers are admitted: beyond that the
    concentration drops quickly and the eigenspectra stop being useful.
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
    zero-padded length-2n real FFT gives for every row at once.
    """
    n = tapers.shape[1]
    acf = np.fft.irfft(np.abs(np.fft.rfft(tapers, n=2 * n, axis=1)) ** 2, n=2 * n, axis=1)
    lags = np.arange(1, n)
    kernel = np.empty(n)
    kernel[0] = 2.0 * half_bandwidth
    kernel[1:] = 2.0 * np.sin(2.0 * np.pi * half_bandwidth * lags) / (np.pi * lags)
    return acf[:, :n] @ kernel / acf[:, 0]


def eigh_tridiagonal(*args, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, with scipy imported on the first call.

    scipy is the slowest import of the package and only the tapers need
    it, so a run that takes no tapers never loads it.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(*args, **kwargs)


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
        ones).  Defaults to that maximum.

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
    k_max = int(round(2 * time_bandwidth - 1))
    if n_tapers is None:
        n_tapers = k_max
    if not 1 <= n_tapers <= k_max:
        raise ValueError(
            f"n_tapers must be between 1 and 2*p-1 = {k_max}, got {n_tapers}"
        )
    w = time_bandwidth / n_samples
    i = np.arange(n_samples)
    diag = ((n_samples - 1) / 2.0 - i) ** 2 * np.cos(2.0 * np.pi * w)
    off = np.arange(1, n_samples) * np.arange(n_samples - 1, 0, -1) / 2.0
    _, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(n_samples - n_tapers, n_samples - 1)
    )
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


def multitaper_joint_spectrum(
    x: RealSignal3, tapers: TaperSet, pad_factor: int = 8
) -> JointSpectrum:
    """Multitaper estimate of the joint analytic spectrum of a real record.

    For each taper and each component, an eigenspectrum is the squared
    magnitude of the zero-padded one-sided real DFT (``rfft`` of length
    ``pad_factor * n``) of the tapered component.  The eigenspectra are
    independent FFTs, run on the CPUs the process may use (inline for
    short records).  They are added into one accumulator as they arrive,
    in taper order and each taper's components as ``(x + y) + z``, so
    memory stays O(pad_factor * n) whatever the taper count and, for given
    tapers, the result is the same for any CPU count.  The tapers
    themselves are not: :func:`slepian_tapers` solves on OpenBLAS, whose
    thread count follows the CPU count and sets their last bits, and so
    those of the estimate.  The estimate averages eigenspectra
    over tapers, sums over components, applies one-sided doubling, and
    normalizes to unit integral.  Padding (``pad_factor >= 1``) refines
    the grid without changing the resolution, which stays at the taper
    bandwidth ``2 pi p / n``.
    """
    n = x.n_samples
    if tapers.tapers.shape[1] != n:
        raise ValueError(
            f"taper length {tapers.tapers.shape[1]} does not match record length {n}"
        )
    if not np.any(x.samples):
        raise ValueError("zero-energy record: spectrum is undefined")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be at least 1, got {pad_factor}")
    m = int(pad_factor) * n

    def eigenspectrum(job: tuple[np.ndarray, int]) -> np.ndarray:
        taper, c = job
        return np.abs(np.fft.rfft(taper * x.samples[:, c], n=m)) ** 2

    jobs = [(taper, c) for taper in tapers.tapers for c in range(3)]
    parts = map_ordered(eigenspectrum, jobs, m)
    half = np.zeros(m // 2 + 1)
    for p0, p1, p2 in zip(parts, parts, parts):  # one taper's three components
        half += (p0 + p1) + p2
    half /= len(tapers.tapers)
    if m % 2 == 0:
        half[1:-1] *= 2.0
    else:
        half[1:] *= 2.0
    freqs = 2.0 * np.pi * np.arange(half.size) / (m * x.dt)
    z = np.trapezoid(half, freqs) / (2.0 * np.pi)
    values = half / z
    mean, second = spectral_moments(freqs, values)
    energy = 2.0 * float(np.trapezoid(np.sum(x.samples**2, axis=1), dx=x.dt))
    return JointSpectrum(
        freqs=freqs,
        values=values,
        moments=GlobalMoments(energy=energy, mean_freq=mean, second_central=second),
    )
