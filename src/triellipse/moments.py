"""Joint instantaneous moments of a trivariate analytic signal.

The instantaneous frequency and squared bandwidth defined here partition
the first two moments of the signal's energy-averaged one-sided spectrum
across time:

    omega(t)    = Im{x+^H x+'} / ||x+||^2
    sigma2(t)   = ||x+' - i wbar x+||^2 / ||x+||^2
    upsilon2(t) = ||x+' - i omega(t) x+||^2 / ||x+||^2
                = sigma2(t) - (omega(t) - wbar)^2

where ``wbar`` is the global mean frequency.  The squared bandwidth
decomposes into four nonnegative geometric contributions: amplitude
modulation, ellipse deformation, precession in the ellipse plane, and
motion of the plane itself.  Power-weighted time averages of ``omega``
and ``sigma2`` reproduce the Fourier-domain global moments; both routes
are implemented so each can check the other.  The Fourier route takes
moments by trapezoid over a spectrum zero-padded to at least 16x, rounded
up to a 5-smooth length (:func:`_fft_length`), one FFT per component on
the CPUs the process may use; in double precision this is more accurate
than the closed-form integral over the autocorrelation lags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .analytic import AnalyticSignal3, differentiate, edge_mask
from .ellipse import EllipseRates, ExtractionResult

__all__ = [
    "MomentsSeries",
    "BandwidthDecomposition",
    "GlobalMoments",
    "instantaneous_moments",
    "bandwidth_decompose",
    "global_moments_time",
    "global_moments_spectral",
    "joint_analytic_spectrum",
    "EPS_POW_DEFAULT",
]

EPS_POW_DEFAULT = 1e-8


@dataclass(frozen=True)
class GlobalMoments:
    """Energy, mean frequency, and second central moment of the joint spectrum."""

    energy: float
    mean_freq: float
    second_central: float


@dataclass
class MomentsSeries:
    """Per-sample joint instantaneous moments.

    ``upsilon2`` is the quotient form (nonnegative by construction); its
    power-ratio form is a cross-check, computed on demand by
    :func:`triellipse.pipeline.cross_checks`.  ``derivative`` is the
    ``(n, 3)`` time derivative of the analytic signal that every moment
    was computed from, reused by :func:`bandwidth_decompose`.
    ``mean_freq`` records the global mean frequency used in ``sigma2``.
    ``unreliable`` flags samples whose power is below ``eps_pow`` times
    the peak power; ``edge`` flags the wrap-around region of the discrete
    analytic transform.
    """

    omega: np.ndarray
    sigma2: np.ndarray
    upsilon2: np.ndarray
    power: np.ndarray
    derivative: np.ndarray
    mean_freq: float
    edge: np.ndarray
    unreliable: np.ndarray
    dt: float = 1.0


@dataclass
class BandwidthDecomposition:
    """Four-term geometric split of the squared instantaneous bandwidth.

    These are the four ``bw_*`` columns of ``analysis.csv``; all are
    nonnegative, and their sum reconstructs ``upsilon2``.
    ``term_precession`` is evaluated through the effective-precession
    identity ``lam^2 (omega - omega_phi)^2 / (1 - lam^2)``, which is frame
    invariant sample by sample.  ``term_normal`` uses the projection of
    the signal derivative onto the unit normal.  The sum of the terms,
    the angle-rate form of the effective precession, the in-plane form of
    ``term_normal`` and the upper bounds are cross-checks, computed on
    demand by :func:`triellipse.pipeline.cross_checks`.
    """

    term_amplitude: np.ndarray
    term_deformation: np.ndarray
    term_precession: np.ndarray
    term_normal: np.ndarray


def _fft_length(m: int) -> int:
    """The smallest ``2**a * 3**b * 5**c`` at least ``m`` (a positive int).

    Zero-padded transforms take this length: pocketfft runs it on its fast
    radix kernels, where a length with a large prime factor takes its
    generic path at several times the cost.  A 5-smooth ``m`` is returned
    unchanged.
    """
    best, p5 = 2 * m, 1
    while p5 < 2 * m:
        p35 = p5
        while p35 < 2 * m:
            # p35 times the least power of two that reaches m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _per_power(x: np.ndarray, power: np.ndarray) -> np.ndarray:
    """``x / power`` where ``power`` is positive, 0 elsewhere."""
    return np.where(power > 0, x / np.where(power > 0, power, 1.0), 0.0)


def instantaneous_moments(
    xp: AnalyticSignal3,
    scheme: str = "central4",
    mean_freq: float | None = None,
    eps_pow: float = EPS_POW_DEFAULT,
) -> MomentsSeries:
    """Compute omega, sigma2, and upsilon2 with reliability flags.

    Rejects an identically zero signal.  ``mean_freq`` defaults to the Fourier-domain global mean frequency, so
    the power-weighted time average of the returned ``omega`` against the
    spectral value is a genuine cross-validation rather than circular.
    """
    power = xp.power
    peak = float(power.max(initial=0.0))
    if peak == 0.0:
        raise ValueError("zero signal: instantaneous moments are undefined")
    unreliable = power < eps_pow * peak
    if mean_freq is None:
        mean_freq = global_moments_spectral(xp).mean_freq
    xd = differentiate(xp, scheme)
    omega = _per_power(np.sum(np.conj(xp.samples) * xd, axis=1).imag, power)
    dev_bar = xd - 1j * mean_freq * xp.samples
    sigma2 = _per_power(np.sum(np.abs(dev_bar) ** 2, axis=1), power)
    dev_inst = xd - 1j * omega[:, None] * xp.samples
    upsilon2 = _per_power(np.sum(np.abs(dev_inst) ** 2, axis=1), power)
    return MomentsSeries(
        omega=omega,
        sigma2=sigma2,
        upsilon2=upsilon2,
        power=power,
        derivative=xd,
        mean_freq=float(mean_freq),
        edge=edge_mask(xp.n_samples),
        unreliable=unreliable,
        dt=xp.dt,
    )


def bandwidth_decompose(
    ext: ExtractionResult, rates: EllipseRates, moments: MomentsSeries
) -> BandwidthDecomposition:
    """Split the squared instantaneous bandwidth into its geometric terms.

    ``ext`` and ``rates`` describe the ellipse of the signal whose
    ``moments`` are given; the instantaneous frequency, the power and the
    derivative are read from ``moments``, so the terms share its
    derivative scheme.  Terms are evaluated at every sample, including
    those ``ext.ellipse`` flags degenerate or circular.
    """
    lam2 = ext.ellipse.lam**2
    denom = np.clip(1.0 - lam2, 1e-300, None)
    proj = np.sum(ext.normal.n_hat * moments.derivative, axis=1)
    return BandwidthDecomposition(
        term_amplitude=rates.dkappa_rel**2,
        term_deformation=0.25 * rates.dlambda**2 / denom,
        term_precession=lam2 * (moments.omega - rates.omega_phi) ** 2 / denom,
        term_normal=_per_power(np.abs(proj) ** 2, moments.power),
    )


def global_moments_time(
    moments: MomentsSeries, interior: slice | None = None
) -> GlobalMoments:
    """Global moments from power-weighted time integrals.

    Trapezoidal integrals of the power, the power-weighted instantaneous
    frequency, and the power-weighted second central moment.  ``interior``
    restricts the integrals to a contiguous slice (edge trimming); the
    default uses the full record.
    """
    sl = interior if interior is not None else slice(None)
    power = moments.power[sl]
    if power.size < 2 or not np.any(power > 0):
        raise ValueError("zero energy in the requested interval")
    energy = np.trapezoid(power, dx=moments.dt)
    if energy <= 0:
        raise ValueError("zero energy in the requested interval")
    mean_freq = np.trapezoid(power * moments.omega[sl], dx=moments.dt) / energy
    second = np.trapezoid(power * moments.sigma2[sl], dx=moments.dt) / energy
    return GlobalMoments(
        energy=float(energy), mean_freq=float(mean_freq), second_central=float(second)
    )


def joint_analytic_spectrum(
    xp: AnalyticSignal3, pad_factor: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided joint spectrum of the analytic vector, unit normalized.

    Returns ``(freqs, values)`` on the zero-padded positive-frequency DFT
    grid (radians per time unit), scaled so that the trapezoidal integral
    of ``values / (2 pi)`` equals 1.  Each component takes its own
    complex FFT of length ``_fft_length(pad_factor * n)``, the 5-smooth
    length at or above ``pad_factor * n``, on the CPUs the process may
    use, and the squared magnitudes are summed in component order, so the
    result does not depend on the CPU count.
    """
    n = xp.n_samples
    m = _fft_length(int(pad_factor) * n)
    half = m // 2 + 1

    def power(c: int) -> np.ndarray:
        return np.abs(np.fft.fft(xp.samples[:, c], n=m)[:half]) ** 2

    p0, p1, p2 = map_ordered(power, range(3), m)
    raw = (p0 + p1) + p2
    freqs = 2.0 * np.pi * np.arange(half) / (m * xp.dt)
    z = np.trapezoid(raw, freqs)
    if z <= 0:
        raise ValueError("zero signal: spectrum is undefined")
    return freqs, raw * (2.0 * np.pi / z)


def spectral_moments(freqs: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Mean frequency and second central moment of a one-sided spectrum."""
    z = np.trapezoid(values, freqs)
    mean = np.trapezoid(freqs * values, freqs) / z
    second = np.trapezoid((freqs - mean) ** 2 * values, freqs) / z
    return float(mean), float(second)


def global_moments_spectral(
    xp: AnalyticSignal3, pad_factor: int = 16
) -> GlobalMoments:
    """Global moments by quadrature over the one-sided joint spectrum.

    The grid is refined by zero padding (at least 16x by default), see
    :func:`joint_analytic_spectrum`.  Energy is the trapezoidal time
    integral of the aggregate instantaneous power.
    """
    freqs, values = joint_analytic_spectrum(xp, pad_factor)
    mean, second = spectral_moments(freqs, values)
    energy = float(np.trapezoid(xp.power, dx=xp.dt))
    return GlobalMoments(energy=energy, mean_freq=mean, second_central=second)
