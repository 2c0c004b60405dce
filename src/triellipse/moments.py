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
moments by trapezoid over a 16x zero-padded spectrum, one FFT per
component on the CPUs the process may use; in double precision this is
more accurate than the closed-form integral over the autocorrelation lags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._parallel import map_ordered
from .analytic import AnalyticSignal3, differentiate, edge_mask
from .ellipse import EllipseRates, EllipseSeries, ExtractionResult

__all__ = [
    "MomentsSeries",
    "BandwidthDecomposition",
    "GlobalMoments",
    "EffectivePrecession",
    "instantaneous_moments",
    "bandwidth_decompose",
    "effective_precession",
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

    ``upsilon2`` is the quotient form (nonnegative by construction);
    ``upsilon2_alt`` is the algebraically equivalent power-ratio form kept
    as a cross-check.  ``derivative`` is the ``(n, 3)`` time derivative of
    the analytic signal that every moment was computed from, reused by
    :func:`bandwidth_decompose`.  ``mean_freq`` records the global mean
    frequency used in ``sigma2``.  ``unreliable`` flags samples whose
    power is below ``eps_pow`` times the peak power; ``edge`` flags the
    wrap-around region of the discrete analytic transform.
    """

    omega: np.ndarray
    sigma2: np.ndarray
    upsilon2: np.ndarray
    upsilon2_alt: np.ndarray
    power: np.ndarray
    derivative: np.ndarray
    mean_freq: float
    edge: np.ndarray
    unreliable: np.ndarray
    dt: float = 1.0


@dataclass
class BandwidthDecomposition:
    """Four-term geometric split of the squared instantaneous bandwidth.

    All four terms are nonnegative.  ``term_precession`` is evaluated
    through the effective-precession identity
    ``lam^2 (omega - omega_phi)^2 / (1 - lam^2)``, which is frame
    invariant sample by sample; the angle-rate route is available through
    :func:`effective_precession`.  ``term_normal`` uses the projection of
    the signal derivative onto the unit normal; ``term_normal_planar`` is
    the equivalent in-plane form driven by the nutation and external
    precession rates, kept for cross-validation.  ``bound`` is the simple
    upper bound built from the five geometry rates, and ``bound_normal``
    the Cauchy-Schwarz bound on ``term_normal`` alone.
    """

    term_amplitude: np.ndarray
    term_deformation: np.ndarray
    term_precession: np.ndarray
    term_normal: np.ndarray
    term_normal_planar: np.ndarray
    total: np.ndarray
    bound: np.ndarray
    bound_normal: np.ndarray


class EffectivePrecession(NamedTuple):
    """Rates-form effective precession and its identity residual."""

    value: np.ndarray
    residual: np.ndarray
    unreliable: np.ndarray


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
    safe = np.where(power > 0, power, 1.0)
    if mean_freq is None:
        mean_freq = global_moments_spectral(xp).mean_freq
    xd = differentiate(xp, scheme)
    omega = np.where(
        power > 0, np.sum(np.conj(xp.samples) * xd, axis=1).imag / safe, 0.0
    )
    dev_bar = xd - 1j * mean_freq * xp.samples
    sigma2 = np.where(power > 0, np.sum(np.abs(dev_bar) ** 2, axis=1) / safe, 0.0)
    dev_inst = xd - 1j * omega[:, None] * xp.samples
    upsilon2 = np.where(power > 0, np.sum(np.abs(dev_inst) ** 2, axis=1) / safe, 0.0)
    upsilon2_alt = (
        np.where(power > 0, np.sum(np.abs(xd) ** 2, axis=1) / safe, 0.0) - omega**2
    )
    return MomentsSeries(
        omega=omega,
        sigma2=sigma2,
        upsilon2=upsilon2,
        upsilon2_alt=upsilon2_alt,
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
    series = ext.ellipse
    power, omega = moments.power, moments.omega
    safe = np.where(power > 0, power, 1.0)

    lam2 = series.lam**2
    denom = np.clip(1.0 - lam2, 1e-300, None)

    term_amplitude = rates.dkappa_rel**2
    term_deformation = 0.25 * rates.dlambda**2 / denom
    term_precession = lam2 * (omega - rates.omega_phi) ** 2 / denom

    proj = np.sum(ext.normal.n_hat * moments.derivative, axis=1)
    term_normal = np.where(power > 0, np.abs(proj) ** 2 / safe, 0.0)

    xt = ext.planar.x_tilde
    pt_power = np.sum(np.abs(xt) ** 2, axis=1)
    pt_safe = np.where(pt_power > 0, pt_power, 1.0)
    coeff = -rates.omega_alpha * np.sin(series.beta)
    val = coeff * xt[:, 0] + rates.omega_beta * xt[:, 1]
    term_normal_planar = np.where(pt_power > 0, np.abs(val) ** 2 / pt_safe, 0.0)

    bound_normal = (rates.omega_alpha * np.sin(series.beta)) ** 2 + rates.omega_beta**2
    bound = (
        term_amplitude
        + term_deformation
        + rates.omega_beta**2
        + (np.abs(rates.omega_theta) + np.abs(rates.omega_alpha)) ** 2
    )
    return BandwidthDecomposition(
        term_amplitude=term_amplitude,
        term_deformation=term_deformation,
        term_precession=term_precession,
        term_normal=term_normal,
        term_normal_planar=term_normal_planar,
        total=term_amplitude + term_deformation + term_precession + term_normal,
        bound=bound,
        bound_normal=bound_normal,
    )


def effective_precession(
    series: EllipseSeries, rates: EllipseRates, omega: np.ndarray
) -> EffectivePrecession:
    """Effective precession rate from the angle rates, with its residual.

    Returns ``omega_theta + omega_alpha cos(beta)`` together with the
    residual against the identity form ``(omega - omega_phi) /
    sqrt(1 - lam^2)``.  Samples with ``lam`` near 1 are flagged: the
    identity form blows up there.
    """
    value = rates.omega_theta + rates.omega_alpha * np.cos(series.beta)
    one_m = 1.0 - series.lam**2
    unreliable = (one_m < 1e-6) | series.degenerate | series.circular
    identity = (omega - rates.omega_phi) / np.sqrt(np.clip(one_m, 1e-300, None))
    return EffectivePrecession(
        value=value, residual=value - identity, unreliable=unreliable
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
    length ``pad_factor * n`` complex FFT, on the CPUs the process may
    use, and the squared magnitudes are summed in component order, so the
    result does not depend on the CPU count.
    """
    n = xp.n_samples
    m = int(pad_factor) * n
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

    The grid is refined by zero padding (16x by default), see
    :func:`joint_analytic_spectrum`.  Energy is the trapezoidal time
    integral of the aggregate instantaneous power.
    """
    freqs, values = joint_analytic_spectrum(xp, pad_factor)
    mean, second = spectral_moments(freqs, values)
    energy = float(np.trapezoid(xp.power, dx=xp.dt))
    return GlobalMoments(energy=energy, mean_freq=mean, second_central=second)
