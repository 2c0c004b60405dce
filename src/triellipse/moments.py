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
moments over a spectrum zero-padded to at least 8x, rounded up to a
5-smooth multiple of 4 ``m`` (:func:`_simpson_length`), by Simpson's
rule: the Richardson extrapolation ``(4 I_h - I_2h) / 3`` of the
trapezoid over the grid and over its even bins, which cancels the
trapezoid's ``h^2`` error term (Euler-Maclaurin; Davis and Rabinowitz,
*Methods of Numerical Integration*).  On records whose spectrum is small
near 0 and the Nyquist frequency, such as the random modulated ones,
this is more accurate than the plain trapezoid over twice as many bins,
and than the closed-form integral over the autocorrelation lags in
double precision; where it is large there, the plain trapezoid over
twice the bins is (:func:`global_moments_spectral`).  The padded spectrum is
streamed, never built: bin ``s k + r`` of the ``m``-point DFT is bin
``k`` of an ``m / s``-point DFT of the modulated record (the
decimation-in-frequency split of pruned FFTs, Markel 1971).  One
routine, :func:`_padded_moments`, owns that stream: it takes one FFT of
about ``n`` points per component and shift, inline, reduces each shift's
bins to its weighted moments on the spot, and merges the shifts
exactly.  The global spectral moments, and the multitaper moments and
grid of :mod:`triellipse.spectrum`, which keep the plain trapezoid over
``_fft_length(pad * n)`` points, are one call of it each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

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


def _padded_length(n: int, pad_factor: int) -> int:
    """``_fft_length(pad_factor * n)``, once ``pad_factor`` is checked to be at least 1."""
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be at least 1, got {pad_factor}")
    return _fft_length(int(pad_factor) * n)


def _simpson_length(n: int, pad_factor: int) -> int:
    """The global spectral grid: for ``pad_factor >= 2``, the least 5-smooth multiple of 4 from ``pad_factor * n``.

    Its ``m / 2`` one-sided steps are then even, as Simpson's rule needs;
    a ``pad_factor`` of 1 keeps :func:`_padded_length` and the trapezoid.
    A 5-smooth multiple of 4 is its own length, as at n = 1e5 and 8x.
    """
    if pad_factor < 2:
        return _padded_length(n, pad_factor)
    return 4 * _fft_length(-(-int(pad_factor) * n // 4))


def _per_power(x: np.ndarray, power: np.ndarray) -> np.ndarray:
    """``x / power`` where ``power`` is positive, 0 elsewhere."""
    return np.where(power > 0, x / np.where(power > 0, power, 1.0), 0.0)


def instantaneous_moments(
    xp: AnalyticSignal3,
    scheme: str = "central4",
    mean_freq: float | None = None,
    eps_pow: float = EPS_POW_DEFAULT,
    *,
    peak: float | None = None,
    edge: np.ndarray | None = None,
    derivative: np.ndarray | None = None,
) -> MomentsSeries:
    """Compute omega, sigma2, and upsilon2 with reliability flags.

    Rejects an identically zero signal.  ``mean_freq`` defaults to the Fourier-domain global mean frequency, so
    the power-weighted time average of the returned ``omega`` against the
    spectral value is a genuine cross-validation rather than circular.
    On a window of a longer record (see
    :func:`triellipse.pipeline.decompose_analytic`), ``peak`` is the
    record's peak power, ``edge`` the window's rows of the record's edge
    mask, and ``derivative`` the window's rows of the record's derivative
    when ``scheme`` cannot take it from the window alone; each defaults
    to that of ``xp`` itself.
    """
    power = xp.power
    if peak is None:
        peak = float(power.max(initial=0.0))
    if peak == 0.0:
        raise ValueError("zero signal: instantaneous moments are undefined")
    unreliable = power < eps_pow * peak
    if mean_freq is None:
        mean_freq = global_moments_spectral(xp).mean_freq
    xd = differentiate(xp, scheme) if derivative is None else derivative
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
        edge=edge_mask(xp.n_samples) if edge is None else edge,
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
    xp: AnalyticSignal3, pad_factor: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided joint spectrum of the analytic vector, unit normalized.

    Returns ``(freqs, values)`` on the zero-padded positive-frequency DFT
    grid (radians per time unit), scaled so that the trapezoidal integral
    of ``values / (2 pi)`` equals 1.  Each component takes its own
    complex FFT of length ``_simpson_length(n, pad_factor)``, for a
    ``pad_factor`` of at least 2 the least 5-smooth multiple of 4 at or
    above ``pad_factor * n``, and the squared magnitudes are summed in
    component order.  This is the full grid that
    :func:`global_moments_spectral` takes its moments over without
    building it.
    """
    n = xp.n_samples
    m = _simpson_length(n, pad_factor)
    half = m // 2 + 1

    p0, p1, p2 = (np.abs(np.fft.fft(xp.samples[:, c], n=m)[:half]) ** 2 for c in range(3))
    raw = (p0 + p1) + p2
    freqs = 2.0 * np.pi * np.arange(half) / (m * xp.dt)
    z = np.trapezoid(raw, freqs)
    if z <= 0:
        raise ValueError("zero signal: spectrum is undefined")
    return freqs, raw * (2.0 * np.pi / z)


def _shift_count(n: int, m: int) -> int:
    """The largest divisor ``s`` of ``m`` with ``m // s`` at least ``n``.

    Bin ``s k + r`` of an ``m``-point DFT of ``n`` samples is then bin
    ``k`` of an ``m // s``-point DFT; ``m // s`` divides the 5-smooth
    ``m``, so it is 5-smooth too.
    """
    return next(s for s in range(m // n, 0, -1) if m % s == 0)


def _twiddle(out: np.ndarray, r: int, m: int) -> None:
    """Write ``exp(-2 pi i r t / m)`` into ``out[t]`` for every ``t < out.size``.

    With ``n = out.size``, ``b = ceil(sqrt(n))`` and ``t = a b + q``, each
    value is the product of two table entries, ``exp(-2 pi i r a b / m)``
    and ``exp(-2 pi i r q / m)``, whose phases are reduced modulo ``m`` as
    integers: about ``2 sqrt(n)`` complex exponentials instead of ``n``.
    The products are the rows of the tables' outer product, written in
    place: no other array of ``n`` points is made.
    """
    n = out.size
    b = math.isqrt(n - 1) + 1

    def table(step: int, size: int) -> np.ndarray:
        return np.exp((-2j * np.pi / m) * ((r * step * np.arange(size)) % m))

    hi, lo = table(b, -(-n // b)), table(1, b)
    full, rest = divmod(n, b)
    np.multiply.outer(hi[:full], lo, out=out[:full * b].reshape(full, b))
    if rest:
        np.multiply(hi[full], lo[:rest], out=out[full * b:])


def _shift_bins(r: int, m: int, s: int) -> int:
    """How many bins ``s k + r`` of an ``m``-point DFT lie at or below ``m // 2``."""
    return (m // 2 - r) // s + 1


def _shift_stats(
    p: np.ndarray, r: int, m: int, s: int, ends: tuple, simpson: bool = False
) -> tuple[float, float, float]:
    """Weight, mean and centred second sum of the power ``p`` at bins ``s k + r``.

    Bins 0 and ``m // 2`` take the trapezoid weights ``ends``, and with
    ``simpson`` the odd bins weigh twice, on a copy.  The temporaries die
    on return, before the next shift is transformed.
    """
    holds_top = (m // 2 - r) % s == 0  # bin m // 2 ends this block
    odd = simpson and (r % 2 or s % 2)  # some bin s k + r is odd
    if r == 0 or holds_top or odd:
        p = p.copy()
        p[0] *= ends[0] if r == 0 else 1.0
        p[-1] *= ends[1] if holds_top else 1.0
        if odd:
            # bin s k + r is odd: for every k where s is even (r is odd here),
            # and where s is odd for the k whose parity is not r's
            p[(r + 1) % 2::2 if s % 2 else 1] *= 2.0
    # pairwise sums, not BLAS dots: exact order, accurate on any stride
    k = np.arange(p.size, dtype=float)
    weight = float(p.sum())
    mean = float(np.sum(k * p)) / weight if weight > 0 else 0.0
    dev = k - mean
    dev *= dev
    dev *= p
    return weight, r + s * mean, s * s * float(dev.sum())


def _padded_moments(
    columns: Callable[[np.ndarray], Iterable[np.ndarray]], n: int, m: int, dt: float, real: bool,
    grid: np.ndarray | None = None, simpson: bool = False,
) -> tuple[float, float]:
    """Mean frequency and second central moment of a power on the one-sided bins of an ``m``-point DFT.

    The power is ``sum |DFT_m(col)|^2`` over the length-``n`` columns that
    ``columns(scratch)`` yields, in that order; a column may be written
    into ``scratch``, ``n`` doubles that are overwritten once it is
    transformed and before the next column is asked for.  Its moments are
    those of the trapezoid rule over the bin frequencies
    ``2 pi j / (m dt)``, ``j <= m // 2``, or with ``simpson``, for ``m`` a
    multiple of 4, those of Simpson's rule, whose odd bins weigh twice the
    even ones.  ``real`` folds the two-sided power onto the positive side,
    so every bin but 0 and, for even ``m``, ``m / 2`` weighs twice.  With
    ``s = _shift_count(n, m)`` and ``L = m // s``, bin ``s k + r`` of the
    DFT is bin ``k`` of the ``L``-point DFT of
    ``col * exp(-2 pi i r t / m)``: one ``L``-point FFT per column and
    shift, inline, in one buffer.  The twiddle is written
    into that buffer from two tables of about ``sqrt(n)`` points
    (:func:`_twiddle`) and then multiplied by the column, so no array of
    ``n`` points is made per shift.  For ``real`` columns only shifts
    ``0 .. s // 2`` are transformed, shift 0 by a real FFT into the same
    buffer; for ``0 < r < s - r`` the bins of shift ``r``, reversed, are
    by conjugate symmetry those of shift ``s - r``.  Each shift's bins are written into
    ``grid[r::s]`` if a one-sided ``grid`` is given and reduced on the spot
    (:func:`_shift_stats`); the shifts are then merged in order by the
    exact pairwise update of Chan, Golub and LeVeque (1979).  A zero power
    raises ``ValueError``.
    """
    s = _shift_count(n, m)
    size = m // s
    ends = (0.25, 0.25 if m % 2 == 0 else 0.5) if real else (0.5, 0.5)
    buf, mag = np.empty(size, dtype=complex), np.empty(size)
    stats = [(0.0, 0.0, 0.0)] * s
    for r in range(s // 2 + 1 if real else s):
        paired = real and 0 < r < s - r
        used = size if paired else _shift_bins(r, m, s)
        power = np.zeros(used)
        for col in columns(mag[:n]):
            if real and not r:
                y = np.fft.rfft(col, n=size, out=buf[: size // 2 + 1])
            else:
                # the twiddle is built in the buffer, then the column times it:
                # that operand order keeps the bits of a separate twiddle array
                _twiddle(buf[:n], r, m)
                np.multiply(col, buf[:n], out=buf[:n])
                buf[n:] = 0.0
                y = np.fft.fft(buf, out=buf)
            a = np.abs(y[:used], out=mag[:used])
            power += np.square(a, out=a)
        blocks = [(r, power), (s - r, power[::-1])] if paired else [(r, power)]
        for q, p in blocks:
            p = p[: _shift_bins(q, m, s)]
            if grid is not None:
                grid[q::s] = p
            stats[q] = _shift_stats(p, q, m, s, ends, simpson)
    total, mean, second = stats[0]
    for weight, block_mean, block_second in stats[1:]:
        merged = total + weight
        if merged > 0:
            delta = block_mean - mean
            mean += delta * weight / merged
            second += block_second + delta * delta * total * weight / merged
        total = merged
    if total <= 0:
        raise ValueError("zero signal: spectrum is undefined")
    unit = 2.0 * np.pi / (m * dt)
    try:
        unit2 = unit**2
    except OverflowError:  # a Python float's power raises where numpy's gives inf
        unit2 = math.inf
    return mean * unit, second / total * unit2


def global_moments_spectral(
    xp: AnalyticSignal3, pad_factor: int = 8
) -> GlobalMoments:
    """Global moments by quadrature over the one-sided joint spectrum.

    The grid is that of :func:`joint_analytic_spectrum`: the one-sided
    bins of the DFT zero-padded to ``m = _simpson_length(n, pad_factor)``
    points (at least 8x by default), but the spectrum is streamed, not
    built: one call of :func:`_padded_moments` takes one FFT of about
    ``n`` points per component and shift, inline, and merges each shift's
    moments, so memory stays O(n).  For a ``pad_factor`` of at least 2 the
    moments are Simpson's rule over the grid, the Richardson extrapolation
    ``(4 I_h - I_2h) / 3`` of the trapezoid over the grid and over its even
    bins, which cancels the trapezoid's ``h^2`` error term; for 1 they are
    the trapezoid's.  Against the exact one-sided integral, on random
    modulated records (seeds 0 to 5 at 7 531, 10 369, 99 999 and 1e5
    samples) the default misses the second central moment by at most
    4.2e-11 relative, where the plain trapezoid over the 16x grid, with
    twice the FFTs, misses it by up to 1.3e-10.  Where the spectrum is large near 0 or the Nyquist frequency
    the higher error terms dominate: on the 800-sample reference signals,
    whose mean frequency is four bins above 0, the default misses the mean
    and the second moment by up to 2.1e-7 and 5.0e-7 relative (the 16x
    trapezoid by 1.3e-7 and 4.5e-6), and on a tone 0.7 bins above 0 by
    about 2e-5 (the 16x trapezoid by 2e-8 to 3e-6 where its length is even).
    Energy is the trapezoidal time integral of the aggregate instantaneous
    power.
    """
    n = xp.n_samples
    m = _simpson_length(n, pad_factor)
    mean, second = _padded_moments(
        lambda _: (xp.samples[:, c] for c in range(3)), n, m, xp.dt, real=False,
        simpson=pad_factor >= 2,
    )
    energy = float(np.trapezoid(xp.power, dx=xp.dt))
    return GlobalMoments(energy=energy, mean_freq=mean, second_central=second)
