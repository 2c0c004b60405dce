"""Analytic-signal construction for three-component records.

A real trivariate series is extended to a complex analytic vector whose
per-component spectra vanish on negative frequencies.  The extension is
computed in the frequency domain: forward DFT, one-sided doubling, inverse
DFT.  Everything downstream (ellipse geometry, instantaneous moments) is
built on this representation, so the conventions fixed here matter:

* bins with 0 < omega < pi are multiplied by 2; the zero bin and (for
  even length) the Nyquist bin keep weight 1, negative bins are zeroed.
  This keeps ``real(analytic) == input`` exact.
* input series are demeaned on construction; the removed means are kept as
  metadata.
* the discrete transform is circular, so samples near the record ends are
  contaminated by wrap-around leakage.  ``edge_mask`` flags the affected
  region (first/last ``max(8, n // 20)`` samples); downstream statistics
  are expected to exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "RealSignal3",
    "AnalyticSignal3",
    "analytic_transform",
    "hilbert_check",
    "differentiate",
    "finite_diff",
    "edge_mask",
    "MIN_SAMPLES",
]

MIN_SAMPLES = 8


def edge_mask(n_samples: int) -> np.ndarray:
    """Boolean mask flagging the first/last ``max(8, n // 20)`` samples."""
    k = max(8, n_samples // 20)
    mask = np.zeros(n_samples, dtype=bool)
    mask[:k] = True
    mask[n_samples - k:] = True
    return mask


@dataclass(frozen=True)
class RealSignal3:
    """A uniformly sampled real three-component series.

    The stored ``samples`` are demeaned per component on construction; the
    removed means are kept in ``mean``.  Series shorter than 8 samples or
    containing non-finite values are rejected.

    Parameters
    ----------
    samples : (n, 3) array_like
        One row per time step, columns are the x, y, z components.
    dt : float
        Sample interval (default 1, so frequencies are radians per sample).
    """

    samples: np.ndarray
    dt: float = 1.0
    mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array, got shape {arr.shape}")
        if arr.shape[0] < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} samples, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                f"non-finite value at sample {bad[0]}, component {bad[1]}"
            )
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        mean = arr.mean(axis=0)
        arr -= mean
        arr.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "mean", mean)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class AnalyticSignal3:
    """Complex analytic extension of a three-component series.

    For outputs of :func:`analytic_transform` the real part reproduces the
    demeaned input and the DFT of each component vanishes on strictly
    negative frequency bins.  Synthesized signals (see
    :func:`triellipse.ellipse.ellipse_synthesize`) satisfy this only to the
    extent that they are narrowband; :func:`hilbert_check` measures the
    departure.
    """

    samples: np.ndarray
    dt: float = 1.0

    def __post_init__(self) -> None:
        self._keep(np.array(self.samples, dtype=complex))

    @classmethod
    def _adopt(cls, arr: np.ndarray, dt: float) -> AnalyticSignal3:
        """A signal that keeps ``arr``, a fresh complex array nothing else holds, without a copy.

        The checks are those of the constructor.
        """
        signal = object.__new__(cls)
        object.__setattr__(signal, "dt", dt)
        signal._keep(arr)
        return signal

    def _keep(self, arr: np.ndarray) -> None:
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array, got shape {arr.shape}")
        if arr.shape[0] < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} samples, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values in analytic signal")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @cached_property
    def power(self) -> np.ndarray:
        """Aggregate instantaneous power ``||x+(t)||^2`` per sample, computed once (read-only).

        Summed one component at a time, ``(p0 + p1) + p2``: the bits of
        ``np.sum(np.abs(samples) ** 2, axis=1)`` without its two
        ``(n, 3)`` temporaries.
        """
        power = np.abs(self.samples[:, 0]) ** 2
        for c in (1, 2):
            power += np.abs(self.samples[:, c]) ** 2
        power.flags.writeable = False
        return power

    def rows(self, lo: int, hi: int) -> AnalyticSignal3:
        """Samples ``lo:hi`` as a signal of their own, sharing this one's samples and power.

        Nothing is copied or checked again, so the caller keeps the window
        at ``MIN_SAMPLES`` or more if a stage needs that many.
        """
        window = object.__new__(AnalyticSignal3)
        object.__setattr__(window, "samples", self.samples[lo:hi])
        object.__setattr__(window, "dt", self.dt)
        window.__dict__["power"] = self.power[lo:hi]
        return window


def _analytic_weights(n: int) -> np.ndarray:
    w = np.zeros(n)
    w[0] = 1.0
    if n % 2 == 0:
        w[1:n // 2] = 2.0
        w[n // 2] = 1.0
    else:
        w[1:(n + 1) // 2] = 2.0
    return w


def analytic_transform(x: RealSignal3) -> AnalyticSignal3:
    """Return the analytic signal vector of a real trivariate series.

    Per component: forward DFT, double the strictly positive frequency
    bins, keep the zero and Nyquist bins, zero the negative bins, inverse
    DFT.  The real part of the result equals the (demeaned) input to
    round-off.

    Both transforms run in place on the result's own ``(n, 3)`` array,
    one column at a time: a 2-D call allocates scratch of its own in
    pocketfft, which ``tracemalloc`` does not see, about 3 MB more
    resident memory at 1e5 samples.  The bits are those of the 2-D call.
    """
    spec = x.samples.astype(complex)  # the transform casts a real input to this anyway
    weights = _analytic_weights(x.n_samples)
    for c in range(3):
        col = spec[:, c]
        np.fft.fft(col, out=col)
        col *= weights
        np.fft.ifft(col, out=col)
    return AnalyticSignal3._adopt(spec, x.dt)


def hilbert_check(xp: AnalyticSignal3) -> float:
    """Residual of the analyticity identity ``H{x+} = -i x+``.

    The Hilbert operator is applied in the frequency domain with the
    convention matching :func:`analytic_transform`: multiplier ``-i`` on
    positive bins (Nyquist counted as positive), ``+i`` on negative bins,
    ``0`` at the zero bin.  With that convention the identity is exact for
    any discretely analytic array, so the returned value

        ``max |H{x+} + i x+| / max |x+|``

    measures residual negative-frequency and zero-frequency content.
    Defined as 0 for an identically zero input.
    """
    n = xp.n_samples
    h = np.zeros(n, dtype=complex)
    if n % 2 == 0:
        h[1:n // 2 + 1] = -1j
        h[n // 2 + 1:] = 1j
    else:
        h[1:(n + 1) // 2] = -1j
        h[(n + 1) // 2:] = 1j
    hx = np.fft.ifft(np.fft.fft(xp.samples, axis=0) * h[:, None], axis=0)
    scale = np.max(np.abs(xp.samples))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(hx + 1j * xp.samples)) / scale)


def finite_diff(y: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """Fourth-order central differences along axis 0.

    Interior samples use the five-point fourth-order stencil; the two
    samples at each end use one-sided second-order stencils.  Works for
    real or complex arrays of any trailing shape.  Requires at least 8
    samples so every stencil fits.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    d = np.empty_like(y, dtype=np.result_type(y.dtype, float))
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dt)
    for i in (0, 1):
        d[i] = (-3.0 * y[i] + 4.0 * y[i + 1] - y[i + 2]) / (2.0 * dt)
    for i in (n - 2, n - 1):
        d[i] = (3.0 * y[i] - 4.0 * y[i - 1] + y[i - 2]) / (2.0 * dt)
    return d


def differentiate(xp: AnalyticSignal3, scheme: str = "central4") -> np.ndarray:
    """Per-sample time derivative of the analytic signal.

    Parameters
    ----------
    xp : AnalyticSignal3
    scheme : {"central4", "spectral"}
        ``central4`` is the default: fourth-order central differences in
        the interior, one-sided second-order at the two samples at each
        end.  ``spectral`` multiplies the DFT by ``i omega`` (Nyquist bin
        zeroed); it assumes periodicity and is accurate only for signals
        that are effectively windowed to zero at the record ends.  It
        needs the whole record, so the blocked chain of
        :mod:`triellipse.pipeline` takes it once and slices it per block.

    Returns
    -------
    (n, 3) complex ndarray, in signal units per time unit.
    """
    if scheme == "central4":
        return finite_diff(xp.samples, xp.dt)
    if scheme == "spectral":
        n = xp.n_samples
        omega = 2.0 * np.pi * np.fft.fftfreq(n, d=xp.dt)
        if n % 2 == 0:
            omega[n // 2] = 0.0
        i_omega = 1j * omega
        out = np.empty(xp.samples.shape, dtype=complex)
        for c in range(3):  # one column per transform, as in analytic_transform
            col = out[:, c]
            np.fft.fft(xp.samples[:, c], out=col)
            np.multiply(i_omega, col, out=col)
            np.fft.ifft(col, out=col)
        return out
    raise ValueError(f"unknown derivative scheme {scheme!r}")
