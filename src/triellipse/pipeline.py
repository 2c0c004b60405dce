"""The analysis chain, written once.

:func:`decompose_analytic` is the per-sample chain on an analytic signal;
:func:`analyze_signal` runs it on a real record and adds the global moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import AnalyticSignal3, RealSignal3, analytic_transform
from .ellipse import (
    EPS_CIRC_DEFAULT,
    EPS_LIN_DEFAULT,
    EllipseRates,
    EllipseSeries,
    ExtractionResult,
    NormalSeries,
    ellipse_extract,
    ellipse_rates,
    rot_z,
    rotate_frame,
)
from .moments import (
    EPS_POW_DEFAULT,
    BandwidthDecomposition,
    GlobalMoments,
    MomentsSeries,
    bandwidth_decompose,
    global_moments_spectral,
    global_moments_time,
    instantaneous_moments,
)

__all__ = [
    "RunConfig",
    "SampleChain",
    "AnalysisResult",
    "decompose_analytic",
    "in_bearing_frame",
    "analyze_signal",
]


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the analysis pipeline.

    ``bearing`` (degrees, finite) rotates the horizontal frame before the
    analysis, so that the first channel points along it.  ``taper_p``, the
    taper time-bandwidth product, is finite and positive.  ``trim`` is the
    edge fraction excluded from summary statistics (the fixed wrap-around
    edge flag applies regardless); ``precision`` (at least 0) sets the
    digits after the point of every ``%e`` value in emitted tables, making
    repeated runs byte-identical.
    """

    scheme: str = "central4"
    trim: float = 0.1
    eps_lin: float = EPS_LIN_DEFAULT
    eps_circ: float = EPS_CIRC_DEFAULT
    eps_pow: float = EPS_POW_DEFAULT
    taper_p: float = 2.0
    n_tapers: int = 3
    pad_factor: int = 8
    bearing: float = 0.0
    precision: int = 12

    def __post_init__(self) -> None:
        if not 0.0 <= self.trim < 0.5:
            raise ValueError("trim fraction must lie in [0, 0.5)")
        for name in ("eps_lin", "eps_circ", "eps_pow"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.taper_p) and self.taper_p > 0):
            raise ValueError(f"taper_p must be finite and positive, got {self.taper_p}")
        if self.n_tapers < 1:
            raise ValueError(f"n_tapers must be at least 1, got {self.n_tapers}")
        if self.n_tapers > int(round(2 * self.taper_p - 1)):
            raise ValueError("n_tapers must not exceed 2*taper_p - 1")
        if self.pad_factor < 1:
            raise ValueError(f"pad_factor must be at least 1, got {self.pad_factor}")
        if self.precision < 0:
            raise ValueError(f"precision must be at least 0, got {self.precision}")
        if not math.isfinite(self.bearing):
            raise ValueError(f"bearing must be finite, got {self.bearing}")


class SampleChain(NamedTuple):
    """Per-sample results of :func:`decompose_analytic`, in chain order."""

    moments: MomentsSeries
    extraction: ExtractionResult
    rates: EllipseRates
    decomposition: BandwidthDecomposition


@dataclass(frozen=True)
class AnalysisResult:
    signal: RealSignal3
    ellipse: EllipseSeries
    normal: NormalSeries
    moments: MomentsSeries
    decomposition: BandwidthDecomposition
    global_time: GlobalMoments
    global_spectral: GlobalMoments
    excluded: int


def decompose_analytic(
    xp: AnalyticSignal3, config: RunConfig = RunConfig(), mean_freq: float | None = None
) -> SampleChain:
    """Moments, ellipse, rates and bandwidth split of an analytic signal.

    Of ``config`` only ``scheme`` and the three ``eps_*`` thresholds are
    read (``bearing``, ``trim``, the taper fields and ``precision`` are
    ignored).  ``mean_freq`` goes to :func:`instantaneous_moments`
    (``None``: the Fourier-domain value); ``xp`` is not re-transformed.
    """
    moments = instantaneous_moments(
        xp, scheme=config.scheme, mean_freq=mean_freq, eps_pow=config.eps_pow
    )
    ext = ellipse_extract(xp, eps_lin=config.eps_lin, eps_circ=config.eps_circ)
    rates = ellipse_rates(ext.ellipse)
    return SampleChain(moments, ext, rates, bandwidth_decompose(ext, rates, moments))


def in_bearing_frame(x: RealSignal3, bearing: float) -> RealSignal3:
    """``x`` in the horizontal frame whose first channel points along ``bearing`` degrees."""
    if bearing == 0.0:
        return x
    return rotate_frame(x, rot_z(-np.deg2rad(bearing)))


def analyze_signal(x: RealSignal3, config: RunConfig = RunConfig()) -> AnalysisResult:
    """Run the full pipeline on a real record, in the frame ``config.bearing`` sets.

    ``excluded`` counts the samples outside the trimmed interior or flagged.
    """
    x = in_bearing_frame(x, config.bearing)
    xp = analytic_transform(x)
    g_spec = global_moments_spectral(xp)
    moments, ext, _, decomp = decompose_analytic(xp, config, g_spec.mean_freq)
    n = x.n_samples
    # trim at least the wrap-around edge that moments.edge flags at each end
    k = max(int(np.ceil(config.trim * n)), int(np.count_nonzero(moments.edge)) // 2)
    k = min(k, (n - 2) // 2)
    interior = slice(k, n - k)
    g_time = global_moments_time(moments, interior)
    e = ext.ellipse
    flagged = moments.edge | moments.unreliable | e.degenerate | e.circular
    excluded = n - int(np.count_nonzero(~flagged[interior]))
    return AnalysisResult(
        signal=x, ellipse=ext.ellipse, normal=ext.normal, moments=moments,
        decomposition=decomp, global_time=g_time, global_spectral=g_spec,
        excluded=excluded,
    )
