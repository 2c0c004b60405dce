"""Time-varying ellipse decomposition of three-component signals.

Any real trivariate series has a unique analytic extension, and any
analytic 3-vector traces a uniquely defined time-varying ellipse in three
dimensions.  This package recovers the ellipse parameters and their
rates, computes the joint instantaneous frequency / second central moment
/ bandwidth (whose power-weighted time averages reproduce the Fourier
moments of the energy-averaged spectrum), splits the squared bandwidth
into its four geometric contributions, and estimates the joint spectrum
with Slepian multitapers.  :mod:`triellipse.pipeline` chains these steps
once; a CLI (``triellipse``) exposes it on CSV records.
"""

from .analytic import (
    AnalyticSignal3,
    RealSignal3,
    analytic_transform,
    differentiate,
    edge_mask,
    finite_diff,
    hilbert_check,
)
from .ellipse import (
    EllipseRates,
    EllipseSeries,
    ExtractionResult,
    NormalSeries,
    PlanarProjection,
    ellipse_extract,
    ellipse_rates,
    ellipse_synthesize,
    normal_vector,
    rot_x,
    rot_z,
    rotate_frame,
    wrap_angle,
)
from .moments import (
    BandwidthDecomposition,
    GlobalMoments,
    MomentsSeries,
    bandwidth_decompose,
    global_moments_spectral,
    global_moments_time,
    instantaneous_moments,
    joint_analytic_spectrum,
)
from .pipeline import CrossChecks, RunConfig, analyze_signal, cross_checks, decompose_analytic
from .spectrum import (
    JointSpectrum,
    TaperSet,
    multitaper_joint_spectrum,
    multitaper_moments,
    slepian_tapers,
)
from .synth import (
    MODES,
    OMEGA_BAR_DEFAULT,
    UPSILON_DEFAULT,
    CompositeResult,
    SynthResult,
    SynthSpec,
    make_composite_seismic_like,
    make_reference_signal,
    make_random_modulated,
    make_smooth_path,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSignal3",
    "RealSignal3",
    "analytic_transform",
    "differentiate",
    "edge_mask",
    "finite_diff",
    "hilbert_check",
    "EllipseRates",
    "EllipseSeries",
    "ExtractionResult",
    "NormalSeries",
    "PlanarProjection",
    "ellipse_extract",
    "ellipse_rates",
    "ellipse_synthesize",
    "normal_vector",
    "rot_x",
    "rot_z",
    "rotate_frame",
    "wrap_angle",
    "BandwidthDecomposition",
    "GlobalMoments",
    "MomentsSeries",
    "bandwidth_decompose",
    "global_moments_spectral",
    "global_moments_time",
    "instantaneous_moments",
    "joint_analytic_spectrum",
    "CrossChecks",
    "RunConfig",
    "analyze_signal",
    "cross_checks",
    "decompose_analytic",
    "JointSpectrum",
    "TaperSet",
    "multitaper_joint_spectrum",
    "multitaper_moments",
    "slepian_tapers",
    "MODES",
    "OMEGA_BAR_DEFAULT",
    "UPSILON_DEFAULT",
    "CompositeResult",
    "SynthResult",
    "SynthSpec",
    "make_composite_seismic_like",
    "make_reference_signal",
    "make_random_modulated",
    "make_smooth_path",
]
