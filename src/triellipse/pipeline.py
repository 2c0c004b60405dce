"""The analysis chain, written once.

:func:`decompose_analytic` is the per-sample chain on an analytic signal;
:func:`analyze_signal` runs it on a real record and adds the global
moments, and :func:`analyze_blocks` runs the same chain and global
moments on an analytic signal, so that its caller may drop the real
record, and hands each block's rows to its caller as they are made.

Only the analytic transform needs the whole record: the ellipse
parameters and the joint moments are defined at each instant from x+ and
x+', and their rates come from local differences.  So the chain is one
loop over blocks of ``_BLOCK`` samples: it hands each block's rows to a
callback, if one is given, and returns whole only the columns its caller
asks for.  :func:`analyze_signal` and :func:`decompose_analytic` gather
every row into whole-record columns; :func:`analyze_blocks`, whose
callback ``triellipse analyze`` formats block by block, keeps whole only
``omega``, ``sigma2`` and the four flags, which the global time
trapezoids and the exclusion count read (numpy's pairwise sums do not
split into blocks).  Each record-length array is held once: the moments'
``power`` column is the record's own power, as ``edge`` is its edge mask
and a ``scheme="spectral"`` derivative the whole record's, and a block's
outputs are freed once the callback returns, so one block of them is
live at a time.
Each block is computed on a window that
adds a halo of 2 samples on either side, as far as the five-point
stencils of the derivative and of the rates reach; a window reaches
further back where a short last block would leave it fewer than
``MIN_SAMPLES``.  The rest of what crosses a block edge is carried
(:class:`~triellipse.ellipse.Carry`): the held unit normal, the unwrap
state of the two rotary phases and of alpha (numpy's running correction
sum, not the last unwrapped angle), and theta's branch, chosen at t = 0;
beta lies in [0, pi] and needs no unwrapping.  Before the loop the
record's power, its peak, the global mean frequency and, for
``scheme="spectral"``, the whole record's FFT derivative are taken
once, and a pre-pass finds the first sample with a valid normal: a
leading run of degenerate samples takes its normal, even when it lies
in a later block.  With these given, every
stage is pointwise, so the blocked chain has the bits of the chain run
on the whole record at once, whichever consumer takes its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .analytic import (
    MIN_SAMPLES,
    AnalyticSignal3,
    RealSignal3,
    analytic_transform,
    differentiate,
    edge_mask,
)
from .ellipse import (
    EPS_CIRC_DEFAULT,
    EPS_LIN_DEFAULT,
    Carry,
    EllipseRates,
    EllipseSeries,
    ExtractionResult,
    NormalSeries,
    PlanarProjection,
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
    _per_power,
    bandwidth_decompose,
    global_moments_spectral,
    global_moments_time,
    instantaneous_moments,
)
from .spectrum import _max_tapers

__all__ = [
    "RunConfig",
    "SampleChain",
    "CrossChecks",
    "EllipseColumns",
    "NormalColumns",
    "MomentColumns",
    "AnalysisResult",
    "AnalysisTotals",
    "Block",
    "decompose_analytic",
    "cross_checks",
    "in_bearing_frame",
    "analyze_signal",
    "analyze_blocks",
]

#: Samples per block of the per-sample chain.  A block's stage outputs take
#: about 725 bytes per sample, so at 2^15 they were most of the traced peak
#: of ``analyze_signal`` at 1e5 samples (43.7 MB; 20.5 MB at 2^12, with
#: one block's outputs live at a time), and the per-block Python overhead
#: stays within run-to-run noise at 2^12.
_BLOCK = 1 << 12
#: Samples the five-point stencils reach on either side.
_HALO = 2


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the analysis pipeline.

    ``bearing`` (degrees, finite) rotates the horizontal frame before the
    analysis, so that the first channel points along it.  ``taper_p``, the
    taper time-bandwidth product, is finite and positive.  The grid of
    ``spectrum`` has at least ``max(pad_factor, 2)`` times the record
    length in points (``pad_factor`` at least 1), rounded up to an even
    5-smooth length; ``analyze``'s multitaper moments are exact, and take
    no pad factor.  ``trim`` is the edge fraction excluded from summary
    statistics (the fixed wrap-around edge flag applies regardless);
    ``precision`` (at least 0) sets the digits after the point of every
    ``%e`` value in emitted tables, making repeated runs byte-identical.
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
        if self.n_tapers > _max_tapers(self.taper_p):
            raise ValueError(
                f"n_tapers must not exceed 2 * taper_p - 1 = {2 * self.taper_p - 1:g}, "
                f"got {self.n_tapers}"
            )
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


class CrossChecks(NamedTuple):
    """Per-sample identities and bounds of a :class:`SampleChain`, from :func:`cross_checks`.

    ``total`` is the sum of the four bandwidth terms, which reconstructs
    ``upsilon2``; ``upsilon2_alt`` is the power-ratio form of ``upsilon2``,
    ``||x+'||^2 / ||x+||^2 - omega^2``; ``term_normal_planar`` is the
    in-plane form of ``term_normal``, driven by the plane-motion rates
    ``omega_alpha sin(beta)`` and ``omega_beta``.  ``bound`` is the upper
    bound on ``total`` built from the five geometry rates, and
    ``bound_normal`` the Cauchy-Schwarz bound on ``term_normal``.
    ``precession`` is the effective precession rate from the angle rates,
    ``omega_theta + omega_alpha cos(beta)``, and ``precession_residual``
    its difference from the identity form ``(omega - omega_phi) /
    sqrt(1 - lam^2)``, which blows up where ``precession_unreliable`` flags
    ``lam`` near 1 or a degenerate or circular sample.
    """

    total: np.ndarray
    upsilon2_alt: np.ndarray
    term_normal_planar: np.ndarray
    bound: np.ndarray
    bound_normal: np.ndarray
    precession: np.ndarray
    precession_residual: np.ndarray
    precession_unreliable: np.ndarray


@dataclass(frozen=True)
class EllipseColumns:
    """The ellipse columns ``analyze`` writes: :class:`EllipseSeries` without ``a``, ``b`` and the unwrapped angles."""

    kappa: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    degenerate: np.ndarray
    circular: np.ndarray


@dataclass(frozen=True)
class NormalColumns:
    """The unit normal ``analyze`` writes: :class:`NormalSeries` without ``mag`` and ``degenerate``."""

    n_hat: np.ndarray


@dataclass(frozen=True)
class MomentColumns:
    """:class:`MomentsSeries` without ``derivative``: the columns ``analyze`` writes and the power its time moments weigh by."""

    omega: np.ndarray
    sigma2: np.ndarray
    upsilon2: np.ndarray
    power: np.ndarray
    mean_freq: float
    edge: np.ndarray
    unreliable: np.ndarray
    dt: float


@dataclass(frozen=True)
class AnalysisResult:
    """What :func:`analyze_signal` keeps: the record, what ``analyze`` writes, and the power."""

    signal: RealSignal3
    ellipse: EllipseColumns
    normal: NormalColumns
    moments: MomentColumns
    decomposition: BandwidthDecomposition
    global_time: GlobalMoments
    global_spectral: GlobalMoments
    excluded: int


class Block(NamedTuple):
    """Rows ``lo:hi`` of the chain: each kept output's class, built on those rows alone."""

    lo: int
    hi: int
    outputs: dict[str, object]


class AnalysisTotals(NamedTuple):
    """The record-wide results of :func:`analyze_blocks`: the fields of :class:`AnalysisResult` that are not columns.

    The record itself is not kept, only its length and sample interval.
    """

    n_samples: int
    dt: float
    global_time: GlobalMoments
    global_spectral: GlobalMoments
    excluded: int


# per consumer, the class each output of the chain is built as, per block and
# gathered; its fields name the columns kept
_EVERYTHING = {
    "moments": MomentsSeries, "ellipse": EllipseSeries, "normal": NormalSeries,
    "planar": PlanarProjection, "rates": EllipseRates, "decomposition": BandwidthDecomposition,
}
_WRITTEN = {
    "moments": MomentColumns, "ellipse": EllipseColumns, "normal": NormalColumns,
    "decomposition": BandwidthDecomposition,
}
# the written columns held whole beside the power and the edge mask: the
# time moments' trapezoids and the exclusion count read them
_WHOLE = {"moments": ("omega", "sigma2", "unreliable"), "ellipse": ("degenerate", "circular")}


def _windows(n: int) -> list[tuple[int, int, int, int]]:
    """``(lo, hi, wlo, whi)`` per block: its rows ``lo:hi`` and the window ``wlo:whi`` it is computed on."""
    out = []
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        whi = min(hi + _HALO, n)
        out.append((lo, hi, max(0, min(lo - _HALO, whi - MIN_SAMPLES)), whi))
    return out


def _chain(
    xp: AnalyticSignal3,
    config: RunConfig,
    mean_freq: float | None,
    keep: dict[str, type],
    whole: dict[str, tuple[str, ...]] | None = None,
    each: Callable[[Block], None] | None = None,
) -> dict[str, dict]:
    """Run the per-sample chain on ``xp`` block by block, handing each block's rows of the ``keep`` classes to ``each``, if given.

    Returns each kept output's record-wide scalars and whole-record
    columns: the record's own (power, edge mask and a spectral
    derivative) as they are, and the fields ``whole`` names, every field
    where it is None, gathered block by block.
    """
    n = xp.n_samples
    peak = float(xp.power.max(initial=0.0))
    if mean_freq is None and peak > 0.0:  # a zero signal is the moments' error
        mean_freq = global_moments_spectral(xp).mean_freq
    whole_derivative = differentiate(xp, "spectral") if config.scheme == "spectral" else None
    edge = edge_mask(n)
    # the moment columns the record holds whole already: kept as they are, not copied
    record = {"power": xp.power, "edge": edge, "derivative": whole_derivative}
    windows = _windows(n)
    carry = Carry.start((xp.rows(w[2], w[3]) for w in windows), peak, config.eps_lin)
    columns: dict[str, dict] = {name: {} for name in keep}
    for i, (lo, hi, wlo, whi) in enumerate(windows):
        window = xp.rows(wlo, whi)
        carry.advance = (windows[i + 1][2] if i + 1 < len(windows) else whi) - wlo
        moments = instantaneous_moments(
            window, config.scheme, mean_freq, config.eps_pow, peak=peak, edge=edge[wlo:whi],
            derivative=None if whole_derivative is None else whole_derivative[wlo:whi],
        )
        ext = ellipse_extract(window, config.eps_lin, config.eps_circ, carry=carry)
        rates = ellipse_rates(ext.ellipse)
        outputs = {
            "moments": moments, "ellipse": ext.ellipse, "normal": ext.normal,
            "planar": ext.planar, "rates": rates,
            "decomposition": bandwidth_decompose(ext, rates, moments),
        }
        rows = {}
        for name, cls in keep.items():
            kept, part = columns[name], {}
            for f in fields(cls):
                value = getattr(outputs[name], f.name)
                if not isinstance(value, np.ndarray):  # mean_freq and dt, record-wide
                    part[f.name] = kept[f.name] = value
                elif name == "moments" and record.get(f.name) is not None:
                    kept[f.name] = record[f.name]
                    part[f.name] = record[f.name][lo:hi]
                else:
                    part[f.name] = value = value[lo - wlo:hi - wlo]
                    if whole is None or f.name in whole.get(name, ()):
                        if f.name not in kept:
                            kept[f.name] = np.empty((n,) + value.shape[1:], value.dtype)
                        kept[f.name][lo:hi] = value
            rows[name] = cls(**part)
        if each is not None:
            each(Block(lo, hi, rows))
        # this block is consumed: free it before the next block makes its own
        del moments, ext, rates, outputs, rows, part, value
    return columns


def decompose_analytic(
    xp: AnalyticSignal3, config: RunConfig = RunConfig(), mean_freq: float | None = None
) -> SampleChain:
    """Moments, ellipse, rates and bandwidth split of an analytic signal, every field kept.

    Of ``config`` only ``scheme`` and the three ``eps_*`` thresholds are
    read (``bearing``, ``trim``, the taper fields and ``precision`` are
    ignored).  ``mean_freq`` goes to :func:`instantaneous_moments`
    (``None``: the Fourier-domain value); ``xp`` is not re-transformed.
    The chain runs in blocks (see the module docstring); with
    ``scheme="spectral"`` the derivative is the FFT derivative of the
    whole record, taken once and sliced per block.
    """
    columns = _chain(xp, config, mean_freq, _EVERYTHING)
    out = {name: cls(**columns[name]) for name, cls in _EVERYTHING.items()}
    ext = ExtractionResult(out["ellipse"], out["normal"], out["planar"])
    return SampleChain(out["moments"], ext, out["rates"], out["decomposition"])


def cross_checks(chain: SampleChain) -> CrossChecks:
    """The identities and bounds of ``chain``, from its arrays alone: no derivative, no FFT."""
    moments, ext, rates, d = chain
    e = ext.ellipse
    xt = ext.planar.x_tilde
    planar = -rates.omega_alpha * np.sin(e.beta) * xt[:, 0] + rates.omega_beta * xt[:, 1]
    speed2 = np.sum(np.abs(moments.derivative) ** 2, axis=1)
    one_m = 1.0 - e.lam**2
    precession = rates.omega_theta + rates.omega_alpha * np.cos(e.beta)
    identity = (moments.omega - rates.omega_phi) / np.sqrt(np.clip(one_m, 1e-300, None))
    return CrossChecks(
        total=d.term_amplitude + d.term_deformation + d.term_precession + d.term_normal,
        upsilon2_alt=_per_power(speed2, moments.power) - moments.omega**2,
        term_normal_planar=_per_power(np.abs(planar) ** 2, np.sum(np.abs(xt) ** 2, axis=1)),
        bound=d.term_amplitude + d.term_deformation + rates.omega_beta**2
        + (np.abs(rates.omega_theta) + np.abs(rates.omega_alpha)) ** 2,
        bound_normal=(rates.omega_alpha * np.sin(e.beta)) ** 2 + rates.omega_beta**2,
        precession=precession,
        precession_residual=precession - identity,
        precession_unreliable=(one_m < 1e-6) | e.degenerate | e.circular,
    )


def in_bearing_frame(x: RealSignal3, bearing: float) -> RealSignal3:
    """``x`` in the horizontal frame whose first channel points along ``bearing`` degrees."""
    if bearing == 0.0:
        return x
    return rotate_frame(x, rot_z(-np.deg2rad(bearing)))


def _analysis(
    xp: AnalyticSignal3,
    config: RunConfig,
    whole: dict[str, tuple[str, ...]] | None,
    each: Callable[[Block], None] | None = None,
) -> tuple[AnalysisTotals, dict[str, dict]]:
    """The chain of :func:`analyze_signal` on the analytic signal ``xp``: its totals and gathered columns.

    See :func:`_chain` for ``whole`` and ``each``.
    """
    g_spec = global_moments_spectral(xp)
    columns = _chain(xp, config, g_spec.mean_freq, _WRITTEN, whole, each)
    moments, e = columns["moments"], columns["ellipse"]
    n = xp.n_samples
    # trim at least the wrap-around edge that moments.edge flags at each end
    k = max(int(np.ceil(config.trim * n)), int(np.count_nonzero(moments["edge"])) // 2)
    k = min(k, (n - 2) // 2)
    interior = slice(k, n - k)
    # the time moments read only power, omega, sigma2 and dt
    g_time = global_moments_time(SimpleNamespace(**moments), interior)
    flagged = moments["edge"] | moments["unreliable"] | e["degenerate"] | e["circular"]
    excluded = n - int(np.count_nonzero(~flagged[interior]))
    return AnalysisTotals(n, xp.dt, g_time, g_spec, excluded), columns


def analyze_signal(x: RealSignal3, config: RunConfig = RunConfig()) -> AnalysisResult:
    """Run the full pipeline on a real record, in the frame ``config.bearing`` sets.

    Only what ``analyze`` writes is kept, and the power.  ``excluded``
    counts the samples outside the trimmed interior or flagged.
    """
    x = in_bearing_frame(x, config.bearing)
    totals, columns = _analysis(analytic_transform(x), config, None)
    out = {name: cls(**columns[name]) for name, cls in _WRITTEN.items()}
    return AnalysisResult(
        signal=x, ellipse=out["ellipse"], normal=out["normal"],
        moments=out["moments"], decomposition=out["decomposition"],
        global_time=totals.global_time, global_spectral=totals.global_spectral,
        excluded=totals.excluded,
    )


def analyze_blocks(
    xp: AnalyticSignal3, config: RunConfig, each: Callable[[Block], None]
) -> AnalysisTotals:
    """Run :func:`analyze_signal`'s chain on an analytic signal, handing each block of its written rows to ``each``.

    ``xp`` is ``analytic_transform`` of the record in the frame to
    analyse, as :func:`decompose_analytic` takes it, so ``config.bearing``
    is not read, and the caller may drop the real record before the
    chain's spectral pass.  A block's ``outputs`` are the
    :class:`AnalysisResult` column classes (``"ellipse"``, ``"normal"``,
    ``"moments"``, ``"decomposition"``) built on rows ``lo:hi`` alone,
    with the bits of :func:`analyze_signal`'s columns.  ``each`` is
    called once per block, in row order, and must not keep them: they are
    freed when it returns, before the next block is made.  Only
    ``omega``, ``sigma2``, the power and the four flags are held whole,
    for the totals.
    """
    return _analysis(xp, config, _WHOLE, each)[0]
