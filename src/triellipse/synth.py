"""Reference signal generators.

``make_reference_signal`` builds the family of constant-moment test signals:
in each mode exactly one of the five ellipse-geometry rates (amplitude,
deformation, internal precession, nutation, azimuthal precession) is
nonzero, while the joint instantaneous frequency and bandwidth magnitude
are constant at prescribed targets.  The parameter paths are closed-form
solutions of the moment balance:

    omega = omega_phi + sqrt(1 - lam^2) (omega_theta + omega_alpha cos beta)
    upsilon^2 = (kappa'/kappa)^2 + lam'^2 / (4 (1 - lam^2))
              + lam^2 (omega_theta + omega_alpha cos beta)^2 + (normal term)

mode            varying path                   balance
--------------  -----------------------------  ---------------------------------
amplitude       kappa = kappa0 exp(u t)        omega_phi = wbar
deformation     lam = sin(2 u t + c)           omega_phi = wbar
internal_prec.  theta' = u / lam0              omega_phi = wbar - sqrt(1-lam0^2) theta'
nutation        beta' = u sqrt(2), lam = 0     omega_phi = wbar
azimuth         alpha' = u sqrt(2)/sin(beta0)  omega_phi = wbar - alpha' cos(beta0)
fixed_geometry  none                           omega_phi = wbar, upsilon = 0

The balance column is written once, in ``SynthSpec._constant_rates``: the
spec's range checks and ``make_reference_signal`` both read it.

``make_composite_seismic_like`` chains such segments with tapered
crossfades and optional seeded noise, mimicking a linearly polarized
arrival followed by a circularly polarized one.  Ground-truth parameter
paths and rates are returned alongside every generated signal.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .analytic import AnalyticSignal3, RealSignal3
from .ellipse import EllipseRates, EllipseSeries, ellipse_synthesize

__all__ = [
    "MODES",
    "SynthSpec",
    "SynthResult",
    "SegmentTruth",
    "CompositeResult",
    "make_reference_signal",
    "make_composite_seismic_like",
    "make_smooth_path",
    "make_random_modulated",
    "OMEGA_BAR_DEFAULT",
    "UPSILON_DEFAULT",
]

MODES = (
    "amplitude",
    "internal_precession",
    "deformation",
    "nutation",
    "azimuth",
    "fixed_geometry",
)

OMEGA_BAR_DEFAULT = np.pi * 1e-2
UPSILON_DEFAULT = 2.5 * np.pi * 1e-4

_DESIGNATED_TERM = {
    "amplitude": "term_amplitude",
    "deformation": "term_deformation",
    "internal_precession": "term_precession",
    "nutation": "term_normal",
    "azimuth": "term_normal",
    "fixed_geometry": None,
}

# pole margins keeping beta away from 0/pi and lam away from 1
_BETA_MARGIN = 0.1
_LAM_SIN_LO = 0.05
_LAM_SIN_HI = np.pi / 2.0 - 0.15


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one reference signal.

    Base-state defaults are the constant-geometry schematic values
    (a=3, b=2, theta=pi/3, beta=pi/4, alpha=pi/6).  Circular modes
    (nutation, azimuth) use only the RMS amplitude of the base state;
    the internal-precession mode replaces the base shape with
    ``lambda_precession``.
    """

    n_samples: int
    mode: str
    omega_bar: float = OMEGA_BAR_DEFAULT
    upsilon: float = UPSILON_DEFAULT
    a0: float = 3.0
    b0: float = 2.0
    theta0: float = np.pi / 3.0
    phi0: float = 0.0
    alpha0: float = np.pi / 6.0
    beta0: float = np.pi / 4.0
    lambda_precession: float = 0.6
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_samples < 64:
            raise ValueError(f"n_samples must be at least 64, got {self.n_samples}")
        if not (np.isfinite(self.omega_bar) and self.omega_bar > 0):
            raise ValueError(f"omega_bar must be finite and positive, got {self.omega_bar}")
        if not (np.isfinite(self.upsilon) and self.upsilon >= 0):
            raise ValueError(f"upsilon must be finite and nonnegative, got {self.upsilon}")
        if not (self.a0 >= self.b0 >= 0):
            raise ValueError(f"a0 must be at least b0 >= 0, got a0={self.a0}, b0={self.b0}")
        if not 0 < self.lambda_precession < 1:
            raise ValueError(
                f"lambda_precession must lie in (0, 1), got {self.lambda_precession}"
            )
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        self._check_mode_ranges()

    def _constant_rates(self) -> dict[str, float]:
        """The mode's balance: its nonzero constant rates, by ``EllipseRates`` field.

        Azimuth divides by ``sin(beta0)``, so its margin is checked first.
        """
        u, wbar, b0 = self.upsilon, self.omega_bar, self.beta0
        if self.mode == "amplitude":
            return {"omega_phi": wbar, "dkappa_rel": u}
        if self.mode == "internal_precession":
            lam = self.lambda_precession
            omega_theta = u / lam
            return {"omega_phi": wbar - np.sqrt(1.0 - lam**2) * omega_theta,
                    "omega_theta": omega_theta}
        if self.mode == "nutation":
            return {"omega_phi": wbar, "omega_beta": np.sqrt(2.0) * u}
        if self.mode == "azimuth":
            omega_alpha = np.sqrt(2.0) * u / np.sin(b0)
            return {"omega_phi": wbar - omega_alpha * np.cos(b0), "omega_alpha": omega_alpha}
        return {"omega_phi": wbar}

    def _check_mode_ranges(self) -> None:
        """Reject a mode whose paths would leave their ranges.

        Those are ``lam`` in (0, 1), ``beta`` off the poles, a finite power
        and an orbital frequency above zero and below the Nyquist frequency
        ``pi / dt``.  Each message starts with the field to change, so a
        combination of flags out of range is an input error naming one.
        """
        u, wbar, b0 = self.upsilon, self.omega_bar, self.beta0
        t_last = (self.n_samples - 1) * self.dt
        if self.mode == "nutation" and not _BETA_MARGIN <= b0 <= np.pi - _BETA_MARGIN:
            raise ValueError(
                f"beta0 must lie in [{_BETA_MARGIN}, pi - {_BETA_MARGIN}] "
                f"in nutation mode, got {b0:g}"
            )
        if (self.mode == "azimuth"
                and min(abs(b0), abs(b0 - np.pi / 2.0), abs(b0 - np.pi)) < _BETA_MARGIN):
            raise ValueError(
                f"beta0 must be at least {_BETA_MARGIN} away from 0, pi/2 and pi "
                f"in azimuth mode, got {b0:g}"
            )
        rates = self._constant_rates()
        omega_phi = rates["omega_phi"]
        if self.mode in ("amplitude", "deformation"):
            # 2 u t is the log growth of the power a^2 + b^2, or the sweep of lam's sine
            if self.mode == "amplitude":
                room = np.log(np.finfo(float).max / (self.a0**2 + self.b0**2))
                leaves = "the power overflows"
            else:
                room, leaves = _LAM_SIN_HI - _LAM_SIN_LO, "the linearity leaves (0, 1)"
            if 2.0 * u * t_last >= room:
                raise ValueError(
                    f"upsilon must be below {room / (2.0 * t_last):g} for a "
                    f"{self.n_samples}-sample {self.mode} sweep, or {leaves}; got {u:g}"
                )
        elif self.mode == "internal_precession":
            lam = self.lambda_precession
            if omega_phi <= 0:
                raise ValueError(
                    f"upsilon must be below omega_bar * lambda_precession / "
                    f"sqrt(1 - lambda_precession^2) = {wbar * lam / np.sqrt(1.0 - lam**2):g} "
                    f"in internal_precession mode, or the precession absorbs the whole "
                    f"mean frequency; got {u:g}"
                )
        elif self.mode == "nutation":
            if b0 + rates["omega_beta"] * t_last > np.pi - _BETA_MARGIN:
                bound = (np.pi - _BETA_MARGIN - b0) / (np.sqrt(2.0) * t_last)
                raise ValueError(
                    f"upsilon must be at most {bound:g} for a {self.n_samples}-sample "
                    f"nutation sweep from beta0 = {b0:g}, or beta reaches the pole; "
                    f"got {u:g}"
                )
        elif self.mode == "azimuth":
            if omega_phi <= 0:
                raise ValueError(
                    f"upsilon must be below omega_bar * tan(beta0) / sqrt(2) = "
                    f"{wbar * np.tan(b0) / np.sqrt(2.0):g} in azimuth mode, or the "
                    f"external precession absorbs the whole mean frequency; got {u:g}"
                )
        if not 0 < omega_phi * self.dt < np.pi:
            raise ValueError(
                f"omega_bar must keep the orbital rate omega_phi in (0, pi / dt), below "
                f"the Nyquist frequency {np.pi / self.dt:g}; got omega_phi = {omega_phi:g} "
                f"in {self.mode} mode"
            )

    @property
    def kappa0(self) -> float:
        return float(np.sqrt((self.a0**2 + self.b0**2) / 2.0))


@dataclass(frozen=True)
class SynthResult:
    """Generated signal plus exact ground-truth paths and rates."""

    signal: AnalyticSignal3
    truth: EllipseSeries
    truth_rates: EllipseRates
    designated_term: str | None


def _rates_from_constants(n: int, **rates) -> EllipseRates:
    """The truth's rates: those given, constants or paths, broadcast to ``n``; the rest zero."""
    rates = dict.fromkeys((f.name for f in fields(EllipseRates)), 0.0) | rates
    return EllipseRates(
        **{k: np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy() for k, v in rates.items()}
    )


def make_reference_signal(spec: SynthSpec) -> SynthResult:
    """Build one reference signal with constant joint moments.

    The returned analytic vector is the pointwise ellipse synthesis of the
    closed-form paths; its ground truth (parameter paths and exact rates)
    comes along for pipeline validation.  Mode/parameter combinations that
    would push ``lam`` out of [0, 1), ``beta`` onto a pole, the power past
    the float range, or the orbital frequency out of (0, pi / dt), the band
    below the Nyquist frequency, are rejected by ``SynthSpec``.
    """
    n, u = spec.n_samples, spec.upsilon
    t = np.arange(n) * spec.dt
    kappa0 = spec.kappa0
    balance = spec._constant_rates()
    # the base state; each mode replaces the paths it varies or reshapes
    a, b, theta, alpha, beta = spec.a0, spec.b0, spec.theta0, spec.alpha0, spec.beta0
    dlambda = 0.0
    if spec.mode == "amplitude":
        growth = np.exp(u * t)
        a, b = spec.a0 * growth, spec.b0 * growth
    elif spec.mode == "internal_precession":
        lam = spec.lambda_precession
        a, b = kappa0 * np.sqrt(1.0 + lam), kappa0 * np.sqrt(1.0 - lam)
        theta = spec.theta0 + balance["omega_theta"] * t
    elif spec.mode == "deformation":
        window = _LAM_SIN_HI - _LAM_SIN_LO
        c = _LAM_SIN_LO + 0.5 * (window - 2.0 * u * t[-1])
        lam = np.sin(2.0 * u * t + c)
        a, b = kappa0 * np.sqrt(1.0 + lam), kappa0 * np.sqrt(1.0 - lam)
        dlambda = 2.0 * u * np.cos(2.0 * u * t + c)
    elif spec.mode == "nutation":
        a = b = kappa0
        beta = spec.beta0 + balance["omega_beta"] * t
    elif spec.mode == "azimuth":
        a = b = kappa0
        alpha = spec.alpha0 + balance["omega_alpha"] * t

    series = EllipseSeries.from_paths(
        a=a, b=b, theta=theta, phi=spec.phi0 + balance["omega_phi"] * t,
        alpha=alpha, beta=beta, dt=spec.dt,
    )
    return SynthResult(
        signal=ellipse_synthesize(series),
        truth=series,
        truth_rates=_rates_from_constants(n, dlambda=dlambda, **balance),
        designated_term=_DESIGNATED_TERM[spec.mode],
    )


@dataclass(frozen=True)
class SegmentTruth:
    """Where a component segment landed in the composite record."""

    start: int
    stop: int
    interior: slice
    spec: SynthSpec
    truth: EllipseSeries
    n_hat_nominal: np.ndarray


@dataclass(frozen=True)
class CompositeResult:
    signal: RealSignal3
    segments: tuple[SegmentTruth, ...]
    noise_sigma: float


def make_composite_seismic_like(
    segments: Sequence[SynthSpec],
    snr_db: float | None = None,
    seed: int = 0,
    crossfade: int = 32,
) -> CompositeResult:
    """Concatenate reference segments with tapered overlaps plus noise.

    Consecutive segments overlap by ``crossfade`` samples blended with
    raised-cosine ramps.  If ``snr_db`` is given, white Gaussian noise is
    added with total power ``10**(-snr_db / 10)`` times the mean signal
    power (seeded, reproducible).  Each segment reports its sample range
    in the composite and an ``interior`` slice clear of the crossfades.
    """
    if not segments:
        raise ValueError("need at least one segment")
    dt = segments[0].dt
    if any(s.dt != dt for s in segments):
        raise ValueError("all segments must share the same dt")
    fade = int(crossfade)
    if fade < 0 or any(s.n_samples < 2 * fade + 8 for s in segments):
        raise ValueError("segments too short for the requested crossfade")

    results = [make_reference_signal(s) for s in segments]
    total = sum(s.n_samples for s in segments) - fade * (len(segments) - 1)
    out = np.zeros((total, 3))
    truths: list[SegmentTruth] = []
    offset = 0
    ramp = np.sin(0.5 * np.pi * (np.arange(fade) + 1) / (fade + 1)) ** 2
    for i, (spec, res) in enumerate(zip(segments, results)):
        chunk = res.signal.samples.real.copy()
        if fade and i > 0:
            chunk[:fade] *= ramp[:, None]
        if fade and i < len(segments) - 1:
            chunk[-fade:] *= ramp[::-1, None]
        out[offset:offset + spec.n_samples] += chunk
        lo = offset + (fade if i > 0 else 0)
        hi = offset + spec.n_samples - (fade if i < len(segments) - 1 else 0)
        n_hat = np.array(
            [
                np.sin(spec.alpha0) * np.sin(spec.beta0),
                -np.cos(spec.alpha0) * np.sin(spec.beta0),
                np.cos(spec.beta0),
            ]
        )
        truths.append(
            SegmentTruth(
                start=offset,
                stop=offset + spec.n_samples,
                interior=slice(lo, hi),
                spec=spec,
                truth=res.truth,
                n_hat_nominal=n_hat,
            )
        )
        offset += spec.n_samples - fade

    sigma = 0.0
    if snr_db is not None:
        p_signal = float(np.mean(np.sum(out**2, axis=1)))
        sigma = float(np.sqrt(p_signal * 10.0 ** (-snr_db / 10.0) / 3.0))
        out = out + np.random.default_rng(seed).normal(0.0, sigma, out.shape)
    return CompositeResult(
        signal=RealSignal3(out, dt=dt), segments=tuple(truths), noise_sigma=sigma
    )


def make_smooth_path(
    n_samples: int, duration: float, carrier: float = 0.025
) -> tuple[EllipseSeries, EllipseRates]:
    """Deterministic richly modulated path with exact closed-form rates.

    Every ellipse parameter varies smoothly (a few sinusoidal cycles over
    the record), with the linearity kept inside [0.3, 0.8] and the zenith
    angle away from its poles.  Intended for discretization-convergence
    studies: the same physical path can be sampled at any ``n_samples``
    for a given ``duration``.  ``carrier`` is the orbital rate in radians
    per time unit; the slow default keeps the carrier-induced derivative
    discretization error well below the geometry-rate scale even at
    modest ``n_samples``.
    """
    dt = duration / n_samples
    t = np.arange(n_samples) * dt
    base = 2.0 * np.pi / duration

    def trig(amp, cycles, phase):
        w = cycles * base
        return amp * np.sin(w * t + phase), amp * w * np.cos(w * t + phase)

    lk, dlk = trig(0.20, 4.0, 0.3)          # log-amplitude
    lam, dlam = trig(0.25, 5.0, 1.1)
    th, dth = trig(1.20, 4.0, 0.5)
    be, dbe = trig(0.45, 2.0, 2.0)
    al, dal = trig(1.00, 3.5, 4.0)
    ph, dph = trig(0.50, 6.0, 2.5)

    kappa = np.exp(lk)
    lam = 0.55 + lam
    theta = np.pi / 6.0 + th
    beta = np.pi / 4.0 + be
    alpha = np.pi / 6.0 + al
    phi = carrier * t + ph

    series = EllipseSeries.from_paths(
        a=kappa * np.sqrt(1.0 + lam),
        b=kappa * np.sqrt(1.0 - lam),
        theta=theta, phi=phi, alpha=alpha, beta=beta, dt=dt,
    )
    rates = EllipseRates(
        dkappa_rel=dlk, dlambda=dlam,
        omega_phi=carrier + dph, omega_theta=dth,
        omega_alpha=dal, omega_beta=dbe,
    )
    return series, rates


def make_random_modulated(n_samples: int, seed: int, dt: float = 1.0) -> AnalyticSignal3:
    """Seeded random smoothly modulated signal for statistical tests.

    A Gaussian envelope concentrates the energy away from the record ends
    (so finite-record spectral leakage is negligible); all ellipse
    parameters follow random low-order trigonometric paths with the
    linearity in [0.2, 0.7] and the zenith angle clear of its poles.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) * dt
    tau = (np.arange(n_samples) + 0.5) / n_samples

    def rough(amp: float, max_cycles: int = 4) -> np.ndarray:
        out = np.zeros(n_samples)
        for c in range(1, max_cycles + 1):
            out += rng.uniform(-1.0, 1.0) * np.sin(
                2.0 * np.pi * c * tau + rng.uniform(0.0, 2.0 * np.pi)
            )
        return amp * out / max_cycles

    envelope = np.exp(-0.5 * ((tau - 0.5) / 0.12) ** 2)
    kappa = envelope * np.exp(rough(0.15))
    lam = 0.45 + np.clip(rough(0.4), -0.25, 0.25)
    theta = rng.uniform(-0.5, 0.5) + rough(0.5)
    beta = np.pi / 4.0 + np.clip(rough(0.5), -0.35, 0.35)
    alpha = rng.uniform(-np.pi / 2, np.pi / 2) + rough(0.6)
    # carrier slow enough that the finite-difference phase-rate bias
    # (omega*dt)^4/30 stays orders of magnitude below 1e-3 relative
    carrier = rng.uniform(0.12, 0.18) / dt
    phi = carrier * t + rough(3.0)

    series = EllipseSeries.from_paths(
        a=kappa * np.sqrt(1.0 + lam),
        b=kappa * np.sqrt(1.0 - lam),
        theta=theta, phi=phi, alpha=alpha, beta=beta, dt=dt,
    )
    return ellipse_synthesize(series)
