"""Time-varying ellipse geometry of a trivariate analytic signal.

Any analytic 3-vector can be written as a particle orbiting an ellipse
whose size, shape, and 3-D orientation evolve in time:

    x+(t) = exp(i phi) * Rz(alpha) Rx(beta) Rz(theta) * [a, -i b, 0]^T

with semi-axes ``a >= b >= 0``, orbital phase ``phi``, in-plane precession
angle ``theta``, and the plane orientation given by zenith ``beta`` in
[0, pi] and azimuth ``alpha`` in (-pi, pi].  This module recovers those
six parameters (and their rates of change) from an analytic vector, and
synthesizes analytic vectors from prescribed parameter paths.

Degeneracies are flagged, not raised:

* linear motion (``b -> 0``): the plane containing the motion, hence
  alpha/beta/theta, is ill-defined.  Samples with ``||n|| < eps_lin *
  kappa^2`` carry the ``degenerate`` flag and the unit normal is held at
  its last well-defined value.
* circular motion (``lambda -> 0``): theta and phi are individually
  undefined (only their sum matters).  Samples with ``lambda < eps_circ``
  carry the ``circular`` flag; theta is reported as computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .analytic import AnalyticSignal3, RealSignal3, finite_diff

__all__ = [
    "EllipseSeries",
    "EllipseRates",
    "NormalSeries",
    "PlanarProjection",
    "ExtractionResult",
    "rot_x",
    "rot_z",
    "ellipse_synthesize",
    "normal_vector",
    "ellipse_extract",
    "ellipse_rates",
    "rotate_frame",
    "wrap_angle",
    "EPS_LIN_DEFAULT",
    "EPS_CIRC_DEFAULT",
]

EPS_LIN_DEFAULT = 1e-6
EPS_CIRC_DEFAULT = 1e-6


def wrap_angle(angle: np.ndarray) -> np.ndarray:
    """Wrap angles to the principal interval (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(angle, dtype=float)))


def rot_x(angle) -> np.ndarray:
    """Proper rotation about the x axis; accepts scalars or arrays.

    For array input of shape ``s`` the result has shape ``s + (3, 3)``.
    """
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    one, zero = np.ones_like(c), np.zeros_like(c)
    rows = [[one, zero, zero], [zero, c, -s], [zero, s, c]]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def rot_z(angle) -> np.ndarray:
    """Proper rotation about the z axis; accepts scalars or arrays."""
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    one, zero = np.ones_like(c), np.zeros_like(c)
    rows = [[c, -s, zero], [s, c, zero], [zero, zero, one]]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


@dataclass
class EllipseSeries:
    """Per-sample canonical ellipse parameters.

    ``theta``, ``phi``, ``alpha`` are principal values in (-pi, pi];
    ``beta`` lies in [0, pi].  The ``*_unwrapped`` tracks are continuous in
    time and are the ones rates should be computed from.  Invariants:
    ``a >= b >= 0``, ``kappa^2 = (a^2 + b^2) / 2``,
    ``lam = (a^2 - b^2) / (a^2 + b^2)``.
    """

    a: np.ndarray
    b: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    theta_unwrapped: np.ndarray
    phi_unwrapped: np.ndarray
    alpha_unwrapped: np.ndarray
    degenerate: np.ndarray
    circular: np.ndarray
    dt: float = 1.0

    @classmethod
    def from_paths(cls, a, b, theta, phi, alpha, beta, dt=1.0) -> "EllipseSeries":
        """Build a series from parameter paths (scalars broadcast to n).

        Angle inputs are taken as already-continuous tracks (they may run
        outside the principal interval); the principal-value fields are
        derived by wrapping.  Rejects any sample with ``a < b`` or
        ``b < 0``.
        """
        arrays = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (a, b, theta, phi, alpha, beta))
        )
        a, b, theta, phi, alpha, beta = (np.array(v) for v in arrays)
        if a.ndim != 1:
            raise ValueError("parameter paths must be one-dimensional")
        if np.any(b < 0) or np.any(a < b):
            i = int(np.argmax((b < 0) | (a < b)))
            raise ValueError(f"need a >= b >= 0 at every sample (violated at {i})")
        power = a**2 + b**2
        kappa = np.sqrt(power / 2.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(power > 0, (a**2 - b**2) / power, 0.0)
        n = a.shape[0]
        return cls(
            a=a, b=b, kappa=kappa, lam=lam,
            theta=wrap_angle(theta), phi=wrap_angle(phi),
            alpha=wrap_angle(alpha), beta=beta,
            theta_unwrapped=theta, phi_unwrapped=phi, alpha_unwrapped=alpha,
            degenerate=np.zeros(n, dtype=bool),
            circular=np.zeros(n, dtype=bool),
            dt=float(dt),
        )

    @property
    def n_samples(self) -> int:
        return self.a.shape[0]


@dataclass
class EllipseRates:
    """Rates of change of the six ellipse parameters.

    ``dkappa_rel`` is the relative amplitude rate ``kappa'/kappa``;
    ``omega_phi`` the orbital frequency, ``omega_theta`` the in-plane
    (internal) precession, ``omega_alpha`` the azimuthal (external)
    precession of the plane normal, and ``omega_beta`` the nutation rate.
    Angle rates are not trustworthy at samples the source series flags
    ``degenerate`` or ``circular``.
    """

    dkappa_rel: np.ndarray
    dlambda: np.ndarray
    omega_phi: np.ndarray
    omega_theta: np.ndarray
    omega_alpha: np.ndarray
    omega_beta: np.ndarray


@dataclass
class NormalSeries:
    """Normal vector to the instantaneous ellipse plane.

    The normal ``imag(x+) x real(x+)`` has magnitude ``mag = a * b``;
    ``n_hat`` is the unit normal, held at its last well-defined value
    across samples flagged ``degenerate`` (near-linear motion).
    """

    n_hat: np.ndarray
    mag: np.ndarray
    degenerate: np.ndarray


@dataclass
class PlanarProjection:
    """The motion expressed in the frame of the instantaneous ellipse plane.

    ``x_tilde`` is the complex 2-vector of the in-plane motion (an
    isometric image of ``x+`` wherever the plane is well defined);
    ``z_tilde`` holds its counterclockwise/clockwise rotary components
    with amplitudes ``(a + b)/sqrt(2)`` and ``(a - b)/sqrt(2)``.
    """

    x_tilde: np.ndarray
    z_tilde: np.ndarray


class ExtractionResult(NamedTuple):
    ellipse: EllipseSeries
    normal: NormalSeries
    planar: PlanarProjection


def ellipse_synthesize(series: EllipseSeries) -> AnalyticSignal3:
    """Evaluate the modulated-ellipse form sample by sample.

    Returns the analytic 3-vector; its real part is the physical
    trajectory.  Strictly pointwise, so the result is exactly analytic
    only insofar as the parameter paths are slowly varying relative to the
    orbital phase.
    """
    if np.any(series.b < 0) or np.any(series.a < series.b):
        raise ValueError("need a >= b >= 0 at every sample")
    core = np.stack(
        [series.a.astype(complex), -1j * series.b, np.zeros(series.n_samples, complex)],
        axis=-1,
    )
    rot = rot_z(series.alpha_unwrapped) @ rot_x(series.beta) @ rot_z(series.theta_unwrapped)
    samples = np.exp(1j * series.phi_unwrapped)[:, None] * np.einsum(
        "nij,nj->ni", rot, core
    )
    return AnalyticSignal3(samples, dt=series.dt)


def _hold_last(vectors: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Replace invalid rows by the most recent valid row.

    A leading run of invalid rows is backfilled from the first valid row;
    if no row is valid the vertical unit vector is used throughout.
    """
    out = vectors.copy()
    idx = np.where(valid, np.arange(len(valid)), -1)
    idx = np.maximum.accumulate(idx)
    if idx[-1] == -1:
        out[:] = np.array([0.0, 0.0, 1.0])
        return out
    first = np.argmax(valid)
    idx[idx == -1] = first
    return out[idx]


def normal_vector(xp: AnalyticSignal3, eps_lin: float = EPS_LIN_DEFAULT) -> NormalSeries:
    """Normal vector to the plane of the signal and its quadrature part.

    Samples where ``||n|| < eps_lin * kappa^2`` (nearly linear motion, the
    plane is meaningless) are flagged degenerate; their unit normal is
    held at the last well-defined value rather than interpolated.
    """
    re, im = xp.samples.real, xp.samples.imag
    n = np.cross(im, re)
    mag = np.linalg.norm(n, axis=1)
    kappa2 = xp.power / 2.0
    degenerate = mag < eps_lin * kappa2
    with np.errstate(invalid="ignore", divide="ignore"):
        n_hat = np.where((mag > 0)[:, None], n / np.where(mag > 0, mag, 1.0)[:, None], 0.0)
    n_hat = _hold_last(n_hat, ~degenerate & (mag > 0))
    return NormalSeries(n_hat=n_hat, mag=mag, degenerate=degenerate)


def ellipse_extract(
    xp: AnalyticSignal3,
    eps_lin: float = EPS_LIN_DEFAULT,
    eps_circ: float = EPS_CIRC_DEFAULT,
) -> ExtractionResult:
    """Recover the canonical ellipse parameters from an analytic 3-vector.

    Per sample: ``kappa = ||x+|| / sqrt(2)``; ``lambda`` from the normal
    magnitude (clamped into [0, 1] against round-off); ``beta`` and
    ``alpha`` from four-quadrant arctangents of the unit-normal
    components; the in-plane 2-vector and its rotary components give
    ``phi`` and ``theta``, whose rotary phases are unwrapped along time
    before combining.  The joint ambiguity (theta, phi) ->
    (theta + pi, phi + pi) is resolved by picking theta(0) in
    (-pi/2, pi/2] and continuity thereafter.

    Samples flagged degenerate (near-linear) have untrustworthy
    alpha/beta/theta; kappa, lambda, phi are still returned.  Samples with
    ``lambda < eps_circ`` are flagged circular (orientation-indeterminate:
    only theta + phi is meaningful there).
    """
    normals = normal_vector(xp, eps_lin=eps_lin)
    power = xp.power
    max_power = float(power.max(initial=0.0))
    if max_power == 0.0:
        raise ValueError("cannot extract ellipse parameters from a zero signal")
    dead = power < 1e-300 * max_power

    kappa = np.sqrt(power / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam2 = 1.0 - 4.0 * normals.mag**2 / power**2
    lam = np.sqrt(np.clip(np.where(dead, 0.0, lam2), 0.0, 1.0))
    a = kappa * np.sqrt(1.0 + lam)
    b = kappa * np.sqrt(1.0 - lam)

    nh = normals.n_hat
    beta = np.arctan2(np.hypot(nh[:, 0], nh[:, 1]), nh[:, 2])
    alpha = np.arctan2(nh[:, 0], -nh[:, 1])

    # in-plane 2-vector: rows of [Rz(alpha) Rx(beta) H]^T applied to x+
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    u = ca[:, None] * xp.samples[:, 0:1] + sa[:, None] * xp.samples[:, 1:2]
    v = -sa[:, None] * xp.samples[:, 0:1] + ca[:, None] * xp.samples[:, 1:2]
    w = xp.samples[:, 2:3]
    x_tilde = np.concatenate([u, cb[:, None] * v + sb[:, None] * w], axis=1)

    z_plus = (x_tilde[:, 0] + 1j * x_tilde[:, 1]) / np.sqrt(2.0)
    z_minus = (x_tilde[:, 0] - 1j * x_tilde[:, 1]) / np.sqrt(2.0)
    phi_plus = np.unwrap(np.angle(z_plus))
    phi_minus = np.unwrap(np.angle(z_minus))
    phi_u = 0.5 * (phi_plus + phi_minus)
    theta_u = 0.5 * (phi_plus - phi_minus)

    # branch choice at t=0: theta in (-pi/2, pi/2] when possible
    shift = np.pi * np.floor((theta_u[0] + np.pi / 2.0 - 1e-12) / np.pi)
    theta_u = theta_u - shift
    phi_u = phi_u + shift

    circular = (lam < eps_circ) | dead
    degenerate = normals.degenerate | dead

    series = EllipseSeries(
        a=a, b=b, kappa=kappa, lam=lam,
        theta=wrap_angle(theta_u), phi=wrap_angle(phi_u),
        alpha=wrap_angle(alpha), beta=beta,
        theta_unwrapped=theta_u, phi_unwrapped=phi_u,
        alpha_unwrapped=np.unwrap(alpha),
        degenerate=degenerate, circular=circular, dt=xp.dt,
    )
    planar = PlanarProjection(
        x_tilde=x_tilde, z_tilde=np.stack([z_plus, z_minus], axis=1)
    )
    return ExtractionResult(series, normals, planar)


def ellipse_rates(series: EllipseSeries) -> EllipseRates:
    """Finite-difference rates of change of the ellipse parameters.

    Central differences on ``log kappa``, ``lambda``, and the unwrapped
    angle tracks (fourth-order interior, one-sided at the record ends),
    with the series' own ``dt``.
    """
    dt = series.dt
    kappa_floor = np.clip(series.kappa, 1e-300, None)
    beta_u = np.unwrap(series.beta)
    return EllipseRates(
        dkappa_rel=finite_diff(np.log(kappa_floor), dt),
        dlambda=finite_diff(series.lam, dt),
        omega_phi=finite_diff(series.phi_unwrapped, dt),
        omega_theta=finite_diff(series.theta_unwrapped, dt),
        omega_alpha=finite_diff(series.alpha_unwrapped, dt),
        omega_beta=finite_diff(beta_u, dt),
    )


def _check_proper_rotation(r: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be a 3x3 matrix, got shape {r.shape}")
    if not np.allclose(r.T @ r, np.eye(3), atol=tol):
        raise ValueError("matrix is not orthogonal")
    if abs(np.linalg.det(r) - 1.0) > tol:
        raise ValueError("matrix is not a proper rotation (det != 1)")
    return r


def rotate_frame(
    signal: Union[RealSignal3, AnalyticSignal3], r: np.ndarray
) -> Union[RealSignal3, AnalyticSignal3]:
    """Express the signal in a rotated coordinate frame.

    ``r`` must be a proper rotation (orthogonal, det = 1, checked to
    1e-10).  Samples are premultiplied by ``r``; the type of the input is
    preserved.
    """
    r = _check_proper_rotation(r)
    if isinstance(signal, RealSignal3):
        return RealSignal3((signal.samples + signal.mean) @ r.T, dt=signal.dt)
    if isinstance(signal, AnalyticSignal3):
        return AnalyticSignal3(signal.samples @ r.T, dt=signal.dt)
    raise TypeError(f"cannot rotate object of type {type(signal).__name__}")
