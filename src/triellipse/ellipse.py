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

from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .analytic import AnalyticSignal3, RealSignal3, finite_diff

__all__ = [
    "EllipseSeries",
    "EllipseRates",
    "NormalSeries",
    "PlanarProjection",
    "ExtractionResult",
    "Carry",
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


def _rotation(angle, i: int, j: int) -> np.ndarray:
    """Proper rotation by ``angle`` taking axis ``i`` toward axis ``j``, filled into one array."""
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    rot = np.zeros(a.shape + (3, 3))
    k = 3 - i - j  # the axis held fixed
    rot[..., k, k] = 1.0
    rot[..., i, i] = rot[..., j, j] = c
    rot[..., i, j] = -s
    rot[..., j, i] = s
    return rot


def rot_x(angle) -> np.ndarray:
    """Proper rotation about the x axis; accepts scalars or arrays.

    For array input of shape ``s`` the result has shape ``s + (3, 3)``.
    """
    return _rotation(angle, 1, 2)


def rot_z(angle) -> np.ndarray:
    """Proper rotation about the z axis; accepts scalars or arrays."""
    return _rotation(angle, 0, 1)


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


_VERTICAL = np.array([0.0, 0.0, 1.0])


def _hold_last(vectors: np.ndarray, valid: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Replace invalid rows by the most recent valid row, or by ``held`` before the first."""
    idx = np.where(valid, np.arange(1, len(valid) + 1), 0)
    np.maximum.accumulate(idx, out=idx)
    return np.concatenate([held[None, :], vectors])[idx]


def _unwrap(angles: np.ndarray, start: tuple | None, advance: int) -> tuple[np.ndarray, tuple]:
    """``np.unwrap(angles)``, continued from ``start``, and the state ``advance`` samples on.

    A state is ``(last, total)``: the wrapped angle at a sample and
    numpy's running correction sum there; ``start`` is ``None`` at a
    track's first sample.  The arithmetic is numpy's and its ``cumsum``
    adds in sequence, so a track unwrapped in consecutive pieces, each
    continued from the state its predecessor left, has the bits of the
    whole track unwrapped at once.
    """
    last, total = (angles[0], 0.0) if start is None else start
    dd = np.diff(angles, prepend=last)
    ddmod = np.mod(dd + np.pi, 2.0 * np.pi) - np.pi
    np.copyto(ddmod, np.pi, where=(ddmod == -np.pi) & (dd > 0))
    correction = ddmod - dd
    np.copyto(correction, 0.0, where=np.abs(dd) < np.pi)
    correction[0] += total
    np.cumsum(correction, out=correction)
    unwrapped = angles + correction
    if start is None:
        unwrapped[0] = angles[0]  # as numpy leaves it: -0.0 + 0.0 would be +0.0
    return unwrapped, (angles[advance - 1], correction[advance - 1])


def _unit_normals(xp: AnalyticSignal3, eps_lin: float):
    """Per sample: the unit normal (0 where the normal is 0), its magnitude, and the degenerate and valid flags."""
    re, im = xp.samples.real, xp.samples.imag
    n = np.cross(im, re)
    mag = np.linalg.norm(n, axis=1)
    kappa2 = xp.power / 2.0
    degenerate = mag < eps_lin * kappa2
    with np.errstate(invalid="ignore", divide="ignore"):
        n_hat = np.where((mag > 0)[:, None], n / np.where(mag > 0, mag, 1.0)[:, None], 0.0)
    return n_hat, mag, degenerate, ~degenerate & (mag > 0)


@dataclass
class Carry:
    """What :func:`ellipse_extract` carries between windows of a record.

    :func:`triellipse.pipeline.decompose_analytic` runs it on
    overlapping windows of a long record, in order, with one carry.  Each
    call reads the state its window starts from and leaves the state the
    next window starts from, after the first ``advance`` rows.  ``peak`` is the
    record's peak power; ``held`` the unit normal that degenerate samples
    take until a valid one appears in the window (at first the record's
    first valid normal, or vertical); ``shift`` is theta's branch, chosen
    at t = 0; ``phases`` holds the unwrap state of each angle track
    (:func:`_unwrap`), empty at the record's start.  A call given no
    carry treats its input as a whole record.
    """

    advance: int
    peak: float = 0.0
    held: np.ndarray | None = None
    shift: float | None = None
    phases: dict = field(default_factory=dict)

    @classmethod
    def start(cls, windows, peak: float, eps_lin: float = EPS_LIN_DEFAULT) -> Carry:
        """The carry at the first row of a record, given its ``peak`` power.

        ``windows`` are the record's consecutive windows; they are searched
        for the first valid normal, which :func:`normal_vector` holds a
        leading run of degenerate samples at, and not past it.
        """
        held = _VERTICAL
        for xp in windows:
            n_hat, _, _, valid = _unit_normals(xp, eps_lin)
            if valid.any():
                held = n_hat[np.argmax(valid)].copy()
                break
        return cls(advance=0, peak=peak, held=held)

    def unwrap(self, name: str, angles: np.ndarray) -> np.ndarray:
        """``np.unwrap`` of the ``name`` track, continued from the previous window."""
        unwrapped, self.phases[name] = _unwrap(angles, self.phases.get(name), self.advance)
        return unwrapped


def normal_vector(
    xp: AnalyticSignal3, eps_lin: float = EPS_LIN_DEFAULT, held: np.ndarray | None = None
) -> NormalSeries:
    """Normal vector to the plane of the signal and its quadrature part.

    Samples where ``||n|| < eps_lin * kappa^2`` (nearly linear motion, the
    plane is meaningless) are flagged degenerate; their unit normal is
    held at the last well-defined value rather than interpolated.  A
    leading run of them takes ``held``: by default the first
    well-defined value, or the vertical unit vector if there is none.
    """
    n_hat, mag, degenerate, valid = _unit_normals(xp, eps_lin)
    if held is None:
        held = n_hat[np.argmax(valid)] if valid.any() else _VERTICAL
    return NormalSeries(n_hat=_hold_last(n_hat, valid, held), mag=mag, degenerate=degenerate)


def ellipse_extract(
    xp: AnalyticSignal3,
    eps_lin: float = EPS_LIN_DEFAULT,
    eps_circ: float = EPS_CIRC_DEFAULT,
    carry: Carry | None = None,
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

    ``carry`` continues the held normal, the unwrapped tracks and theta's
    branch from the previous window of a record, and gives the record's
    peak power (see :class:`Carry`).
    """
    if carry is None:
        carry = Carry(advance=xp.n_samples, peak=float(xp.power.max(initial=0.0)))
    if carry.peak == 0.0:
        raise ValueError("cannot extract ellipse parameters from a zero signal")
    normals = normal_vector(xp, eps_lin=eps_lin, held=carry.held)
    carry.held = normals.n_hat[carry.advance - 1].copy()
    power = xp.power
    dead = power < 1e-300 * carry.peak

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
    phi_plus = carry.unwrap("plus", np.angle(z_plus))
    phi_minus = carry.unwrap("minus", np.angle(z_minus))
    phi_u = 0.5 * (phi_plus + phi_minus)
    theta_u = 0.5 * (phi_plus - phi_minus)

    # branch choice at t=0: theta in (-pi/2, pi/2] when possible
    if carry.shift is None:
        carry.shift = np.pi * np.floor((theta_u[0] + np.pi / 2.0 - 1e-12) / np.pi)
    theta_u = theta_u - carry.shift
    phi_u = phi_u + carry.shift

    circular = (lam < eps_circ) | dead
    degenerate = normals.degenerate | dead

    series = EllipseSeries(
        a=a, b=b, kappa=kappa, lam=lam,
        theta=wrap_angle(theta_u), phi=wrap_angle(phi_u),
        alpha=wrap_angle(alpha), beta=beta,
        theta_unwrapped=theta_u, phi_unwrapped=phi_u,
        alpha_unwrapped=carry.unwrap("alpha", alpha),
        degenerate=degenerate, circular=circular, dt=xp.dt,
    )
    planar = PlanarProjection(
        x_tilde=x_tilde, z_tilde=np.stack([z_plus, z_minus], axis=1)
    )
    return ExtractionResult(series, normals, planar)


def ellipse_rates(series: EllipseSeries) -> EllipseRates:
    """Finite-difference rates of change of the ellipse parameters.

    Central differences on ``log kappa``, ``lambda``, ``beta`` and the
    unwrapped angle tracks (fourth-order interior, one-sided at the record
    ends), with the series' own ``dt``.  ``beta`` needs no unwrapping: it
    lies in [0, pi] (or, from :meth:`EllipseSeries.from_paths`, is taken
    as a continuous track), so no step exceeds pi.
    """
    dt = series.dt
    kappa_floor = np.clip(series.kappa, 1e-300, None)
    return EllipseRates(
        dkappa_rel=finite_diff(np.log(kappa_floor), dt),
        dlambda=finite_diff(series.lam, dt),
        omega_phi=finite_diff(series.phi_unwrapped, dt),
        omega_theta=finite_diff(series.theta_unwrapped, dt),
        omega_alpha=finite_diff(series.alpha_unwrapped, dt),
        omega_beta=finite_diff(series.beta, dt),
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
