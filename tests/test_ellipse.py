import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triellipse import (
    AnalyticSignal3,
    EllipseSeries,
    RealSignal3,
    analytic_transform,
    edge_mask,
    ellipse_extract,
    ellipse_rates,
    ellipse_synthesize,
    make_smooth_path,
    normal_vector,
    rot_x,
    rot_z,
    rotate_frame,
    wrap_angle,
)
from triellipse.ellipse import _unwrap

from conftest import DEMO_ELLIPSE, circular_signal, demo_series, random_rotation

angles = st.floats(-10.0, 10.0, allow_nan=False)


def test_rot_z_zero_is_identity():
    assert np.allclose(rot_z(0.0), np.eye(3))


def test_rot_z_quarter_turn():
    assert np.allclose(rot_z(np.pi / 2) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_rot_products_against_trig():
    b, t = np.pi / 4, np.pi / 3
    r = rot_x(b) @ rot_z(t)
    ct, st_, cb, sb = np.cos(t), np.sin(t), np.cos(b), np.sin(b)
    expected = np.array(
        [[ct, -st_, 0.0], [cb * st_, cb * ct, -sb], [sb * st_, sb * ct, cb]]
    )
    assert np.abs(r - expected).max() < 1e-15


@settings(max_examples=50, deadline=None)
@given(angle=angles)
def test_rotations_are_proper(angle):
    for r in (rot_x(angle), rot_z(angle)):
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rot_vectorized_matches_scalar(rng):
    a = rng.uniform(-np.pi, np.pi, size=17)
    stacked = rot_z(a)
    assert stacked.shape == (17, 3, 3)
    for i in range(17):
        assert np.allclose(stacked[i], rot_z(a[i]))


def _stacked_rotations(angle):
    """``rot_x`` and ``rot_z`` as rows of stacked columns, the form they had before filling one array."""
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    one, zero = np.ones_like(c), np.zeros_like(c)
    stack = lambda rows: np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return (stack([[one, zero, zero], [zero, c, -s], [zero, s, c]]),
            stack([[c, -s, zero], [s, c, zero], [zero, zero, one]]))


@pytest.mark.parametrize("angle", [
    0.0, -0.0, np.pi, -np.pi / 2, 7.5, np.array(0.3),
    np.array([0.0, -0.0, np.pi, -np.pi, 1e-300, -3.0]),
    np.random.default_rng(0).uniform(-10.0, 10.0, size=(4, 5)),
], ids=["zero", "minus_zero", "pi", "minus_half_pi", "7.5", "0d", "edges", "2d"])
def test_rotations_keep_the_bytes_of_the_stacked_form(angle):
    # signed zeros included: -sin(0) is -0.0 in both forms
    for got, want in zip((rot_x(angle), rot_z(angle)), _stacked_rotations(angle)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_synthesize_demo_initial_position():
    # at phi=0 the particle sits on the rotated semi-major axis, 3 from origin
    series = demo_series(n=64, phi_rate=0.0)
    xp = ellipse_synthesize(series)
    pos = xp.samples[0].real
    expected = rot_z(DEMO_ELLIPSE["alpha"]) @ rot_x(DEMO_ELLIPSE["beta"]) @ rot_z(DEMO_ELLIPSE["theta"]) @ [3.0, 0.0, 0.0]
    assert np.abs(pos - expected).max() < 1e-12
    assert abs(np.linalg.norm(pos) - 3.0) < 1e-12


def test_synthesize_circular_case():
    n = 256
    omega = 2.0 * np.pi * 10 / n
    t = np.arange(n)
    series = EllipseSeries.from_paths(
        a=1.0, b=1.0, theta=0.0, phi=omega * t, alpha=0.0, beta=0.0
    )
    xp = ellipse_synthesize(series)
    assert np.abs(xp.samples[:, 0] - np.exp(1j * omega * t)).max() < 1e-12
    assert np.abs(xp.samples[:, 1] + 1j * np.exp(1j * omega * t)).max() < 1e-12
    assert np.abs(xp.samples[:, 2]).max() < 1e-12


def test_synthesize_linear_along_z():
    # degenerate ellipse rotated so the major axis points along z
    n = 64
    series = EllipseSeries.from_paths(
        a=2.0, b=0.0, theta=np.pi / 2, phi=0.3 * np.arange(n), alpha=0.0, beta=np.pi / 2
    )
    xp = ellipse_synthesize(series)
    assert np.abs(xp.samples[:, 0]).max() < 1e-12
    assert np.abs(xp.samples[:, 1]).max() < 1e-12
    assert np.abs(xp.samples[:, 2].real - 2.0 * np.cos(0.3 * np.arange(n))).max() < 1e-12


def test_synthesize_matches_direct_matrix_oracle(rng):
    n = 32
    series = EllipseSeries.from_paths(
        a=1.0 + rng.uniform(0, 1, n),
        b=rng.uniform(0, 1, n),
        theta=rng.uniform(-3, 3, n),
        phi=rng.uniform(-3, 3, n),
        alpha=rng.uniform(-3, 3, n),
        beta=rng.uniform(0, np.pi, n),
    )
    xp = ellipse_synthesize(series)
    for i in range(n):
        direct = (
            np.exp(1j * series.phi_unwrapped[i])
            * rot_z(series.alpha_unwrapped[i])
            @ rot_x(series.beta[i])
            @ rot_z(series.theta_unwrapped[i])
            @ np.array([series.a[i], -1j * series.b[i], 0.0])
        )
        assert np.abs(xp.samples[i] - direct).max() < 1e-13


def test_synthesize_rejects_a_less_than_b():
    with pytest.raises(ValueError):
        EllipseSeries.from_paths(a=1.0, b=2.0, theta=0.0,
                                 phi=np.zeros(16), alpha=0.0, beta=0.0)


def test_normal_circular_signal():
    xp, _ = circular_signal()
    ns = normal_vector(xp)
    assert np.abs(ns.n_hat - np.array([0.0, 0.0, 1.0])).max() < 1e-12
    assert np.abs(ns.mag - 1.0).max() < 1e-12  # a*b = 1
    assert not ns.degenerate.any()


def test_normal_demo_components():
    xp = ellipse_synthesize(demo_series(n=64))
    ns = normal_vector(xp)
    a, b = DEMO_ELLIPSE["alpha"], DEMO_ELLIPSE["beta"]
    expected = np.array([np.sin(a) * np.sin(b), -np.cos(a) * np.sin(b), np.cos(b)])
    assert np.abs(ns.n_hat - expected).max() < 1e-12
    assert np.abs(ns.mag - 6.0).max() < 1e-12


def test_normal_linear_degenerate():
    n = 64
    series = EllipseSeries.from_paths(
        a=1.0, b=0.0, theta=0.0, phi=0.3 * np.arange(n), alpha=0.0, beta=0.0
    )
    ns = normal_vector(ellipse_synthesize(series))
    assert ns.degenerate.all()
    assert np.abs(ns.mag).max() < 1e-12


def test_normal_held_through_degenerate_run():
    # elliptical -> linear -> elliptical with a fixed plane: the unit
    # normal is held constant through the degenerate middle, and a leading
    # degenerate run is backfilled from the first well-defined sample
    n = 300
    b = np.where((np.arange(n) >= 100) & (np.arange(n) < 200), 0.0, 0.5)
    series = EllipseSeries.from_paths(
        a=np.ones(n), b=b, theta=0.2, phi=0.3 * np.arange(n),
        alpha=np.pi / 6, beta=np.pi / 4,
    )
    ns = normal_vector(ellipse_synthesize(series))
    expected = np.array([
        np.sin(np.pi / 6) * np.sin(np.pi / 4),
        -np.cos(np.pi / 6) * np.sin(np.pi / 4),
        np.cos(np.pi / 4),
    ])
    assert ns.degenerate[100:200].all()
    assert not ns.degenerate[:100].any() and not ns.degenerate[200:].any()
    assert np.abs(ns.n_hat - expected).max() < 1e-12

    # leading degenerate run backfills
    b2 = np.where(np.arange(n) < 50, 0.0, 0.5)
    series2 = EllipseSeries.from_paths(
        a=np.ones(n), b=b2, theta=0.2, phi=0.3 * np.arange(n),
        alpha=np.pi / 6, beta=np.pi / 4,
    )
    ns2 = normal_vector(ellipse_synthesize(series2))
    assert ns2.degenerate[:50].all()
    assert np.abs(ns2.n_hat[:50] - expected).max() < 1e-12


def test_normal_orthogonal_to_signal(rng):
    series, _ = make_smooth_path(512, 512.0)
    xp = ellipse_synthesize(series)
    ns = normal_vector(xp)
    re_dot = np.abs(np.sum(ns.n_hat * xp.samples.real, axis=1))
    im_dot = np.abs(np.sum(ns.n_hat * xp.samples.imag, axis=1))
    scale = np.linalg.norm(xp.samples, axis=1)
    assert (re_dot / scale).max() < 1e-10
    assert (im_dot / scale).max() < 1e-10


def test_extract_demo_roundtrip():
    n = 1024
    series = demo_series(n=n)
    ext = ellipse_extract(ellipse_synthesize(series))
    i = ~edge_mask(n)
    e = ext.ellipse
    assert np.abs(e.kappa[i] - np.sqrt(6.5)).max() < 1e-8
    assert np.abs(e.lam[i] - 5.0 / 13.0).max() < 1e-8
    assert np.abs(e.theta_unwrapped[i] - DEMO_ELLIPSE["theta"]).max() < 1e-6
    assert np.abs(e.alpha[i] - DEMO_ELLIPSE["alpha"]).max() < 1e-6
    assert np.abs(e.beta[i] - DEMO_ELLIPSE["beta"]).max() < 1e-6
    assert np.abs(e.phi_unwrapped[i] - series.phi_unwrapped[i]).max() < 1e-6
    assert not e.degenerate.any() and not e.circular.any()


def test_extract_circular_flags_orientation():
    xp, omega = circular_signal()
    ext = ellipse_extract(xp)
    e = ext.ellipse
    assert np.abs(e.kappa - 1.0).max() < 1e-10
    assert np.abs(e.lam).max() < 1e-6
    assert np.abs(e.beta).max() < 1e-6
    assert e.circular.all()
    # the counterclockwise rotary phase still progresses at the carrier
    ph = np.unwrap(np.angle(ext.planar.z_tilde[:, 0]))
    assert np.abs(np.diff(ph) - omega).max() < 1e-8


def test_extract_smooth_roundtrip():
    series, _ = make_smooth_path(2048, 2048.0)
    ext = ellipse_extract(ellipse_synthesize(series))
    e = ext.ellipse
    i = ~edge_mask(2048)
    assert np.abs(e.kappa[i] - series.kappa[i]).max() < 1e-8
    assert np.abs(e.lam[i] - series.lam[i]).max() < 1e-8
    for got, want in (
        (e.theta_unwrapped, series.theta_unwrapped),
        (e.phi_unwrapped, series.phi_unwrapped),
        (e.alpha_unwrapped, series.alpha_unwrapped),
        (e.beta, series.beta),
    ):
        assert np.abs(got[i] - want[i]).max() < 1e-6


def test_rates_constant_geometry():
    n = 512
    omega = 0.21
    series = EllipseSeries.from_paths(
        a=3.0, b=2.0, theta=0.4, phi=omega * np.arange(n), alpha=0.2, beta=0.9
    )
    rates = ellipse_rates(ellipse_extract(ellipse_synthesize(series)).ellipse)
    i = ~edge_mask(n)
    assert np.abs(rates.omega_phi[i] - omega).max() < 1e-8
    for r in (rates.dkappa_rel, rates.dlambda, rates.omega_theta,
              rates.omega_alpha, rates.omega_beta):
        assert np.abs(r[i]).max() < 1e-8


def test_rates_linear_precession():
    n = 512
    w_t = 3e-3
    series = EllipseSeries.from_paths(
        a=3.0, b=2.0, theta=w_t * np.arange(n), phi=0.3 * np.arange(n),
        alpha=0.2, beta=0.9,
    )
    rates = ellipse_rates(ellipse_extract(ellipse_synthesize(series)).ellipse)
    i = ~edge_mask(n)
    assert np.abs(rates.omega_theta[i] - w_t).max() < 1e-6


def test_rates_exponential_amplitude():
    n = 512
    c = 1.5e-3
    growth = np.exp(c * np.arange(n))
    series = EllipseSeries.from_paths(
        a=3.0 * growth, b=2.0 * growth, theta=0.4, phi=0.3 * np.arange(n),
        alpha=0.2, beta=0.9,
    )
    rates = ellipse_rates(ellipse_extract(ellipse_synthesize(series)).ellipse)
    i = ~edge_mask(n)
    assert np.abs(rates.dkappa_rel[i] - c).max() < 1e-6


def test_rotate_identity():
    xp = ellipse_synthesize(demo_series(n=64))
    out = rotate_frame(xp, np.eye(3))
    assert np.abs(out.samples - xp.samples).max() == 0.0


def test_rotate_bearing_combination(rng):
    b = np.deg2rad(12.3)
    sig = RealSignal3(rng.normal(size=(64, 3)))
    out = rotate_frame(sig, rot_z(-b))
    expected = np.cos(b) * sig.samples[:, 0] + np.sin(b) * sig.samples[:, 1]
    assert np.abs(out.samples[:, 0] - expected).max() < 1e-12


def test_rotate_rejects_improper():
    xp = ellipse_synthesize(demo_series(n=64))
    with pytest.raises(ValueError):
        rotate_frame(xp, -np.eye(3))  # det = -1
    with pytest.raises(ValueError):
        rotate_frame(xp, np.diag([2.0, 1.0, 0.5]))


def test_rotation_invariance_of_scalars(rng):
    series, _ = make_smooth_path(512, 512.0)
    xp = ellipse_synthesize(series)
    ext = ellipse_extract(xp)
    for _ in range(10):
        r = random_rotation(rng)
        ext_r = ellipse_extract(rotate_frame(xp, r))
        assert np.abs(ext_r.ellipse.kappa - ext.ellipse.kappa).max() < 1e-10
        assert np.abs(ext_r.ellipse.lam - ext.ellipse.lam).max() < 1e-10
        assert np.abs(ext_r.normal.mag - ext.normal.mag).max() < 1e-10
        assert np.abs(ext_r.normal.n_hat - ext.normal.n_hat @ r.T).max() < 1e-10


def test_cross_product_equivariance(rng):
    f = rng.normal(size=(32, 3))
    g = rng.normal(size=(32, 3))
    r = random_rotation(rng)
    lhs = np.cross(f @ r.T, g @ r.T)
    rhs = np.cross(f, g) @ r.T
    assert np.abs(lhs - rhs).max() < 1e-12


def test_planar_isometry():
    series, _ = make_smooth_path(512, 512.0)
    xp = ellipse_synthesize(series)
    ext = ellipse_extract(xp)
    norm3 = np.linalg.norm(xp.samples, axis=1)
    norm2 = np.linalg.norm(ext.planar.x_tilde, axis=1)
    normz = np.linalg.norm(ext.planar.z_tilde, axis=1)
    assert np.abs(norm2 - norm3).max() < 1e-12 * norm3.max()
    assert np.abs(normz - norm2).max() < 1e-12 * norm3.max()


def test_hilbert_geometry_shifts_phase():
    series, _ = make_smooth_path(512, 512.0)
    xp = ellipse_synthesize(series)
    e1 = ellipse_extract(xp).ellipse
    e2 = ellipse_extract(AnalyticSignal3(-1j * xp.samples)).ellipse
    assert np.abs((e1.phi_unwrapped - e2.phi_unwrapped) - np.pi / 2).max() < 1e-10
    assert np.abs(e1.theta_unwrapped - e2.theta_unwrapped).max() < 1e-10
    assert np.abs(e1.kappa - e2.kappa).max() < 1e-12
    assert np.abs(e1.lam - e2.lam).max() < 1e-12
    assert np.abs(e1.beta - e2.beta).max() < 1e-12


def test_extract_zero_signal_rejected():
    with pytest.raises(ValueError):
        ellipse_extract(AnalyticSignal3(np.zeros((64, 3), dtype=complex)))


@settings(max_examples=50, deadline=None)
@given(angle=angles)
def test_wrap_angle_principal_interval(angle):
    w = wrap_angle(angle)
    assert -np.pi < w <= np.pi
    assert abs(np.exp(1j * w) - np.exp(1j * angle)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_extraction_invariants_random_paths(seed):
    rng = np.random.default_rng(seed)
    n = 128
    t = np.arange(n)
    series = EllipseSeries.from_paths(
        a=1.0 + 0.1 * np.sin(0.01 * t + rng.uniform(0, 6)),
        b=0.5 + 0.1 * np.cos(0.008 * t + rng.uniform(0, 6)),
        theta=0.3 * np.sin(0.01 * t),
        phi=rng.uniform(0.2, 0.5) * t,
        alpha=0.4 * np.sin(0.007 * t),
        beta=np.pi / 3 + 0.2 * np.sin(0.009 * t),
    )
    e = ellipse_extract(ellipse_synthesize(series)).ellipse
    assert np.all(e.lam >= 0.0) and np.all(e.lam <= 1.0)
    assert np.all(e.a >= e.b) and np.all(e.b >= 0.0)
    assert np.all(e.beta >= 0.0) and np.all(e.beta <= np.pi)
    assert np.all(np.abs(e.kappa**2 - (e.a**2 + e.b**2) / 2.0) < 1e-10 * e.kappa.max() ** 2)


def test_unwrap_in_overlapping_windows_has_the_bits_of_np_unwrap(rng):
    track = wrap_angle(np.cumsum(rng.normal(0.0, 2.0, 500)))
    track[0] = -0.0  # numpy leaves the first sample as it is
    track[29:32] = 0.0, np.pi, 0.0  # steps of exactly +pi and -pi
    want = np.unwrap(track)
    # windows reach 3 samples past the next one's start, as the chain's halo does
    starts = [0, 7, 64, 65, 200, 497, 500]
    state, pieces = None, []
    for lo, nxt in zip(starts, starts[1:]):
        piece, state = _unwrap(track[lo:min(nxt + 3, 500)], state, nxt - lo)
        pieces.append(piece[: nxt - lo])
    assert np.concatenate(pieces).tobytes() == want.tobytes()
