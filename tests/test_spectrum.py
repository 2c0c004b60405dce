import numpy as np
import pytest
import scipy.signal

from triellipse import (
    RealSignal3,
    multitaper_joint_spectrum,
    rotate_frame,
    slepian_tapers,
)

from conftest import random_rotation


def test_tapers_orthonormal_and_concentrated():
    ts = slepian_tapers(800, 2.0, 3)
    gram = ts.tapers @ ts.tapers.T
    assert np.abs(gram - np.eye(3)).max() < 1e-10
    assert (ts.concentrations > 0.9).all()
    assert (np.diff(ts.concentrations) < 0).all()


@pytest.mark.parametrize("n, p, k", [(800, 2.0, 3), (512, 2.5, 4), (999, 3.0, 5)])
def test_concentrations_match_scipy_ratios(n, p, k):
    ts = slepian_tapers(n, p, k)
    _, ratios = scipy.signal.windows.dpss(n, p, k, return_ratios=True)
    assert np.abs(ts.concentrations - ratios).max() < 1e-12
    assert (ts.concentrations > 0.9).all()
    assert (np.diff(ts.concentrations) < 0).all()


def test_taper_sign_change_counts():
    ts = slepian_tapers(800, 2.0, 3)
    for k, taper in enumerate(ts.tapers):
        body = taper[np.abs(taper) > 1e-8 * np.abs(taper).max()]
        changes = int((np.diff(np.sign(body)) != 0).sum())
        assert changes == k


def test_tapers_match_scipy_oracle():
    ts = slepian_tapers(512, 2.5, 4)
    ref = scipy.signal.windows.dpss(512, 2.5, 4)
    for ours, theirs in zip(ts.tapers, ref):
        if theirs[np.flatnonzero(theirs)[0]] < 0:
            theirs = -theirs
        assert np.abs(ours - theirs).max() < 1e-10


def test_taper_argument_validation():
    with pytest.raises(ValueError):
        slepian_tapers(800, 2.0, 4)  # K > 2P-1
    with pytest.raises(ValueError):
        slepian_tapers(32, 2.0, 3)  # too short


def test_exact_bin_cosine_peak_location(rng):
    n, k = 800, 40
    x = np.zeros((n, 3))
    x[:, 0] = np.cos(2.0 * np.pi * k * np.arange(n) / n)
    ts = slepian_tapers(n, 2.0, 3)
    est = multitaper_joint_spectrum(RealSignal3(x), ts)
    omega0 = 2.0 * np.pi * k / n
    bw = 2.0 * np.pi * 2.0 / n
    assert abs(est.freqs[np.argmax(est.values)] - omega0) < bw
    assert abs(est.moments.mean_freq - omega0) < bw


def test_normalization_various_inputs(rng):
    ts = slepian_tapers(256, 2.0, 3)
    for make in (
        lambda: rng.normal(size=(256, 3)),
        lambda: np.cos(0.3 * np.arange(256))[:, None] * np.ones(3),
    ):
        est = multitaper_joint_spectrum(RealSignal3(make()), ts)
        norm = np.trapezoid(est.values, est.freqs) / (2 * np.pi)
        assert abs(norm - 1.0) < 1e-10
        assert est.values.min() >= 0.0


def test_white_noise_roughly_flat(rng):
    n = 2048
    x = RealSignal3(rng.normal(size=(n, 3)))
    ts = slepian_tapers(n, 2.0, 3)
    est = multitaper_joint_spectrum(x, ts, pad_factor=2)
    # band-average into 16 coarse bins, clear of the zero/Nyquist ends
    sel = (est.freqs > 0.1) & (est.freqs < np.pi - 0.1)
    vals = est.values[sel]
    chunks = np.array_split(vals, 16)
    band = np.array([c.mean() for c in chunks])
    assert band.max() / band.min() < 10.0


def test_estimator_rotation_invariant(rng):
    x = RealSignal3(rng.normal(size=(256, 3)))
    ts = slepian_tapers(256, 2.0, 3)
    est = multitaper_joint_spectrum(x, ts)
    r = random_rotation(rng)
    est_r = multitaper_joint_spectrum(rotate_frame(x, r), ts)
    assert np.abs(est.values - est_r.values).max() < 1e-10 * est.values.max()


def test_taper_length_mismatch_rejected(rng):
    ts = slepian_tapers(256, 2.0, 3)
    with pytest.raises(ValueError):
        multitaper_joint_spectrum(RealSignal3(rng.normal(size=(300, 3))), ts)


def test_zero_energy_rejected():
    ts = slepian_tapers(256, 2.0, 3)
    with pytest.raises(ValueError):
        multitaper_joint_spectrum(RealSignal3(np.zeros((256, 3))), ts)


def test_pad_factor_below_one_rejected(rng):
    ts = slepian_tapers(256, 2.0, 3)
    x = RealSignal3(rng.normal(size=(256, 3)))
    for pad in (0, -2):
        with pytest.raises(ValueError, match="pad_factor"):
            multitaper_joint_spectrum(x, ts, pad_factor=pad)


@pytest.mark.parametrize("n, pad", [(256, 8), (257, 3)])
def test_multitaper_matches_full_fft_reference(rng, n, pad):
    x = RealSignal3(rng.normal(size=(n, 3)) + np.cos(0.2 * np.arange(n))[:, None])
    ts = slepian_tapers(n, 2.0, 3)
    est = multitaper_joint_spectrum(x, ts, pad_factor=pad)

    # the two-sided eigenspectra of every taper and component at once
    m = pad * n
    spec = np.fft.fft(ts.tapers[:, :, None] * x.samples[None, :, :], n=m, axis=1)
    raw = np.mean(np.sum(np.abs(spec) ** 2, axis=2), axis=0)
    half = raw[: m // 2 + 1].copy()
    if m % 2 == 0:
        half[1:-1] *= 2.0
    else:
        half[1:] *= 2.0
    freqs = 2.0 * np.pi * np.arange(half.size) / (m * x.dt)
    ref = half / (np.trapezoid(half, freqs) / (2.0 * np.pi))

    assert np.array_equal(est.freqs, freqs)
    assert np.abs(est.values - ref).max() < 1e-12 * ref.max()


def test_fft_work_is_pinned(rng, monkeypatch):
    # one rfft/irfft pair of length 2n for all concentrations, then one
    # one-sided rfft of length pad*n per taper over the three components
    points = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            points.append(out.size)
            return out

        monkeypatch.setattr(np.fft, name, counted)
    n, k, pad = 1000, 3, 8
    ts = slepian_tapers(n, 2.0, k)
    multitaper_joint_spectrum(RealSignal3(rng.normal(size=(n, 3))), ts, pad_factor=pad)
    assert sum(points) == k * (n + 1) + k * 2 * n + k * 3 * (pad * n // 2 + 1)
