import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from triellipse import (
    AnalyticSignal3,
    RealSignal3,
    analytic_transform,
    differentiate,
    edge_mask,
    hilbert_check,
    make_random_modulated,
)

from conftest import circular_signal


def test_exact_bin_cosine_is_exact_exponential():
    n, k = 256, 16
    t = np.arange(n)
    x = np.zeros((n, 3))
    x[:, 0] = np.cos(2.0 * np.pi * k * t / n)
    xp = analytic_transform(RealSignal3(x))
    expected = np.exp(2j * np.pi * k * t / n)
    assert np.abs(xp.samples[:, 0] - expected).max() < 1e-12
    assert np.abs(xp.samples[:, 1:]).max() < 1e-12


def test_zero_series_gives_zero_analytic():
    xp = analytic_transform(RealSignal3(np.zeros((64, 3))))
    assert np.abs(xp.samples).max() == 0.0


def test_gaussian_noise_negative_bins_vanish(rng):
    x = RealSignal3(rng.normal(size=(1024, 3)))
    xp = analytic_transform(x)
    spec = np.fft.fft(xp.samples, axis=0)
    neg = spec[1024 // 2 + 1:]
    assert np.abs(neg).max() < 1e-10 * np.abs(spec).max()
    assert np.abs(spec[0]).max() < 1e-10 * np.abs(spec).max()
    assert np.abs(xp.samples.real - x.samples).max() < 1e-12 * np.abs(x.samples).max()


def test_matches_scipy_hilbert(rng):
    x = RealSignal3(rng.normal(size=(501, 3)))
    xp = analytic_transform(x)
    ref = scipy.signal.hilbert(x.samples, axis=0)
    assert np.abs(xp.samples - ref).max() < 1e-12


def test_demeaning_retains_means(rng):
    raw = rng.normal(size=(128, 3)) + np.array([5.0, -2.0, 0.5])
    sig = RealSignal3(raw)
    assert np.abs(sig.samples.mean(axis=0)).max() < 1e-12
    assert np.allclose(sig.mean, raw.mean(axis=0))


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((7, 3)),                      # too short
        np.zeros((16, 2)),                     # wrong width
        np.full((16, 3), np.nan),              # non-finite
    ],
)
def test_real_signal_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        RealSignal3(bad)


def test_real_signal_rejects_bad_dt():
    # an analytic signal's too; an infinite dt once gave analyze_signal time
    # moments of nan
    for cls in (RealSignal3, AnalyticSignal3):
        for dt in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^dt must be finite and positive"):
                cls(np.zeros((16, 3)), dt=dt)


def test_hilbert_check_exact_bin():
    xp, _ = circular_signal()
    assert hilbert_check(xp) < 1e-12


@pytest.mark.parametrize("n", [1024, 1023])
def test_hilbert_check_transform_outputs(n, rng):
    xp = analytic_transform(RealSignal3(rng.normal(size=(n, 3))))
    assert hilbert_check(xp) < 1e-10


def test_hilbert_check_zero_signal():
    xp = AnalyticSignal3(np.zeros((64, 3), dtype=complex))
    assert hilbert_check(xp) == 0.0


def test_differentiate_exponential_spectral_exact_bin():
    n = 256
    omega = 2.0 * np.pi * 16 / n
    t = np.arange(n)
    samples = np.exp(1j * omega * t)[:, None] * np.ones(3)
    d = differentiate(AnalyticSignal3(samples), "spectral")
    expected = 1j * omega * samples
    assert np.abs(d - expected).max() < 1e-12 * omega


def test_differentiate_exponential_central4_interior():
    # central4 truncation is ~omega^4/30 relative, so the 1e-8 contract
    # needs a slow carrier
    n = 512
    omega = 2.0 * np.pi * 1 / n
    t = np.arange(n)
    samples = np.exp(1j * omega * t)[:, None] * np.ones(3)
    d = differentiate(AnalyticSignal3(samples), "central4")
    expected = 1j * omega * samples
    rel = np.abs(d[8:-8] - expected[8:-8]) / np.abs(expected[8:-8])
    assert rel.max() < 1e-8


def test_differentiate_central4_truncation_scaling():
    # at a fast carrier the error sits at the documented omega^4/30 level
    n = 256
    omega = 2.0 * np.pi * 16 / n
    samples = np.exp(1j * omega * np.arange(n))[:, None] * np.ones(3)
    d = differentiate(AnalyticSignal3(samples), "central4")
    rel = np.abs(d[8:-8] / (1j * omega * samples[8:-8]) - 1.0).max()
    assert 0.5 * omega**4 / 30 < rel < 2.0 * omega**4 / 30


def test_differentiate_linear_ramp_constant():
    n = 64
    samples = np.zeros((n, 3), dtype=complex)
    samples[:, 0] = 0.5 * np.arange(n)
    d = differentiate(AnalyticSignal3(samples), "central4")
    # one-sided and central stencils are all exact on a linear ramp
    assert np.abs(d[:, 0] - 0.5).max() < 1e-12


def test_central4_converges_against_spectral_oracle():
    # fixed band-limited periodic signal sampled increasingly finely; the
    # spectral derivative is exact there, central4 should gain >= 3.5x
    # accuracy per doubling
    def signal(n):
        t = np.arange(n) / n
        rng = np.random.default_rng(11)
        out = np.zeros((n, 3), dtype=complex)
        for k in range(1, 9):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            out += c * np.exp(2j * np.pi * k * t[:, None])
        return out

    errs = []
    for n in (256, 512, 1024):
        xp = AnalyticSignal3(signal(n), dt=1.0 / n)
        d4 = differentiate(xp, "central4")
        ds = differentiate(xp, "spectral")
        sl = slice(n // 8, -n // 8)
        errs.append(np.abs(d4[sl] - ds[sl]).max())
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_differentiate_unknown_scheme():
    xp, _ = circular_signal()
    with pytest.raises(ValueError):
        differentiate(xp, "upwind")


def test_idempotence_of_analyticity(rng):
    xp = analytic_transform(RealSignal3(rng.normal(size=(512, 3))))
    again = analytic_transform(RealSignal3(xp.samples.real))
    scale = np.abs(xp.samples).max()
    assert np.abs(again.samples - xp.samples).max() < 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, 3))
    y = rng.normal(size=(64, 3))
    lhs = analytic_transform(RealSignal3(a * x + b * y)).samples
    rhs = (
        a * analytic_transform(RealSignal3(x)).samples
        + b * analytic_transform(RealSignal3(y)).samples
    )
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


def test_energy_doubling_without_dc_nyquist(rng):
    # random signal synthesized on interior bins only
    n = 512
    spec = np.zeros((n, 3), dtype=complex)
    half = rng.normal(size=(n // 2 - 1, 3)) + 1j * rng.normal(size=(n // 2 - 1, 3))
    spec[1:n // 2] = half
    spec[n // 2 + 1:] = np.conj(half[::-1])
    x = RealSignal3(np.fft.ifft(spec, axis=0).real)
    xp = analytic_transform(x)
    e_analytic = np.sum(np.abs(xp.samples) ** 2)
    e_real = np.sum(x.samples**2)
    assert abs(e_analytic - 2.0 * e_real) < 1e-10 * e_analytic


def test_edge_mask_policy():
    m = edge_mask(800)
    assert m[:40].all() and m[-40:].all()
    assert not m[40:-40].any()
    small = edge_mask(100)  # max(8, 5) = 8
    assert small[:8].all() and not small[8:-8].any()


def test_power_is_computed_once_and_windows_share_it(rng):
    xp = analytic_transform(RealSignal3(rng.normal(size=(100, 3))))
    power = xp.power
    assert xp.power is power and not power.flags.writeable
    assert power.tobytes() == np.sum(np.abs(xp.samples) ** 2, axis=1).tobytes()
    window = xp.rows(30, 70)
    assert window.power.base is power and np.shares_memory(window.samples, xp.samples)
    np.testing.assert_array_equal(window.samples, xp.samples[30:70])
    assert window.dt == xp.dt and window.n_samples == 40


def test_analytic_transform_peaks_below_three_times_its_result():
    # both FFTs run in place and AnalyticSignal3 keeps their array, so beside
    # the result only the weights (n doubles) and numpy's copy of one strided
    # column are traced; pocketfft's own scratch is not allocated through
    # Python, so tracemalloc does not see it (the next test pins its size)
    n = 100_000
    x = RealSignal3(make_random_modulated(n, 0).samples.real)
    tracemalloc.start()
    try:
        xp = analytic_transform(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= xp.samples.nbytes + 2 * n * 8
    assert not xp.samples.flags.writeable  # kept without a copy, sealed like a copy


def test_transforms_take_one_column_at_a_time(rng, monkeypatch):
    # a 2-D FFT along axis 0 allocates scratch for several columns inside
    # pocketfft, unseen by tracemalloc: the analytic transform at 1e5 samples
    # raised the resident high-water mark by 12.5 MB that way, 9.5 MB now
    ndims = []
    for name in ("fft", "ifft"):
        def recorded(a, *args, _fn=getattr(np.fft, name), **kwargs):
            ndims.append(np.ndim(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    xp = analytic_transform(RealSignal3(rng.normal(size=(1000, 3))))
    differentiate(xp, "spectral")
    assert ndims == [1] * 12  # a forward and an inverse FFT per component, twice


def test_analytic_transform_checks_the_array_it_keeps():
    x = np.zeros((64, 3))
    x[::2], x[1::2] = 1e308, -1e308  # the transform overflows
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite values"):
        analytic_transform(RealSignal3(x))
