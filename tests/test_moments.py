import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from triellipse import (
    AnalyticSignal3,
    MODES,
    RealSignal3,
    SynthSpec,
    analytic_transform,
    cross_checks,
    decompose_analytic,
    edge_mask,
    ellipse_synthesize,
    EllipseSeries,
    global_moments_spectral,
    global_moments_time,
    instantaneous_moments,
    joint_analytic_spectrum,
    make_random_modulated,
    make_reference_signal,
    make_smooth_path,
    multitaper_joint_spectrum,
    multitaper_moments,
    slepian_tapers,
)
from triellipse.moments import _fft_length, _padded_moments
from triellipse.spectrum import _tapered

from conftest import circular_signal, demo_series, multitaper_grid_length


def test_omega_constant_for_fixed_ellipse():
    # slow orbital rate keeps the central4 truncation (rate^4/30 relative)
    # below the 1e-8 contract
    rate = 0.02
    xp = ellipse_synthesize(demo_series(n=1024, phi_rate=rate))
    omega = instantaneous_moments(xp).omega
    i = ~edge_mask(1024)
    assert np.abs(omega[i] - rate).max() < 1e-8 * rate


def test_sigma2_zero_at_true_mean():
    # exact-bin periodic signal: the spectral derivative is exact there
    xp, omega0 = circular_signal(n=256, k=16)
    s2 = instantaneous_moments(xp, scheme="spectral", mean_freq=omega0).sigma2
    assert np.abs(s2).max() < 1e-10


def test_sigma2_is_delta_squared_for_shifted_mean():
    xp, omega0 = circular_signal(n=256, k=16)
    delta = 0.05
    s2 = instantaneous_moments(xp, scheme="spectral", mean_freq=omega0 + delta).sigma2
    assert np.abs(s2 - delta**2).max() < 1e-10


def test_bandwidth_zero_for_constant_geometry():
    xp = ellipse_synthesize(demo_series(n=512))
    u2 = instantaneous_moments(xp).upsilon2
    i = ~edge_mask(512)
    assert np.abs(u2[i]).max() < 1e-10


def test_bandwidth_forms_agree():
    for seed in range(5):
        xp = make_random_modulated(1024, seed)
        chain = decompose_analytic(xp)
        diff = np.abs(chain.moments.upsilon2 - cross_checks(chain).upsilon2_alt)
        assert diff.max() < 1e-10


def test_second_moment_identity_pointwise():
    # sigma2 - (omega - wbar)^2 == upsilon2 with shared scheme and wbar
    xp = make_random_modulated(1024, 42)
    m = instantaneous_moments(xp)
    lhs = m.sigma2 - (m.omega - m.mean_freq) ** 2
    assert np.abs(lhs - m.upsilon2).max() < 1e-10


def test_sigma2_nonnegative_everywhere():
    for seed in range(5):
        m = instantaneous_moments(make_random_modulated(1024, seed))
        assert m.sigma2.min() >= 0.0
        assert m.upsilon2.min() >= 0.0


def test_zero_signal_rejected():
    xp = AnalyticSignal3(np.zeros((64, 3), dtype=complex))
    with pytest.raises(ValueError):
        instantaneous_moments(xp, mean_freq=0.0)
    with pytest.raises(ValueError):
        instantaneous_moments(xp)
    with pytest.raises(ValueError):
        joint_analytic_spectrum(xp)
    with pytest.raises(ValueError, match="zero signal"):
        global_moments_spectral(xp)


def test_decomposition_zero_for_constant_geometry():
    xp = ellipse_synthesize(demo_series(n=512, phi_rate=0.02))
    m, _, _, d = decompose_analytic(xp, mean_freq=0.02)
    i = ~edge_mask(512)
    for term in (d.term_amplitude, d.term_deformation, d.term_precession, d.term_normal):
        assert np.abs(term[i]).max() < 1e-10


def test_decomposition_reconstructs_bandwidth():
    series, _ = make_smooth_path(2048, 2048.0)
    xp = ellipse_synthesize(series)
    chain = decompose_analytic(xp, mean_freq=0.025)
    m, total = chain.moments, cross_checks(chain).total
    i = ~edge_mask(2048)
    resid = np.abs(total[i] - m.upsilon2[i]).max() / m.upsilon2[i].max()
    assert resid < 1e-4


def test_bounds_hold_on_random_signals():
    for seed in range(5):
        xp = make_random_modulated(1024, seed)
        chain = decompose_analytic(xp)
        d, c = chain.decomposition, cross_checks(chain)
        i = ~edge_mask(1024)
        assert np.max(c.total[i] - c.bound[i]) < 1e-8
        assert np.max(d.term_normal[i] - c.bound_normal[i]) < 1e-8
        for term in (d.term_amplitude, d.term_deformation,
                     d.term_precession, d.term_normal):
            assert term.min() >= 0.0


def test_effective_precession_planar_reduces_to_theta_rate():
    # fixed plane: alpha, beta constant; effective precession equals theta'
    n = 512
    w_t = 2e-3
    series = EllipseSeries.from_paths(
        a=3.0, b=2.0, theta=w_t * np.arange(n), phi=0.03 * np.arange(n),
        alpha=0.3, beta=1.0,
    )
    xp = ellipse_synthesize(series)
    c = cross_checks(decompose_analytic(xp, mean_freq=0.03))
    i = ~edge_mask(n)
    assert np.abs(c.precession[i] - w_t).max() < 1e-6
    assert np.abs(c.precession_residual[i]).max() < 1e-6


def test_effective_precession_residual_smooth_path():
    series, _ = make_smooth_path(4096, 4096.0)
    xp = ellipse_synthesize(series)
    c = cross_checks(decompose_analytic(xp, mean_freq=0.025))
    i = ~edge_mask(4096)
    assert np.abs(c.precession_residual[i]).max() < 1e-6
    assert not c.precession_unreliable[i].any()


def test_bivariate_reduction_constant_plane():
    # with the ellipse plane fixed, the out-of-plane term vanishes and the
    # planar forms of frequency and bandwidth hold
    n = 1024
    t = np.arange(n)
    series = EllipseSeries.from_paths(
        a=1.0 + 0.2 * np.sin(2 * np.pi * 3 * t / n),
        b=0.5 * np.ones(n),
        theta=0.4 * np.sin(2 * np.pi * 2 * t / n),
        phi=0.03 * t, alpha=0.7, beta=1.1,
    )
    xp = ellipse_synthesize(series)
    m, ext, rates, d = decompose_analytic(xp, mean_freq=0.03)
    i = ~edge_mask(n)
    assert d.term_normal[i].max() < 1e-10
    e = ext.ellipse
    omega_planar = rates.omega_phi + np.sqrt(1.0 - e.lam**2) * rates.omega_theta
    ups_planar = (
        rates.dkappa_rel**2
        + 0.25 * rates.dlambda**2 / (1.0 - e.lam**2)
        + e.lam**2 * rates.omega_theta**2
    )
    assert np.abs(m.omega[i] - omega_planar[i]).max() < 1e-6
    assert np.abs(m.upsilon2[i] - ups_planar[i]).max() < 1e-6 * m.upsilon2[i].max()


def test_global_time_exact_bin():
    xp, omega0 = circular_signal(n=256, k=16)
    m = instantaneous_moments(xp, mean_freq=omega0, scheme="spectral")
    g = global_moments_time(m)
    assert abs(g.mean_freq - omega0) < 1e-10


def test_global_spectral_exact_bin_padded_default():
    # the integral sees the rectangular window's kernel between the
    # exact-bin zeros, so the mean sits off the tone at the kernel-tail
    # level (well under a bin)
    xp, omega0 = circular_signal(n=256, k=16)
    g = global_moments_spectral(xp)
    assert abs(g.mean_freq - omega0) < 2.0 * np.pi / 256


def test_global_spectral_tone_at_half_nyquist_has_the_centre_as_mean():
    # the Fejer kernel of a tone at pi / 2 is even about the middle of [0, pi]
    xp, omega0 = circular_signal(n=256, k=64)
    g = global_moments_spectral(xp)
    assert omega0 == np.pi / 2
    assert abs(g.mean_freq - omega0) < 4e-16 * omega0


def _long_double_spectral_moments(xp):
    """Mean frequency and second central moment of the one-sided joint spectrum, exactly.

    ``S(w) = sum_j r_j exp(-i w j)`` with the lags ``r_j`` of one length-2n
    FFT in long double, and ``int_0^pi w^k exp(-i w j) dw`` in closed form.
    """
    n = xp.n_samples
    spec = np.fft.fft(xp.samples.astype(np.clongdouble), n=2 * n, axis=0)
    r = np.fft.ifft(np.sum(np.abs(spec) ** 2, axis=1))[:n]
    pi = 4 * np.arctan(np.longdouble(1))
    a = -1j * np.arange(1, n, dtype=np.longdouble)
    e = np.where(np.arange(1, n) % 2 == 0, 1, -1).astype(np.longdouble)  # exp(a pi)
    kernels = [
        (pi, (e - 1) / a),
        (pi**2 / 2, e * (pi / a - 1 / a**2) + 1 / a**2),
        (pi**3 / 3, e * (pi**2 / a - 2 * pi / a**2 + 2 / a**3) - 2 / a**3),
    ]
    m0, m1, m2 = (r[0].real * k0 + 2 * np.sum(r[1:] * k).real for k0, k in kernels)
    mean = m1 / m0
    return mean / xp.dt, (m2 / m0 - mean**2) / xp.dt**2


LONG_DOUBLE_FFT = (
    np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    and np.fft.fft(np.ones(2, np.clongdouble)).dtype == np.clongdouble
)


@pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="numpy.fft does not compute in long double here")
def test_global_spectral_exact_bin_is_the_closed_form():
    # on the unpadded DFT grid an exact-bin tone has its bin as mean and no
    # spread, but the moments are the integrals over [0, pi], where the tails
    # of its Fejer kernel spread it by about 1.2 / n.  Its power and the
    # power's slope vanish at both ends, and the endpoint series still
    # converges: measured within 2.7e-16 (mean) and 6.4e-17 (second central
    # moment) of the closed form; the trapezoid alone misses the mean by 8.9e-9
    xp, omega0 = circular_signal(n=256, k=16)
    mean, second = _long_double_spectral_moments(xp)
    g = global_moments_spectral(xp)
    assert abs(g.mean_freq - mean) < 1e-15 * mean
    assert abs(g.second_central - second) < 1e-14 * second


@pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="numpy.fft does not compute in long double here")
def test_global_spectral_moments_match_long_double_reference():
    # at n = 1e5 the exact form misses the second central moment by 3.4e-11,
    # the extrapolated 8x grid by 1.6e-11 and the plain 16x trapezoid by
    # 1.3e-10, all within this reference's own error there (see
    # test_extrapolated_moments_beat_the_16x_trapezoid); the closed form over
    # the same lags in double precision misses it by 1.7e-8.  n = 99 999 =
    # 3^2 * 41 * 271 pads to the 5-smooth 400 000
    for n in (100_000, 99_999):
        xp = analytic_transform(RealSignal3(make_random_modulated(n, 0).samples.real))
        mean, second = _long_double_spectral_moments(xp)
        g = global_moments_spectral(xp)
        assert abs(g.mean_freq - mean) < 1e-13 * mean
        assert abs(g.second_central - second) < 1e-8 * second


def _plain_trapezoid_moments(xp, pad):
    """The plain trapezoid moments over the ``pad``-times padded grid, streamed."""
    n, m = xp.n_samples, _fft_length(pad * xp.n_samples)
    columns = lambda _: (xp.samples[:, c] for c in range(3))
    total, mean, second = _padded_moments(columns, n, m, real=False)
    unit = 2.0 * np.pi / (m * xp.dt)
    return mean * unit, second / total * unit**2


@pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="numpy.fft does not compute in long double here")
@pytest.mark.parametrize("n, bound", [(100_000, 6e-11), (99_999, 6e-11), (10_369, 8e-12), (7_531, 3e-11)])
def test_extrapolated_moments_beat_the_16x_trapezoid(n, bound):
    # the exact form on the 4x grid.  Measured on seeds 0-5, the worst relative
    # error of the second central moment against the plain 16x trapezoid's:
    # 4.0e-11 and 1.3e-10 (1e5), 3.6e-11 and 6.9e-11 (99 999), 4.4e-13 and
    # 3.1e-11 (10 369), 3.6e-13 and 1.2e-10 (7 531); the mean's is at most
    # 4.1e-16.  At 1e5 that is the limit of the long-double closed form
    # itself: on seeds 0 and 1, quadratures of the same power in long double
    # over 4x and 8x grids miss it by 3.4e-11 and 1.9e-11, and the exact form
    # is within 6.4e-13 of them (Simpson's rule over 8x read 4.2e-11)
    worst, worst_16 = 0.0, 0.0
    for seed in range(6):
        xp = analytic_transform(RealSignal3(make_random_modulated(n, seed).samples.real))
        mean, second = _long_double_spectral_moments(xp)
        g = global_moments_spectral(xp)
        assert abs(g.mean_freq - mean) < 1e-15 * mean, seed
        worst = max(worst, float(abs(g.second_central - second) / second))
        worst_16 = max(worst_16, float(abs(_plain_trapezoid_moments(xp, 16)[1] - second) / second))
    assert worst < bound
    assert worst < worst_16


@pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="numpy.fft does not compute in long double here")
@pytest.mark.parametrize("mode", MODES)
def test_extrapolated_moments_of_low_frequency_modes(mode):
    # n = 800 at the default omega_bar, four bins above 0, where the spectrum
    # is large near the grid's end.  Measured relative errors of the exact
    # form: mean 9.8e-18 to 9.2e-17, second central moment 3.9e-17 to 4.7e-16
    # (Simpson's rule over the 8x grid: 1.2e-7 to 2.1e-7 and 2.6e-8 to
    # 5.0e-7; the plain 16x trapezoid: 2.2e-9 to 1.3e-7 and 3.9e-9 to 4.5e-6)
    x = make_reference_signal(SynthSpec(n_samples=800, mode=mode)).signal.samples.real
    xp = analytic_transform(RealSignal3(x))
    mean, second = _long_double_spectral_moments(xp)
    g = global_moments_spectral(xp)
    assert abs(g.mean_freq - mean) < 1e-15 * mean
    assert abs(g.second_central - second) < 5e-15 * second


@pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="numpy.fft does not compute in long double here")
@pytest.mark.parametrize("n", [64, 100, 101, 127, 1000, 1001, 4096, 4099])
def test_global_spectral_tones_near_0_and_pi_are_exact(n):
    # even, odd and prime lengths; tones 0.3 and 0.7 bins above 0 and below
    # pi, where the grid's ends carry most of the spectrum.  Measured: mean
    # within 3.4e-16 and second central moment within 3.6e-15 of the closed
    # form; Simpson's rule over the 8x grid missed them by up to 2.4e-5 and
    # 4.4e-5
    t = np.arange(n)[:, None]
    for w in (0.3, 0.7, n / 2 - 0.7, n / 2 - 0.3):
        x = np.cos(2 * np.pi * w / n * t + [0.0, 1.0, 2.0])
        xp = analytic_transform(RealSignal3(x))
        mean, second = _long_double_spectral_moments(xp)
        g = global_moments_spectral(xp)
        assert abs(g.mean_freq - mean) < 1e-15 * mean, w
        assert abs(g.second_central - second) < 2e-14 * second, w


@pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="numpy.fft does not compute in long double here")
@pytest.mark.parametrize("pad", [4, 8])
def test_multitaper_moments_match_long_double_reference(pad):
    # the multitaper estimate's moments are those of the tapered columns' joint
    # spectrum, whose closed form is the reference.  Measured on seeds 0-2 at
    # n = 1e4: mean within 9.9e-17, second central moment within 2.9e-13 at
    # both pads; the plain trapezoid over the 8x grid missed the second by up
    # to 5.4e-11 and the mean by up to 1.5e-15
    n = 10_000
    tapers = slepian_tapers(n, 2.0, 3)
    for seed in range(3):
        x = RealSignal3(make_random_modulated(n, seed).samples.real)
        columns = np.column_stack([col.copy() for col in _tapered(x, tapers)(np.empty(n))])
        mean, second = _long_double_spectral_moments(SimpleNamespace(samples=columns, n_samples=n, dt=x.dt))
        g = multitaper_moments(x, tapers, pad_factor=pad)
        assert abs(g.mean_freq - mean) < 1e-15 * mean, seed
        assert abs(g.second_central - second) < 1e-12 * second, seed


def _short_records(n, rng):
    """White noise, tones a fraction of a bin from 0 and from pi, and spikes at both ends and inside."""
    t = np.arange(n)[:, None]
    yield rng.normal(size=(n, 3))
    for w in (0.3, 0.7, n / 2 - 0.7, n / 2 - 0.2):
        yield np.cos(2 * np.pi * w / n * t + [0.0, 1.0, 2.0])
    for k in (0, n // 3, n - 1):
        x = np.zeros((n, 3))
        x[k] = [1.0, -0.5, 0.25]
        yield x


@pytest.mark.parametrize("n", [64, 65, 100, 128, 256, 800, 1001])
def test_extrapolated_second_moment_on_short_records(n, rng):
    # the exact form against the plain 16x trapezoid, which is off by up to
    # 6.7e-4 on a tone 0.2 bins below pi at n = 1001
    for x in _short_records(n, rng):
        xp = analytic_transform(RealSignal3(x))
        got = global_moments_spectral(xp).second_central
        plain = _plain_trapezoid_moments(xp, 16)[1]
        assert got > 0.0
        assert abs(got / plain - 1.0) < 1e-3


def test_fft_length_is_next_5_smooth():
    from scipy.fft import next_fast_len

    for m in [*range(1, 5001), 16 * 99_999, 8 * 99_999, 2 * 99_999]:
        assert _fft_length(m) == next_fast_len(m, real=True), m


@pytest.mark.parametrize("n", [800, 4_000, 6_000, 100_000, 270_000])
def test_5_smooth_padded_lengths_are_kept(n):
    # these records keep the exact pad * n grids, and so their bits
    for pad in (2, 8, 16):
        assert _fft_length(pad * n) == pad * n


def test_spectrum_normalization():
    xp = make_random_modulated(1024, 7)
    freqs, values = joint_analytic_spectrum(xp)
    assert abs(np.trapezoid(values, freqs) / (2 * np.pi) - 1.0) < 1e-12


def test_energy_matches_time_integral():
    xp = make_random_modulated(1024, 3)
    g = global_moments_spectral(xp)
    assert abs(g.energy - np.trapezoid(xp.power)) < 1e-9 * g.energy


def test_time_vs_spectral_identity_windowed():
    xp = make_random_modulated(2048, 11)
    gs = global_moments_spectral(xp)
    m = instantaneous_moments(xp, mean_freq=gs.mean_freq)
    k = 205
    gt = global_moments_time(m, slice(k, 2048 - k))
    assert abs(gt.mean_freq - gs.mean_freq) / gs.mean_freq < 1e-3
    assert abs(gt.second_central - gs.second_central) / gs.second_central < 1e-3


def test_unreliable_flags_low_power():
    xp, _ = circular_signal(n=256, k=16)
    scaled = xp.samples.copy()
    scaled[100:110] *= 1e-9
    m = instantaneous_moments(AnalyticSignal3(scaled), eps_pow=1e-8)
    assert m.unreliable[100:110].all()
    assert not m.unreliable[:100].any()


def _trapezoid_moments(freqs, values):
    """Mean frequency and second central moment of a one-sided spectrum on its full grid."""
    z = np.trapezoid(values, freqs)
    mean = np.trapezoid(freqs * values, freqs) / z
    return mean, np.trapezoid((freqs - mean) ** 2 * values, freqs) / z


@pytest.mark.parametrize("n", [64, 800, 6_001, 99_999, 100_003])
def test_streamed_moments_match_full_grid(n):
    # the stream's trapezoid sums against those over the full grid, complex
    # input (global, on its 4x grid) and real input (the multitaper power,
    # without its one-sided doubling, at every pad), at dt != 1; pad 1
    # grids like pad 2; at 6 001, pad 3 rounds 18 003 up to 18 432, which
    # splits into an odd number of shifts (3); and 6 001, 99 999 and
    # 100 003 take shifted FFTs longer than the record
    x = RealSignal3(make_random_modulated(n, 5).samples.real, dt=0.37)
    xp = analytic_transform(x)
    tapers = slepian_tapers(n, 2.0, 3)
    analytic = lambda _: (xp.samples[:, c] for c in range(3))
    grids = [(analytic, 4 * _fft_length(n), False, joint_analytic_spectrum(xp))]
    for pad in (1, 3, 8, 16):
        est, m = multitaper_joint_spectrum(x, tapers, pad), multitaper_grid_length(n, pad)
        power = est.values.copy()
        power[1:-1] /= 2.0  # the one-sided doubling undone
        grids.append((_tapered(x, tapers), m, True, (est.freqs, power)))
    for columns, m, real, (freqs, values) in grids:
        total, mean, second = _padded_moments(columns, n, m, real)
        unit = 2.0 * np.pi / (m * x.dt)
        want_mean, want_second = _trapezoid_moments(freqs, values)
        assert abs(mean * unit - want_mean) <= 1e-12 * want_mean, (m, real)
        assert abs(second / total * unit**2 - want_second) <= 1e-12 * want_second, (m, real)


def test_streamed_passes_stay_o_n_and_start_no_thread(monkeypatch):
    # at n = 1e5 the 4x grid alone is 4e5 complex points (6.4 MB); no
    # forward FFT may be longer than the shifted one, the lags take one
    # inverse of the grid's even bins, and no thread may start
    n = 100_000
    x = RealSignal3(make_random_modulated(n, 0).samples.real)
    xp = analytic_transform(x)
    tapers = slepian_tapers(n, 2.0, 3)
    threads = threading.active_count()
    points = []
    for name in ("fft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            points.append(out.size)
            return out

        monkeypatch.setattr(np.fft, name, counted)
    # each pass's traced peak stays below the analytic signal's size (4.8 MB):
    # 4.7 and 4.3 MB, where an n-point twiddle per shift and a new array per
    # tapered column made them 6.3 and 7.6 MB; 64 MB through the full 8x grid
    tracemalloc.start()
    try:
        global_moments_spectral(xp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < xp.samples.nbytes
    # m = 4 n: one n-point FFT per shift and component, 24 on the 8x grid, then
    # the inverse of the 2n even bins, which keeps lags 0 .. n
    assert points == [n] * 4 * 3 + [n + 1]
    points.clear()
    tracemalloc.start()
    try:
        multitaper_moments(x, tapers, pad_factor=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < xp.samples.nbytes
    # analyze's 4x grid: shift 0 as a real FFT, shifts 1 and 2 as complex ones,
    # 1 also serving 3 (9 + 36 on the 8x grid), then the inverse of the even bins
    assert points == [n // 2 + 1] * 9 + [n] * 2 * 9 + [2 * n]
    assert threading.active_count() == threads
