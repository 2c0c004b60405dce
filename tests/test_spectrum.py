import importlib.util
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from triellipse import (
    RealSignal3,
    RunConfig,
    make_random_modulated,
    multitaper_joint_spectrum,
    multitaper_moments,
    rotate_frame,
    slepian_tapers,
)
from triellipse import spectrum
from triellipse.moments import _fft_length

from conftest import random_rotation, run_python


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


DPSS_SOLVES = [(n, p, k) for n in (64, 65, 800, 801, 99_999, 100_000) for p, k in ((2, 3), (4, 7))]


def _dpss_tridiagonal(n, p):
    """The diagonal and off-diagonal of the operator whose eigenvectors are the DPSS."""
    d = ((n - 1) / 2.0 - np.arange(n)) ** 2 * np.cos(2.0 * np.pi * p / n)
    return d, np.arange(1, n) * np.arange(n - 1, 0, -1) / 2.0


@pytest.fixture
def fresh_loader():
    """Load the LAPACK routines again in the test, and once more after it."""
    spectrum._stebz_stein.cache_clear()
    yield
    spectrum._stebz_stein.cache_clear()


def _assert_scipy_bits(solves):
    for (n, p, k), (w, v) in zip(DPSS_SOLVES, solves):
        ref_w, ref_v = scipy.linalg.eigh_tridiagonal(
            *_dpss_tridiagonal(n, p), select="i", select_range=(n - k, n - 1)
        )
        assert np.array_equal(w, ref_w), (n, p, k)
        assert np.array_equal(v, ref_v), (n, p, k)


def _solves():
    return [
        spectrum.eigh_tridiagonal(*_dpss_tridiagonal(n, p), n - k, n - 1) for n, p, k in DPSS_SOLVES
    ]


def test_eigensolve_has_the_bits_of_scipy_before_scipy_linalg_loads(tmp_path):
    cases, solves = tmp_path / "cases.npz", tmp_path / "solves.npz"
    arrays = {}
    for j, (n, p, _) in enumerate(DPSS_SOLVES):
        arrays[f"d{j}"], arrays[f"e{j}"] = _dpss_tridiagonal(n, p)
    np.savez(cases, **arrays)
    out = run_python(
        "import sys\n"
        "import numpy as np\n"
        "from triellipse import spectrum\n"
        f"cases, out = np.load({str(cases)!r}), {{}}\n"
        f"for j, (n, _, k) in enumerate({DPSS_SOLVES!r}):\n"
        "    out[f'w{j}'], out[f'v{j}'] = spectrum.eigh_tridiagonal(\n"
        "        cases[f'd{j}'], cases[f'e{j}'], n - k, n - 1)\n"
        f"np.savez({str(solves)!r}, **out)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False"
    got = np.load(solves)
    _assert_scipy_bits([(got[f"w{j}"], got[f"v{j}"]) for j in range(len(DPSS_SOLVES))])


def test_eigensolve_has_the_bits_of_scipy_after_scipy_linalg_loads(fresh_loader):
    assert "scipy.linalg" in sys.modules
    _assert_scipy_bits(_solves())


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize("attr, broken", [
    ("find_spec", lambda name, package=None: None),  # scipy not found
    ("module_from_spec", _raise(OSError("cannot open shared object file"))),
    ("module_from_spec", _raise(ImportError("undefined symbol"))),
])
def test_eigensolve_falls_back_to_scipy_lookup(monkeypatch, fresh_loader, attr, broken):
    monkeypatch.setattr(importlib.util, attr, broken)
    lookups = []
    lookup = scipy.linalg.get_lapack_funcs
    monkeypatch.setattr(
        scipy.linalg, "get_lapack_funcs", lambda *a, **kw: lookups.append(a) or lookup(*a, **kw)
    )
    _assert_scipy_bits(_solves())
    assert lookups == [(("stebz", "stein"),)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_eigensolve_rejects_non_finite_input(bad, where):
    arrays = _dpss_tridiagonal(64, 2)
    arrays[where][5] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        spectrum.eigh_tridiagonal(*arrays, 61, 63)


def test_taper_argument_validation():
    with pytest.raises(ValueError):
        slepian_tapers(800, 2.0, 4)  # K > 2P-1
    with pytest.raises(ValueError):
        slepian_tapers(32, 2.0, 3)  # too short


@pytest.mark.parametrize("p, k", [(1.25, 1), (1.75, 2), (2.25, 3), (3.25, 5)])
def test_taper_count_is_at_most_2p_minus_1(p, k):
    # rounding 2p - 1 half to even would admit 2, 2, 4 and 6
    assert len(slepian_tapers(800, p).tapers) == k
    with pytest.raises(ValueError, match="n_tapers"):
        slepian_tapers(800, p, k + 1)
    assert RunConfig(taper_p=p, n_tapers=k).n_tapers == k
    with pytest.raises(ValueError, match="n_tapers"):
        RunConfig(taper_p=p, n_tapers=k + 1)


@pytest.mark.parametrize("p", [400.0, 1e9, 0.0, -1.0, np.nan, np.inf])
def test_taper_bandwidth_must_stay_below_half_a_cycle(p):
    # p >= n/2 puts the half bandwidth p/n at 0.5 cycles/sample or more
    with pytest.raises(ValueError, match="time-bandwidth product"):
        slepian_tapers(800, p, 1)
    assert slepian_tapers(800, 399.0, 1).concentrations[0] <= 1.0 + 1e-12


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


def _full_fft_reference(x, ts, pad):
    """The estimate's grid and values, from every taper's and component's m-point FFT at once."""
    m = _fft_length(pad * x.n_samples)
    spec = np.fft.fft(ts.tapers[:, :, None] * x.samples[None, :, :], n=m, axis=1)
    raw = np.mean(np.sum(np.abs(spec) ** 2, axis=2), axis=0)
    half = raw[: m // 2 + 1].copy()
    if m % 2 == 0:
        half[1:-1] *= 2.0
    else:
        half[1:] *= 2.0
    freqs = 2.0 * np.pi * np.arange(half.size) / (m * x.dt)
    return freqs, half / (np.trapezoid(half, freqs) / (2.0 * np.pi))


@pytest.mark.parametrize("n, pad", [(256, 8), (257, 3)])
def test_multitaper_matches_full_fft_reference(rng, n, pad):
    x = RealSignal3(rng.normal(size=(n, 3)) + np.cos(0.2 * np.arange(n))[:, None])
    ts = slepian_tapers(n, 2.0, 3)
    est = multitaper_joint_spectrum(x, ts, pad_factor=pad)
    freqs, ref = _full_fft_reference(x, ts, pad)
    assert np.array_equal(est.freqs, freqs)
    assert np.abs(est.values - ref).max() < 1e-12 * ref.max()


@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(st.integers(64, 3000), st.sampled_from([67, 251, 1009, 2003, 2999])),
    pad=st.integers(1, 16),
    dt=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**16),
)
def test_streamed_grid_matches_full_fft_reference(n, pad, dt, seed):
    # odd, even and prime lengths, odd and even grids, one shift (pad 1
    # on a 5-smooth n) up to many, against the unshifted transforms
    rng = np.random.default_rng(seed)
    x = RealSignal3(rng.normal(size=(n, 3)) + np.cos(0.2 * np.arange(n))[:, None], dt=dt)
    ts = slepian_tapers(n, 2.0, 3)
    est = multitaper_joint_spectrum(x, ts, pad_factor=pad)
    freqs, ref = _full_fft_reference(x, ts, pad)
    assert np.array_equal(est.freqs, freqs)
    assert np.abs(est.values - ref).max() < 1e-12 * ref.max()


@pytest.mark.parametrize("n", [64, 800, 6_001, 16_385, 99_999])
def test_grid_moments_are_the_streamed_moments(n):
    # the grid's shift blocks are those the stream takes its moments
    # from: the same bits
    x = RealSignal3(make_random_modulated(n, 3).samples.real, dt=0.37)
    ts = slepian_tapers(n, 2.0, 3)
    for pad in (1, 3, 8):
        assert multitaper_joint_spectrum(x, ts, pad).moments == multitaper_moments(x, ts, pad), pad


def test_grid_holds_no_eigenspectrum():
    # at n = 1e5 and pad 8 the grid, its frequencies and the normalisation's
    # terms are the only O(m) arrays: 9.7 MB in all (12.8 MB with
    # np.trapezoid's temporaries), 10.6 MB allowed
    n = 100_000
    x = RealSignal3(make_random_modulated(n, 0).samples.real)
    ts = slepian_tapers(n, 2.0, 3)
    tracemalloc.start()
    try:
        est = multitaper_joint_spectrum(x, ts, pad_factor=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * est.values.nbytes + 1e6


@pytest.mark.parametrize("size", [2, 3, 10, 1_001, 4_097, 4_098, 400_000, 400_001])
def test_trapezoid_has_the_bits_of_numpy(rng, size):
    # odd and even grids, one block of differences and just over; the
    # frequency grid of a spectrum and an irregular one
    y = rng.exponential(size=size) * 10.0 ** rng.integers(-8, 8, size)
    for x in (2.0 * np.pi * np.arange(size) / (3 * size * 0.37),
              np.cumsum(rng.uniform(0.1, 3.0, size))):
        assert spectrum._trapezoid(y, x) == np.trapezoid(y, x)


def test_trapezoid_holds_one_array_of_terms(rng):
    size = 400_001
    y, x = rng.random(size), np.arange(size) * 0.5
    tracemalloc.start()
    try:
        spectrum._trapezoid(y, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + 64 * 1024  # np.trapezoid holds two such arrays: 6.4 MB


def test_taper_traced_peak():
    # the matrix and stebz's n eigenvalues are freed once the solve is done:
    # 9.2 MB at 1e5, 11.2 MB while they were held through the concentrations
    n = 100_000
    slepian_tapers(64)  # LAPACK's wrappers loaded outside the trace
    tracemalloc.start()
    try:
        ts = slepian_tapers(n, 2.0, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * ts.tapers.nbytes


def test_fft_work_is_pinned(rng, monkeypatch):
    # one rfft/irfft pair of length 2n per taper for its concentration, then, per
    # taper and component, one L-point FFT per shift of the pad*n grid
    # (L = n, s = 8 shifts here): shift 0 real, shifts 1 .. 4 complex,
    # shifts 5 .. 7 read from 3 .. 1 reversed; no pad*n-point transform
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
    size, complex_shifts = n, pad // 2
    concentrations = [n + 1, 2 * n] * k
    assert points == concentrations + [size // 2 + 1] * k * 3 + [size] * k * 3 * complex_shifts


@pytest.mark.parametrize("n", [64, 801, 99_999, 100_000])
def test_concentrations_row_by_row_equal_the_batched_transform(n):
    ts = slepian_tapers(n, 2.0, 3)
    w = 2.0 / n
    m = _fft_length(2 * n)
    acf = np.fft.irfft(np.abs(np.fft.rfft(ts.tapers, n=m, axis=1)) ** 2, n=m, axis=1)
    lags = np.arange(1, n)
    kernel = np.concatenate([[2.0 * w], 2.0 * np.sin(2.0 * np.pi * w * lags) / (np.pi * lags)])
    np.testing.assert_array_equal(ts.concentrations, acf[:, :n] @ kernel / acf[:, 0])
