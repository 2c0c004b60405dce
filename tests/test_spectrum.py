import functools
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

from conftest import multitaper_grid_length, random_rotation, run_python


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


@functools.cache
def _value_range(n, p, k):
    """(vl, vu] about the k largest eigenvalues: from midway to the next one down, to 1 above the top."""
    w = scipy.linalg.eigh_tridiagonal(
        *_dpss_tridiagonal(n, p), eigvals_only=True, select="i", select_range=(n - k - 1, n - 1)
    )
    return float((w[0] + w[1]) / 2.0), float(w[-1] + 1.0)


def _selections():
    """Each DPSS solve taken by index and by value: (n, p, k, select, select_range)."""
    return [(n, p, k, "i", (n - k, n - 1)) for n, p, k in DPSS_SOLVES] + [
        (n, p, k, "v", _value_range(n, p, k)) for n, p, k in DPSS_SOLVES
    ]


@pytest.fixture
def fresh_loader():
    """Load the LAPACK routines and find OpenBLAS again in the test, and once more after it."""
    for cached in (spectrum._stebz_stein, spectrum._openblas_threads):
        cached.cache_clear()
    yield
    for cached in (spectrum._stebz_stein, spectrum._openblas_threads):
        cached.cache_clear()


def _assert_scipy_bits(solves):
    # scipy's solve on the one OpenBLAS thread that eigh_tridiagonal pins: on
    # more, dstein's BLAS reductions split across threads and set its last bits
    selections = _selections()
    assert len(solves) == len(selections)
    for (n, p, k, select, select_range), (w, v) in zip(selections, solves):
        with spectrum._one_blas_thread():
            ref_w, ref_v = scipy.linalg.eigh_tridiagonal(
                *_dpss_tridiagonal(n, p), select=select, select_range=select_range
            )
        assert w.size == k, (n, p, k, select)
        assert np.array_equal(w, ref_w), (n, p, k, select)
        assert np.array_equal(v, ref_v), (n, p, k, select)


def _solves():
    return [
        spectrum.eigh_tridiagonal(*_dpss_tridiagonal(n, p), select, select_range)
        for n, p, _, select, select_range in _selections()
    ]


def test_eigensolve_has_the_bits_of_scipy_before_scipy_linalg_loads(tmp_path):
    cases, solves = tmp_path / "cases.npz", tmp_path / "solves.npz"
    selections = _selections()
    arrays = {}
    for j, (n, p, *_) in enumerate(selections):
        arrays[f"d{j}"], arrays[f"e{j}"] = _dpss_tridiagonal(n, p)
    np.savez(cases, **arrays)
    out = run_python(
        "import sys\n"
        "import numpy as np\n"
        "from triellipse import spectrum\n"
        f"cases, out = np.load({str(cases)!r}), {{}}\n"
        f"for j, (*_, select, select_range) in enumerate({selections!r}):\n"
        "    out[f'w{j}'], out[f'v{j}'] = spectrum.eigh_tridiagonal(\n"
        "        cases[f'd{j}'], cases[f'e{j}'], select, select_range)\n"
        f"np.savez({str(solves)!r}, **out)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False"
    got = np.load(solves)
    _assert_scipy_bits([(got[f"w{j}"], got[f"v{j}"]) for j in range(len(selections))])


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
        spectrum.eigh_tridiagonal(*arrays, "i", (61, 63))


def test_eigensolve_rejects_an_unknown_selection():
    with pytest.raises(ValueError, match="select must be 'i' or 'v'"):
        spectrum.eigh_tridiagonal(*_dpss_tridiagonal(64, 2), "a", (61, 63))


def test_taper_argument_validation():
    with pytest.raises(ValueError):
        slepian_tapers(800, 2.0, 4)  # K > 2P-1
    with pytest.raises(ValueError):
        slepian_tapers(32, 2.0, 3)  # too short


PARITY_CASES = [
    (n, p, k) for n in (64, 65, 800, 801, 99_999, 100_000) for p, k in ((2, 3), (4, 7), (2.5, 4))
]


@functools.cache
def _full_solve(n, p, k):
    """The k tapers and eigenvalues of the full n-point operator (scipy, one OpenBLAS thread), descending, first nonzero element positive."""
    with spectrum._one_blas_thread():
        w, v = scipy.linalg.eigh_tridiagonal(
            *_dpss_tridiagonal(n, p), select="i", select_range=(n - k, n - 1)
        )
    tapers = v[:, ::-1].T.copy()
    for row in tapers:
        if row[np.flatnonzero(row)[0]] < 0:
            row *= -1.0
    return w[::-1], tapers


@pytest.mark.parametrize("n, p, k", PARITY_CASES)
def test_tapers_have_exact_parity(n, p, k):
    # taper j has the parity (-1)^j to the bit, and an odd antisymmetric
    # taper's middle sample is zero; the full solve breaks parity by up to
    # 5.9e-11 at 99 999 samples
    ts = slepian_tapers(n, p, k)
    for j, row in enumerate(ts.tapers):
        assert np.array_equal(row[::-1], row if j % 2 == 0 else -row), (n, p, k, j)
        if n % 2 and j % 2:
            assert row[n // 2] == 0.0


@pytest.mark.parametrize("n, p, k", PARITY_CASES)
def test_tapers_are_orthonormal_eigenvectors(n, p, k):
    ts = slepian_tapers(n, p, k)
    t = ts.tapers
    # largest |gram - I| measured: 2.4e-15 (n = 65, p = 2)
    assert np.abs(t @ t.T - np.eye(k)).max() < 5e-15
    # max |T v - lam v| / lam measured: 1.2e-15 (n = 99 999, p = 2.5), with
    # lam the Rayleigh quotient; the full solve's eigenvalues agree with it
    # to 1.3e-14 relative
    d, e = _dpss_tridiagonal(n, p)
    tv = d * t
    tv[:, :-1] += e * t[:, 1:]
    tv[:, 1:] += e * t[:, :-1]
    lam = np.einsum("ij,ij->i", t, tv)
    assert (np.abs(tv - lam[:, None] * t).max(axis=1) / lam).max() < 3e-15
    full_w, _ = _full_solve(n, p, k)
    assert np.abs(lam - full_w).max() < 5e-14 * full_w[0]


# largest |parity solve - full solve| over the three (p, k) measured: 8.0e-16
# (64, 65), 4.3e-14 (800, 801), 4.7e-11 (99 999) and 3.7e-11 (100 000); the
# full solve's own parity error is as large: 1.4e-15, 8.2e-14 and 5.9e-11
FULL_SOLVE_AGREEMENT = {64: 2e-15, 65: 2e-15, 800: 1e-13, 801: 1e-13, 99_999: 1e-10, 100_000: 1e-10}


@pytest.mark.parametrize("n, p, k", PARITY_CASES)
def test_tapers_agree_with_the_full_solve(n, p, k):
    ts = slepian_tapers(n, p, k)
    _, full = _full_solve(n, p, k)
    assert np.abs(ts.tapers - full).max() < FULL_SOLVE_AGREEMENT[n]
    # the concentrations differ by at most 1.1e-15 (n = 99 999, p = 2.5)
    full_concentrations = spectrum._concentrations(full, p / n)
    assert np.abs(ts.concentrations - full_concentrations).max() < 1e-14


@pytest.mark.parametrize("n", [800, 801])
def test_taper_solves_are_half_size(monkeypatch, n):
    # the symmetric block by index, then the antisymmetric block by value
    # between the smallest and largest symmetric eigenvalues it returned
    calls = []
    solve = spectrum.eigh_tridiagonal

    def recorded(d, e, select, select_range):
        w, v = solve(d, e, select, select_range)
        calls.append((d.size, e.size, select, select_range, w))
        return w, v

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", recorded)
    slepian_tapers(n, 4.0, 7)
    (size_s, off_s, select_s, range_s, w_s), (size_a, off_a, select_a, range_a, w_a) = calls
    half, size = n // 2, n // 2 + n % 2  # an odd record's symmetric block has the middle row
    assert (size_s, off_s, select_s, range_s) == (size, size - 1, "i", (size - 4, size - 1))
    assert (size_a, off_a, select_a, range_a) == (half, half - 1, "v", (w_s[0], w_s[-1]))
    assert w_a.size == 3
    assert (w_s[:-1] < w_a).all() and (w_a < w_s[1:]).all()  # the parities interleave


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_taper_solve_checks_the_antisymmetric_count(monkeypatch, change):
    solve = spectrum.eigh_tridiagonal

    def wrong_count(d, e, select, select_range):
        w, v = solve(d, e, select, select_range)
        if select == "v":
            keep = [*range(w.size - 1)] if change == "drop" else [0, *range(w.size)]
            w, v = w[keep], v[:, keep]
        return w, v

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", wrong_count)
    with pytest.raises(np.linalg.LinAlgError, match="antisymmetric taper block"):
        slepian_tapers(800, 4.0, 7)


@pytest.mark.parametrize("kwargs, name", [
    (dict(n_samples=100.5), "n_samples"),
    (dict(n_samples=800.0), "n_samples"),
    (dict(n_samples="800"), "n_samples"),
    (dict(n_samples=800, n_tapers=2.5), "n_tapers"),
    (dict(n_samples=800, n_tapers=3.0), "n_tapers"),
])
def test_taper_arguments_must_be_integers(kwargs, name):
    # 100.5 samples gave 101-sample tapers whose concentrations (0.938,
    # 0.294, 0.904) did not decrease, and 2.5 tapers gave 3
    with pytest.raises(TypeError, match=name):
        slepian_tapers(time_bandwidth=2.0, **{"n_tapers": 3, **kwargs})


def test_taper_arguments_take_numpy_integers():
    ts = slepian_tapers(np.int64(801), 2.5, np.int32(4))
    ref = slepian_tapers(801, 2.5, 4)
    assert np.array_equal(ts.tapers, ref.tapers)
    assert np.array_equal(ts.concentrations, ref.concentrations)


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


@pytest.mark.parametrize("estimate", [multitaper_joint_spectrum, multitaper_moments])
def test_pad_factor_must_be_an_integer(rng, estimate):
    ts = slepian_tapers(256, 2.0, 3)
    x = RealSignal3(rng.normal(size=(256, 3)))
    for pad in (2.5, 2.0):
        with pytest.raises(TypeError, match="pad_factor"):
            estimate(x, ts, pad_factor=pad)
    got, ref = estimate(x, ts, pad_factor=np.int64(2)), estimate(x, ts, pad_factor=2)
    if estimate is multitaper_moments:
        assert got == ref
    else:
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.freqs.tobytes() == ref.freqs.tobytes()
        assert got.moments == ref.moments


def _full_fft_reference(x, ts, pad):
    """The estimate's grid and values, from every taper's and component's m-point FFT at once."""
    m = multitaper_grid_length(x.n_samples, pad)
    spec = np.fft.fft(ts.tapers[:, :, None] * x.samples[None, :, :], n=m, axis=1)
    raw = np.mean(np.sum(np.abs(spec) ** 2, axis=2), axis=0)
    half = raw[: m // 2 + 1].copy()
    half[1:-1] *= 2.0
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
    # odd, even and prime lengths, grids whose pad * n is odd, two shifts
    # (pad 1 or 2 on a 5-smooth n) up to many, against the unshifted transforms
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
    # the parity blocks and their eigenvectors are freed once the tapers are
    # unfolded: 8.8 MB at 1e5 (9.2 MB with the full-size solve, 11.2 MB while
    # its matrix was held through the concentrations)
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
    # one rfft/irfft pair of the 5-smooth length at or above 2n per taper for
    # its concentration, then, per taper and component, one L-point FFT per
    # shift of the grid, s shifts in all: shift 0 real, shifts 1 .. s/2
    # complex, the rest read from those reversed; no grid-length transform.
    # The exact moments add one irfft of at least 2n - 1 points for the
    # lags, and no second stream: not at pad 1, whose grid is pad 2's, nor
    # where pad * n rounds up to an odd 5-smooth length (1 088 to 1 125)
    points = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            points.append(out.size)
            return out

        monkeypatch.setattr(np.fft, name, counted)
    k = 3
    # record length, pad; concentration length, L, s, lags' inverse length
    for n, pad, acf, size, shifts, lags in [
        (1000, 8, 2000, 1000, 8, 2000),  # the 8n grid
        (1000, 1, 2000, 1000, 2, 2000),  # the 2n grid
        (136, 8, 288, 144, 8, 288),  # the grid of 1 152 points
    ]:
        points.clear()
        ts = slepian_tapers(n, 2.0, k)
        multitaper_joint_spectrum(RealSignal3(rng.normal(size=(n, 3))), ts, pad_factor=pad)
        concentrations = [acf // 2 + 1, acf] * k
        assert points == (
            concentrations + [size // 2 + 1] * k * 3 + [size] * k * 3 * (shifts // 2) + [lags]
        ), (n, pad)


@pytest.mark.parametrize("n", [64, 801, 99_999, 100_000])
def test_concentrations_row_by_row_equal_the_batched_transform(n):
    ts = slepian_tapers(n, 2.0, 3)
    w = 2.0 / n
    m = _fft_length(2 * n)
    acf = np.fft.irfft(np.abs(np.fft.rfft(ts.tapers, n=m, axis=1)) ** 2, n=m, axis=1)
    lags = np.arange(1, n)
    kernel = np.concatenate([[2.0 * w], 2.0 * np.sin(2.0 * np.pi * w * lags) / (np.pi * lags)])
    np.testing.assert_array_equal(ts.concentrations, acf[:, :n] @ kernel / acf[:, 0])
