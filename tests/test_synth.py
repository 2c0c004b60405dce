from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triellipse import (
    MODES,
    OMEGA_BAR_DEFAULT,
    UPSILON_DEFAULT,
    EllipseRates,
    SynthSpec,
    analytic_transform,
    cross_checks,
    decompose_analytic,
    edge_mask,
    ellipse_extract,
    ellipse_rates,
    finite_diff,
    global_moments_time,
    instantaneous_moments,
    make_composite_seismic_like,
    make_reference_signal,
    make_random_modulated,
    make_smooth_path,
)

VARYING_MODES = ("amplitude", "internal_precession", "deformation", "nutation", "azimuth")


@pytest.mark.parametrize("mode", VARYING_MODES)
def test_mode_has_constant_moments_at_targets(mode):
    res = make_reference_signal(SynthSpec(n_samples=800, mode=mode))
    m = instantaneous_moments(res.signal, mean_freq=OMEGA_BAR_DEFAULT)
    i = ~edge_mask(800)
    om_dev = np.abs(m.omega[i] - OMEGA_BAR_DEFAULT).max() / OMEGA_BAR_DEFAULT
    up_dev = np.abs(np.sqrt(m.upsilon2[i]) - UPSILON_DEFAULT).max() / UPSILON_DEFAULT
    assert om_dev < 1e-3
    assert up_dev < 1e-3


@pytest.mark.parametrize("mode", VARYING_MODES)
def test_mode_designated_term_dominates(mode):
    res = make_reference_signal(SynthSpec(n_samples=800, mode=mode))
    chain = decompose_analytic(res.signal, mean_freq=OMEGA_BAR_DEFAULT)
    d, total = chain.decomposition, cross_checks(chain).total
    i = ~edge_mask(800)
    frac = getattr(d, res.designated_term)[i] / total[i]
    assert frac.min() > 0.99
    # no other term exceeds 1e-3 of the bandwidth anywhere in the interior
    for name in ("term_amplitude", "term_deformation", "term_precession", "term_normal"):
        if name != res.designated_term:
            assert np.max(getattr(d, name)[i]) < 1e-3 * UPSILON_DEFAULT**2 + 1e-20


def test_modes_share_global_moments():
    # the whole point of the family: five different geometry evolutions,
    # same first two global moments
    moments = []
    for mode in VARYING_MODES:
        res = make_reference_signal(SynthSpec(n_samples=800, mode=mode))
        m = instantaneous_moments(res.signal, mean_freq=OMEGA_BAR_DEFAULT)
        g = global_moments_time(m, slice(80, 720))
        moments.append((g.mean_freq, g.second_central))
    freqs, seconds = np.array(moments).T
    assert (freqs.max() - freqs.min()) / freqs.mean() < 1e-3
    assert (seconds.max() - seconds.min()) / seconds.mean() < 1e-3


def test_fixed_geometry_mode_has_zero_rates():
    res = make_reference_signal(SynthSpec(n_samples=800, mode="fixed_geometry"))
    m = instantaneous_moments(res.signal, mean_freq=OMEGA_BAR_DEFAULT)
    rates = ellipse_rates(ellipse_extract(res.signal).ellipse)
    i = ~edge_mask(800)
    assert np.abs(m.upsilon2[i]).max() < 1e-12
    for r in (rates.dkappa_rel, rates.dlambda, rates.omega_theta,
              rates.omega_alpha, rates.omega_beta):
        assert np.abs(r[i]).max() < 1e-8


def test_truth_rates_match_differentiated_paths():
    for mode in VARYING_MODES:
        res = make_reference_signal(SynthSpec(n_samples=512, mode=mode))
        tr, rr = res.truth, res.truth_rates
        i = ~edge_mask(512)
        checks = [
            (np.log(tr.kappa), rr.dkappa_rel),
            (tr.lam, rr.dlambda),
            (tr.phi_unwrapped, rr.omega_phi),
            (tr.theta_unwrapped, rr.omega_theta),
            (tr.alpha_unwrapped, rr.omega_alpha),
            (tr.beta, rr.omega_beta),
        ]
        for path, rate in checks:
            assert np.abs(finite_diff(path, tr.dt)[i] - rate[i]).max() < 1e-9


def test_mode_rejections():
    with pytest.raises(ValueError):
        SynthSpec(n_samples=800, mode="wobble")
    with pytest.raises(ValueError):
        # sweep too wide for lam in (0,1)
        make_reference_signal(SynthSpec(n_samples=2000, mode="deformation", upsilon=5e-4))
    with pytest.raises(ValueError):
        # nutation reaches the beta pole
        make_reference_signal(
            SynthSpec(n_samples=800, mode="nutation", beta0=3.0, upsilon=5e-4)
        )
    with pytest.raises(ValueError):
        make_reference_signal(SynthSpec(n_samples=800, mode="azimuth", beta0=np.pi / 2))
    with pytest.raises(ValueError):
        # precession absorbs the whole mean frequency
        make_reference_signal(
            SynthSpec(n_samples=800, mode="internal_precession",
                      omega_bar=1e-5, upsilon=1e-3)
        )


@pytest.mark.parametrize("kwargs, field", [
    # frequencies of the record beyond the orbital rate: an interior omega
    # of 0.705 and 1.280 against targets 1.0 and 0.5
    (dict(mode="internal_precession", lambda_precession=0.99999, omega_bar=1.0, upsilon=4.0),
     "upsilon"),
    (dict(mode="azimuth", beta0=2.0, omega_bar=0.5, upsilon=2.0), "upsilon"),
    # base amplitudes: a late failure naming no field, an OverflowError, a zero record
    (dict(mode="amplitude", a0=np.inf), "a0"),
    (dict(mode="nutation", a0=np.nan), "a0"),
    (dict(mode="amplitude", a0=1e200, b0=0.0), "a0"),
    (dict(mode="amplitude", a0=0.0, b0=0.0), "a0"),
    (dict(mode="fixed_geometry", a0=1e-200, b0=0.0), "a0"),
])
def test_bad_spec_names_the_field_to_change(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        SynthSpec(n_samples=2048, **kwargs)


def _balance(spec):
    """The module docstring's balance column: the truth's nonzero constant rates."""
    u, wbar, b0, lam = spec.upsilon, spec.omega_bar, spec.beta0, spec.lambda_precession
    if spec.mode == "amplitude":
        return {"omega_phi": wbar, "dkappa_rel": u}
    if spec.mode == "internal_precession":
        return {"omega_phi": wbar - np.sqrt(1.0 - lam**2) * (u / lam), "omega_theta": u / lam}
    if spec.mode == "nutation":
        return {"omega_phi": wbar, "omega_beta": np.sqrt(2.0) * u}
    if spec.mode == "azimuth":
        omega_alpha = np.sqrt(2.0) * u / np.sin(b0)
        return {"omega_phi": wbar - omega_alpha * np.cos(b0), "omega_alpha": omega_alpha}
    return {"omega_phi": wbar}


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    n=st.integers(64, 2048),
    omega_bar=st.floats(0.0, 2.0 * np.pi),
    upsilon=st.floats(0.0, 10.0) | st.floats(-8.0, 1.0).map(lambda e: 10.0**e),
    beta0=st.floats(0.0, np.pi),
    lam=st.floats(0.0, 1.0),
    dt=st.floats(0.0, 100.0) | st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
)
def test_spec_is_rejected_or_its_paths_hold(mode, n, omega_bar, upsilon, beta0, lam, dt):
    try:
        spec = SynthSpec(n_samples=n, mode=mode, omega_bar=omega_bar, upsilon=upsilon,
                         beta0=beta0, lambda_precession=lam, dt=dt)
    except ValueError as exc:
        # the CLI names the flag of the field a message starts with
        assert str(exc).partition(" ")[0] in {f.name for f in fields(SynthSpec)}, exc
        return
    res = make_reference_signal(spec)
    assert np.isfinite(res.signal.samples).all()
    assert ((res.truth.lam >= 0) & (res.truth.lam <= 1)).all()
    if mode == "nutation":
        assert ((res.truth.beta >= 0.1) & (res.truth.beta <= np.pi - 0.1)).all()
    # every frequency the record carries lies in (0, pi / dt)
    rates = res.truth_rates
    for rate in (0.0, rates.omega_theta, rates.omega_alpha, rates.omega_beta):
        for step in ((rates.omega_phi - rate) * dt, (rates.omega_phi + rate) * dt):
            assert ((step > 0) & (step < np.pi)).all()
    balance = _balance(spec)
    for f in fields(EllipseRates):
        if not (mode == "deformation" and f.name == "dlambda"):
            assert (getattr(res.truth_rates, f.name) == balance.get(f.name, 0.0)).all(), f.name


def test_composite_zero_noise_matches_segments():
    specs = [
        SynthSpec(n_samples=300, mode="fixed_geometry", omega_bar=0.2),
        SynthSpec(n_samples=300, mode="fixed_geometry", omega_bar=0.15,
                  a0=1.0, b0=1.0, beta0=np.pi / 2, alpha0=np.pi, theta0=0.0),
    ]
    comp = make_composite_seismic_like(specs, snr_db=None, crossfade=32)
    assert comp.noise_sigma == 0.0
    ref0 = make_reference_signal(specs[0]).signal.samples.real
    seg0 = comp.segments[0]
    raw = comp.signal.samples + comp.signal.mean
    sl = seg0.interior
    assert np.abs(raw[sl] - ref0[sl.start - seg0.start:sl.stop - seg0.start]).max() < 1e-12


def test_composite_segment_bookkeeping():
    specs = [SynthSpec(n_samples=200, mode="fixed_geometry"),
             SynthSpec(n_samples=300, mode="fixed_geometry"),
             SynthSpec(n_samples=250, mode="fixed_geometry")]
    comp = make_composite_seismic_like(specs, crossfade=20)
    assert comp.signal.n_samples == 200 + 300 + 250 - 2 * 20
    assert comp.segments[0].start == 0
    assert comp.segments[1].start == 180
    assert comp.segments[-1].stop == comp.signal.n_samples


def test_composite_noise_reproducible():
    specs = [SynthSpec(n_samples=300, mode="fixed_geometry")]
    a = make_composite_seismic_like(specs, snr_db=20.0, seed=9)
    b = make_composite_seismic_like(specs, snr_db=20.0, seed=9)
    c = make_composite_seismic_like(specs, snr_db=20.0, seed=10)
    assert np.array_equal(a.signal.samples, b.signal.samples)
    assert not np.array_equal(a.signal.samples, c.signal.samples)


def test_composite_love_rayleigh_discrimination():
    love = SynthSpec(n_samples=600, mode="fixed_geometry", omega_bar=0.2,
                     a0=1.0, b0=0.02, theta0=np.pi / 2, beta0=0.0, alpha0=0.0)
    rayleigh = SynthSpec(n_samples=600, mode="fixed_geometry", omega_bar=0.15,
                         a0=1.0, b0=1.0, theta0=0.0, beta0=np.pi / 2, alpha0=np.pi)
    comp = make_composite_seismic_like([love, rayleigh], snr_db=None)
    ext = ellipse_extract(analytic_transform(comp.signal))
    i0 = slice(comp.segments[0].interior.start + 40, comp.segments[0].interior.stop - 40)
    i1 = slice(comp.segments[1].interior.start + 40, comp.segments[1].interior.stop - 40)
    assert np.median(ext.ellipse.lam[i0]) > 0.99
    assert np.median(ext.ellipse.lam[i1]) < 0.05
    dots = ext.normal.n_hat[i1] @ comp.segments[1].n_hat_nominal
    assert np.median(dots) > 0.999


def test_smooth_path_rates_are_exact_derivatives():
    series, rates = make_smooth_path(1024, 1024.0)
    i = ~edge_mask(1024)
    assert np.abs(finite_diff(np.log(series.kappa))[i] - rates.dkappa_rel[i]).max() < 1e-6
    assert np.abs(finite_diff(series.phi_unwrapped)[i] - rates.omega_phi[i]).max() < 1e-6


def test_random_modulated_reproducible_and_sane():
    a = make_random_modulated(512, 5)
    b = make_random_modulated(512, 5)
    c = make_random_modulated(512, 6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    e = ellipse_extract(a).ellipse
    assert e.lam.max() <= 0.75
    assert e.lam.min() >= 0.15
    assert not e.degenerate.any()
