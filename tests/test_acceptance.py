"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from triellipse import (
    OMEGA_BAR_DEFAULT,
    UPSILON_DEFAULT,
    RealSignal3,
    SynthSpec,
    analytic_transform,
    cross_checks,
    decompose_analytic,
    edge_mask,
    ellipse_extract,
    ellipse_synthesize,
    EllipseSeries,
    global_moments_spectral,
    global_moments_time,
    hilbert_check,
    instantaneous_moments,
    make_composite_seismic_like,
    make_reference_signal,
    make_random_modulated,
    make_smooth_path,
    multitaper_joint_spectrum,
    rotate_frame,
    slepian_tapers,
)

from conftest import random_rotation

ONE_RATE_MODES = ("amplitude", "internal_precession", "deformation", "nutation", "azimuth")


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_constant_geometry_round_trip():
    t0 = time.perf_counter()
    n = 1024
    truth = dict(a=3.0, b=2.0, theta=np.pi / 3, alpha=np.pi / 6, beta=np.pi / 4)
    phi = 2.0 * np.pi * 0.05 * np.arange(n)
    series = EllipseSeries.from_paths(phi=phi, **truth)
    e = ellipse_extract(ellipse_synthesize(series)).ellipse
    i = ~edge_mask(n)
    kappa0, lam0 = np.sqrt(6.5), 5.0 / 13.0
    amp_err = max(
        np.abs(e.kappa[i] - kappa0).max() / kappa0,
        np.abs(e.lam[i] - lam0).max(),
    )
    ang_err = max(
        np.abs(e.theta_unwrapped[i] - truth["theta"]).max(),
        np.abs(e.phi_unwrapped[i] - phi[i]).max(),
        np.abs(e.alpha[i] - truth["alpha"]).max(),
        np.abs(e.beta[i] - truth["beta"]).max(),
    )
    elapsed = time.perf_counter() - t0
    report(
        "C1 constant-geometry round trip",
        amp_err < 1e-8 and ang_err < 1e-6 and elapsed < 1.0,
        f"amp_err={amp_err:.2e} (<1e-8), angle_err={ang_err:.2e} (<1e-6), "
        f"runtime={elapsed:.2f}s (<1s)",
    )


def test_c2_constant_moment_quintuple():
    t0 = time.perf_counter()
    worst_om = worst_up = 0.0
    worst_frac = 1.0
    for mode in ONE_RATE_MODES:
        res = make_reference_signal(SynthSpec(n_samples=800, mode=mode))
        chain = decompose_analytic(res.signal, mean_freq=OMEGA_BAR_DEFAULT)
        m, d, total = chain.moments, chain.decomposition, cross_checks(chain).total
        i = ~edge_mask(800)
        worst_om = max(
            worst_om, np.abs(m.omega[i] - OMEGA_BAR_DEFAULT).max() / OMEGA_BAR_DEFAULT
        )
        worst_up = max(
            worst_up,
            np.abs(np.sqrt(m.upsilon2[i]) - UPSILON_DEFAULT).max() / UPSILON_DEFAULT,
        )
        worst_frac = min(worst_frac, (getattr(d, res.designated_term)[i] / total[i]).min())
    elapsed = time.perf_counter() - t0
    report(
        "C2 five one-rate signals",
        worst_om < 1e-3 and worst_up < 1e-3 and worst_frac > 0.99 and elapsed < 5.0,
        f"omega_dev={worst_om:.2e} (<1e-3), ups_dev={worst_up:.2e} (<1e-3), "
        f"designated_frac={worst_frac:.6f} (>0.99), runtime={elapsed:.2f}s (<5s)",
    )


def test_c3_multitaper_spectra():
    n, p, k = 800, 2.0, 3
    bw = 2.0 * np.pi * p / n
    tapers = slepian_tapers(n, p, k)
    means, norm_err = [], 0.0
    for mode in ONE_RATE_MODES:
        res = make_reference_signal(SynthSpec(n_samples=n, mode=mode))
        est = multitaper_joint_spectrum(RealSignal3(res.signal.samples.real), tapers)
        means.append(est.moments.mean_freq)
        norm_err = max(
            norm_err,
            abs(np.trapezoid(est.values, est.freqs) / (2 * np.pi) - 1.0),
        )
    means = np.array(means)
    pair = np.abs(means[:, None] - means[None, :]).max()
    dev = np.abs(means - OMEGA_BAR_DEFAULT).max()
    report(
        "C3 multitaper spectra virtually identical",
        pair < bw and dev < bw and norm_err < 1e-10,
        f"pairwise={pair:.2e} (<{bw:.2e}), dev_from_target={dev:.2e} (<{bw:.2e}), "
        f"norm_err={norm_err:.1e} (<1e-10)",
    )


def test_c4_global_moment_identities():
    n, k = 2048, 205  # 10% trim
    worst_om = worst_s2 = 0.0
    for seed in range(20):
        xp = make_random_modulated(n, seed)
        gs = global_moments_spectral(xp)
        m = instantaneous_moments(xp, mean_freq=gs.mean_freq)
        gt = global_moments_time(m, slice(k, n - k))
        worst_om = max(worst_om, abs(gt.mean_freq - gs.mean_freq) / gs.mean_freq)
        worst_s2 = max(
            worst_s2, abs(gt.second_central - gs.second_central) / gs.second_central
        )
    report(
        "C4 time vs spectral global moments (20 seeds)",
        worst_om < 1e-3 and worst_s2 < 1e-3,
        f"mean_freq rel diff={worst_om:.2e} (<1e-3), "
        f"second_central rel diff={worst_s2:.2e} (<1e-3)",
    )


def test_c5_identity_convergence():
    duration, carrier = 4096.0, 0.025
    res_om, res_up = [], []
    for n in (512, 1024, 2048, 4096):
        series, _ = make_smooth_path(n, duration, carrier=carrier)
        xp = ellipse_synthesize(series)
        chain = decompose_analytic(xp, mean_freq=carrier)
        m, ext, rates, _ = chain
        i = slice(int(0.1 * n), int(0.9 * n))
        e = ext.ellipse
        om_geom = rates.omega_phi + np.sqrt(1.0 - e.lam**2) * (
            rates.omega_theta + rates.omega_alpha * np.cos(e.beta)
        )
        res_om.append(np.abs(m.omega[i] - om_geom[i]).max() / carrier)
        total = cross_checks(chain).total
        res_up.append(np.abs(total[i] - m.upsilon2[i]).max() / m.upsilon2[i].max())
    ratios = [
        min(a / b for a, b in zip(series_res[:-1], series_res[1:]))
        for series_res in (res_om, res_up)
    ]
    report(
        "C5 reconstruction identities converge",
        min(ratios) >= 3.5 and res_om[-1] < 1e-6 and res_up[-1] < 1e-6,
        f"min doubling ratio={min(ratios):.1f} (>=3.5), "
        f"residuals at N=4096: omega={res_om[-1]:.2e}, ups={res_up[-1]:.2e} (<1e-6)",
    )


def test_c6_inequality_suite():
    slack = 1e-8
    worst_51 = worst_50 = -np.inf
    min_sigma2 = min_term = np.inf

    def scan(xp, mean_freq=None):
        nonlocal worst_51, worst_50, min_sigma2, min_term
        chain = decompose_analytic(xp, mean_freq=mean_freq)
        m, d, c = chain.moments, chain.decomposition, cross_checks(chain)
        i = ~edge_mask(xp.n_samples)
        worst_51 = max(worst_51, np.max(c.total[i] - c.bound[i]))
        worst_50 = max(worst_50, np.max(d.term_normal[i] - c.bound_normal[i]))
        min_sigma2 = min(min_sigma2, m.sigma2.min())
        for term in (d.term_amplitude, d.term_deformation,
                     d.term_precession, d.term_normal):
            min_term = min(min_term, term.min())

    for mode in ONE_RATE_MODES + ("fixed_geometry",):
        scan(make_reference_signal(SynthSpec(n_samples=800, mode=mode)).signal,
             mean_freq=OMEGA_BAR_DEFAULT)
    scan(ellipse_synthesize(make_smooth_path(2048, 2048.0)[0]), mean_freq=0.025)
    for seed in range(20):
        scan(make_random_modulated(1024, seed))
    report(
        "C6 nonnegativity and bandwidth bounds",
        worst_51 < slack and worst_50 < slack and min_sigma2 >= 0.0 and min_term >= 0.0,
        f"bound excess: four-term={worst_51:.1e}, normal-term={worst_50:.1e} "
        f"(<1e-8); min sigma2={min_sigma2:.1e}, min term={min_term:.1e} (>=0)",
    )


def test_c7_rotation_invariance():
    rng = np.random.default_rng(2024)
    xp = make_random_modulated(1024, 99)
    m, ext, rates, d = decompose_analytic(xp)
    worst = 0.0
    worst_n = 0.0
    for _ in range(50):
        r = random_rotation(rng)
        xr = rotate_frame(xp, r)
        mr, extr, ratesr, dr = decompose_analytic(xr, mean_freq=m.mean_freq)
        worst = max(
            worst,
            np.abs(mr.omega - m.omega).max(),
            np.abs(mr.upsilon2 - m.upsilon2).max(),
            np.abs(extr.ellipse.kappa - ext.ellipse.kappa).max(),
            np.abs(extr.ellipse.lam - ext.ellipse.lam).max(),
            np.abs(dr.term_amplitude - d.term_amplitude).max(),
            np.abs(dr.term_deformation - d.term_deformation).max(),
            np.abs(dr.term_precession - d.term_precession).max(),
            np.abs(dr.term_normal - d.term_normal).max(),
        )
        worst_n = max(worst_n, np.abs(extr.normal.n_hat - ext.normal.n_hat @ r.T).max())
    report(
        "C7 frame invariance (50 rotations)",
        worst < 1e-10 and worst_n < 1e-10,
        f"max invariant change={worst:.1e} (<1e-10), "
        f"normal transform error={worst_n:.1e} (<1e-10)",
    )


def test_c8_equivalence_oracles():
    series, _ = make_smooth_path(4096, 4096.0)
    xp = ellipse_synthesize(series)
    chain = decompose_analytic(xp, mean_freq=0.025)
    i = ~edge_mask(4096)
    planar_gap = np.abs(
        chain.decomposition.term_normal[i] - cross_checks(chain).term_normal_planar[i]
    ).max()

    forms_gap = 0.0
    hilbert_resid = 0.0
    rng = np.random.default_rng(5)
    for seed in range(5):
        x2 = make_random_modulated(1024, seed)
        chain2 = decompose_analytic(x2)
        forms_gap = max(
            forms_gap,
            np.abs(chain2.moments.upsilon2 - cross_checks(chain2).upsilon2_alt).max(),
        )
        xr = analytic_transform(RealSignal3(rng.normal(size=(1024, 3))))
        hilbert_resid = max(hilbert_resid, hilbert_check(xr))
    report(
        "C8 equivalence oracles",
        planar_gap < 1e-8 and forms_gap < 1e-10 and hilbert_resid < 1e-10,
        f"normal-term planar gap={planar_gap:.1e} (<1e-8), "
        f"bandwidth forms gap={forms_gap:.1e} (<1e-10), "
        f"analyticity residual={hilbert_resid:.1e} (<1e-10)",
    )


def test_c9_seismic_like_composite():
    love = SynthSpec(n_samples=800, mode="fixed_geometry", omega_bar=0.2,
                     a0=1.0, b0=0.02, theta0=np.pi / 2, beta0=0.0, alpha0=0.0)
    rayleigh = SynthSpec(n_samples=800, mode="fixed_geometry", omega_bar=0.15,
                         a0=1.0, b0=1.0, theta0=0.0, beta0=np.pi / 2, alpha0=np.pi)
    comp = make_composite_seismic_like([love, rayleigh], snr_db=20.0, seed=7)
    xp = analytic_transform(comp.signal)
    # near-linear flagging threshold suited to a 20 dB noise floor
    ext = ellipse_extract(xp, eps_lin=0.25)
    seg_lin, seg_circ = comp.segments
    i0 = slice(seg_lin.interior.start + 8, seg_lin.interior.stop - 8)
    i1 = slice(seg_circ.interior.start + 8, seg_circ.interior.stop - 8)
    lam_lin_p5 = np.percentile(ext.ellipse.lam[i0], 5)
    lam_circ_p95 = np.percentile(ext.ellipse.lam[i1], 95)
    dots = ext.normal.n_hat[i1] @ seg_circ.n_hat_nominal
    dot_p5 = np.percentile(dots, 5)
    flag_frac = ext.ellipse.degenerate[i0].mean()
    cos8 = np.cos(np.deg2rad(8.0))
    report(
        "C9 linear-then-circular composite at 20 dB",
        lam_lin_p5 > 0.95 and lam_circ_p95 < 0.2 and dot_p5 > cos8 and flag_frac >= 0.9,
        f"lam linear p5={lam_lin_p5:.3f} (>0.95), lam circular p95={lam_circ_p95:.3f} "
        f"(<0.2), normal alignment p5={dot_p5:.4f} (>{cos8:.4f}), "
        f"degenerate flag fraction={flag_frac:.2f} (>=0.9)",
    )
