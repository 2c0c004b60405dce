#!/usr/bin/env python3
"""Build the five constant-moment reference signals and their spectra.

Writes each signal (plus ground truth) as CSV, estimates the multitaper
joint spectrum of every mode, and prints a table of the measured
instantaneous and global moments next to the targets: all five signals
share the same mean frequency and bandwidth magnitude while a different
ellipse-geometry rate does the work in each one.

Usage: python scripts/constant_moment_family.py [--out DIR] [--n 800]
"""

import argparse
from pathlib import Path

import numpy as np

from triellipse import (
    MODES,
    OMEGA_BAR_DEFAULT,
    UPSILON_DEFAULT,
    RealSignal3,
    SynthSpec,
    decompose_analytic,
    edge_mask,
    make_reference_signal,
    multitaper_joint_spectrum,
    slepian_tapers,
)
from triellipse.cli import main as cli_main


def run(out: Path, n: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    tapers = slepian_tapers(n, 2.0, 3)
    interior = ~edge_mask(n)

    for mode in MODES:
        cli_main(["synth", "--mode", mode, "--n", str(n), "--out", str(out)])

    print(f"\ntargets: mean freq {OMEGA_BAR_DEFAULT:.6f} rad/sample "
          f"({OMEGA_BAR_DEFAULT / (2 * np.pi):.4f} cyc/sample), "
          f"|bandwidth| {UPSILON_DEFAULT:.6f} rad/sample")
    header = (f"{'mode':22s} {'omega_x':>10s} {'|upsilon|':>10s} "
              f"{'spectral_mean':>13s} {'dominant term':>16s}")
    print(header)
    print("-" * len(header))

    for mode in MODES:
        res = make_reference_signal(SynthSpec(n_samples=n, mode=mode))
        m, _, _, d = decompose_analytic(res.signal, mean_freq=OMEGA_BAR_DEFAULT)
        est = multitaper_joint_spectrum(
            RealSignal3(res.signal.samples.real), tapers
        )
        np.savetxt(
            out / f"spectrum_{mode}.csv",
            np.column_stack([est.freqs, est.values]),
            delimiter=",", header="freq_rad,s_x", comments="", fmt="%.12e",
        )
        terms = {name: float(np.median(getattr(d, name)[interior]))
                 for name in ("term_amplitude", "term_deformation",
                              "term_precession", "term_normal")}
        dominant = max(terms, key=terms.get) if mode != "fixed_geometry" else "-"
        print(f"{mode:22s} {np.median(m.omega[interior]):10.6f} "
              f"{np.median(np.sqrt(m.upsilon2[interior])):10.6f} "
              f"{est.moments.mean_freq:13.6f} {dominant:>16s}")

    print(f"\nwrote signals, ground truth, and spectra to {out}/")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="family_out", type=Path)
    parser.add_argument("--n", default=800, type=int)
    args = parser.parse_args()
    run(args.out, args.n)
