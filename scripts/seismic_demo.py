#!/usr/bin/env python3
"""Polarization analysis of a synthetic linear-then-circular record.

Mimics the structure of a two-arrival surface-wave record: a linearly
polarized oscillation in the transverse direction followed by a circularly
polarized wave in the radial/vertical plane, plus seeded noise.  Runs the
full pipeline once, through the CLI, which writes the per-sample table and
the unit-sphere tracks; then prints per-segment statistics from that table,
showing how the linearity and the unit normal separate the two regimes.

Usage: python scripts/seismic_demo.py [--out DIR] [--snr-db 20]
"""

import argparse
from pathlib import Path

import numpy as np

from triellipse import SynthSpec, make_composite_seismic_like
from triellipse.cli import main as cli_main


def run(out: Path, snr_db: float, seed: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    love = SynthSpec(n_samples=800, mode="fixed_geometry", omega_bar=0.2,
                     a0=1.0, b0=0.02, theta0=np.pi / 2, beta0=0.0, alpha0=0.0)
    rayleigh = SynthSpec(n_samples=800, mode="fixed_geometry", omega_bar=0.15,
                         a0=1.0, b0=1.0, theta0=0.0, beta0=np.pi / 2, alpha0=np.pi)
    comp = make_composite_seismic_like([love, rayleigh], snr_db=snr_db, seed=seed)

    raw = comp.signal.samples + comp.signal.mean
    t = np.arange(comp.signal.n_samples)
    csv = out / "composite.csv"
    np.savetxt(csv, np.column_stack([t, raw]), delimiter=",",
               header="t,x,y,z", comments="", fmt="%.12e")

    if cli_main(["analyze", str(csv), "--eps-lin", "0.25", "--out", str(out)]) != 0:
        return
    table = out / "analysis.csv"
    with open(table) as fh:
        names = fh.readline().strip().split(",")
    col = dict(zip(names, np.loadtxt(table, delimiter=",", skiprows=1, unpack=True)))
    n_hat = np.column_stack([col["nhat_x"], col["nhat_y"], col["nhat_z"]])
    labels = ("linear (transverse)", "circular (radial/vertical)")
    for label, seg in zip(labels, comp.segments):
        sl = slice(seg.interior.start + 8, seg.interior.stop - 8)
        dots = n_hat[sl] @ seg.n_hat_nominal
        print(f"{label:28s} samples [{seg.start},{seg.stop}): "
              f"median lam={np.median(col['lambda'][sl]):.3f}, "
              f"median normal alignment={np.median(dots):.4f}, "
              f"degenerate flags={col['flag_degenerate'][sl].mean():.0%}")
    print(f"full analysis written to {out}/ "
          "(analysis.csv, summary.json, sphere_xhat.csv, sphere_nhat.csv)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="seismic_out", type=Path)
    parser.add_argument("--snr-db", default=20.0, type=float)
    parser.add_argument("--seed", default=7, type=int)
    args = parser.parse_args()
    run(args.out, args.snr_db, args.seed)
