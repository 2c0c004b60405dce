"""Seeded inputs, operations and output checks of the three workloads.

Each workload generates its inputs from the seed with the package's own
generators (which also hand the benchmark the ground truth the program
never sees), then yields closed-loop *units* of operations.  An operation
is one ``triellipse`` CLI call or one library chain; it runs as a child
process in a timed run and in-process in the traced run.  Every
operation's outputs are checked after the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import triellipse
import triellipse.cli as cli


@dataclass(frozen=True)
class Sizes:
    random_modulated: int          # analyze_large kind (a), even length
    composite: tuple[int, int]     # analyze_large kind (b) segments; 32-sample crossfade
    library: int                   # library_large record length
    short: int                     # short_records synth length


FULL = Sizes(100_000, (50_000, 50_031), 270_000, 800)   # composite: 99 999 samples
SMOKE = Sizes(4_000, (2_000, 2_031), 6_000, 800)

# The trimmed time-domain route and the full-record spectral route of the
# second central moment differ by the record-end energy, which at 1e5
# samples is comparable to the moment itself (about 5e-9 rad^2): seeds
# 0-59 give rel diffs up to 6.4e-3, 13 of them above acceptance C4's 1e-3.
# The mean frequency keeps C4's 1e-3 (worst 3.4e-5).
C4_MEAN_FREQ_TOL = 1e-3
C4_SECOND_CENTRAL_TOL = 1e-2


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One closed-loop operation."""

    label: str                     # "<kind>:<input>", e.g. "analyze:composite"
    kind: str                      # analyze | spectrum | synth | pipeline
    argv: list[str]                # CLI arguments, or libchain.py arguments
    out: Path
    samples: int
    check: Callable[["Op"], None]
    reads: Path | None = None      # CSV the operation parses


def write_csv(path: Path, samples: np.ndarray) -> None:
    t = np.arange(samples.shape[0], dtype=float)
    np.savetxt(path, np.column_stack([t, samples]), fmt="%.17g", delimiter=",",
               header="t,x,y,z", comments="")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _columns(path: Path, names: list[str]) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    missing = [n for n in names if n not in header]
    _require(not missing, f"{path.name}: missing columns {missing}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[header.index(n) for n in names])


def _cells(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = np.array([ln.split(",") for ln in lines[1:]])
    _require(cells.ndim == 2 and cells.shape[1] == len(header), f"{path.name}: ragged table")
    return {name: cells[:, j] for j, name in enumerate(header)}


def _printed(values: np.ndarray) -> np.ndarray:
    """The CLI's table text for a column: 0/1 flags, else 12 decimals."""
    if values.dtype == bool:
        return np.char.mod("%d", values.astype(int))
    return np.char.mod("%.12e", values)


def _same_table(path: Path, expected: dict[str, np.ndarray]) -> None:
    got = _cells(path)
    for name, values in expected.items():
        _require(name in got, f"{path.name}: no column {name!r}")
        want = _printed(np.asarray(values))
        _require(got[name].shape == want.shape,
                 f"{path.name}: {got[name].size} rows, expected {want.size}")
        bad = np.flatnonzero(got[name] != want)
        _require(bad.size == 0, f"{path.name}: column {name!r} differs from the library "
                 f"at {bad.size} rows, first row {bad[:1] + 2}")


def _same_values(path: Path, expected: dict[str, float], rel: float = 1e-12) -> None:
    got = json.loads(path.read_text())
    for key, want in expected.items():
        _require(key in got, f"{path.name}: no key {key!r}")
        ok = abs(got[key] - want) <= rel * max(abs(want), abs(got[key]))
        _require(ok, f"{path.name}: {key} = {got[key]!r}, library gives {want!r}")


class Workload:
    name = ""  # as in BENCHMARK.json, which also says why the workload exists

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work, self.seed, self.sizes = work, seed, sizes
        self._ops = 0

    def setup(self) -> None:
        """Generate and write the inputs and the ground truth the checks use."""
        raise NotImplementedError

    def unit(self) -> list[Op]:
        """One closed-loop unit; the run repeats whole units."""
        raise NotImplementedError

    def inputs(self) -> dict:
        """Input sizes, for the provenance record."""
        raise NotImplementedError

    def _out(self, tag: str) -> Path:
        self._ops += 1
        return self.work / "out" / f"{self._ops:04d}-{tag}"


class AnalyzeLarge(Workload):
    name = "analyze_large"

    def setup(self) -> None:
        s = self.sizes
        xa = triellipse.make_random_modulated(s.random_modulated, self.seed).samples.real
        write_csv(self.work / "random_modulated.csv", xa)
        n1, n2 = s.composite
        linear = triellipse.SynthSpec(
            n_samples=n1, mode="fixed_geometry", omega_bar=0.2,
            a0=1.0, b0=0.02, theta0=np.pi / 2, beta0=0.0, alpha0=0.0)
        circular = triellipse.SynthSpec(
            n_samples=n2, mode="fixed_geometry", omega_bar=0.15,
            a0=1.0, b0=1.0, theta0=0.0, beta0=np.pi / 2, alpha0=np.pi)
        comp = triellipse.make_composite_seismic_like(
            [linear, circular], snr_db=20.0, seed=self.seed)
        write_csv(self.work / "composite.csv", comp.signal.samples)
        self.composite_n = comp.signal.n_samples
        self.segments = comp.segments

    def inputs(self) -> dict:
        return {"random_modulated": self.sizes.random_modulated,
                "composite": self.composite_n, "composite_snr_db": 20.0}

    def unit(self) -> list[Op]:
        a = self.work / "random_modulated.csv"
        b = self.work / "composite.csv"
        oa, ob = self._out("a"), self._out("b")
        return [
            Op("analyze:random_modulated", "analyze", ["analyze", str(a), "--out", str(oa)],
               oa, self.sizes.random_modulated, self._check_c4, reads=a),
            Op("analyze:composite", "analyze",
               ["analyze", str(b), "--eps-lin", "0.25", "--out", str(ob)],
               ob, self.composite_n, self._check_c9, reads=b),
        ]

    def _check_c4(self, op: Op) -> None:
        s = json.loads((op.out / "summary.json").read_text())
        _require(s["n_samples"] == op.samples, f"n_samples {s['n_samples']} != {op.samples}")
        _require(s["mean_freq_rel_diff"] < C4_MEAN_FREQ_TOL,
                 f"C4 mean_freq_rel_diff {s['mean_freq_rel_diff']:.3g} >= {C4_MEAN_FREQ_TOL}")
        _require(s["second_central_rel_diff"] < C4_SECOND_CENTRAL_TOL,
                 f"second_central_rel_diff {s['second_central_rel_diff']:.3g} "
                 f">= {C4_SECOND_CENTRAL_TOL}")
        _require(_columns(op.out / "analysis.csv", ["t"]).shape[0] == op.samples,
                 "analysis.csv row count")

    def _check_c9(self, op: Op) -> None:
        """Acceptance C9's thresholds inside the known segment interiors."""
        cols = _columns(op.out / "analysis.csv",
                        ["lambda", "nhat_x", "nhat_y", "nhat_z", "flag_degenerate"])
        _require(cols.shape[0] == op.samples, "analysis.csv row count")
        lin, circ = self.segments
        i0 = slice(lin.interior.start + 8, lin.interior.stop - 8)
        i1 = slice(circ.interior.start + 8, circ.interior.stop - 8)
        lam_lin = np.percentile(cols[i0, 0], 5)
        lam_circ = np.percentile(cols[i1, 0], 95)
        align = np.percentile(cols[i1, 1:4] @ circ.n_hat_nominal, 5)
        flagged = cols[i0, 4].mean()
        _require(lam_lin > 0.95, f"C9 linear lambda p5 {lam_lin:.3f} <= 0.95")
        _require(lam_circ < 0.2, f"C9 circular lambda p95 {lam_circ:.3f} >= 0.2")
        _require(align > np.cos(np.deg2rad(8.0)), f"C9 normal alignment p5 {align:.4f}")
        _require(flagged >= 0.9, f"C9 degenerate flag fraction {flagged:.3f} < 0.9")


class LibraryLarge(Workload):
    name = "library_large"

    def setup(self) -> None:
        x = triellipse.make_random_modulated(self.sizes.library, self.seed).samples.real
        np.save(self.work / "record.npy", x)

    def inputs(self) -> dict:
        return {"record": self.sizes.library}

    def unit(self) -> list[Op]:
        out = self._out("chain")
        return [Op("pipeline:random_modulated", "pipeline",
                   [str(self.work / "record.npy"), str(out)], out,
                   self.sizes.library, self._check)]

    def _check(self, op: Op) -> None:
        c = json.loads((op.out / "chain.json").read_text())
        _require(c["n_samples"] == op.samples, "n_samples")
        rel = abs(c["mean_freq_time"] - c["mean_freq_spectral"]) / c["mean_freq_spectral"]
        _require(rel < C4_MEAN_FREQ_TOL, f"C4 mean frequency rel diff {rel:.3g}")
        _require(abs(c["normalization"] - 1.0) < 1e-9,
                 f"multitaper normalization {c['normalization']!r}")
        mt = abs(c["mean_freq_multitaper"] - c["mean_freq_spectral"]) / c["mean_freq_spectral"]
        _require(mt < 1e-3, f"multitaper mean frequency rel diff {mt:.3g}")
        conc = c["concentrations"]
        _require(len(conc) == 3 and all(a > b for a, b in zip(conc, conc[1:])) and conc[-1] > 0.9,
                 f"taper concentrations {conc}")


class ShortRecords(Workload):
    name = "short_records"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # ranges valid for every mode at n = 800 (deformation bounds upsilon)
        self.omega_bar = triellipse.OMEGA_BAR_DEFAULT * rng.uniform(0.9, 1.1)
        self.upsilon = triellipse.UPSILON_DEFAULT * rng.uniform(0.9, 1.05)
        n = self.sizes.short
        t = np.arange(n, dtype=float)
        self.expected_signal = {}
        for mode in triellipse.MODES:
            spec = triellipse.SynthSpec(n_samples=n, mode=mode,
                                        omega_bar=self.omega_bar, upsilon=self.upsilon)
            real = triellipse.make_reference_signal(spec).signal.samples.real
            cols = [_printed(c) for c in (t, real[:, 0], real[:, 1], real[:, 2])]
            rows = [",".join(r) for r in zip(*cols)]
            self.expected_signal[mode] = ("t,x,y,z\n" + "\n".join(rows) + "\n").encode()
        self._reference: dict[str, tuple] = {}

    def inputs(self) -> dict:
        return {"n": self.sizes.short, "modes": list(triellipse.MODES),
                "omega_bar": self.omega_bar, "upsilon": self.upsilon}

    def unit(self) -> list[Op]:
        n, ops = self.sizes.short, []
        for mode in triellipse.MODES:
            syn, ana, spe = (self._out(f"{kind}-{mode}")
                             for kind in ("synth", "analyze", "spectrum"))
            csv = syn / f"signal_{mode}.csv"
            ops += [
                Op(f"synth:{mode}", "synth",
                   ["synth", "--mode", mode, "--n", str(n), "--omega-bar", repr(self.omega_bar),
                    "--upsilon", repr(self.upsilon), "--out", str(syn)],
                   syn, n, self._check_synth),
                Op(f"analyze:{mode}", "analyze", ["analyze", str(csv), "--out", str(ana)],
                   ana, n, self._check_analyze, reads=csv),
                Op(f"spectrum:{mode}", "spectrum", ["spectrum", str(csv), "--out", str(spe)],
                   spe, n, self._check_spectrum, reads=csv),
            ]
        return ops

    def _check_synth(self, op: Op) -> None:
        mode = op.label.split(":")[1]
        got = (op.out / f"signal_{mode}.csv").read_bytes()
        _require(got == self.expected_signal[mode],
                 f"signal_{mode}.csv differs from make_reference_signal at 12 decimals")
        _require((op.out / f"truth_{mode}.csv").is_file(), f"truth_{mode}.csv missing")

    def _library(self, csv: Path):
        """In-process library run on the CSV an operation read, cached per input."""
        key = csv.name
        if key not in self._reference:
            ds = cli.read_dataset(csv)
            sig = triellipse.RealSignal3(ds.channels, dt=ds.dt)
            est = triellipse.multitaper_joint_spectrum(
                sig, triellipse.slepian_tapers(sig.n_samples, 2.0, 3), pad_factor=8)
            self._reference[key] = (ds, cli.analyze_signal(sig), est)
        return self._reference[key]

    def _check_analyze(self, op: Op) -> None:
        ds, res, est = self._library(op.reads)
        e, m, d, nrm = res.ellipse, res.moments, res.decomposition, res.normal
        _same_table(op.out / "analysis.csv", {
            "t": ds.time, "kappa": e.kappa, "lambda": e.lam, "theta": e.theta,
            "phi": e.phi, "alpha": e.alpha, "beta": e.beta,
            "nhat_x": nrm.n_hat[:, 0], "nhat_y": nrm.n_hat[:, 1], "nhat_z": nrm.n_hat[:, 2],
            "omega_x": m.omega, "sigma2_x": m.sigma2, "upsilon2_x": m.upsilon2,
            "bw_amplitude": d.term_amplitude, "bw_deformation": d.term_deformation,
            "bw_precession": d.term_precession, "bw_normal": d.term_normal,
            "flag_edge": m.edge, "flag_degenerate": e.degenerate,
            "flag_circular": e.circular, "flag_unreliable": m.unreliable,
        })
        gt, gs = res.global_time, res.global_spectral
        _same_values(op.out / "summary.json", {
            "energy": gt.energy, "mean_freq_time": gt.mean_freq,
            "mean_freq_spectral": gs.mean_freq, "second_central_time": gt.second_central,
            "second_central_spectral": gs.second_central,
            "mean_freq_multitaper": est.moments.mean_freq,
            "second_central_multitaper": est.moments.second_central,
            "flags_excluded": res.excluded, "n_samples": op.samples,
        })

    def _check_spectrum(self, op: Op) -> None:
        _, res, est = self._library(op.reads)
        _same_table(op.out / "spectrum.csv", {
            "freq_rad": est.freqs, "freq_cycles": est.freqs * res.signal.dt / (2 * np.pi),
            "s_x": est.values,
        })
        _same_values(op.out / "spectrum_summary.json", {
            "mean_freq_spectral": est.moments.mean_freq,
            "second_central_spectral": est.moments.second_central,
        })


WORKLOADS = {w.name: w for w in (AnalyzeLarge, LibraryLarge, ShortRecords)}
