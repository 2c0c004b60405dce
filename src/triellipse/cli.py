"""Command-line front end: analyze, synth, and spectrum subcommands.

``analyze`` ingests a three-component CSV record, optionally rotates the
horizontal frame by a bearing, runs the full pipeline (analytic signal,
ellipse extraction, rates, instantaneous moments, bandwidth
decomposition), and writes a per-sample table, a JSON summary with both
the time-domain and Fourier-domain global moments, and unit-sphere track
files for the signal direction and the ellipse-plane normal.  ``synth``
writes the reference signals as CSV plus a ground-truth sidecar;
``spectrum`` writes the multitaper joint-spectrum estimate.

Input CSV: header row (default columns ``t,x,y,z``), comma separated,
``#`` comment lines ignored, uniform time grid.  Exit codes: 0 success,
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .analytic import AnalyticSignal3, RealSignal3, analytic_transform
from .ellipse import (
    EPS_CIRC_DEFAULT,
    EPS_LIN_DEFAULT,
    EllipseRates,
    EllipseSeries,
    NormalSeries,
    ellipse_extract,
    ellipse_rates,
    rot_z,
    rotate_frame,
)
from .moments import (
    EPS_POW_DEFAULT,
    BandwidthDecomposition,
    GlobalMoments,
    MomentsSeries,
    bandwidth_decompose,
    global_moments_spectral,
    global_moments_time,
    instantaneous_moments,
)
from .spectrum import MIN_TAPER_SAMPLES, multitaper_joint_spectrum, slepian_tapers
from .synth import MODES, OMEGA_BAR_DEFAULT, UPSILON_DEFAULT, SynthSpec, make_reference_signal

__all__ = ["main", "Dataset", "RunConfig", "read_dataset", "analyze_signal"]


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class Dataset:
    """A parsed three-component record on a uniform time grid."""

    time: np.ndarray
    channels: np.ndarray
    names: tuple[str, str, str]
    dt: float


def _check_taper_settings(taper_p: float, n_tapers: int, pad_factor: int) -> None:
    """Reject taper and zero-pad settings the multitaper estimate cannot use."""
    if n_tapers < 1:
        raise ValueError(f"--tapers must be at least 1, got {n_tapers}")
    if n_tapers > int(round(2 * taper_p - 1)):
        raise ValueError("--tapers must not exceed 2*taper_p - 1")
    if pad_factor < 1:
        raise ValueError(f"--pad must be at least 1, got {pad_factor}")


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise ValueError(f"--precision must be at least 0, got {precision}")


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the analysis pipeline.

    ``trim`` is the edge fraction excluded from summary statistics (the
    fixed wrap-around edge flag applies regardless); ``precision`` (at
    least 0) sets the digits after the point of every ``%e`` value in
    emitted tables, making repeated runs byte-identical.
    """

    scheme: str = "central4"
    trim: float = 0.1
    eps_lin: float = EPS_LIN_DEFAULT
    eps_circ: float = EPS_CIRC_DEFAULT
    eps_pow: float = EPS_POW_DEFAULT
    taper_p: float = 2.0
    n_tapers: int = 3
    pad_factor: int = 8
    bearing: float = 0.0
    precision: int = 12

    def __post_init__(self) -> None:
        if not 0.0 <= self.trim < 0.5:
            raise ValueError("trim fraction must lie in [0, 0.5)")
        for name in ("eps_lin", "eps_circ", "eps_pow"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        _check_taper_settings(self.taper_p, self.n_tapers, self.pad_factor)
        _check_precision(self.precision)


@dataclass(frozen=True)
class AnalysisResult:
    signal: RealSignal3
    xp: AnalyticSignal3
    ellipse: EllipseSeries
    normal: NormalSeries
    rates: EllipseRates
    moments: MomentsSeries
    decomposition: BandwidthDecomposition
    global_time: GlobalMoments
    global_spectral: GlobalMoments
    interior: slice
    excluded: int


def read_dataset(
    path, columns: Sequence[str] = ("t", "x", "y", "z"), dt: float | None = None
) -> Dataset:
    """Parse a CSV record, with row/column context on failure.

    ``columns`` names the time column and the three channels, in that
    order, matching the file header.  Every value in those columns must
    be a finite number.  The time grid must be strictly increasing and
    uniform to a relative tolerance of 1e-6; ``dt`` overrides the
    inferred spacing.
    """
    if len(columns) != 4:
        raise DataFormatError(
            f"--columns needs exactly 4 names (time plus 3 channels), got {len(columns)}"
        )
    try:
        data = _parse_fast(path, columns)
    except (ValueError, csv.Error):
        data = _parse_rows(path, columns)
    time = data[:, 0]
    steps = np.diff(time)
    if time.size < 2 or np.any(steps <= 0):
        raise DataFormatError(f"{path}: time column must be strictly increasing")
    step = float(np.median(steps))
    if np.max(np.abs(steps - step)) > 1e-6 * step:
        r = int(np.argmax(np.abs(steps - step)))
        raise DataFormatError(
            f"{path}: non-uniform sampling at row {r + 3} "
            f"(step {steps[r]:g} vs median {step:g})"
        )
    return Dataset(
        time=time,
        channels=data[:, 1:4],
        names=tuple(columns[1:]),
        dt=float(dt) if dt is not None else step,
    )


def _records(fh):
    """Stripped fields of each CSV record that is neither empty nor a ``#`` comment."""
    for raw in csv.reader(fh):
        if raw and not raw[0].lstrip().startswith("#"):
            yield [c.strip() for c in raw]


def _parse_fast(path, columns: Sequence[str]) -> np.ndarray:
    """Parse the body with one ``np.loadtxt`` call, or raise ``ValueError``.

    The header is found by the same rules as :func:`_parse_rows`.  Every
    body field must then be a plain number (no quotes, no inline ``#``),
    every row must have the same field count, at least the header's, and
    every used value must be finite.  Anything else raises, and the
    caller runs :func:`_parse_rows`, which accepts the same inputs with
    the same values and owns every error message.
    """
    with open(path, newline="") as fh:
        header = next(_records(fh), None)
        if header is None:
            raise ValueError("no header")
        idx = [header.index(name) for name in columns]
        # _records' rule on unquoted lines; a quoted field fails np.loadtxt
        body = [
            line for line in fh
            if line not in ("\n", "\r\n", "\r") and not line.lstrip().startswith("#")
        ]
    if not body:
        raise ValueError("no data rows")
    data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] < len(header):
        raise ValueError("rows shorter than the header")
    # row-major like _parse_rows: the layout sets numpy's summation order,
    # and so the last bits of every output
    data = np.ascontiguousarray(data[:, idx])
    if not np.isfinite(data).all():
        raise ValueError("non-finite value")
    return data


def _parse_rows(path, columns: Sequence[str]) -> np.ndarray:
    """Parse row by row; raise :class:`DataFormatError` naming the first bad row."""
    with open(path, newline="") as fh:
        rows = list(_records(fh))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")
    try:
        idx = [header.index(name) for name in columns]
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: column {exc.args[0].split()[0]} not found in header {header}"
        ) from None
    data = np.empty((len(body), 4))
    for r, row in enumerate(body):
        if len(row) < len(header):
            raise DataFormatError(
                f"{path}: row {r + 2} has {len(row)} fields, expected {len(header)}"
            )
        for c, j in enumerate(idx):
            try:
                value = float(row[j])
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r + 2}, column {columns[c]!r}: "
                    f"cannot parse {row[j]!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {r + 2}, column {columns[c]!r}: "
                    f"non-finite value {row[j]!r}"
                )
            data[r, c] = value
    return data


def analyze_signal(x: RealSignal3, config: RunConfig = RunConfig()) -> AnalysisResult:
    """Run the full pipeline on a real record."""
    xp = analytic_transform(x)
    ext = ellipse_extract(xp, eps_lin=config.eps_lin, eps_circ=config.eps_circ)
    rates = ellipse_rates(ext.ellipse)
    g_spec = global_moments_spectral(xp)
    moments = instantaneous_moments(
        xp, scheme=config.scheme, mean_freq=g_spec.mean_freq, eps_pow=config.eps_pow
    )
    decomp = bandwidth_decompose(ext, rates, moments)
    n = x.n_samples
    k = max(int(np.ceil(config.trim * n)), max(8, n // 20))
    k = min(k, (n - 2) // 2)
    interior = slice(k, n - k)
    g_time = global_moments_time(moments, interior)
    flagged = (
        moments.edge
        | moments.unreliable
        | ext.ellipse.degenerate
        | ext.ellipse.circular
    )
    excluded = int(np.sum(flagged | ~_interior_mask(n, interior)))
    return AnalysisResult(
        signal=x, xp=xp, ellipse=ext.ellipse, normal=ext.normal, rates=rates,
        moments=moments, decomposition=decomp, global_time=g_time,
        global_spectral=g_spec, interior=interior, excluded=excluded,
    )


def _interior_mask(n: int, interior: slice) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[interior] = True
    return mask


# rows formatted per write: large enough to amortise the per-call cost,
# small enough that memory does not grow with the table
_BLOCK_ROWS = 256


def _write_table(path: Path, header: list[str], cols: list[np.ndarray], precision: int):
    """Write equal-length columns as CSV: bools as 0/1, others as ``%.{precision}e``.

    One ``%``-format per row is applied to a block of rows at a time, so
    only one block is ever held as text.
    """
    row = ",".join("%d" if c.dtype == bool else f"%.{precision}e" for c in cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _json_text(summary: dict) -> str:
    """Serialise a summary; a non-finite value raises ``ValueError`` naming its key."""
    for key in sorted(summary):
        if not math.isfinite(summary[key]):
            raise ValueError(
                f"summary value {key!r} is not finite ({summary[key]}); no output written"
            )
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _summary_dict(res: AnalysisResult, config: RunConfig) -> dict:
    gt, gs = res.global_time, res.global_spectral
    summary = {
        "energy": gt.energy,
        "mean_freq_time": gt.mean_freq,
        "mean_freq_spectral": gs.mean_freq,
        "second_central_time": gt.second_central,
        "second_central_spectral": gs.second_central,
        "mean_freq_rel_diff": abs(gt.mean_freq - gs.mean_freq) / abs(gs.mean_freq),
        "second_central_rel_diff": abs(gt.second_central - gs.second_central)
        / max(abs(gs.second_central), 1e-300),
        "flags_excluded": res.excluded,
        "n_samples": res.signal.n_samples,
        "dt": res.signal.dt,
    }
    n = res.signal.n_samples
    if n < MIN_TAPER_SAMPLES:
        print(
            f"note: {n} samples is below the {MIN_TAPER_SAMPLES} the tapers need; "
            "multitaper fields omitted from summary.json",
            file=sys.stderr,
        )
        return summary
    # raw-DFT moments of a non-windowed finite record carry leakage bias;
    # the tapered estimate is the robust reference for such inputs
    tapers = slepian_tapers(n, config.taper_p, config.n_tapers)
    est = multitaper_joint_spectrum(res.signal, tapers, pad_factor=config.pad_factor)
    summary["mean_freq_multitaper"] = est.moments.mean_freq
    summary["second_central_multitaper"] = est.moments.second_central
    return summary


def _run_analyze(args) -> int:
    try:
        config = RunConfig(
            scheme=args.scheme, trim=args.trim, eps_lin=args.eps_lin,
            eps_circ=args.eps_circ, eps_pow=args.eps_pow, taper_p=args.taper_p,
            n_tapers=args.tapers, pad_factor=args.pad, bearing=args.bearing,
            precision=args.precision,
        )
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    ds = read_dataset(args.input, columns=args.columns.split(","), dt=args.dt)
    sig = RealSignal3(ds.channels, dt=ds.dt)
    if config.bearing != 0.0:
        sig = rotate_frame(sig, rot_z(-np.deg2rad(config.bearing)))
    res = analyze_signal(sig, config)
    summary = _summary_dict(res, config)
    summary_text = _json_text(summary)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    e, m, d, nrm = res.ellipse, res.moments, res.decomposition, res.normal
    header = [
        "t", "kappa", "lambda", "theta", "phi", "alpha", "beta",
        "nhat_x", "nhat_y", "nhat_z", "omega_x", "sigma2_x", "upsilon2_x",
        "bw_amplitude", "bw_deformation", "bw_precession", "bw_normal",
        "flag_edge", "flag_degenerate", "flag_circular", "flag_unreliable",
    ]
    cols = [
        ds.time, e.kappa, e.lam, e.theta, e.phi, e.alpha, e.beta,
        nrm.n_hat[:, 0], nrm.n_hat[:, 1], nrm.n_hat[:, 2],
        m.omega, m.sigma2, m.upsilon2,
        d.term_amplitude, d.term_deformation, d.term_precession, d.term_normal,
        m.edge, e.degenerate, e.circular, m.unreliable,
    ]
    _write_table(out / "analysis.csv", header, cols, config.precision)

    demeaned = res.signal.samples
    norms = np.linalg.norm(demeaned, axis=1)
    xhat = demeaned / np.where(norms > 0, norms, 1.0)[:, None]
    _write_table(
        out / "sphere_xhat.csv", ["t", "x", "y", "z"],
        [ds.time, xhat[:, 0], xhat[:, 1], xhat[:, 2]], config.precision,
    )
    _write_table(
        out / "sphere_nhat.csv", ["t", "x", "y", "z"],
        [ds.time, nrm.n_hat[:, 0], nrm.n_hat[:, 1], nrm.n_hat[:, 2]],
        config.precision,
    )
    (out / "summary.json").write_text(summary_text)

    gt, gs = res.global_time, res.global_spectral
    print(f"n={res.signal.n_samples} dt={res.signal.dt:g} excluded={res.excluded}")
    print(
        f"mean freq: time {gt.mean_freq:.6g} rad "
        f"({gt.mean_freq / (2 * np.pi) * res.signal.dt:.6g} cyc/sample), "
        f"spectral {gs.mean_freq:.6g} rad; "
        f"rel diff {summary['mean_freq_rel_diff']:.3g}"
    )
    print(
        f"second central moment: time {gt.second_central:.6g}, "
        f"spectral {gs.second_central:.6g}"
    )
    return 0


def _run_synth(args) -> int:
    try:
        spec = SynthSpec(
            n_samples=args.n, mode=args.mode,
            omega_bar=args.omega_bar, upsilon=args.upsilon,
        )
        _check_precision(args.precision)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    res = make_reference_signal(spec)
    real = res.signal.samples.real
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        sigma = args.noise * float(np.sqrt(np.mean(real**2)))
        real = real + rng.normal(0.0, sigma, real.shape)
    t = np.arange(spec.n_samples) * spec.dt
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(
        out / f"signal_{args.mode}.csv", ["t", "x", "y", "z"],
        [t, real[:, 0], real[:, 1], real[:, 2]], args.precision,
    )
    tr, rr = res.truth, res.truth_rates
    _write_table(
        out / f"truth_{args.mode}.csv",
        ["t", "a", "b", "kappa", "lambda", "theta", "phi", "alpha", "beta",
         "dkappa_rel", "dlambda", "omega_phi", "omega_theta", "omega_alpha",
         "omega_beta"],
        [t, tr.a, tr.b, tr.kappa, tr.lam, tr.theta_unwrapped, tr.phi_unwrapped,
         tr.alpha_unwrapped, tr.beta, rr.dkappa_rel, rr.dlambda, rr.omega_phi,
         rr.omega_theta, rr.omega_alpha, rr.omega_beta],
        args.precision,
    )
    print(f"wrote {out / f'signal_{args.mode}.csv'} ({spec.n_samples} rows)")
    return 0


def _run_spectrum(args) -> int:
    try:
        _check_taper_settings(args.taper_p, args.tapers, args.pad)
        _check_precision(args.precision)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    ds = read_dataset(args.input, columns=args.columns.split(","), dt=args.dt)
    sig = RealSignal3(ds.channels, dt=ds.dt)
    tapers = slepian_tapers(sig.n_samples, args.taper_p, args.tapers)
    est = multitaper_joint_spectrum(sig, tapers, pad_factor=args.pad)
    norm = float(np.trapezoid(est.values, est.freqs) / (2 * np.pi))
    summary_text = _json_text({
        "mean_freq_spectral": est.moments.mean_freq,
        "second_central_spectral": est.moments.second_central,
        "normalization": norm,
        "taper_p": args.taper_p,
        "n_tapers": args.tapers,
    })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(
        out / "spectrum.csv", ["freq_rad", "freq_cycles", "s_x"],
        [est.freqs, est.freqs * sig.dt / (2 * np.pi), est.values], args.precision,
    )
    (out / "spectrum_summary.json").write_text(summary_text)
    print(
        f"spectral mean freq {est.moments.mean_freq:.6g} rad "
        f"({est.moments.mean_freq / (2 * np.pi) * sig.dt:.6g} cyc/sample), "
        f"second central {est.moments.second_central:.6g}, "
        f"normalization {norm:.12g}"
    )
    return 0


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input CSV file")
    p.add_argument("--columns", default="t,x,y,z",
                   help="comma list naming the time column and 3 channels")
    p.add_argument("--dt", type=float, default=None,
                   help="override the sample interval inferred from the time column")
    p.add_argument("--taper-p", dest="taper_p", type=float, default=2.0,
                   help="taper time-bandwidth product")
    p.add_argument("--tapers", type=int, default=3,
                   help="number of tapers, from 1 to 2*taper_p - 1")
    p.add_argument("--pad", type=int, default=8,
                   help="spectrum zero-pad factor, at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triellipse",
        description="Time-varying ellipse analysis of three-component records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full per-sample ellipse/moment analysis")
    _add_io_args(pa)
    pa.add_argument("--bearing", type=float, default=0.0,
                    help="horizontal rotation in degrees; the first channel of the "
                         "rotated frame points along this bearing")
    pa.add_argument("--scheme", choices=("central4", "spectral"), default="central4")
    pa.add_argument("--trim", type=float, default=0.1,
                    help="edge fraction excluded from summary statistics")
    pa.add_argument("--eps-lin", dest="eps_lin", type=float, default=EPS_LIN_DEFAULT)
    pa.add_argument("--eps-circ", dest="eps_circ", type=float, default=EPS_CIRC_DEFAULT)
    pa.add_argument("--eps-pow", dest="eps_pow", type=float, default=EPS_POW_DEFAULT)
    pa.add_argument("--precision", type=int, default=12)
    pa.add_argument("--out", default="triellipse_out", help="output directory")
    pa.set_defaults(func=_run_analyze)

    ps = sub.add_parser("synth", help="generate a reference signal CSV")
    ps.add_argument("--mode", choices=MODES, required=True)
    ps.add_argument("--n", type=int, default=800, help="number of samples")
    ps.add_argument("--omega-bar", dest="omega_bar", type=float,
                    default=OMEGA_BAR_DEFAULT, help="target mean frequency, rad/sample")
    ps.add_argument("--upsilon", type=float, default=UPSILON_DEFAULT,
                    help="target bandwidth magnitude, rad/sample")
    ps.add_argument("--noise", type=float, default=0.0,
                    help="additive Gaussian noise level relative to signal RMS")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--precision", type=int, default=12)
    ps.add_argument("--out", default="triellipse_out", help="output directory")
    ps.set_defaults(func=_run_synth)

    pq = sub.add_parser("spectrum", help="multitaper joint-spectrum estimate")
    _add_io_args(pq)
    pq.add_argument("--precision", type=int, default=12)
    pq.add_argument("--out", default="triellipse_out", help="output directory")
    pq.set_defaults(func=_run_spectrum)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
