"""Command-line front end: analyze, synth, and spectrum subcommands.

I/O only: CSV parsing, the summary and table writers, and argparse; the
analysis is :func:`triellipse.pipeline.analyze_signal`.  ``analyze``
writes a per-sample table, a JSON summary with both the time-domain and
Fourier-domain global moments, and unit-sphere track files for the
signal direction and the ellipse-plane normal.  ``synth`` writes the
reference signals as CSV plus a ground-truth sidecar; ``spectrum`` writes
the multitaper joint-spectrum estimate.  Each command writes all of its
tables in one :func:`_write_tables` call; above a size crossover their
rows are formatted by forked processes, one per CPU.  At the same
crossover ``analyze`` forks one child, right after reading the record,
that computes the tapers and the multitaper moments of the summary while
this process runs the analysis chain; this process then never imports
scipy.  Neither fork changes a byte of output.  The outputs are the same
for any CPU count, except the multitaper values (two fields of
``summary.json`` and all that ``spectrum`` writes): the last bits of the
Slepian tapers follow scipy's OpenBLAS thread count, and so the CPU
count.  A child that fails is reported
like the same failure in this process; one that a signal ends is an
input error (exit 2) naming what it was doing.

Input CSV: header row (default columns ``t,x,y,z``), comma separated,
``#`` comment lines ignored, uniform time grid.  Exit codes: 0 success,
2 input error (a bad file, a bad flag value such as a non-positive
``--dt``, a non-finite ``--bearing`` or a ``--taper-p`` of half the
record length or more, or a failed write), 3 numerical failure.
Floating-point warnings are counted into one note on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _parallel
from .analytic import RealSignal3
from .pipeline import AnalysisResult, RunConfig, analyze_signal, in_bearing_frame
from .spectrum import (
    MIN_TAPER_SAMPLES,
    JointSpectrum,
    multitaper_joint_spectrum,
    slepian_tapers,
)
from .synth import MODES, OMEGA_BAR_DEFAULT, UPSILON_DEFAULT, SynthSpec, make_reference_signal

__all__ = ["main", "Dataset", "read_dataset"]


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class Dataset:
    """A parsed three-component record on a uniform time grid."""

    time: np.ndarray
    channels: np.ndarray
    dt: float


def read_dataset(
    path, columns: Sequence[str] = ("t", "x", "y", "z"), dt: float | None = None
) -> Dataset:
    """Parse a CSV record, with row/column context on failure.

    ``columns`` names the time column and the three channels, in that
    order, matching the file header.  Every value in those columns must
    be a finite number.  The time grid must be strictly increasing and
    uniform to a relative tolerance of 1e-6; ``dt``, finite and positive,
    overrides the inferred spacing.
    """
    if len(columns) != 4:
        raise DataFormatError(
            f"--columns needs exactly 4 names (time plus 3 channels), got {len(columns)}"
        )
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise DataFormatError(f"--dt must be finite and positive, got {dt}")
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


# rows formatted per write: large enough to amortise the per-call cost,
# small enough that memory does not grow with the table
_BLOCK_ROWS = 256


def _write_rows(fh, cols: list[np.ndarray], row: str, start: int, stop: int) -> None:
    """Write rows ``start:stop`` of the columns, ``row`` %-formatted, one block at a time."""
    for lo in range(start, stop, _BLOCK_ROWS):
        block = np.column_stack([c[lo:min(lo + _BLOCK_ROWS, stop)] for c in cols])
        fh.write(((row * len(block)) % tuple(block.ravel().tolist())).encode())


def _write_tables(tables: list[tuple[Path, list[str], list[np.ndarray]]], precision: int):
    """Write each ``(path, header, columns)`` table as CSV: bools as 0/1, others as ``%.{precision}e``.

    Each row is formatted on its own, with one ``%``-format per row applied
    to a block of rows at a time, so only one block is ever held as text.
    ``_parallel.fork_count`` sets how many processes share the rows.  With
    more than one, each table's rows are split into that many contiguous
    ranges; forked children format all but the first range of every table
    into unlinked temp files in the output directory, while this process
    writes the headers and the first ranges, then appends the children's
    parts in order.  The files are the same bytes for any process count.
    """
    count = _parallel.fork_count(sum(len(cols) * len(cols[0]) for _, _, cols in tables))
    rows = [
        ",".join("%d" if c.dtype == bool else f"%.{precision}e" for c in cols) + "\n"
        for _, _, cols in tables
    ]

    def bounds(cols, j):
        n = len(cols[0])
        return n * j // count, n * (j + 1) // count

    with ExitStack() as stack:
        outs = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        parts = [
            [stack.enter_context(tempfile.TemporaryFile(dir=path.parent)) for path, _, _ in tables]
            for _ in range(1, count)
        ]

        def write_part(j):
            for fh, (path, _, cols), row in zip(parts[j - 1], tables, rows):
                try:
                    _write_rows(fh, cols, row, *bounds(cols, j))
                    fh.flush()
                except Exception as exc:
                    raise OSError(f"{path}: {exc}") from None

        names = ", ".join(path.name for path, _, _ in tables)
        with _parallel.forked(write_part, count, f"writing {names}"):
            for fh, (_, header, cols), row in zip(outs, tables, rows):
                fh.write((",".join(header) + "\n").encode())
                _write_rows(fh, cols, row, *bounds(cols, 0))
        for fh, *own in zip(outs, *parts):
            for part in own:
                part.seek(0)
                shutil.copyfileobj(part, fh)


def _json_text(summary: dict) -> str:
    """Serialise a summary; a non-finite value raises ``ValueError`` naming its key."""
    for key in sorted(summary):
        if not math.isfinite(summary[key]):
            raise ValueError(
                f"summary value {key!r} is not finite ({summary[key]}); no output written"
            )
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _summary_dict(res: AnalysisResult) -> dict:
    """The summary of the chain's results; the multitaper fields are added by the caller."""
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


def _multitaper(x: RealSignal3, config: RunConfig) -> JointSpectrum:
    """The multitaper estimate of ``x`` with the taper and pad settings of ``config``."""
    tapers = slepian_tapers(x.n_samples, config.taper_p, config.n_tapers)
    return multitaper_joint_spectrum(x, tapers, pad_factor=config.pad_factor)


# RunConfig fields whose flag is not the field name with dashes
_FLAGS = {"n_tapers": "--tapers", "pad_factor": "--pad"}


def _config(args) -> RunConfig:
    """``RunConfig`` of the given flags, defaults for the rest; a bad value is an input error.

    A ``RunConfig`` message starts with the field name, which becomes the flag.
    """
    names = [f.name for f in fields(RunConfig)]
    given = {name: getattr(args, name) for name in names if hasattr(args, name)}
    try:
        return RunConfig(**given)
    except ValueError as exc:
        name, sep, rest = str(exc).partition(" ")
        if name in names:
            name = _FLAGS.get(name, "--" + name.replace("_", "-"))
        raise DataFormatError(name + sep + rest) from None


def _read_input(args, config: RunConfig) -> Dataset:
    """The record of ``analyze`` or ``spectrum``; a taper bandwidth it cannot hold is an input error.

    Records too short for tapers take none, so any ``--taper-p`` passes there.
    """
    ds = read_dataset(args.input, columns=args.columns.split(","), dt=args.dt)
    n = len(ds.time)
    if n >= MIN_TAPER_SAMPLES and config.taper_p >= n / 2:
        raise DataFormatError(
            f"--taper-p must be below n/2 = {n / 2:g} for this {n}-sample record "
            f"(a half bandwidth under 0.5 cycles/sample), got {config.taper_p:g}"
        )
    return ds


_ANALYSIS_HEADER = [
    "t", "kappa", "lambda", "theta", "phi", "alpha", "beta",
    "nhat_x", "nhat_y", "nhat_z", "omega_x", "sigma2_x", "upsilon2_x",
    "bw_amplitude", "bw_deformation", "bw_precession", "bw_normal",
    "flag_edge", "flag_degenerate", "flag_circular", "flag_unreliable",
]
_SPHERE_HEADER = ["t", "x", "y", "z"]
# columns per sample over analysis.csv and the two sphere files
_ANALYZE_COLUMNS = len(_ANALYSIS_HEADER) + 2 * len(_SPHERE_HEADER)


def _run_analyze(args) -> int:
    config = _config(args)
    ds = _read_input(args, config)
    # rotated once, here: the chain and the summary child take the same record
    x = in_bearing_frame(RealSignal3(ds.channels, dt=ds.dt), config.bearing)
    config = replace(config, bearing=0.0)
    n = x.n_samples
    tapered = n >= MIN_TAPER_SAMPLES
    # the tapered summary needs only the record, so it runs in a child beside
    # the chain whenever the tables are large enough for forked writers
    count = 2 if tapered and _parallel.fork_count(n * _ANALYZE_COLUMNS) > 1 else 1
    with _parallel.forked(
        lambda _: _multitaper(x, config).moments, count, "computing the multitaper summary"
    ) as from_child:
        res = analyze_signal(x, config)
        summary = _summary_dict(res)
    if tapered:
        # raw-DFT moments of a non-windowed finite record carry leakage bias;
        # the tapered estimate is the robust reference for such inputs
        tapered_moments = from_child[0] if from_child else _multitaper(x, config).moments
        summary["mean_freq_multitaper"] = tapered_moments.mean_freq
        summary["second_central_multitaper"] = tapered_moments.second_central
    summary_text = _json_text(summary)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    e, m, d, nrm = res.ellipse, res.moments, res.decomposition, res.normal
    cols = [
        ds.time, e.kappa, e.lam, e.theta, e.phi, e.alpha, e.beta,
        nrm.n_hat[:, 0], nrm.n_hat[:, 1], nrm.n_hat[:, 2],
        m.omega, m.sigma2, m.upsilon2,
        d.term_amplitude, d.term_deformation, d.term_precession, d.term_normal,
        m.edge, e.degenerate, e.circular, m.unreliable,
    ]
    demeaned = res.signal.samples
    norms = np.linalg.norm(demeaned, axis=1)
    xhat = demeaned / np.where(norms > 0, norms, 1.0)[:, None]
    _write_tables(
        [(out / "analysis.csv", _ANALYSIS_HEADER, cols)]
        + [(out / name, _SPHERE_HEADER, [ds.time, *xyz.T])
           for name, xyz in (("sphere_xhat.csv", xhat), ("sphere_nhat.csv", nrm.n_hat))],
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
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    precision = _config(args).precision
    res = make_reference_signal(spec)
    real = res.signal.samples.real
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        sigma = args.noise * float(np.sqrt(np.mean(real**2)))
        real = real + rng.normal(0.0, sigma, real.shape)
    t = np.arange(spec.n_samples) * spec.dt
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tr, rr = res.truth, res.truth_rates
    _write_tables([
        (out / f"signal_{args.mode}.csv", ["t", "x", "y", "z"], [t, *real.T]),
        (out / f"truth_{args.mode}.csv",
         ["t", "a", "b", "kappa", "lambda", "theta", "phi", "alpha", "beta",
          "dkappa_rel", "dlambda", "omega_phi", "omega_theta", "omega_alpha",
          "omega_beta"],
         [t, tr.a, tr.b, tr.kappa, tr.lam, tr.theta_unwrapped, tr.phi_unwrapped,
          tr.alpha_unwrapped, tr.beta, rr.dkappa_rel, rr.dlambda, rr.omega_phi,
          rr.omega_theta, rr.omega_alpha, rr.omega_beta]),
    ], precision)
    print(f"wrote {out / f'signal_{args.mode}.csv'} ({spec.n_samples} rows)")
    return 0


def _run_spectrum(args) -> int:
    config = _config(args)
    ds = _read_input(args, config)
    sig = RealSignal3(ds.channels, dt=ds.dt)
    est = _multitaper(sig, config)
    norm = float(np.trapezoid(est.values, est.freqs) / (2 * np.pi))
    summary_text = _json_text({
        "mean_freq_spectral": est.moments.mean_freq,
        "second_central_spectral": est.moments.second_central,
        "normalization": norm,
        "taper_p": config.taper_p,
        "n_tapers": config.n_tapers,
    })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_tables(
        [(out / "spectrum.csv", ["freq_rad", "freq_cycles", "s_x"],
          [est.freqs, est.freqs * sig.dt / (2 * np.pi), est.values])],
        config.precision,
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
    p.add_argument("--taper-p", dest="taper_p", type=float, default=argparse.SUPPRESS,
                   help="taper time-bandwidth product")
    p.add_argument("--tapers", dest="n_tapers", type=int, default=argparse.SUPPRESS,
                   help="number of tapers, from 1 to 2*taper_p - 1")
    p.add_argument("--pad", dest="pad_factor", type=int, default=argparse.SUPPRESS,
                   help="spectrum zero-pad factor, at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triellipse",
        description="Time-varying ellipse analysis of three-component records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full per-sample ellipse/moment analysis")
    _add_io_args(pa)
    pa.add_argument("--bearing", type=float, default=argparse.SUPPRESS,
                    help="horizontal rotation in degrees; the first channel of the "
                         "rotated frame points along this bearing")
    pa.add_argument("--scheme", choices=("central4", "spectral"), default=argparse.SUPPRESS)
    pa.add_argument("--trim", type=float, default=argparse.SUPPRESS,
                    help="edge fraction excluded from summary statistics")
    pa.add_argument("--eps-lin", dest="eps_lin", type=float, default=argparse.SUPPRESS)
    pa.add_argument("--eps-circ", dest="eps_circ", type=float, default=argparse.SUPPRESS)
    pa.add_argument("--eps-pow", dest="eps_pow", type=float, default=argparse.SUPPRESS)
    pa.add_argument("--precision", type=int, default=argparse.SUPPRESS)
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
    ps.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    ps.add_argument("--out", default="triellipse_out", help="output directory")
    ps.set_defaults(func=_run_synth)

    pq = sub.add_parser("spectrum", help="multitaper joint-spectrum estimate")
    _add_io_args(pq)
    pq.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    pq.add_argument("--out", default="triellipse_out", help="output directory")
    pq.set_defaults(func=_run_spectrum)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    counts = Counter()
    with warnings.catch_warnings():
        show = warnings.showwarning

        def count_floating_point(message, category, *rest):
            if issubclass(category, RuntimeWarning):
                counts[str(message)] += 1
            else:
                show(message, category, *rest)

        warnings.showwarning = count_floating_point
        try:
            code = args.func(args)
        except (DataFormatError, OSError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            code = 2
        except (ValueError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            code = 3
    if counts:
        detail = ", ".join(f"{message} ({n})" for message, n in counts.items())
        print(f"note: {counts.total()} floating-point warnings: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
