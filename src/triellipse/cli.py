"""Command-line front end: analyze, synth, and spectrum subcommands.

I/O only: CSV parsing, the summary and table writers, and argparse; the
analysis is :mod:`triellipse.pipeline`.  ``analyze`` writes a per-sample
table, a JSON summary with both the time-domain and Fourier-domain global
moments, and unit-sphere track files for the signal direction and the
ellipse-plane normal.  ``synth`` writes the reference signals as CSV plus
a ground-truth sidecar; ``spectrum`` writes the multitaper joint-spectrum
estimate.  Every table is written by one writer (:func:`_table`), which
formats a block of rows at a time in numpy; no table writer forks.
``analyze`` formats the rows of ``analysis.csv`` as the chain
(:func:`triellipse.pipeline.analyze_blocks`) makes them, so no written
column is ever held whole, and cuts ``sphere_nhat.csv``'s rows, its
``t`` and ``nhat_*`` cells, from each formatted block.  Its multitaper
summary and ``sphere_xhat.csv`` need only the record: on a host with
``os.fork`` and more than one CPU they go to one child, forked right
after the record is read, that runs them beside the chain, so this
process never loads LAPACK; else this process runs them first.  The record's length plays no
part.  Either way the summary has the real record before the
chain starts, so this process drops it once the analytic signal exists,
and the chain runs on that alone.  No fork changes a byte of output.
Every command publishes all or nothing (:func:`_staged`): its files are
written under temporary names in the output directory and renamed into
place only once all are written, ``analyze``'s once its summary is known
to be finite, ``summary.json`` last; a failed run removes them and
leaves the directory as it was.  The renames run one file at a time, and
one that fails names its file.  No command imports the ``scipy.linalg``
package: the taper solve loads only scipy's compiled LAPACK wrappers
(:func:`triellipse.spectrum.eigh_tridiagonal`).  On one host class (CPU
features and BLAS) the outputs are the same for any CPU count, except the
multitaper values (two fields of ``summary.json`` and all that
``spectrum`` writes): the last bits of the Slepian tapers follow the
thread count of scipy's OpenBLAS, and so the CPU count.  Another host
class can write other last digits: numpy's SIMD loops follow the CPU's
features (see the README's CPUs section).  A child that fails is reported
like the same failure in this process; one that a signal ends is an
input error (exit 2) naming what it was doing.

Input CSV (the grammar is :func:`read_dataset`'s): UTF-8 with an optional
byte-order mark; RFC 4180 fields, stripped of whitespace; records whose first
field starts with ``#`` and empty lines skipped; a header row (default
columns ``t,x,y,z``, ``--columns`` names stripped like it, four different
names, each naming exactly one header field); used values
finite numbers in ``np.loadtxt``'s syntax (Python's float, ASCII only,
no ``_``); a uniform time grid.  An error names its row, counting
records with the header as row 1, and its column.  Exit codes: 0 success,
2 input error (a bad file, a bad flag value such as a non-positive
``--dt``, a non-finite ``--bearing`` or a ``--taper-p`` of half the
record length or more, a negative or non-finite ``--noise``, a negative
``--seed``, a ``spectrum`` record shorter than the tapers' 64 samples,
an output file that is a directory, or a failed write), 3 numerical
failure or a request for more memory than the machine has (one ``out of
memory`` line with numpy's message).
Floating-point warnings are counted into one note on standard error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import re
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, fields
from itertools import takewhile
from pathlib import Path
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from . import _parallel
from ._format import RowFormat
from .analytic import AnalyticSignal3, RealSignal3, analytic_transform
from .moments import GlobalMoments
from .pipeline import (
    AnalysisTotals,
    Block,
    RunConfig,
    analyze_blocks,
    analyze_signal,  # not called here: bound for callers that take the chain from the CLI module
    in_bearing_frame,
)
from .spectrum import (
    MIN_TAPER_SAMPLES,
    _trapezoid,
    multitaper_joint_spectrum,
    multitaper_moments,
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

    The grammar:

    - UTF-8 text with an optional byte-order mark; a file that does not
      decode is an input error naming the offset of the first bad byte;
    - RFC 4180 fields, separated by commas and stripped of surrounding
      whitespace;
    - a record whose first field starts with ``#`` is a comment, and an
      empty line is skipped; a line of blanks is a record of one empty
      field, and a ``#`` after a value is not a comment;
    - the first other record is the header, where each used name names
      exactly one field (unused names may repeat); every later record is
      a row, with at least as many fields as the header;
    - every value in the used columns is a finite number in the syntax
      ``np.loadtxt`` converts: Python's float syntax, but ASCII only and
      with no underscores.  Other columns may hold any text.

    A message's "row N" counts records, the header as row 1; comments
    and empty lines are not counted.

    ``columns`` names the time column and the three channels, in that
    order; each name is stripped of surrounding whitespace, as the
    header's fields are; the four must differ.  The time grid must be
    strictly increasing and uniform to a relative tolerance of 1e-6;
    ``dt``, finite and positive, overrides the inferred spacing.
    """
    if len(columns) != 4:
        raise DataFormatError(
            f"--columns needs exactly 4 names (time plus 3 channels), got {len(columns)}"
        )
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise DataFormatError(f"--dt must be finite and positive, got {dt}")
    columns = [name.strip() for name in columns]
    if len(set(columns)) < len(columns):
        raise DataFormatError(f"--columns needs 4 different names, got {columns}")
    try:
        data = _parse_fast(path, columns)
    except (ValueError, Warning, csv.Error):  # _parse_fast raises loadtxt's warnings
        data = _parse_rows(path, columns)
    # its own array: a view would keep the whole parsed table alive
    time = np.ascontiguousarray(data[:, 0])
    steps = np.diff(time)
    if time.size < 2 or np.any(steps <= 0):
        raise DataFormatError(f"{path}: time column must be strictly increasing")
    step = _median(steps)
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


def _median(a: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d float array without NaNs, to the bit.

    ``np.median`` imports ``numpy.ma`` for its NaN check, which costs
    every process that reads a record about 16 ms and 1.2 MB.  The sum
    starts from 0.0, as the mean ``np.median`` takes does, so a zero
    median is +0.0 as there.
    """
    k = a.size // 2
    if a.size % 2:
        return float(0.0 + np.partition(a, k)[k])
    part = np.partition(a, (k - 1, k))
    return float((0.0 + part[k - 1] + part[k]) / 2.0)


def _open(path):
    """The record as UTF-8 text, any byte-order mark dropped and line ends left to ``csv``."""
    return open(path, encoding="utf-8-sig", newline="")


def _records(fh):
    """Stripped fields of each CSV record that is neither empty nor a ``#`` comment."""
    for raw in csv.reader(fh):
        if raw and not raw[0].lstrip().startswith("#"):
            yield [c.strip() for c in raw]


def _parse_fast(path, columns: Sequence[str]) -> np.ndarray:
    """Parse the body with one ``np.loadtxt`` call, or raise.

    The header is found by :func:`_records`, as :func:`_parse_rows` finds
    it, and ``np.loadtxt`` reads the rest of the open file.  It takes only
    rows of plain numbers, all with the same field count, and skips only
    empty lines; this function also requires at least the header's field
    count and finite used values.  Anything else, such as a quoted field,
    a comment or blank line in the body or an empty body, raises
    (``ValueError``, or loadtxt's warning as an error), and the caller
    runs :func:`_parse_rows`, which owns every rule and message.
    """
    with _open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        header = next(_records(fh), [])
        idx = [header.index(name) for name in columns]  # ValueError if one is missing
        if any(header.count(name) > 1 for name in columns):
            raise ValueError("a used name repeats in the header")
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] < len(header):
        raise ValueError("rows shorter than the header")
    # row-major like _parse_rows: the layout sets numpy's summation order,
    # and so the last bits of every output
    data = np.ascontiguousarray(data[:, idx])
    if not np.isfinite(data).all():
        raise ValueError("non-finite value")
    return data


def _parse_rows(path, columns: Sequence[str]) -> np.ndarray:
    """Parse record by record; raise :class:`DataFormatError` naming the first fault."""
    with _open(path) as fh:
        try:
            rows = list(_records(fh))
        except UnicodeDecodeError as exc:
            # decoded a chunk at a time: exc.object is the chunk just read,
            # after any bytes the decoder held back from the one before
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise DataFormatError(f"{path}: not UTF-8 text at byte {at}: {exc.reason}") from None
        except csv.Error as exc:  # such as a field, comments too, over csv's size limit
            raise DataFormatError(f"{path}: {exc}") from None
    if len(rows) < 2:
        raise DataFormatError(f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    if not any(header):  # such as a line of blanks before the header
        raise DataFormatError(f"{path}: the header (row 1) is blank")
    for name in columns:
        if name not in header:
            raise DataFormatError(f"{path}: column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise DataFormatError(
                f"{path}: column {name!r} names {header.count(name)} fields in header {header}"
            )
    idx = [header.index(name) for name in columns]
    data = np.empty((len(body), 4))
    for r, row in enumerate(body):
        if len(row) < len(header):
            raise DataFormatError(
                f"{path}: row {r + 2} has {len(row)} fields, expected {len(header)}"
            )
        for c, cell in enumerate([row[j] for j in idx]):
            try:
                # np.loadtxt's syntax: Python's float without `_` or non-ASCII digits
                if not cell.isascii() or "_" in cell:
                    raise ValueError
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r + 2}, column {columns[c]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {r + 2}, column {columns[c]!r}: "
                    f"non-finite value {cell!r}"
                )
            data[r, c] = value
    return data


# rows formatted per write: large enough to amortise numpy's per-call cost,
# small enough that a block's arrays stay in cache and memory does not grow
# with the table.  Both analyze tables of a 1e5-sample record format in
# 0.13 s at 512 rows and 0.15 s at 256; 1024 is no faster and holds twice
# the temporaries (2-core x86).
_BLOCK_ROWS = 512


def _write_rows(write: Callable[[bytes], object], cols: list[np.ndarray], fmt: RowFormat,
                cuts: Sequence[tuple[Callable[[bytes], object], list[int]]] = ()) -> None:
    """Write the rows of the columns in the row format ``fmt``, one block at a time.

    Each ``(write, cells)`` of ``cuts`` is given the cells ``cells`` of
    each row, as rows of their own, cut from the same formatted block.
    """
    n = len(cols[0])
    for lo in range(0, n, _BLOCK_ROWS):
        block = fmt.slots(cols, lo, min(lo + _BLOCK_ROWS, n))
        write(fmt.join(block))
        for write_cut, cells in cuts:
            write_cut(fmt.join(block, cells))


def _json_text(summary: dict) -> str:
    """Serialise a summary; a non-finite value raises ``ValueError`` naming its key."""
    for key in sorted(summary):
        if not math.isfinite(summary[key]):
            raise ValueError(
                f"summary value {key!r} is not finite ({summary[key]}); no output written"
            )
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _summary_dict(res: AnalysisTotals) -> dict:
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
        "n_samples": res.n_samples,
        "dt": res.dt,
    }
    n = res.n_samples
    if n < MIN_TAPER_SAMPLES:
        print(
            f"note: {n} samples is below the {MIN_TAPER_SAMPLES} the tapers need; "
            "multitaper fields omitted from summary.json",
            file=sys.stderr,
        )
    if res.excluded == n:
        print(
            f"note: all {n} samples are excluded (trimmed or flagged); the time-domain "
            "global moments and the rel diffs come from flagged samples only",
            file=sys.stderr,
        )
    return summary


def _multitaper(estimate, x: RealSignal3, config: RunConfig):
    """``estimate(x, tapers, pad_factor=...)`` with the Slepian tapers and pad factor ``config`` sets.

    ``estimate`` is :func:`multitaper_joint_spectrum` for ``spectrum``'s
    grid, or :func:`multitaper_moments` for the summary of ``analyze``,
    which streams the grid's moments and builds no grid.
    """
    tapers = slepian_tapers(x.n_samples, config.taper_p, config.n_tapers)
    return estimate(x, tapers, pad_factor=config.pad_factor)


# RunConfig and SynthSpec fields whose flag is not the field name with dashes
_FLAGS = {"n_tapers": "--tapers", "pad_factor": "--pad", "n_samples": "--n"}


def _flag_error(exc: ValueError, names: Collection[str]) -> DataFormatError:
    """The input error for ``exc``, raised building a config from flags.

    Each of ``names``, fields that flags set, becomes its flag wherever the
    message names it as a whole word.  ``RunConfig`` and ``SynthSpec``
    messages start with the field at fault and may name others.
    """
    def flag(word):
        name = word[0]
        return _FLAGS.get(name, "--" + name.replace("_", "-")) if name in names else name

    return DataFormatError(re.sub(r"\w+", flag, str(exc)))


def _config(args) -> RunConfig:
    """``RunConfig`` of the given flags, defaults for the rest; a bad value is an input error."""
    names = [f.name for f in fields(RunConfig)]
    given = {name: getattr(args, name) for name in names if hasattr(args, name)}
    try:
        return RunConfig(**given)
    except ValueError as exc:
        # every field is a flag of analyze; spectrum's messages name only its own
        raise _flag_error(exc, names) from None


def _read_input(args, config: RunConfig, need: int = 0) -> tuple[np.ndarray, RealSignal3]:
    """The time column and record of ``analyze`` or ``spectrum``, which ``need`` samples or more.

    Fewer samples, or a taper bandwidth the record cannot hold, is an
    input error.  Records too short for tapers take none, so any
    ``--taper-p`` passes there.  The parsed table is freed on return: the
    record is its own demeaned copy of the channels.
    """
    ds = read_dataset(args.input, columns=args.columns.split(","), dt=args.dt)
    n = len(ds.time)
    if n < need:
        raise DataFormatError(
            f"{args.command} needs at least {need} samples for its tapers, got {n} samples"
        )
    if n >= MIN_TAPER_SAMPLES and config.taper_p >= n / 2:
        raise DataFormatError(
            f"--taper-p must be below n/2 = {n / 2:g} for this {n}-sample record "
            f"(a half bandwidth under 0.5 cycles/sample), got {config.taper_p:g}"
        )
    return ds.time, RealSignal3(ds.channels, dt=ds.dt)


_ANALYSIS_HEADER = [
    "t", "kappa", "lambda", "theta", "phi", "alpha", "beta",
    "nhat_x", "nhat_y", "nhat_z", "omega_x", "sigma2_x", "upsilon2_x",
    "bw_amplitude", "bw_deformation", "bw_precession", "bw_normal",
    "flag_edge", "flag_degenerate", "flag_circular", "flag_unreliable",
]
_SPHERE_HEADER = ["t", "x", "y", "z"]
# the cells of analysis.csv that sphere_nhat.csv repeats
_NHAT_CELLS = [_ANALYSIS_HEADER.index(name) for name in ("t", "nhat_x", "nhat_y", "nhat_z")]


# the files of analyze, published in this order: the summary last
_ANALYZE_FILES = ("analysis.csv", "sphere_xhat.csv", "sphere_nhat.csv", "summary.json")
_BESIDE_CHAIN = "computing the multitaper summary and writing sphere_xhat.csv"


@contextmanager
def _staged(out: Path, names: Sequence[str]) -> Iterator[dict[str, Path]]:
    """A new temporary file in ``out`` for each of ``names``, all published when the block ends.

    ``out`` and its missing parents are made, and a name whose file is a
    directory is an input error before anything is written.  After the
    block each temporary file is renamed onto its name, in order, by
    ``os.replace``, and a failed rename names the file; the files
    renamed before it stay.  The temporary files get the permissions ``open``
    would give, and one that cannot be made fails as opening its name
    would.  If the block raises, the temporary files and the
    directories made are removed instead, so ``out`` keeps what it held.
    """
    made = list(takewhile(lambda p: not p.exists(), (out, *out.parents)))
    temps: dict[str, Path] = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        umask = os.umask(0o022)  # read by setting it, then put back
        os.umask(umask)
        for name in names:
            try:
                fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=out)
            except OSError as exc:  # worded as opening the file itself would word it
                raise type(exc)(exc.errno, exc.strerror, str(out / name)) from None
            temps[name] = Path(temp)
            os.close(fd)
            os.chmod(temp, 0o666 & ~umask)
        yield temps
        for name, temp in temps.items():
            with _naming(out / name):
                os.replace(temp, out / name)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        for directory in made:  # the deepest first; each is empty again
            with suppress(OSError):
                directory.rmdir()
        raise


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Raise an ``OSError`` of the block, or of the function it decorates, again with ``path`` in front."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from None


@contextmanager
def _output(path: Path, temp: Path, header: list[str]) -> Iterator[Callable[[bytes], object]]:
    """The write function of the CSV table ``path``, written to ``temp`` after its header.

    A failed open, write or close names ``path``.
    """
    with _naming(path):
        fh = open(temp, "wb")
        fh.write((",".join(header) + "\n").encode())
    try:
        yield _naming(path)(fh.write)
    finally:
        with _naming(path):
            fh.close()


@contextmanager
def _table(
    path: Path, temp: Path, header: list[str], precision: int,
    cuts: Sequence[tuple[Path, Path, list[str], list[int]]] = (),
) -> Iterator[Callable]:
    """A function that appends rows to the table ``path``, written to ``temp`` as CSV.

    The header is written first.  Each call takes whole columns of the
    next rows and writes them by :func:`_write_rows`, ``_BLOCK_ROWS`` at
    a time, in the :class:`RowFormat` of the first call: bools as 0/1,
    others as ``%.{precision}e``, the bytes of one ``%``-format per row.
    A block is formatted once, in numpy (from precision 14 by Python's
    ``%``), so only one block is ever held as text.  Each ``(path, temp,
    header, cells)`` of ``cuts`` is a table whose rows are the cells
    ``cells`` of this table's rows: its text is cut from each formatted
    block, with no formatting of its own.  A failed write names the
    table it was for.
    """
    fmt = None
    with ExitStack() as files:
        write = files.enter_context(_output(path, temp, header))
        parts = [(files.enter_context(_output(*cut[:3])), cut[3]) for cut in cuts]

        def append(cols: list[np.ndarray]) -> None:
            nonlocal fmt
            fmt = fmt or RowFormat(cols, precision)
            _write_rows(write, cols, fmt, parts)

        yield append


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` over its norm; a zero row stays zero.

    Each row is first scaled by the power of two that brings its largest
    component into [0.5, 1): exact, so the quotient keeps its bits, and
    the norm neither underflows nor overflows at any scale.
    """
    scaled = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])
    norms = np.linalg.norm(scaled, axis=1)
    return scaled / np.where(norms > 0, norms, 1.0)[:, None]


def _write_xhat(path: Path, temp: Path, time: np.ndarray, x: RealSignal3, precision: int) -> None:
    """``sphere_xhat.csv``: the unit vector of each sample of ``x``, a block of rows at a time."""
    with _table(path, temp, _SPHERE_HEADER, precision) as append:
        for lo in range(0, x.n_samples, _BLOCK_ROWS):
            xhat = _unit_rows(x.samples[lo:lo + _BLOCK_ROWS])
            append([time[lo:lo + _BLOCK_ROWS], *xhat.T])


def _write_analysis(
    out: Path, temps: dict[str, Path], time: np.ndarray, xp: AnalyticSignal3, config: RunConfig
) -> AnalysisTotals:
    """Run the chain on ``xp``, writing ``analysis.csv`` a block at a time and ``sphere_nhat.csv`` cut from it."""
    nhat = (out / "sphere_nhat.csv", temps["sphere_nhat.csv"], _SPHERE_HEADER, _NHAT_CELLS)
    with _table(out / "analysis.csv", temps["analysis.csv"], _ANALYSIS_HEADER,
                config.precision, [nhat]) as analysis:

        def write(block: Block) -> None:
            rows, t = block.outputs, time[block.lo:block.hi]
            e, m, d, nrm = rows["ellipse"], rows["moments"], rows["decomposition"], rows["normal"]
            analysis([
                t, e.kappa, e.lam, e.theta, e.phi, e.alpha, e.beta, *nrm.n_hat.T,
                m.omega, m.sigma2, m.upsilon2,
                d.term_amplitude, d.term_deformation, d.term_precession, d.term_normal,
                m.edge, e.degenerate, e.circular, m.unreliable,
            ])

        return analyze_blocks(xp, config, write)


def _run_analyze(args) -> int:
    config = _config(args)
    time, x = _read_input(args, config)
    # rotated once, here: the chain and the summary child take the same record
    x = in_bearing_frame(x, config.bearing)
    n = x.n_samples
    tapered = n >= MIN_TAPER_SAMPLES
    out = Path(args.out)
    with _staged(out, _ANALYZE_FILES) as temps:

        def beside_chain() -> GlobalMoments | None:
            # all they need is the record and the time column
            moments = _multitaper(multitaper_moments, x, config) if tapered else None
            _write_xhat(out / "sphere_xhat.csv", temps["sphere_xhat.csv"], time, x,
                        config.precision)
            return moments

        # a child runs the summary beside the chain where the host allows one;
        # else this process runs it first, before the chain's arrays exist
        with _parallel.beside(beside_chain, _BESIDE_CHAIN) as done:
            xp = analytic_transform(x)
            # the summary has the record (a child's copy, or it has run): from
            # here on the chain needs only the analytic signal
            del x
            totals = _write_analysis(out, temps, time, xp, config)
            summary = _summary_dict(totals)
        if tapered:
            # raw-DFT moments of a non-windowed finite record carry leakage bias;
            # the tapered estimate is the robust reference for such inputs
            summary["mean_freq_multitaper"] = done[0].mean_freq
            summary["second_central_multitaper"] = done[0].second_central
        summary_text = _json_text(summary)
        with _naming(out / "summary.json"):
            temps["summary.json"].write_text(summary_text)

    gt, gs = totals.global_time, totals.global_spectral
    print(f"n={n} dt={totals.dt:g} excluded={totals.excluded}")
    print(
        f"mean freq: time {gt.mean_freq:.6g} rad "
        f"({gt.mean_freq / (2 * np.pi) * totals.dt:.6g} cyc/sample), "
        f"spectral {gs.mean_freq:.6g} rad; "
        f"rel diff {summary['mean_freq_rel_diff']:.3g}"
    )
    print(
        f"second central moment: time {gt.second_central:.6g}, "
        f"spectral {gs.second_central:.6g}"
    )
    return 0


def _run_synth(args) -> int:
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise DataFormatError(f"--noise must be finite and at least 0, got {args.noise}")
    if args.seed < 0:
        raise DataFormatError(f"--seed must be at least 0, got {args.seed}")
    given = {"n_samples": args.n, "omega_bar": args.omega_bar, "upsilon": args.upsilon}
    try:
        spec = SynthSpec(mode=args.mode, **given)
    except ValueError as exc:
        # only the field at fault, named first: the rest is a formula in the
        # spec's fields, most of which no flag sets
        raise _flag_error(exc, given.keys() & {str(exc).partition(" ")[0]}) from None
    precision = _config(args).precision
    res = make_reference_signal(spec)
    real = res.signal.samples.real
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        sigma = args.noise * float(np.sqrt(np.mean(real**2)))
        real = real + rng.normal(0.0, sigma, real.shape)
    t = np.arange(spec.n_samples) * spec.dt
    out = Path(args.out)
    tr, rr = res.truth, res.truth_rates
    tables = {
        f"signal_{args.mode}.csv": (["t", "x", "y", "z"], [t, *real.T]),
        f"truth_{args.mode}.csv": (
            ["t", "a", "b", "kappa", "lambda", "theta", "phi", "alpha", "beta",
             "dkappa_rel", "dlambda", "omega_phi", "omega_theta", "omega_alpha",
             "omega_beta"],
            [t, tr.a, tr.b, tr.kappa, tr.lam, tr.theta_unwrapped, tr.phi_unwrapped,
             tr.alpha_unwrapped, tr.beta, rr.dkappa_rel, rr.dlambda, rr.omega_phi,
             rr.omega_theta, rr.omega_alpha, rr.omega_beta]),
    }
    with _staged(out, list(tables)) as temps:
        for name, (header, cols) in tables.items():
            with _table(out / name, temps[name], header, precision) as append:
                append(cols)
    print(f"wrote {out / f'signal_{args.mode}.csv'} ({spec.n_samples} rows)")
    return 0


def _run_spectrum(args) -> int:
    config = _config(args)
    sig = _read_input(args, config, need=MIN_TAPER_SAMPLES)[1]
    est = _multitaper(multitaper_joint_spectrum, sig, config)
    norm = _trapezoid(est.values, est.freqs) / (2 * np.pi)
    summary_text = _json_text({
        "mean_freq_spectral": est.moments.mean_freq,
        "second_central_spectral": est.moments.second_central,
        "normalization": norm,
        "taper_p": config.taper_p,
        "n_tapers": config.n_tapers,
    })
    out = Path(args.out)
    with _staged(out, ("spectrum.csv", "spectrum_summary.json")) as temps:
        with _table(out / "spectrum.csv", temps["spectrum.csv"],
                    ["freq_rad", "freq_cycles", "s_x"], config.precision) as append:
            append([est.freqs, est.freqs * sig.dt / (2 * np.pi), est.values])
        with _naming(out / "spectrum_summary.json"):
            temps["spectrum_summary.json"].write_text(summary_text)
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
                   help="number of tapers, from 1 to floor(2 * --taper-p - 1)")
    p.add_argument("--pad", dest="pad_factor", type=int, default=argparse.SUPPRESS,
                   help="spectrum zero-pad factor, at least 1: the grid has at least "
                        "pad*n points, rounded up to a 5-smooth length")


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
        except (ValueError, ArithmeticError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            code = 3
        except MemoryError as exc:
            print(f"out of memory: {exc}", file=sys.stderr)
            code = 3
    if counts:
        detail = ", ".join(f"{message} ({n})" for message, n in counts.items())
        print(f"note: {counts.total()} floating-point warnings: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
