"""The CLI table writer and CSV reader against their per-cell and row-by-row references."""

import contextlib
import errno
import io
import os
import signal
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import triellipse.cli as cli
from conftest import run_python
from triellipse import (
    RealSignal3,
    SynthSpec,
    _format,
    _parallel,
    make_random_modulated,
    make_reference_signal,
    pipeline,
)
from triellipse.cli import (
    _BLOCK_ROWS,
    DataFormatError,
    _parse_fast,
    _parse_rows,
    read_dataset,
)

COLUMNS = ("t", "x", "y", "z")


def per_cell_write(path, header, cols, precision):
    """The reference writer: one ``str.format`` per cell."""
    fmt = f"{{:.{precision}e}}"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(
                ",".join(
                    str(int(v)) if isinstance(v, (bool, np.bool_)) else fmt.format(v)
                    for v in row
                )
                + "\n"
            )


def write_table(path, header, cols, precision):
    """The CLI's table writer, given whole columns: ``path`` written through ``cli._table``."""
    with cli._table(path, path, header, precision) as append:
        append(cols)


SPECIAL = np.array([
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310, -1e-300, 1e300, -1e300,
    1.7976931348623157e308, 0.5, 2.5, -9.5, 9.999999999999999, 1e-5, 123456789.0,
])


@pytest.mark.parametrize("precision", [0, 3, 12, 17])
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_write_table_matches_per_cell_writer(tmp_path, precision, n):
    rng = np.random.default_rng(precision * 10_000 + n)
    scaled = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-300, 301, size=(2, n))
    cols = [
        np.arange(n) * 0.25,
        np.resize(SPECIAL, n)[rng.permutation(n)],
        scaled[0],
        rng.random(n) < 0.5,
        scaled[1],
        rng.normal(size=n),
        np.arange(n) % 3 == 0,
    ]
    header = [f"c{j}" for j in range(len(cols))]
    write_table(tmp_path / "new.csv", header, cols, precision)
    per_cell_write(tmp_path / "ref.csv", header, cols, precision)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_table_holds_one_block_of_text(tmp_path):
    # a formatter that held the whole table as text would peak above the file size
    n = 50_000
    rng = np.random.default_rng(0)
    cols = [rng.normal(size=n) for _ in range(17)] + [rng.random(n) < 0.5 for _ in range(4)]
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        write_table(path, [f"c{j}" for j in range(21)], cols, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8


def _table(n, seed, width):
    rng = np.random.default_rng(seed)
    cols = [np.arange(n) * 0.25, np.resize(SPECIAL, n)[rng.permutation(n)]]
    cols += [
        rng.random(n) < 0.5 if j % 3 == 0 else rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, n)
        for j in range(width - 2)
    ]
    return [f"c{j}" for j in range(width)], cols


def test_short_long_double_takes_python_percent(tmp_path, monkeypatch):
    # where long double is a plain double (macOS arm64) numpy would print wrong digits
    def numpy_path(*args):
        raise AssertionError("numpy path taken")

    monkeypatch.setattr(_format, "_long_double_is_wide", lambda: False)
    monkeypatch.setattr(_format.RowFormat, "_text", numpy_path)
    header, cols = _table(_BLOCK_ROWS + 1, 0, 7)
    write_table(tmp_path / "new.csv", header, cols, 12)
    per_cell_write(tmp_path / "ref.csv", header, cols, 12)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


SUMMARY = "computing the multitaper summary and writing sphere_xhat.csv"


@pytest.fixture
def forking(monkeypatch, deadline):
    """Count the forks: what each was for.

    Where ``_parallel._cpus`` is above 1, ``analyze`` forks its summary
    child at any record length.  No table writer forks: the summary
    child writes ``sphere_xhat.csv``, this process the tables the chain
    streams, and ``synth`` and ``spectrum`` write theirs in this process.
    """
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            # the caller is _parallel.beside, whose `what` names the task
            forks.append(sys._getframe(1).f_locals["what"])
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return pid == 0


def _failing_on(table, call, fail):
    """A ``_write_rows`` that runs ``fail()`` on its ``call``-th call for ``table``'s file, in any process."""
    write_rows = cli._write_rows
    calls = []

    def failing(fh, cols, fmt):
        # the table's own file, or the temporary file named after it that
        # every command writes instead
        name = Path(fh.name).name
        if name == table or name.startswith(f".{table}."):
            calls.append(name)
            if len(calls) == call:
                fail()
        write_rows(fh, cols, fmt)

    return failing


def _no_space():
    raise OSError(28, "No space left on device")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_writer_is_input_error_naming_the_table(
    tmp_path, monkeypatch, capsys, forking, small_blocks, how
):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    assert cli.main(["synth", "--mode", "amplitude", "--out", str(tmp_path / "s")]) == 0
    csv = tmp_path / "s" / "signal_amplitude.csv"
    out = tmp_path / "o"
    # the summary child writes sphere_xhat.csv and this process the other two; a
    # SIGKILL can end only the child
    tables = ["sphere_xhat.csv"] if how == "killed" else [
        "analysis.csv", "sphere_xhat.csv", "sphere_nhat.csv"
    ]
    for table in tables:
        monkeypatch.setattr(cli, "_write_rows",
                            _failing_on(table, 2, _killed if how == "killed" else _no_space))
        assert cli.main(["analyze", str(csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if how == "raises":
            assert err == f"input error: {out / table}: [Errno 28] No space left on device\n"
        else:
            assert err == f"input error: worker process 1 of 2 {SUMMARY} ended by SIGKILL\n"
        assert not out.exists()
    # one summary child per analyze, and none for synth
    assert forking == [SUMMARY] * len(tables) and _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_short_records_start_no_process(tmp_path, monkeypatch, forking):
    # on any CPU count no table writer forks, even above 2^17 cells; only the
    # summary of analyze does, at any record length, and only on more than one CPU
    for cpus in (1, 2, 64):
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["synth", "--mode", "nutation", "--out", str(out)]) == 0
        csv = str(out / "signal_nutation.csv")
        assert cli.main(["spectrum", csv, "--out", str(out / "s")]) == 0
        # 20 000 rows of 19 columns, and a grid of 80 001 rows of 3 at --pad 8
        assert cli.main(["synth", "--mode", "amplitude", "--n", "20000",
                         "--out", str(out / "long")]) == 0
        long_csv = str(out / "long" / "signal_amplitude.csv")
        assert cli.main(["spectrum", long_csv, "--pad", "8", "--out", str(out / "ls")]) == 0
        assert len((out / "ls" / "spectrum.csv").read_text().splitlines()) == 80_002
        assert forking == []
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", csv, "--out", str(out / "a")]) == 0
        assert forking == ([] if cpus == 1 else [SUMMARY]) and _no_child_left()
        forking.clear()


def _record_csv(tmp_path, n, seed, scale=1.0):
    t = np.arange(n, dtype=float)
    x = make_random_modulated(n, seed).samples.real * scale
    csv = tmp_path / "in.csv"
    np.savetxt(csv, np.column_stack([t, x]), fmt="%.17g", delimiter=",",
               header="t,x,y,z", comments="")
    return csv


def _analyze(argv, capsys):
    code = cli.main(["analyze", *map(str, argv)])
    return code, *capsys.readouterr()


# the summary beside the chain in a child, then in this process on one CPU,
# and last on two CPUs of a host without os.fork
LAYOUTS = ("forked", "one_cpu", "no_fork")


def _lay_out(monkeypatch, layout):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1 if layout == "one_cpu" else 2)
    if layout == "no_fork":
        monkeypatch.delattr(os, "fork")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("n, flags", [(600, []), (601, []), (600, ["--bearing", "30"])])
def test_summary_child_matches_inline_run(tmp_path, monkeypatch, capsys, forking, n, flags):
    csv = _record_csv(tmp_path, n, n)
    runs = {}
    for layout in LAYOUTS:
        _lay_out(monkeypatch, layout)
        out = tmp_path / layout
        code, stdout, stderr = _analyze([csv, "--out", out, *flags], capsys)
        assert code == 0 and stderr == ""
        runs[layout] = stdout, {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["one_cpu"] == runs["forked"] == runs["no_fork"] and len(runs["forked"][1]) == 4
    # only the forked run started a process
    assert forking == [SUMMARY] and _no_child_left()


def _reference_tables(csv, flags, out):
    """``analyze``'s three tables as the table writer writes ``analyze_signal``'s whole columns."""
    config = cli._config(cli.build_parser().parse_args(["analyze", str(csv), *flags]))
    ds = read_dataset(csv)
    res = cli.analyze_signal(RealSignal3(ds.channels, dt=ds.dt), config)
    e, m, d, nrm = res.ellipse, res.moments, res.decomposition, res.normal
    cols = [
        ds.time, e.kappa, e.lam, e.theta, e.phi, e.alpha, e.beta,
        nrm.n_hat[:, 0], nrm.n_hat[:, 1], nrm.n_hat[:, 2], m.omega, m.sigma2, m.upsilon2,
        d.term_amplitude, d.term_deformation, d.term_precession, d.term_normal,
        m.edge, e.degenerate, e.circular, m.unreliable,
    ]
    norms = np.linalg.norm(res.signal.samples, axis=1)
    xhat = res.signal.samples / np.where(norms > 0, norms, 1.0)[:, None]
    out.mkdir()
    write_table(out / "analysis.csv", cli._ANALYSIS_HEADER, cols, config.precision)
    write_table(out / "sphere_xhat.csv", cli._SPHERE_HEADER, [ds.time, *xhat.T], config.precision)
    write_table(out / "sphere_nhat.csv", cli._SPHERE_HEADER, [ds.time, *nrm.n_hat.T],
                config.precision)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus", [1, 2], ids=["summary_in_process", "summary_forked"])
@pytest.mark.parametrize("flags", [
    [], ["--scheme", "spectral"], ["--bearing", "30"], ["--scheme", "spectral", "--bearing", "-112.5"],
], ids=["central4", "spectral", "bearing", "spectral_bearing"])
def test_streamed_analyze_writes_the_tables_of_analyze_signal(
    tmp_path, monkeypatch, forking, small_blocks, cpus, flags
):
    monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
    n = 9 * small_blocks + 37  # odd, and the last block short
    csv = _record_csv(tmp_path, n, 7)
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(csv), "--out", str(out), *flags]) == 0
    assert forking == ([SUMMARY] if cpus == 2 else []) and _no_child_left()
    assert sorted(p.name for p in out.iterdir()) == sorted(cli._ANALYZE_FILES)
    _reference_tables(csv, flags, tmp_path / "ref")
    for name in ("analysis.csv", "sphere_xhat.csv", "sphere_nhat.csv"):
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


FAILED_RUN = {
    "writer_error": (2, "input error: {out}/analysis.csv: [Errno 28] No space left on device"),
    "killed_child": (2, f"input error: worker process 1 of 2 {SUMMARY} ended by SIGKILL"),
    "non_finite_summary": (3, "numerical failure: summary value 'second_central_multitaper' "
                              "is not finite (inf); no output written"),
    "directory": (2, "input error: [Errno 21] Is a directory: '{out}/sphere_nhat.csv'"),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("route", FAILED_RUN)
def test_failed_analyze_keeps_the_previous_run(
    tmp_path, monkeypatch, capsys, forking, small_blocks, route
):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    out = tmp_path / "o"
    assert cli.main(["analyze", str(_record_csv(tmp_path, 800, 0)), "--out", str(out)]) == 0
    if route == "directory":
        (out / "sphere_nhat.csv").unlink()
        (out / "sphere_nhat.csv").mkdir()

        def no_chain(*args):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(cli, "analyze_blocks", no_chain)
    elif route == "writer_error":  # in this process, after two blocks of rows
        monkeypatch.setattr(cli, "_write_rows", _failing_on("analysis.csv", 3, _no_space))
    elif route == "killed_child":  # the summary child, after a block of rows
        monkeypatch.setattr(cli, "_write_rows", _failing_on("sphere_xhat.csv", 2, _killed))
    before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    # another record, so that no table of a finished run would keep its bytes
    if route == "non_finite_summary":
        x = make_reference_signal(SynthSpec(n_samples=800, mode="amplitude")).signal.samples
        csv = tmp_path / "huge.csv"
        np.savetxt(csv, np.column_stack([np.arange(800.0), x.real * 1e75]),
                   fmt="%.17g", delimiter=",", header="t,x,y,z", comments="")
    else:
        csv = _record_csv(tmp_path, 800, 1)
    code = cli.main(["analyze", str(csv), "--out", str(out)])
    want_code, want_err = FAILED_RUN[route]
    assert (code, capsys.readouterr().err.splitlines()[0]) == (want_code, want_err.format(out=out))
    assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before
    assert forking == [SUMMARY] * (1 if route == "directory" else 2) and _no_child_left()


@pytest.mark.parametrize("argv, table", [
    (["synth", "--mode", "amplitude"], "truth_amplitude.csv"),
    (["spectrum", "{csv}"], "spectrum.csv"),
], ids=["synth", "spectrum"])
def test_failed_synth_or_spectrum_write_keeps_the_previous_run(
    tmp_path, monkeypatch, capsys, argv, table
):
    out = tmp_path / "o"
    argv = [a.format(csv=_record_csv(tmp_path, 800, 0)) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    # synth's signal table is written before its truth table fails
    monkeypatch.setattr(cli, "_write_rows", _failing_on(table, 1, _no_space))
    assert cli.main([*argv, "--precision", "6"]) == 2  # every table would change
    err = capsys.readouterr().err
    assert err == f"input error: {out / table}: [Errno 28] No space left on device\n"
    # the same files and bytes, and no temporary file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("argv, first", [
    (["synth", "--mode", "amplitude"], "signal_amplitude.csv"),
    (["spectrum", "{csv}"], "spectrum.csv"),
    (["analyze", "{csv}"], "analysis.csv"),
], ids=["synth", "spectrum", "analyze"])
def test_unwritable_output_directory_names_the_file(tmp_path, monkeypatch, capsys, argv, first):
    # the line opening the file itself gives, not the temporary file's random name
    def denied(prefix, suffix, dir):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), f"{dir}/{prefix}x{suffix}")

    monkeypatch.setattr(tempfile, "mkstemp", denied)
    out = tmp_path / "o"
    argv = [a.format(csv=_record_csv(tmp_path, 800, 0)) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", f"input error: [Errno 13] Permission denied: '{out / first}'\n"
    )
    assert not out.exists()


def test_analyze_traced_peak_is_the_spectral_pass(tmp_path, monkeypatch, capsys):
    # one CPU: the summary runs in this process too, before the chain; the peak
    # is then the taper solve (12.9 MB) or the global spectral pass (10.3 MB),
    # not the written columns (29.1 MB when they were built whole), and the
    # real record is freed before the pass (15.0 MB while it was kept)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    csv = _record_csv(tmp_path, 100_000, 3)
    tracemalloc.start()
    try:
        assert cli.main(["analyze", str(csv), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5e6


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus", [1, 2])
def test_record_is_freed_before_the_spectral_pass(tmp_path, monkeypatch, forking, cpus):
    # the chain needs only the analytic signal; the summary has the record
    # already, in its child (two CPUs) or having run first (one)
    monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
    records = []

    def read_input(*args, _read=cli._read_input):
        time, x = _read(*args)
        records.append(weakref.ref(x.samples))
        return time, x

    alive = []

    def spectral(*args, _spectral=pipeline.global_moments_spectral):
        alive.append(records[0]() is not None)
        return _spectral(*args)

    monkeypatch.setattr(cli, "_read_input", read_input)
    monkeypatch.setattr(pipeline, "global_moments_spectral", spectral)
    csv = _record_csv(tmp_path, 800, 0)
    assert cli.main(["analyze", str(csv), "--out", str(tmp_path / "o")]) == 0
    assert alive == [False]
    assert forking == [SUMMARY] * (cpus - 1)


def test_spectrum_frees_the_time_column_before_the_estimate(tmp_path, monkeypatch):
    # spectrum reads only the record's samples and its sample interval
    times = []

    def read_input(*args, _read=cli._read_input, **kwargs):
        time, x = _read(*args, **kwargs)
        times.append(weakref.ref(time))
        return time, x

    alive = []

    def estimate(*args, _estimate=cli.multitaper_joint_spectrum, **kwargs):
        alive.append(times[0]() is not None)
        return _estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "_read_input", read_input)
    monkeypatch.setattr(cli, "multitaper_joint_spectrum", estimate)
    csv = _record_csv(tmp_path, 800, 0)
    assert cli.main(["spectrum", str(csv), "--out", str(tmp_path / "o")]) == 0
    assert alive == [False]


def test_spectrum_traced_peak_has_no_trapezoid_temporaries(tmp_path):
    # the normalisation forms its terms in one array the size of the grid
    # (3.2 MB here), and the time column is not held: 14.9 MB in all, 15.7 MB
    # with the time column, 18.6 MB through np.trapezoid's temporaries
    csv = _record_csv(tmp_path, 100_000, 0)
    tracemalloc.start()
    try:
        assert cli.main(["spectrum", str(csv), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15.3e6


def test_failed_publish_names_the_file(tmp_path, monkeypatch, capsys):
    # the renames run one file at a time: the second one fails here
    out = tmp_path / "o"
    replace, calls = os.replace, []

    def failing(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    assert cli.main(["synth", "--mode", "amplitude", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {out / 'truth_amplitude.csv'}: [Errno 5] {os.strerror(errno.EIO)}\n"
    )
    assert not list(out.glob(".*.tmp"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_overflow_in_summary_child_fails_as_inline(tmp_path, monkeypatch, capsys, forking):
    csv = _record_csv(tmp_path, 800, 0, scale=1e200)
    runs = {}
    for layout in LAYOUTS:
        _lay_out(monkeypatch, layout)
        out = tmp_path / layout
        code, stdout, stderr = _analyze([csv, "--out", out], capsys)
        assert code == 3 and not out.exists()
        runs[layout] = stdout, stderr
    message, note = runs["forked"][1].splitlines()
    assert message.startswith("numerical failure: summary value ")
    assert note.startswith("note: ") and "overflow encountered" in note
    assert runs["one_cpu"] == runs["forked"] == runs["no_fork"]
    assert forking == [SUMMARY] and _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_summary_child(tmp_path, monkeypatch, capsys, forking, how):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    parent = os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("the multitaper ran in this process")
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ValueError("multitaper probe failed")

    monkeypatch.setattr(cli, "multitaper_moments", failing)
    out = tmp_path / "o"
    code, _, stderr = _analyze([_record_csv(tmp_path, 800, 0), "--out", out], capsys)
    if how == "raises":
        assert code == 3 and stderr == "numerical failure: multitaper probe failed\n"
    else:
        assert code == 2 and stderr == (
            f"input error: worker process 1 of 2 {SUMMARY} ended by SIGKILL\n"
        )
    assert not out.exists()
    assert forking == [SUMMARY] and _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_chain_failure_is_reported_before_the_summarys(tmp_path, monkeypatch, capsys, forking):
    # a constant record is zero once demeaned, and the chain and the multitaper
    # both refuse it: the chain's message is reported whether the summary ran
    # first in this process or beside the chain in a child
    csv = tmp_path / "constant.csv"
    np.savetxt(csv, np.column_stack([np.arange(800.0), np.ones((800, 3))]), fmt="%.17g",
               delimiter=",", header="t,x,y,z", comments="")
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        message = "numerical failure: zero signal: spectrum is undefined\n"
        assert _analyze([csv, "--out", out], capsys) == (3, "", message)
        assert not out.exists()
    assert forking == [SUMMARY] and _no_child_left()


try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("stage", ["analyze_blocks", "multitaper_moments"])
def test_out_of_memory_is_numerical_failure(tmp_path, monkeypatch, capsys, forking, stage):
    # numpy's own error, as a huge --pad raises it; building it allocates nothing
    error = _ArrayMemoryError((800 * 10**8,), np.dtype(complex))

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, stage, failing)
    csv = _record_csv(tmp_path, 800, 0)
    for cpus in (1, 2):  # inline, then beside the summary child
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert _analyze([csv, "--out", out], capsys) == (3, "", f"out of memory: {error}\n")
        assert not out.exists()
    assert forking == [SUMMARY] and _no_child_left()


def test_synth_out_of_memory_is_numerical_failure(tmp_path, monkeypatch, capsys):
    error = _ArrayMemoryError((10**12,), np.dtype(float))  # as synth --n 1000000000000 raises it

    def failing(spec):
        raise error

    monkeypatch.setattr(cli, "make_reference_signal", failing)
    out = tmp_path / "o"
    assert cli.main(["synth", "--mode", "amplitude", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"out of memory: {error}\n")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_out_of_memory_in_a_writer_is_numerical_failure(tmp_path, monkeypatch, capsys, forking):
    error = _ArrayMemoryError((10**9,), np.dtype(float))

    def failing(fh, cols, fmt):  # the first write of the first table
        raise error

    monkeypatch.setattr(cli, "_write_rows", failing)
    for cpus in (1, 2):  # in this process on any CPU count
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["synth", "--mode", "amplitude", "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"out of memory: {error}\n")
        assert not out.exists()
    assert forking == [] and _no_child_left()


def _rows(n=80, fmt="{t},{x},{y},{z}"):
    return [
        fmt.format(t=i * 0.5, x=np.cos(0.3 * i), y=np.sin(0.3 * i), z=0.1 * i)
        for i in range(n)
    ]


def _file(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    return path


PARSED_FAST = {
    "comments": "# before\n# more\nt,x,y,z\n" + "\n".join(_rows()) + "\n",
    "padded": " t , x ,\ty, z \n" + "\n".join(_rows(fmt=" {t} ,\t{x}, {y} ,{z}  ")) + "\n",
    "reordered_extra": "z,extra,t,y,x,more\n"
    + "\n".join(_rows(fmt="{z},7,{t},{y},{x},-1")) + "\n",
    "crlf": "t,x,y,z\r\n" + "\r\n".join(_rows()) + "\r\n",
    "trailing_blank": "t,x,y,z\n" + "\n".join(_rows()) + "\n\n",
    "byte_order_mark": "\ufefft,x,y,z\n" + "\n".join(_rows()) + "\n",
    "cr": "t,x,y,z\r" + "\r".join(_rows()) + "\r",
}

PARSED_BY_ROWS = {
    "quoted": '"t","x","y","z"\n' + "\n".join(_rows(fmt='"{t}","{x}",{y},"{z}"')) + "\n",
    "body_comments": "t,x,y,z\n# after\n" + "\n".join(_rows()) + "\n  # indented\n",
}

REJECTED = {
    "short_row": ("t,x,y,z,w\n" + "\n".join(r + ",9" for r in _rows()[:40])
                  + "\n" + _rows()[40] + "\n" + "\n".join(r + ",9" for r in _rows()[41:]) + "\n",
                  "row 42 has 4 fields, expected 5"),
    "all_rows_short": ("t,x,y,z,w\n" + "\n".join(_rows()) + "\n",
                       "row 2 has 4 fields, expected 5"),
    "inline_comment": ("t,x,y,z\n" + "\n".join(_rows()[:30]) + "\n"
                       + _rows()[30] + " # note\n" + "\n".join(_rows()[31:]) + "\n",
                       "row 32, column 'z'"),
    "whitespace_line": ("t,x,y,z\n" + "\n".join(_rows()[:30]) + "\n   \n"
                        + "\n".join(_rows()[30:]) + "\n",
                        "row 32 has 1 fields, expected 4"),
    "underscore": ("t,x,y,z\n" + "\n".join(_rows()[:30]) + "\n15,0_0,1,2\n"
                   + "\n".join(_rows()[31:]) + "\n",
                   "row 32, column 'x': cannot parse '0_0' as a number"),
    "non_ascii_digits": ("t,x,y,z\n" + "\n".join(_rows()[:30]) + "\n15,1,\u0661\u0662,2\n"
                         + "\n".join(_rows()[31:]) + "\n",
                         "row 32, column 'y': cannot parse '\u0661\u0662' as a number"),
    "huge_comment": ("t,x,y,z\n" + "\n".join(_rows()) + "\n# " + "a" * 200_000 + "\n",
                     "field larger than field limit"),
    "blank_header": ("  \nt,x,y,z\n" + "\n".join(_rows()) + "\n",
                     r"the header \(row 1\) is blank"),
    "used_name_twice": ("t,x,x,y,z\n" + "\n".join(_rows(fmt="{t},{x},{x},{y},{z}")) + "\n",
                        r"column 'x' names 2 fields in header \['t', 'x', 'x', 'y', 'z'\]"),
}


def _assert_same(ds, data):
    assert np.array_equal(ds.time, data[:, 0])
    assert np.array_equal(ds.channels, data[:, 1:4])
    assert ds.channels.strides == data[:, 1:4].strides


@pytest.mark.parametrize("case", sorted(PARSED_FAST))
def test_fast_reader_matches_row_parser(tmp_path, case):
    path = _file(tmp_path, PARSED_FAST[case])
    expected = _parse_rows(path, COLUMNS)
    assert expected.shape == (80, 4)
    fast = _parse_fast(path, COLUMNS)
    assert np.array_equal(fast, expected) and fast.flags.c_contiguous
    _assert_same(read_dataset(path), expected)


@pytest.mark.parametrize("case", sorted(PARSED_BY_ROWS))
def test_row_parser_takes_what_loadtxt_rejects(tmp_path, case):
    path = _file(tmp_path, PARSED_BY_ROWS[case])
    with pytest.raises(ValueError):
        _parse_fast(path, COLUMNS)
    expected = _parse_rows(path, COLUMNS)
    assert expected.shape == (80, 4)
    _assert_same(read_dataset(path), expected)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_fast_reader_rejects_what_row_parser_rejects(tmp_path, case):
    text, message = REJECTED[case]
    path = _file(tmp_path, text)
    with pytest.raises(ValueError):
        _parse_fast(path, COLUMNS)
    with pytest.raises(DataFormatError, match=message):
        read_dataset(path)


def test_body_comments_keep_their_values(tmp_path):
    # the row parser reads them now, to the bits the fast reader gave the plain body
    plain = _parse_fast(_file(tmp_path, "t,x,y,z\n" + "\n".join(_rows()) + "\n"), COLUMNS)
    _assert_same(read_dataset(_file(tmp_path, PARSED_BY_ROWS["body_comments"])), plain)


@pytest.mark.parametrize("text", ["t,x,y,z\n", "t,x,y,z\n\n# only a comment\n\r\n"])
def test_empty_body_declines_quietly(tmp_path, capsys, text):
    path = _file(tmp_path, text)
    assert cli.main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"input error: {path}: no data rows\n")


def test_blank_line_before_the_header_is_named(tmp_path, capsys):
    # a line of blanks is a record of one empty field, so it is the header
    path = _file(tmp_path, REJECTED["blank_header"][0])
    assert cli.main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"input error: {path}: the header (row 1) is blank\n")


def test_median_is_numpys_to_the_bit():
    rng = np.random.default_rng(5)
    zeros = [np.array(z) for z in ([-0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 1.0, -0.0])]
    cases = zeros + [
        np.round(rng.normal(size=n) * 10.0 ** rng.integers(-8, 8), int(rng.integers(0, 4)))
        for n in rng.integers(1, 400, size=3000)
    ]
    assert {a.size % 2 for a in cases} == {0, 1}
    for a in cases:
        assert np.float64(cli._median(a)).tobytes() == np.median(a).tobytes(), a


def test_read_dataset_imports_no_numpy_ma(tmp_path):
    path = _file(tmp_path, "t,x,y,z\n" + "\n".join(_rows()) + "\n")
    out = run_python(
        "import sys\n"
        "from triellipse.cli import read_dataset\n"
        f"read_dataset({str(path)!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert out == "False\n"


@pytest.mark.parametrize("text", [PARSED_FAST["comments"], PARSED_BY_ROWS["body_comments"]],
                         ids=["fast_reader", "row_parser"])
def test_parsed_table_is_freed_before_the_analysis(tmp_path, monkeypatch, text):
    tables = []
    for name in ("_parse_fast", "_parse_rows"):
        def parse(*args, _parse=getattr(cli, name)):
            table = _parse(*args)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(cli, name, parse)
    alive = []

    def analyze(*args, _analyze=cli.analyze_blocks):
        alive.extend(ref() is not None for ref in tables)
        return _analyze(*args)

    monkeypatch.setattr(cli, "analyze_blocks", analyze)
    assert cli.main(["analyze", str(_file(tmp_path, text)), "--out", str(tmp_path / "o")]) == 0
    assert alive == [False]


BODY = "t,x,y,z\n" + "\n".join(_rows(3000)) + "\n"


@pytest.mark.parametrize("encoding, at, reason", [
    # a Latin-1 comment before the header, and one after many 8 kB chunks of rows
    ("latin-1", 7, "invalid continuation byte"),
    ("latin-1", len(BODY) + 6, "invalid start byte"),
    ("utf-16", 0, "invalid start byte"),
])
def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys, encoding, at, reason):
    text = "# Montréal\n" + BODY if at < len(BODY) else BODY + "# end °C\n"
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode(encoding))
    assert cli.main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == (
        "", f"input error: {path}: not UTF-8 text at byte {at}: {reason}\n"
    )


@pytest.mark.parametrize("names", ["t, x, y, z", " t,x ,\ty,z "])
def test_column_names_are_stripped_like_the_header(tmp_path, names):
    path = _file(tmp_path, PARSED_FAST["padded"])
    _assert_same(read_dataset(path, columns=names.split(",")), _parse_rows(path, COLUMNS))
    assert cli.main(["analyze", str(path), "--columns", names, "--out", str(tmp_path / "o")]) == 0


def test_a_column_named_twice_is_input_error(tmp_path, capsys):
    # a request naming one field twice would analyse a record with two equal channels
    path = _file(tmp_path, "t,x,x,z\n" + "\n".join(_rows(fmt="{t},{x},{y},{z}")) + "\n")
    out = tmp_path / "o"
    assert cli.main(["analyze", str(path), "--columns", "t,x, x,z", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: --columns needs 4 different names, got ['t', 'x', 'x', 'z']\n"
    )
    assert not out.exists()


def test_unused_names_may_repeat(tmp_path):
    path = _file(tmp_path, "t,x,y,z,w,w\n" + "\n".join(r + ",1,2" for r in _rows()) + "\n")
    _assert_same(read_dataset(path), _parse_fast(path, COLUMNS))


def test_missing_column_is_named_from_the_request(tmp_path, capsys):
    path = _file(tmp_path, PARSED_FAST["crlf"])
    assert cli.main(["analyze", str(path), "--columns", "t,x,y,w z",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"input error: {path}: column 'w z' not found in header ['t', 'x', 'y', 'z']\n"
    )


# The grammar, generated: files built from cells known to be valid or not,
# each with the outcome the grammar gives it.  Each file draws which
# liberties it takes, so that many files are plain enough for np.loadtxt.

NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "INF"]
NOT_NUMBERS = ["", "abc", "1.5.2", "0x1p3", "--1", "1e", "e5", "in f", "1 2"]
# digits Python's float reads and the grammar does not: Arabic-Indic,
# Devanagari and fullwidth
DIGITS = ["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
          "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
          "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]


class _Style:
    """The liberties one generated file takes: blanks around fields, quoted fields,
    faults, and text where loadtxt takes none (unused columns, extra fields, body comments)."""

    def __init__(self, draw):
        self.draw = draw
        self.blanks = draw(st.booleans())
        self.quotes, self.faults, self.text = (draw(st.integers(0, 2)) == 0 for _ in range(3))

    def dress(self, text):
        """``text``, padded with blanks and quoted as RFC 4180 allows, if the file does that."""
        if self.blanks:
            lead = self.draw(st.sampled_from(["", " ", "\t", "  ", "\u00a0"]))
            text = lead + text + " " * self.draw(st.integers(0, 2))
        return f'"{text}"' if self.quotes and self.draw(st.integers(0, 3)) == 0 else text

    def spell(self, value, digits):
        """``value`` in the grammar's number syntax, with at least ``digits`` digits."""
        form, places = self.draw(st.sampled_from("reEgG")), self.draw(st.integers(digits, 17))
        text = repr(value) if form == "r" else f"{value:.{places}{form}}"
        return "+" + text if text[0] != "-" and self.draw(st.booleans()) else text

    def not_grammar(self):
        """A cell that Python's float may read but the grammar does not take as a number."""
        kind = self.draw(st.integers(0, 2))
        if kind == 0:  # an underscore between digits
            text = str(self.draw(st.integers(10, 10**6)))
            cut = self.draw(st.integers(1, len(text) - 1))
            return text[:cut] + "_" + text[cut:]
        if kind == 1:
            script = self.draw(st.sampled_from(DIGITS))
            return "".join(script[int(d)] for d in str(self.draw(st.integers(0, 10**4))))
        return self.draw(st.sampled_from(NOT_NUMBERS))

    def used(self, value, digits):
        """A used cell, the value it reads as, and its fault or None."""
        if self.faults and self.draw(st.integers(0, 9)) == 0:
            if self.draw(st.booleans()):
                return self.dress(self.draw(st.sampled_from(NON_FINITE))), None, "non-finite value"
            return self.dress(self.not_grammar()), None, "cannot parse"
        text = self.spell(value, digits)
        return self.dress(text), float(text), None

    def unused(self):
        kind = self.draw(st.integers(0, 4 if self.text else 1))
        if kind == 0:
            return self.dress(self.spell(self.draw(st.floats(allow_nan=False)), 0))
        if kind == 1:
            return self.dress(self.draw(st.sampled_from(NON_FINITE)))
        if kind == 2:
            return self.dress(self.not_grammar())
        return self.draw(st.sampled_from(['station', '"a,b"', 'x y', '""']))

    def comment(self):
        return self.draw(st.sampled_from(["", " ", "\t"])) + "#" + self.draw(
            st.text("ab XY09,.-#", max_size=8))


@st.composite
def csv_files(draw):
    """(bytes, columns, expected array, expected fault) of one generated record."""
    style = _Style(draw)
    header = draw(st.permutations(list(COLUMNS) + ["e0", "e1"][: draw(st.integers(0, 2))]))
    lines = [style.comment() if draw(st.booleans()) else "" for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(style.dress(name) for name in header))
    t0 = draw(st.integers(-50, 50))
    faults, values = [], []  # of each record after the header: row 2, 3, ...
    for i in range(draw(st.integers(2, 4))):
        kind = draw(st.integers(0, 9))
        if kind < 2 and style.text:
            lines.append(style.comment())
        elif kind < 4:
            lines.append("")
        elif kind == 4 and style.faults:  # a line of blanks is a record of one empty field
            lines.append(draw(st.sampled_from([" ", "\t", " \t"])))
            faults.append(f" has 1 fields, expected {len(header)}")
        cells, numbers, bad = {}, {}, {}
        for name in header:
            if name not in COLUMNS:
                cells[name] = style.unused()
            elif name == "t":  # spelled exactly, so that the time grid stays uniform
                cells[name], numbers[name], bad[name] = style.used(t0 + 0.5 * i, 4)
            else:
                value = draw(st.floats(-1e300, 1e300))
                cells[name], numbers[name], bad[name] = style.used(value, 0)
        fields = [cells[name] for name in header]
        if style.text and draw(st.integers(0, 4)) == 0:
            fields.append(style.unused())  # a field past the header's, which no column names
        fault = next((f", column {name!r}: {bad[name]}" for name in COLUMNS if bad[name]), None)
        if style.faults and draw(st.integers(0, 9)) == 0:
            fields = fields[: draw(st.integers(2, len(header) - 1))]
            fault = f" has {len(fields)} fields, expected {len(header)}"
        lines.append(",".join(fields))
        faults.append(fault)
        values.append([numbers[name] for name in COLUMNS])
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ("\ufeff" if draw(st.booleans()) else "") + eol.join(lines)
    text += eol if draw(st.booleans()) else ""
    columns = [name if style.quotes else style.dress(name) for name in COLUMNS]  # never quoted
    fault = next((f"row {r + 2}{f}" for r, f in enumerate(faults) if f), None)
    return text.encode(), columns, None if fault else np.array(values), fault


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_files())
def test_read_dataset_follows_the_grammar(case):
    data, columns, expected, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        try:
            fast = _parse_fast(path, [name.strip() for name in columns])
        except (ValueError, Warning):
            fast = None
        if fault is None:
            ds = read_dataset(path, columns=columns)
            assert np.column_stack([ds.time, ds.channels]).tobytes() == expected.tobytes()
            assert fast is None or fast.tobytes() == expected.tobytes()
            return
        assert fast is None
        with pytest.raises(DataFormatError) as raised:
            read_dataset(path, columns=columns)
        assert str(raised.value).startswith(f"{path}: {fault}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["analyze", str(path), "--columns", ",".join(columns),
                             "--out", str(Path(tmp) / "out")])
        assert (code, err.getvalue()) == (2, f"input error: {raised.value}\n")
