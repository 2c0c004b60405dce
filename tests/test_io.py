"""The CLI table writer and CSV reader against their per-cell and row-by-row references."""

import os
import signal
import sys
import tracemalloc

import numpy as np
import pytest

import triellipse.cli as cli
from triellipse import _parallel, make_random_modulated
from triellipse.cli import (
    _BLOCK_ROWS,
    DataFormatError,
    _parse_fast,
    _parse_rows,
    _write_tables,
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
    _write_tables([(tmp_path / "new.csv", header, cols)], precision)
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
        _write_tables([(path, [f"c{j}" for j in range(21)], cols)], 12)
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


SUMMARY = "computing the multitaper summary"


@pytest.fixture
def forking(monkeypatch, deadline):
    """Send every table and summary through forked children; return what each fork was for."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            # the caller is _parallel.forked, whose `what` names the task
            forks.append(sys._getframe(1).f_locals["what"])
        return pid

    monkeypatch.setattr(_parallel, "_FORK_BELOW", 0)
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("precision", [0, 17])
def test_forked_writers_match_per_cell_writer(tmp_path, monkeypatch, forking, cpus, precision):
    monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
    lengths = [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 1000]
    tables = [
        (tmp_path / f"new{n}.csv", *_table(n, n + precision, 3 + k % 5))
        for k, n in enumerate(lengths)
    ]
    _write_tables(tables, precision)
    assert len(forking) == cpus - 1  # once per call, not per table
    for path, header, cols in tables:
        per_cell_write(tmp_path / "ref.csv", header, cols, precision)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), path.name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [p.name for p, _, _ in tables] + ["ref.csv"]
    )


def _no_child_left():
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return pid == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_writer_is_input_error_naming_the_table(
    tmp_path, monkeypatch, capsys, forking, how
):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    parent = os.getpid()
    write_rows = cli._write_rows

    def failing(fh, cols, row, start, stop):
        if os.getpid() != parent and len(cols) == 4 and start > 0:  # a sphere table's part
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(28, "No space left on device")
        write_rows(fh, cols, row, start, stop)

    assert cli.main(["synth", "--mode", "amplitude", "--out", str(tmp_path / "s")]) == 0
    csv = tmp_path / "s" / "signal_amplitude.csv"
    monkeypatch.setattr(cli, "_write_rows", failing)
    assert cli.main(["analyze", str(csv), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    if how == "raises":
        assert "sphere_xhat.csv: [Errno 28] No space left on device" in err
    else:
        assert "writing analysis.csv, sphere_xhat.csv, sphere_nhat.csv ended by SIGKILL" in err
    assert not (tmp_path / "o" / "summary.json").exists()
    # one writer child each for synth and analyze, one summary child for analyze
    writers = [what for what in forking if what != SUMMARY]
    assert len(writers) == 2 and forking.count(SUMMARY) == 1 and _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_failure_in_this_process_still_reaps_the_writers(tmp_path, monkeypatch, forking):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 3)
    parent = os.getpid()
    write_rows = cli._write_rows

    def failing(fh, cols, row, start, stop):
        if os.getpid() == parent:
            raise OSError(5, "Input/output error")
        write_rows(fh, cols, row, start, stop)

    monkeypatch.setattr(cli, "_write_rows", failing)
    header, cols = _table(600, 0, 5)
    with pytest.raises(OSError, match="Input/output error"):
        _write_tables([(tmp_path / "t.csv", header, cols)], 12)
    assert len(forking) == 2 and _no_child_left()


def test_short_records_start_no_process(tmp_path, monkeypatch):
    # the crossover, not the CPU count, keeps every n = 800 table in this process
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_parallel, "_cpus", lambda: 64)
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["synth", "--mode", "nutation", "--out", str(tmp_path)]) == 0
    csv = str(tmp_path / "signal_nutation.csv")
    assert cli.main(["analyze", csv, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["spectrum", csv, "--out", str(tmp_path / "s")]) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_fork_after_the_fft_pool_ran(tmp_path, monkeypatch, deadline):
    n = 16384  # the 16x-padded global spectrum reaches the pool before the writers fork
    csv = _record_csv(tmp_path, n, 2)
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["analyze", str(csv), "--out", str(out)]) == 0
        outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert _parallel._executor is not None
    assert outputs[1] == outputs[2] and len(outputs[1]) == 4
    assert _no_child_left()


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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("n, flags", [(600, []), (601, []), (600, ["--bearing", "30"])])
def test_summary_child_matches_inline_run(tmp_path, monkeypatch, capsys, forking, n, flags):
    csv = _record_csv(tmp_path, n, n)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        code, stdout, stderr = _analyze([csv, "--out", out, *flags], capsys)
        assert code == 0 and stderr == ""
        runs[cpus] = stdout, {p.name: p.read_bytes() for p in out.iterdir()}
        if cpus == 1:
            assert forking == []
    assert runs[1] == runs[2] and len(runs[1][1]) == 4
    assert sorted(forking) == [SUMMARY, "writing analysis.csv, sphere_xhat.csv, sphere_nhat.csv"]
    assert _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_overflow_in_summary_child_fails_as_inline(tmp_path, monkeypatch, capsys, forking):
    csv = _record_csv(tmp_path, 800, 0, scale=1e200)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        code, stdout, stderr = _analyze([csv, "--out", out], capsys)
        assert code == 3 and not out.exists()
        runs[cpus] = stdout, stderr
    message, note = runs[2][1].splitlines()
    assert message.startswith("numerical failure: summary value ")
    assert note.startswith("note: ") and "overflow encountered" in note
    assert runs[1] == runs[2]
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

    monkeypatch.setattr(cli, "multitaper_joint_spectrum", failing)
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
    "comments": "# before\n# more\nt,x,y,z\n# after\n" + "\n".join(_rows()) + "\n  # indented\n",
    "padded": " t , x ,\ty, z \n" + "\n".join(_rows(fmt=" {t} ,\t{x}, {y} ,{z}  ")) + "\n",
    "reordered_extra": "z,extra,t,y,x,more\n"
    + "\n".join(_rows(fmt="{z},7,{t},{y},{x},-1")) + "\n",
    "crlf": "t,x,y,z\r\n" + "\r\n".join(_rows()) + "\r\n",
    "trailing_blank": "t,x,y,z\n" + "\n".join(_rows()) + "\n\n",
}

PARSED_BY_ROWS = {
    "quoted": '"t","x","y","z"\n' + "\n".join(_rows(fmt='"{t}","{x}",{y},"{z}"')) + "\n",
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
