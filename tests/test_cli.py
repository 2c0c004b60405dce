import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triellipse
import triellipse._parallel
import triellipse.cli
import triellipse.pipeline
from triellipse import (
    BandwidthDecomposition,
    MomentsSeries,
    RealSignal3,
    RunConfig,
    analyze_signal,
    make_random_modulated,
    rot_z,
    rotate_frame,
)
from triellipse._format import RowFormat
from triellipse.cli import main, read_dataset, DataFormatError


def run(*argv):
    return main([str(a) for a in argv])


def write_csv(path, t, xyz, header="t,x,y,z"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for ti, row in zip(t, xyz):
            fh.write(f"{ti}," + ",".join(f"{v:.12e}" for v in row) + "\n")


@pytest.fixture
def reference_csv(tmp_path):
    assert run("synth", "--mode", "amplitude", "--n", "800", "--out", tmp_path) == 0
    return tmp_path / "signal_amplitude.csv"


def test_synth_writes_signal_and_truth(reference_csv, tmp_path):
    assert reference_csv.exists()
    assert (tmp_path / "truth_amplitude.csv").exists()
    with open(reference_csv) as fh:
        assert fh.readline().strip() == "t,x,y,z"
        assert len(fh.readlines()) == 800


def test_analyze_roundtrip(reference_csv, tmp_path, capsys):
    out = tmp_path / "analysis"
    assert run("analyze", reference_csv, "--out", out) == 0
    table = np.genfromtxt(out / "analysis.csv", delimiter=",", names=True)
    summary = json.loads((out / "summary.json").read_text())

    for key in ("energy", "mean_freq_time", "mean_freq_spectral",
                "second_central_time", "second_central_spectral", "flags_excluded"):
        assert key in summary

    # interior omega column sits at the synthesis target
    target = np.pi * 1e-2
    interior = ~(table["flag_edge"].astype(bool))
    omega = table["omega_x"][interior]
    assert abs(np.median(omega) - target) / target < 1e-3
    assert abs(summary["mean_freq_time"] - target) / target < 5e-3
    # tapered spectral moments are leakage robust for this raw record
    assert abs(summary["mean_freq_multitaper"] - target) < 2 * np.pi * 2.0 / 800

    for name in ("sphere_xhat.csv", "sphere_nhat.csv"):
        track = np.genfromtxt(out / name, delimiter=",", names=True)
        norms = np.hypot(np.hypot(track["x"], track["y"]), track["z"])
        assert np.abs(norms - 1.0).max() < 1e-9


def test_outputs_byte_identical(reference_csv, tmp_path):
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    assert run("analyze", reference_csv, "--out", out1) == 0
    assert run("analyze", reference_csv, "--out", out2) == 0
    for name in ("analysis.csv", "summary.json", "sphere_xhat.csv", "sphere_nhat.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synth_seeded_noise_byte_identical(tmp_path):
    for sub in ("s1", "s2"):
        assert run("synth", "--mode", "nutation", "--n", "256", "--noise", "0.1",
                   "--seed", "7", "--out", tmp_path / sub) == 0
    assert (tmp_path / "s1/signal_nutation.csv").read_bytes() == \
        (tmp_path / "s2/signal_nutation.csv").read_bytes()


def test_spectrum_command(reference_csv, tmp_path):
    out = tmp_path / "spec"
    assert run("spectrum", reference_csv, "--out", out) == 0
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert abs(summary["normalization"] - 1.0) < 1e-10
    assert abs(summary["mean_freq_spectral"] - np.pi * 1e-2) < 2 * np.pi * 2.0 / 800
    table = np.genfromtxt(out / "spectrum.csv", delimiter=",", names=True)
    peak = table["freq_rad"][np.argmax(table["s_x"])]
    assert abs(peak - np.pi * 1e-2) < 2 * np.pi * 2.0 / 800


def test_empty_file_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("analyze", empty, "--out", tmp_path / "o") == 2
    assert "no data rows" in capsys.readouterr().err


def test_header_only_is_input_error(tmp_path, capsys):
    f = tmp_path / "h.csv"
    f.write_text("t,x,y,z\n")
    assert run("analyze", f, "--out", tmp_path / "o") == 2
    assert "no data rows" in capsys.readouterr().err


def test_bad_value_reports_row_and_column(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    rows = "".join(f"{i},0.1,0.2,0.3\n" for i in range(8))
    f.write_text("t,x,y,z\n" + rows + "8,oops,0.2,0.3\n")
    assert run("analyze", f, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "row 10" in err and "'x'" in err


def test_nonuniform_time_is_input_error(tmp_path, capsys):
    f = tmp_path / "nonuni.csv"
    t = [0, 1, 2, 3, 7, 8, 9, 10, 11]
    write_csv(f, t, np.random.default_rng(0).normal(size=(9, 3)))
    assert run("analyze", f, "--out", tmp_path / "o") == 2
    assert "non-uniform" in capsys.readouterr().err


def test_missing_column_is_input_error(tmp_path, capsys):
    f = tmp_path / "cols.csv"
    write_csv(f, range(16), np.random.default_rng(0).normal(size=(16, 3)),
              header="t,east,north,up")
    assert run("analyze", f, "--out", tmp_path / "o") == 2


def test_columns_remap(tmp_path):
    f = tmp_path / "cols.csv"
    rng = np.random.default_rng(0)
    write_csv(f, range(64), rng.normal(size=(64, 3)), header="time,east,north,up")
    out = tmp_path / "o"
    assert run("analyze", f, "--columns", "time,east,north,up", "--out", out) == 0


def test_comments_ignored(tmp_path):
    f = tmp_path / "c.csv"
    body = "".join(f"{i},{np.cos(0.3*i)},{np.sin(0.3*i)},0.0\n" for i in range(64))
    f.write_text("# a comment\nt,x,y,z\n# another\n" + body)
    ds = read_dataset(f)
    assert ds.channels.shape == (64, 3)


def test_bearing_rotates_first_channel(tmp_path):
    # pure x-direction oscillation analyzed at bearing 12.3 degrees: the
    # radial channel keeps cos(12.3 deg) of the amplitude, and scalar
    # invariants are unchanged
    f = tmp_path / "sig.csv"
    t = np.arange(256)
    xyz = np.stack([np.cos(0.3 * t), np.sin(0.3 * t), 0.2 * np.cos(0.3 * t + 1.0)], axis=1)
    write_csv(f, t, xyz)
    out0, outb = tmp_path / "o0", tmp_path / "ob"
    assert run("analyze", f, "--out", out0) == 0
    assert run("analyze", f, "--bearing", "12.3", "--out", outb) == 0
    t0 = np.genfromtxt(out0 / "analysis.csv", delimiter=",", names=True)
    tb = np.genfromtxt(outb / "analysis.csv", delimiter=",", names=True)
    assert np.abs(t0["kappa"] - tb["kappa"]).max() < 1e-10
    assert np.abs(t0["lambda"] - tb["lambda"]).max() < 1e-10

    b = np.deg2rad(12.3)
    ds = read_dataset(f)
    rotated = ds.channels @ np.array(
        [[np.cos(b), np.sin(b), 0.0], [-np.sin(b), np.cos(b), 0.0], [0.0, 0.0, 1.0]]
    ).T
    expected = np.cos(b) * ds.channels[:, 0] + np.sin(b) * ds.channels[:, 1]
    assert np.abs(rotated[:, 0] - expected).max() < 1e-12


def test_dt_override(tmp_path):
    f = tmp_path / "sig.csv"
    t = np.arange(64)
    write_csv(f, t, np.random.default_rng(1).normal(size=(64, 3)))
    ds = read_dataset(f, dt=0.25)
    assert ds.dt == 0.25


def test_read_dataset_requires_four_columns(tmp_path):
    f = tmp_path / "sig.csv"
    write_csv(f, range(16), np.random.default_rng(0).normal(size=(16, 3)))
    with pytest.raises(DataFormatError):
        read_dataset(f, columns=("t", "x", "y"))


def test_missing_file_is_input_error(tmp_path, capsys):
    assert run("analyze", tmp_path / "nope.csv", "--out", tmp_path / "o") == 2


def test_bad_taper_config_is_input_error(reference_csv, tmp_path, capsys):
    assert run("spectrum", reference_csv, "--tapers", "4", "--taper-p", "2",
               "--out", tmp_path / "o") == 2
    assert "tapers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_tapers_above_2p_minus_1_is_input_error(reference_csv, tmp_path, capsys, command):
    # 2p - 1 = 3.5 admits 3 tapers, not round(3.5) = 4
    out = tmp_path / "o"
    assert run(command, reference_csv, "--taper-p", "2.25", "--tapers", "4", "--out", out) == 2
    assert capsys.readouterr() == (
        "", "input error: --tapers must not exceed 2 * --taper-p - 1 = 3.5, got 4\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
@pytest.mark.parametrize("flag, value", [("--pad", "0"), ("--pad", "-2"), ("--tapers", "0")])
def test_taper_or_pad_below_one_is_input_error(
    reference_csv, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "o"
    assert run(command, reference_csv, flag, value, "--out", out) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, "--dt", v) for c in ("analyze", "spectrum") for v in ("0", "-1", "nan", "inf")]
    + [("analyze", "--bearing", v) for v in ("nan", "inf")]
    + [(c, "--taper-p", v) for c in ("analyze", "spectrum") for v in ("nan", "0", "400", "1e9")],
)
def test_bad_dt_bearing_or_taper_p_is_input_error(
    reference_csv, tmp_path, capsys, command, flag, value
):
    # the record has 800 samples, so --taper-p 400 puts p/n at 0.5 cycles/sample
    out = tmp_path / "o"
    assert run(command, reference_csv, flag, value, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {flag} ") and "note:" not in err
    assert not out.exists()


def test_run_config_rejects_taper_or_pad_below_one():
    for field in ("n_tapers", "pad_factor"):
        with pytest.raises(ValueError):
            RunConfig(**{field: 0})


@pytest.mark.parametrize(
    "given",
    [{"n_tapers": 0}, {"n_tapers": 4}, {"pad_factor": 0}, {"precision": -1},
     {"trim": 0.5}, {"eps_lin": 0.0}, {"eps_circ": -1.0}, {"eps_pow": 0.0},
     {"taper_p": float("nan")}, {"taper_p": 0.0}, {"bearing": float("nan")},
     {"bearing": float("inf")}],
)
def test_run_config_messages_name_the_field(given):
    (field,) = given
    with pytest.raises(ValueError, match=f"^{field} "):
        RunConfig(**given)


def test_short_record_is_numerical_failure(tmp_path, capsys):
    f = tmp_path / "tiny.csv"
    write_csv(f, range(4), np.random.default_rng(0).normal(size=(4, 3)))
    assert run("analyze", f, "--out", tmp_path / "o") == 3
    assert "at least" in capsys.readouterr().err


def test_analyze_takes_one_derivative_and_one_spectral_pass(monkeypatch):
    calls = dict.fromkeys(("differentiate", "global_moments_spectral"), 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "triellipse"]
    for name in calls:
        original = getattr(triellipse, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    analyze_signal(RealSignal3(make_random_modulated(512, 0).samples.real))
    assert calls == {"differentiate": 1, "global_moments_spectral": 1}


def test_analyze_formats_each_row_once(tmp_path, monkeypatch, capsys):
    # sphere_nhat.csv is cut from the formatted blocks of analysis.csv: the
    # formatter runs once per block of analysis.csv and of sphere_xhat.csv
    monkeypatch.setattr(triellipse._parallel, "_cpus", lambda: 1)
    calls = []

    def counted(fmt, cols, start, stop, _slots=RowFormat.slots):
        calls.append(len(cols))
        return _slots(fmt, cols, start, stop)

    monkeypatch.setattr(RowFormat, "slots", counted)
    n = 3 * triellipse.cli._BLOCK_ROWS + 5
    csv, out = tmp_path / "in.csv", tmp_path / "o"
    write_csv(csv, np.arange(n), make_random_modulated(n, 0).samples.real)
    assert run("analyze", csv, "--out", out, "--precision", "9") == 0
    blocks = -(-n // triellipse.cli._BLOCK_ROWS)
    analysis, sphere = len(triellipse.cli._ANALYSIS_HEADER), len(triellipse.cli._SPHERE_HEADER)
    assert sorted(calls) == sorted([analysis] * blocks + [sphere] * blocks)
    rows = [line.split(",") for line in (out / "analysis.csv").read_text().splitlines()]
    cut = [",".join(row[j] for j in triellipse.cli._NHAT_CELLS) for row in rows[1:]]
    assert [rows[0][j] for j in triellipse.cli._NHAT_CELLS] == ["t", "nhat_x", "nhat_y", "nhat_z"]
    assert (out / "sphere_nhat.csv").read_text().splitlines() == ["t,x,y,z", *cut]


def test_chain_computes_only_what_analyze_writes(monkeypatch):
    terms = [f.name for f in dataclasses.fields(BandwidthDecomposition)]
    assert terms == ["term_amplitude", "term_deformation", "term_precession", "term_normal"]
    header = triellipse.cli._ANALYSIS_HEADER
    assert [name for name in header if name.startswith("bw_")] == [
        "bw_" + term.removeprefix("term_") for term in terms
    ]
    assert "upsilon2_alt" not in {f.name for f in dataclasses.fields(MomentsSeries)}

    def refuse(chain):
        raise AssertionError("cross_checks ran in the analysis chain")

    for module in (triellipse, triellipse.pipeline):
        monkeypatch.setattr(module, "cross_checks", refuse)
    analyze_signal(RealSignal3(make_random_modulated(512, 0).samples.real))


def test_cli_binds_the_pipeline_objects():
    assert triellipse.cli.analyze_signal is triellipse.pipeline.analyze_signal
    assert triellipse.cli.RunConfig is triellipse.pipeline.RunConfig


def test_analyze_signal_applies_bearing():
    x = RealSignal3(make_random_modulated(512, 0).samples.real)
    got = analyze_signal(x, RunConfig(bearing=30))
    want = analyze_signal(rotate_frame(x, rot_z(-np.deg2rad(30))))
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if dataclasses.is_dataclass(a):
            for name, value in vars(a).items():
                np.testing.assert_array_equal(value, getattr(b, name), f"{field.name}.{name}")
        else:
            assert a == b, field.name


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_is_input_error(tmp_path, capsys, value):
    f = tmp_path / "nonfinite.csv"
    rows = [f"{i},{np.cos(0.3 * i)},{np.sin(0.3 * i)},0.1" for i in range(80)]
    rows[50] = f"50,0.5,{value},0.1"
    f.write_text("t,x,y,z\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run("analyze", f, "--out", out) == 2
    err = capsys.readouterr().err
    assert "row 52, column 'y'" in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "synth", "spectrum"])
def test_negative_precision_is_input_error(reference_csv, tmp_path, capsys, command):
    out = tmp_path / "o"
    source = ["--mode", "amplitude"] if command == "synth" else [reference_csv]
    assert run(command, *source, "--precision", "-1", "--out", out) == 2
    assert "--precision" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="precision"):
        RunConfig(precision=-1)


@pytest.mark.parametrize("flag, value, message", [
    ("--noise", "inf", "--noise must be finite and at least 0, got inf"),
    ("--noise", "-1", "--noise must be finite and at least 0, got -1.0"),
    ("--noise", "nan", "--noise must be finite and at least 0, got nan"),
    ("--upsilon", "nan", "--upsilon must be finite and nonnegative, got nan"),
    ("--upsilon", "inf", "--upsilon must be finite and nonnegative, got inf"),
    ("--omega-bar", "inf", "--omega-bar must be finite and positive, got inf"),
    ("--n", "10", "--n must be at least 64, got 10"),
    ("--seed", "-1", "--seed must be at least 0, got -1"),
])
def test_bad_synth_value_is_input_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "o"
    assert run("synth", "--mode", "amplitude", flag, value, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode, flags, message", [
    ("deformation", ["--n", "100000"],
     "--upsilon must be below 6.85405e-06 for a 100000-sample deformation sweep, "
     "or the linearity leaves (0, 1); got 0.000785398"),
    ("nutation", ["--n", "100000"],
     "--upsilon must be at most 1.59539e-05 for a 100000-sample nutation sweep "
     "from beta0 = 0.785398, or beta reaches the pole; got 0.000785398"),
    ("internal_precession", ["--upsilon", "0.1"],
     "--upsilon must be below omega_bar * lambda_precession / sqrt(1 - lambda_precession^2)"
     " = 0.0235619 in internal_precession mode, or the precession absorbs the whole mean "
     "frequency; got 0.1"),
    ("azimuth", ["--upsilon", "0.03"],
     "--upsilon must be below omega_bar * tan(beta0) / sqrt(2) = 0.0222144 in azimuth mode, "
     "or the external precession absorbs the whole mean frequency; got 0.03"),
    ("fixed_geometry", ["--omega-bar", "4"],
     "--omega-bar must keep the orbital rate omega_phi in (0, pi / dt), below the Nyquist "
     "frequency 3.14159; got omega_phi = 4 in fixed_geometry mode"),
    ("amplitude", ["--n", "1000", "--upsilon", "1"],
     "--upsilon must be below 0.353963 for a 1000-sample amplitude sweep, or the power "
     "overflows; got 1"),
])
def test_synth_mode_out_of_range_is_input_error(tmp_path, capsys, mode, flags, message):
    out = tmp_path / "o"
    assert run("synth", "--mode", mode, *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_overflowing_record_is_numerical_failure(reference_csv, tmp_path, capsys, command):
    # a huge record, or a --dt so small that the squared frequency unit overflows
    ds = read_dataset(reference_csv)
    f = tmp_path / "huge.csv"
    write_csv(f, ds.time, ds.channels * 1e200)
    out = tmp_path / "o"
    for args in ([f], [reference_csv, "--dt", "1e-160"], [reference_csv, "--dt", "1e-300"]):
        assert run(command, *args, "--out", out) == 3, args
        err = capsys.readouterr().err
        assert "summary value '" in err and "' is not finite" in err, (args, err)
        assert not out.exists()


def _child(*argv, prelude=""):
    """Run ``main(argv)`` in a child process, so its warnings reach its own stderr."""
    code = "import sys, warnings\nimport triellipse.cli as cli\n" + prelude
    code += "sys.exit(cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(triellipse.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_overflow_warnings_are_one_note(reference_csv, tmp_path, command):
    ds = read_dataset(reference_csv)
    f = tmp_path / "huge.csv"
    write_csv(f, ds.time, ds.channels * 1e200)
    proc = _child(command, f, "--out", tmp_path / "o")
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    notes = [line for line in proc.stderr.splitlines() if line.startswith("note:")]
    assert len(notes) == 1 and "overflow encountered" in notes[0]


def test_other_warnings_pass_through_once(reference_csv, tmp_path):
    prelude = (
        "read = cli.read_dataset\n"
        "def read_twice_warned(*args, **kwargs):\n"
        "    for _ in range(2):\n"
        "        warnings.warn('probe', UserWarning)\n"
        "    return read(*args, **kwargs)\n"
        "cli.read_dataset = read_twice_warned\n"
    )
    proc = _child("analyze", reference_csv, "--out", tmp_path / "o", prelude=prelude)
    assert proc.returncode == 0
    assert proc.stderr.count("UserWarning: probe") == 1
    assert "note:" not in proc.stderr


def test_record_below_taper_minimum_omits_multitaper_fields(tmp_path, capsys):
    f = tmp_path / "short.csv"
    t = np.arange(40)
    xyz = np.stack([np.cos(0.3 * t), np.sin(0.3 * t), 0.2 * np.cos(0.3 * t + 1.0)], axis=1)
    write_csv(f, t, xyz + 0.01 * np.random.default_rng(0).normal(size=xyz.shape))
    out = tmp_path / "o"
    assert run("analyze", f, "--out", out) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "multitaper fields omitted" in err[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_samples"] == 40 and "energy" in summary
    assert "mean_freq_multitaper" not in summary
    assert "second_central_multitaper" not in summary


def test_spectrum_below_taper_minimum_is_input_error(tmp_path, capsys):
    f = tmp_path / "short.csv"
    write_csv(f, range(40), np.random.default_rng(0).normal(size=(40, 3)))
    out = tmp_path / "o"
    assert run("spectrum", f, "--out", out) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("input error:") and "40 samples" in err and "64" in err
    assert not out.exists()


def test_fully_excluded_record_says_so(tmp_path, capsys):
    # a linear record: every sample is flagged degenerate
    f = tmp_path / "linear.csv"
    t = np.arange(200)
    write_csv(f, t, np.cos(0.2 * t)[:, None] * [1.0, 2.0, -1.0])
    out = tmp_path / "o"
    assert run("analyze", f, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n=200 dt=1 excluded=200\n")
    assert captured.err == (
        "note: all 200 samples are excluded (trimmed or flagged); the time-domain "
        "global moments and the rel diffs come from flagged samples only\n"
    )
    assert json.loads((out / "summary.json").read_text())["flags_excluded"] == 200
