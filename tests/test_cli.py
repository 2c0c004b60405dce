import json
import sys

import numpy as np
import pytest

import triellipse
from triellipse import RealSignal3, make_random_modulated
from triellipse.cli import RunConfig, analyze_signal, main, read_dataset, DataFormatError


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
@pytest.mark.parametrize("flag, value", [("--pad", "0"), ("--pad", "-2"), ("--tapers", "0")])
def test_taper_or_pad_below_one_is_input_error(
    reference_csv, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "o"
    assert run(command, reference_csv, flag, value, "--out", out) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_run_config_rejects_taper_or_pad_below_one():
    for field in ("n_tapers", "pad_factor"):
        with pytest.raises(ValueError):
            RunConfig(**{field: 0})


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_overflowing_record_is_numerical_failure(reference_csv, tmp_path, capsys, command):
    ds = read_dataset(reference_csv)
    f = tmp_path / "huge.csv"
    write_csv(f, ds.time, ds.channels * 1e200)
    out = tmp_path / "o"
    assert run(command, f, "--out", out) == 3
    assert "summary value" in capsys.readouterr().err
    assert not out.exists()


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
