"""Smoke runs of the demo scripts, which call the library directly."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args, written", [
    ("constant_moment_family", (800,), "spectrum_nutation.csv"),
    ("seismic_demo", (20.0, 7), "summary.json"),
])
def test_script_runs(name, args, written, tmp_path):
    load(name).run(tmp_path, *args)
    assert (tmp_path / written).is_file()
