import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triellipse
import triellipse.pipeline
from triellipse import EllipseSeries, ellipse_synthesize, rot_x, rot_z

DEMO_ELLIPSE = dict(a=3.0, b=2.0, theta=np.pi / 3.0, alpha=np.pi / 6.0, beta=np.pi / 4.0)


def demo_series(n=1024, phi_rate=2.0 * np.pi * 0.05):
    t = np.arange(n)
    return EllipseSeries.from_paths(
        a=DEMO_ELLIPSE["a"], b=DEMO_ELLIPSE["b"], theta=DEMO_ELLIPSE["theta"],
        phi=phi_rate * t, alpha=DEMO_ELLIPSE["alpha"], beta=DEMO_ELLIPSE["beta"],
    )


def random_rotation(rng):
    """Proper rotation from three random Euler angles."""
    a, b, c = rng.uniform(-np.pi, np.pi, size=3)
    return rot_z(a) @ rot_x(b) @ rot_z(c)


def circular_signal(n=256, k=16):
    """Counterclockwise unit circle in the x-y plane on an exact DFT bin."""
    omega = 2.0 * np.pi * k / n
    series = EllipseSeries.from_paths(
        a=1.0, b=1.0, theta=0.0, phi=omega * np.arange(n), alpha=0.0, beta=0.0
    )
    return ellipse_synthesize(series), omega


def multitaper_grid_length(n, pad):
    """The least even 5-smooth integer at or above ``max(pad, 2) * n``, by search."""
    m = max(pad, 2) * n
    m += m % 2
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2


def run_python(code):
    """Standard output of ``code`` run by a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(triellipse.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_blocks(monkeypatch):
    """Run the per-sample chain in blocks of 64 samples; the block length is returned."""
    monkeypatch.setattr(triellipse.pipeline, "_BLOCK", 64)
    return 64


@pytest.fixture
def deadline():
    """Fail a test that waits on forked children for more than a minute, instead of hanging."""
    def expire(*_):
        raise TimeoutError("forked children did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)  # not inherited by forked children
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
