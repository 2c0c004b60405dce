"""The blocked per-sample chain: the bits of one block, and memory bounded by what it keeps."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import triellipse.pipeline as pipeline
from triellipse import (
    AnalyticSignal3,
    EllipseSeries,
    RealSignal3,
    RunConfig,
    analytic_transform,
    analyze_signal,
    decompose_analytic,
    ellipse_synthesize,
    make_random_modulated,
)

OMEGA = 2.0 * np.pi / 64.0


def _columns(obj, path=""):
    """Every array and scalar reachable from a result, by its dotted path."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        items = list(obj._asdict().items())
    else:
        return {path: obj}
    out = {}
    for name, value in items:
        out.update(_columns(value, f"{path}.{name}" if path else name))
    return out


def _assert_same_bytes(got, want):
    got, want = _columns(got), _columns(want)
    assert got.keys() == want.keys()
    for path, value in want.items():
        if isinstance(value, np.ndarray):
            assert (got[path].dtype, got[path].shape) == (value.dtype, value.shape), path
            assert got[path].tobytes() == value.tobytes(), path
        else:
            assert got[path] == value, path


def _in_one_block(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_BLOCK", 1 << 30)
        return run()


def _linear(n):
    """Analytic motion along one fixed line: every sample is degenerate."""
    return np.exp(1j * OMEGA * np.arange(n))[:, None] * np.array([1.0, 0.5, 0.2])


def _leading_linear(n, until):
    """Linear motion up to sample ``until``, elliptical after it."""
    samples = _linear(n)
    t = np.arange(until, n)
    samples[until:, 1] += 0.8j * np.exp(1j * OMEGA * t)
    return AnalyticSignal3(samples)


def _wraps_on_block_edges(n):
    """Rotary phases wrapping between samples 64k - 1 and 64k, plane azimuth between 191 and 192."""
    t = np.arange(n, dtype=float)
    series = EllipseSeries.from_paths(
        a=1.0 + 0.2 * np.sin(t / 37.0), b=0.4, theta=0.0,
        phi=np.pi + OMEGA * (t - 63.5), alpha=np.pi + 0.002 * (t - 191.5),
        beta=np.pi / 3.0 + 0.1 * np.sin(t / 23.0),
    )
    return ellipse_synthesize(series)


def _degenerate_before_block_edges(n):
    """A turning plane, linear at samples 64k - 2, the first row of the next block's window."""
    t = np.arange(n, dtype=float)
    b = np.full(n, 0.4)
    b[62::64] = 0.0
    series = EllipseSeries.from_paths(
        a=1.0, b=b, theta=0.2, phi=OMEGA * t, alpha=0.05 * t, beta=np.pi / 3.0
    )
    return ellipse_synthesize(series)


CASES = {
    "leading_degenerate": lambda: _leading_linear(400, 150),
    "all_degenerate": lambda: AnalyticSignal3(_linear(300)),
    "odd": lambda: make_random_modulated(321, 1),
    "prime": lambda: make_random_modulated(311, 2),
    "blocks_minus_one": lambda: make_random_modulated(4 * 64 - 1, 3),
    "blocks_plus_one": lambda: make_random_modulated(4 * 64 + 1, 4),
    "below_one_block": lambda: make_random_modulated(40, 5),
    "wraps_on_block_edges": lambda: _wraps_on_block_edges(330),
    "degenerate_before_block_edges": lambda: _degenerate_before_block_edges(330),
}
CONFIGS = {"central4": RunConfig(), "spectral": RunConfig(scheme="spectral")}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_blocked_chain_has_the_bits_of_one_block(monkeypatch, small_blocks, case, config):
    xp = case()
    want = _in_one_block(monkeypatch, lambda: decompose_analytic(xp, config))
    _assert_same_bytes(decompose_analytic(xp, config), want)
    x = RealSignal3(xp.samples.real)
    for cfg in (config, dataclasses.replace(config, bearing=30.0)):
        want = _in_one_block(monkeypatch, lambda: analyze_signal(x, cfg))
        _assert_same_bytes(analyze_signal(x, cfg), want)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_blocks_handed_to_each_are_the_columns_of_analyze_signal(small_blocks, config):
    n = 9 * small_blocks + 37  # odd, and the last block short
    x = RealSignal3(make_random_modulated(n, 7).samples.real)
    want = analyze_signal(x, config)
    ranges, parts = [], []

    def each(block):
        ranges.append((block.lo, block.hi))
        parts.append({
            f"{name}.{path}": np.copy(v) if isinstance(v, np.ndarray) else v
            for name, out in block.outputs.items() for path, v in _columns(out).items()
        })

    totals = pipeline.analyze_blocks(analytic_transform(x), config, each)
    assert ranges == [(lo, min(lo + small_blocks, n)) for lo in range(0, n, small_blocks)]
    written = {path: v for path, v in _columns(want).items()
               if path.split(".")[0] in ("ellipse", "normal", "moments", "decomposition")}
    for part in parts:
        assert part.keys() == written.keys()
    for path, value in written.items():
        if isinstance(value, np.ndarray):
            got = np.concatenate([part[path] for part in parts])
            assert (got.dtype, got.shape) == (value.dtype, value.shape), path
            assert got.tobytes() == value.tobytes(), path
        else:
            assert all(part[path] == value for part in parts), path
    assert (totals.n_samples, totals.dt) == (n, x.dt)
    _assert_same_bytes(totals.global_time, want.global_time)
    _assert_same_bytes(totals.global_spectral, want.global_spectral)
    assert totals.excluded == want.excluded


def test_block_cases_reach_what_they_name(small_blocks):
    ext = decompose_analytic(_leading_linear(400, 150))[1]
    first = int(np.argmax(~ext.normal.degenerate))
    assert 2 * small_blocks <= first < 3 * small_blocks  # the first valid normal lies in block 3
    held = np.tile(ext.normal.n_hat[first], (first, 1))
    np.testing.assert_array_equal(ext.normal.n_hat[:first], held)
    ext = decompose_analytic(AnalyticSignal3(_linear(300)))[1]
    assert ext.normal.degenerate.all()
    np.testing.assert_array_equal(ext.normal.n_hat, np.tile([0.0, 0.0, 1.0], (300, 1)))
    ext = decompose_analytic(_wraps_on_block_edges(330))[1]

    def wraps(angle):
        return set(np.flatnonzero(np.abs(np.diff(angle)) > np.pi) + 1)

    for rotary in ext.planar.z_tilde.T:
        assert {64, 128, 192, 256} <= wraps(np.angle(rotary))
    assert wraps(ext.ellipse.alpha) == {192}
    degenerate = decompose_analytic(_degenerate_before_block_edges(330))[1].normal.degenerate
    assert set(np.flatnonzero(degenerate)) == {62, 126, 190, 254, 318}


NOT_KEPT = {"derivative", "a", "b", "theta_unwrapped", "phi_unwrapped", "alpha_unwrapped",
            "mag", "x_tilde", "z_tilde"}


@pytest.mark.parametrize("block", [1024, 4096])
def test_analyze_signal_memory_is_its_result_plus_blocks(monkeypatch, block):
    monkeypatch.setattr(pipeline, "_BLOCK", block)
    n = 100_000
    x = RealSignal3(make_random_modulated(n, 3).samples.real)
    tracemalloc.start()
    try:
        res = analyze_signal(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = _columns(res)
    assert not {path.rsplit(".", 1)[-1] for path in columns} & NOT_KEPT
    # traced: what the result keeps beyond the record it was given
    kept = sum(v.nbytes for v in columns.values() if isinstance(v, np.ndarray)) - x.samples.nbytes
    # the chain also holds the analytic signal and its power, and one block's outputs and
    # temporaries: about 14 units at block 1024
    record = n * (3 * 16 + 8)
    one_block = block * 3 * 16
    assert peak <= kept + record + 20 * one_block, (peak, kept)


def test_analyze_signal_traced_peak_at_the_default_block():
    # at 2^15 samples a block's stage outputs, about 725 bytes per sample, were most of the peak;
    # at 2^12 it is 20.5 MB, with the power held once and one block's outputs live
    x = RealSignal3(make_random_modulated(100_000, 3).samples.real)
    tracemalloc.start()
    try:
        analyze_signal(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21.5e6


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_chain_keeps_the_records_own_power(small_blocks, config):
    xp = make_random_modulated(321, 1)
    assert decompose_analytic(xp, config).moments.power is xp.power
