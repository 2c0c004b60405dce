"""The numpy row formatter against Python's ``%``, cell by cell."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from triellipse import _format
from triellipse._format import RowFormat
from triellipse.cli import _BLOCK_ROWS

N_RANDOM = 200_000


def _formatted(values: np.ndarray, precision: int, width: int = 8) -> tuple[bytes, bytes]:
    """The values as a ``width``-column table, by RowFormat in blocks and by ``%`` per cell."""
    values = values[: len(values) // width * width]
    cols = list(values.reshape(width, -1))
    fmt = RowFormat(cols, precision)
    n = len(cols[0])
    got = b"".join(fmt.text(cols, lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))
    cell = f"%.{precision}e"
    ref = "".join(
        ",".join(cell % v for v in row) + "\n" for row in zip(*(c.tolist() for c in cols))
    )
    return got, ref.encode()


def _constructed(precision: int, rng: np.random.Generator) -> np.ndarray:
    """Values at or next to the edges the formatter must get right at ``precision``."""
    exps = np.arange(-320, 308)
    tens = np.array([float(f"1e{k}") for k in exps])
    # q + 1/2 at every decimal scale: near-ties, and exact ties where representable
    q = rng.integers(10**precision, 10 ** (precision + 1), size=exps.size)
    halves = (q + 0.5) * np.array([float(f"1e{k - precision}") for k in exps])
    small_halves = np.arange(0, 4096) + 0.5
    # 9.99...95 rounds up into the next decade
    nines = np.array([float(f"9.{'9' * precision}5e{k}") for k in range(-300, 300)])
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1.0, -1.0])
    edges = np.concatenate([tens, halves, small_halves, nines, subnormal])
    edges = np.concatenate([edges, -edges])
    return np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), special,
    ])


@pytest.mark.parametrize("precision", range(15))
def test_rows_match_python_percent(precision):
    rng = np.random.default_rng(precision)
    bits = rng.integers(0, 2**64, size=N_RANDOM, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits.view(np.float64), _constructed(precision, rng)])
    values = values[rng.permutation(values.size)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI would count any warning into a note
        got, ref = _formatted(values, precision)
    assert RowFormat([values], precision).vectorised == (precision < 14)
    if got != ref:
        lines = zip(got.split(b"\n"), ref.split(b"\n"))
        bad = [(g, r) for g, r in lines if g != r]
        pytest.fail(f"{len(bad)} rows differ, first {bad[0]}")


def test_powers_are_within_half_an_ulp():
    # the error bound of the numpy path rests on each power's relative error <= 2^-64
    powers = _format._powers()
    for k, power in zip(range(_format._POWER_LOW, _format._POWER_HIGH + 1), powers):
        exact = Fraction(10) ** k
        assert abs(Fraction(*power.as_integer_ratio()) - exact) <= exact / 2**64, k
