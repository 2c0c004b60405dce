"""The numpy row formatter against Python's ``%``, cell by cell."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triellipse import _format
from triellipse._format import RowFormat
from triellipse.cli import _BLOCK_ROWS

N_RANDOM = 200_000


def _text(cols: list[np.ndarray], precision: int) -> tuple[bytes, bytes]:
    """The table of ``cols``, by RowFormat in blocks and by ``%`` per cell."""
    fmt = RowFormat(cols, precision)
    n = len(cols[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI would count any warning into a note
        got = b"".join(
            fmt.join(fmt.slots(cols, lo, min(lo + _BLOCK_ROWS, n)))
            for lo in range(0, n, _BLOCK_ROWS)
        )
    cells = ["%d" if c.dtype == bool else f"%.{precision}e" for c in cols]
    ref = "".join(
        ",".join(f % v for f, v in zip(cells, row)) + "\n" for row in zip(*(c.tolist() for c in cols))
    )
    return got, ref.encode()


def _assert_same(got: bytes, ref: bytes) -> None:
    if got != ref:
        lines = zip(got.split(b"\n"), ref.split(b"\n"))
        bad = [(g, r) for g, r in lines if g != r]
        pytest.fail(f"{len(bad)} rows differ, first {bad[0]}")


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
    values = values[: len(values) // 8 * 8]
    cols = list(values.reshape(8, -1))
    cols[3] = cols[3] > 0  # a bool column between floats
    _assert_same(*_text(cols, precision))


def _in_band(precision: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """Doubles nearest to q + 1/2 times 10^(e - precision), none of them an exact tie.

    Each one's s lies within 10^(p+1)·2^-53 of q + 1/2, inside the band
    that the double product cannot round.
    """
    values = []
    while len(values) < n:
        q = int(rng.integers(10**precision, 10 ** (precision + 1)))
        e, sign = int(rng.integers(-300, 300)), int(rng.choice([-1, 1]))
        tie = Fraction(sign * (2 * q + 1), 2) * Fraction(10) ** (e - precision)
        v = float(tie)  # correctly rounded
        if Fraction(v) != tie:
            values.append(v)
    return np.array(values)


@pytest.mark.parametrize("precision", range(_format._PERCENT_FROM))
def test_block_in_the_band_of_a_half_takes_the_exact_stage(precision):
    # every cell's fraction lies within 10^(p+1)·2^-52 of 1/2, inside the band
    # the float64 product leaves undecided: the double-double stage sets
    # them all, and none is an exact tie that Python's % would take
    rng = np.random.default_rng(1000 + precision)
    values = _in_band(precision, rng, 4 * _BLOCK_ROWS)
    margin = Fraction(10 ** (precision + 1), 2**52)
    for v in values[:64]:
        e = math.floor(math.log10(abs(v)))
        s = abs(Fraction(v)) * Fraction(10) ** (precision - e)
        assert 0 < abs(s - math.floor(s) - Fraction(1, 2)) <= margin
    cols = list(values.reshape(4, -1))
    _assert_same(*_text(cols, precision))


def _ulps(value: float, n: int) -> float:
    for _ in range(abs(n)):
        value = float(np.nextafter(value, math.copysign(math.inf, n)))
    return value


_signs = st.sampled_from([-1.0, 1.0])
_bit_patterns = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
_subnormals = st.builds(
    lambda m, s: s * float(np.uint64(m).view(np.float64)), st.integers(1, 2**52 - 1), _signs
)
_decade_edges = st.builds(
    lambda k, n, s: s * _ulps(float(f"1e{k}"), n),
    st.integers(-323, 308), st.integers(-3, 3), _signs,
)


def _near_ties(precision: int) -> st.SearchStrategy[float]:
    """The double nearest to q + 1/2 times a power of ten: inside the band of 1/2."""
    return st.builds(
        lambda q, e, s: s * float(Fraction(2 * q + 1, 2) * Fraction(10) ** (e - precision)),
        st.integers(10**precision, 10 ** (precision + 1) - 1), st.integers(-320, 307), _signs,
    )


def _exact_ties(precision: int) -> st.SearchStrategy[float]:
    """(q + 1/2)·10^d and odd multiples of powers of two: decimal ties where Python rounds to even."""
    decimal = st.builds(
        lambda q, d: (2 * q + 1) * 10**d / 2,
        st.integers(10**precision, 10 ** (precision + 1) - 1), st.integers(0, 2),
    )
    binary = st.builds(lambda m, r: (2 * m + 1) * 2.0**r, st.integers(0, 2**20), st.integers(-40, 40))
    return st.one_of(decimal, binary)


@pytest.mark.parametrize("precision", range(_format._PERCENT_FROM))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cells_match_python_percent(precision, data):
    doubles = st.one_of(
        _bit_patterns, _subnormals, _decade_edges, _near_ties(precision), _exact_ties(precision),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    values = data.draw(st.lists(doubles, min_size=1, max_size=3 * _BLOCK_ROWS))
    cols = [np.array(values), -np.array(values)]
    _assert_same(*_text(cols, precision))


def test_powers_hold_to_double_double_precision():
    # the float64 pass rests on each hi within half an ulp of 10^k·2^-c
    # (checked to the last bit), the exact stage on hi + lo within 2^-104
    scales, highs, lows = _format._powers()
    for k, scale, hi, lo in zip(range(_format._K_LOW, _format._K_HIGH + 1), scales, highs, lows):
        assert scale == 2.0 ** round(math.log2(scale)) and abs(math.log2(scale)) <= _format._C_MAX
        exact = Fraction(10) ** k / Fraction(scale)
        assert 1e-8 < hi < 1e37, k
        assert abs(Fraction(hi) - exact) <= Fraction(math.ulp(hi)) / 2, k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**104, k
