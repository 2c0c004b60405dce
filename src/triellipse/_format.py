"""Table rows as CSV text in numpy, byte for byte what Python's ``%`` writes.

A table's row format is ``%d`` for bool columns and ``%.{p}e`` for the
rest.  Python's ``%`` prints each value correctly rounded; here a block
of rows is formatted at once.  A finite nonzero value v is printed as the
integer q nearest to s = |v|·10^(p−e), with e = ⌊log10|v|⌋ taken from
``np.log10`` and moved by one where s falls outside [10^p, 10^(p+1)).
s is formed in long double from a table of correctly rounded powers of
ten.  Its two roundings leave it within 2^-63 of the exact product,
relative, so under 1.1e-5 absolute for p ≤ 13 (s < 10^14).  Any
fraction of s more than ``_TIE`` = 1e-4 from ½ therefore rounds as the
exact one would; near the edges of a decade both choices of e print the
same text.  A q of 10^(p+1) moves to the next decade; ±0 comes out as
q = 0, e = 0.  The cells whose fraction lies within ``_TIE`` of ½, about
2 in 10^4 for fractions spread evenly, and the non-finite ones go back
to Python's ``%`` one at a time.  Each cell fills a fixed-width slot of
a uint8 block, with a mask for the bytes a value may omit (a sign, the
third exponent digit), and one compress joins the present bytes.  Exact
float-to-decimal conversion is the problem of Steele & White (PLDI 1990)
and Adams's Ryū (PLDI 2018); this settles it with extra precision and a
fallback near ties.

From p = 14 (where the long-double error nears the tie margin), and
where long double has fewer than 63 mantissa bits (a plain double, as on
macOS arm64, where the method would give wrong digits), every row takes
Python's ``%``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# from this precision on the long-double error of s comes within _TIE of a tie
_NUMPY_BELOW = 14
_TIE = 1e-4
# decimal exponents of the finite doubles: 5e-324 to 1.8e308
_E_MIN, _E_MAX = -324, 308
# every p - e at the precisions of the numpy path, with e one decade off either way
_POWER_LOW, _POWER_HIGH = -_E_MAX - 1, _NUMPY_BELOW - 1 - _E_MIN + 1


def _long_double_is_wide() -> bool:
    return np.finfo(np.longdouble).nmant >= 63


@cache
def _powers() -> np.ndarray:
    """10^k correctly rounded to long double, indexed by k - _POWER_LOW."""
    exponents = range(_POWER_LOW, _POWER_HIGH + 1)
    return np.array([f"1e{k}" for k in exponents]).astype(np.longdouble)


@cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0 .. 9999 as one uint32 each."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    ascii = np.arange(48, 58, dtype=np.uint8)
    for k in range(4):
        digits[..., k] = ascii.reshape([10 if j == k else 1 for j in range(4)])
    return digits.view(np.uint32).ravel()


@cache
def _exponents() -> np.ndarray:
    """Sign and three digits of each exponent _E_MIN .. _E_MAX, as one uint32 each."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    text = _quads()[np.abs(e)].view(np.uint8).reshape(-1, 4)
    text[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    return text.view(np.uint32).ravel()


class RowFormat:
    """The CSV row format of a table's columns: ``%d`` for bools, ``%.{precision}e`` otherwise."""

    def __init__(self, cols: list[np.ndarray], precision: int):
        bools = [c.dtype == bool for c in cols]
        self.percent = ",".join("%d" if b else f"%.{precision}e" for b in bools) + "\n"
        self.precision = precision
        self.vectorised = precision < _NUMPY_BELOW and _long_double_is_wide()
        if not self.vectorised:
            return
        p = precision
        # slot of one cell: sign, digit, '.', p digits, 'e', sign, 3 exponent digits, separator
        self.width = w = p + 9
        self.floats = ~np.array(bools)
        template = np.zeros((len(cols), w), np.uint8)
        template[:, [0, 2, p + 3, -1]] = np.frombuffer(b"-.e,", np.uint8)
        template[-1, -1] = ord("\n")
        present = np.zeros((len(cols), w), bool)
        present[:, [1, -1]] = True
        present[self.floats, 2:p + 5] = True
        present[self.floats, p + 6:p + 8] = True
        present[:, 2] &= p > 0
        self.template, self.present = template, present
        # the lookup tables, built once per process, by the first numpy-formatted table
        self.powers, self.quads, self.exponents = _powers(), _quads(), _exponents()

    def text(self, cols: list[np.ndarray], start: int, stop: int) -> bytes | np.ndarray:
        """Rows ``start:stop`` of ``cols`` as CSV text: bytes, or a uint8 array of them."""
        if not self.vectorised:
            x = np.column_stack([c[start:stop] for c in cols])
            return ((self.percent * len(x)) % tuple(x.ravel().tolist())).encode()
        # no warning may escape: the CLI counts every one into a note
        with np.errstate(all="ignore"):
            return self._text(np.column_stack([c[start:stop] for c in cols]))

    def _text(self, x: np.ndarray) -> np.ndarray:
        p, shape = self.precision, x.shape
        q, e, odd = self._decimal(x)
        sign = np.signbit(x) & self.floats
        cell = f"%.{p}e"
        texts = [(i, j, (cell % x[i, j]).encode()) for i, j in zip(*np.nonzero(odd))]
        # arrays are dropped once used, here and in _decimal: that keeps the
        # peak of a block near that of Python's % (x has no other reference)
        del x, odd
        block = np.empty((*shape, self.width), np.uint8)
        block[:] = self.template
        # the digits of q, four at a time, right-aligned in 16 bytes
        quads = np.empty((*shape, 4), np.uint32)
        for g in (3, 2, 1):
            rest = q // 10_000
            np.take(self.quads, q - rest * 10_000, out=quads[..., g])
            q = rest
        np.take(self.quads, q, out=quads[..., 0])
        digits = quads.view(np.uint8)
        block[..., 1] = digits[..., 15 - p]
        block[..., 3:p + 3] = digits[..., 16 - p:]
        del q, rest, quads, digits
        block[..., p + 4:p + 8] = np.take(self.exponents, e - _E_MIN)[..., None].view(np.uint8)
        mask = np.empty(block.shape, bool)
        mask[:] = self.present
        mask[..., 0] = sign
        mask[..., p + 5] = (np.abs(e) >= 100) & self.floats
        for i, j, text in texts:
            block[i, j, :len(text)] = np.frombuffer(text, np.uint8)
            mask[i, j, :-1] = False
            mask[i, j, :len(text)] = True
        return block.ravel()[mask.ravel()]

    def _decimal(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """q and e with |x| = q·10^(e−p) rounded, and the cells Python's ``%`` must format."""
        p = self.precision
        a = np.abs(x)
        finite = np.isfinite(a)
        a[~finite] = 0.0
        nonzero = a > 0
        e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int16)
        s = self.powers[p - e - _POWER_LOW]
        s *= a
        high = s >= 10.0 ** (p + 1)
        off = high | ((s < 10.0**p) & nonzero)
        if off.any():  # log10 put the value in the next decade or the last
            e[off] += np.where(high[off], 1, -1)
            s[off] = a[off].astype(np.longdouble) * self.powers[p - e[off] - _POWER_LOW]
        del a, high, off
        # the double may round s up to the next integer; then s - whole - 1/2
        # is below -1/2 and q is whole, as it must be
        whole = s.astype(np.float64)
        np.floor(whole, out=whole)
        s -= whole + 0.5
        half = s.astype(np.float64)
        del s
        q = whole.astype(np.int64)
        q += half > 0
        carry = q == 10 ** (p + 1)
        q -= carry * (9 * 10**p)
        e += carry
        return q, e, ~finite | (np.abs(half) <= _TIE)
