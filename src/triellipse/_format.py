"""Table rows as CSV text in numpy, byte for byte what Python's ``%`` writes.

A table's row format is ``%d`` for bool columns and ``%.{p}e`` for the
rest.  Python's ``%`` prints each value correctly rounded; here a block
of rows is formatted at once, in double precision.  A finite nonzero
value v is printed as the integer q nearest to s = |v|·10^(p−e), with
e = ⌊log10|v|⌋ taken from ``np.log10`` and moved by one where s falls
outside [10^p, 10^(p+1)).  s is one float64 product (|v|·2^c)·T, with T
the power 10^(p−e)·2^−c rounded to double: the power of two 2^c, c near
(p − e)·log2(10), is exact and keeps both factors in double range.  Two
roundings leave s within 2^-52 of the exact product, relative, so under
10^(p+1)·2^-52 absolute (0.0023 at p = 12), and a fraction of s further
than twice that from ½ rounds as the exact one would.  Near the edges of
a decade both choices of e print the same text.  A q of 10^(p+1) moves
to the next decade; ±0 comes out as q = 0, e = 0.  The cells inside that
band of ½, about 1 in 100 at p = 12 for fractions spread evenly, are
redone on that subset as a double-double product: Dekker's exact product
(Numer. Math. 1971) of |v|·2^c and T, plus |v|·2^c times the rest of the
power from a table of (hi, lo) pairs, within about 2^-104 of s relative.
Only the cells it leaves within ``_TIE`` = 2^-40 of ½ (exact ties,
mostly) and the non-finite ones go to Python's ``%``, one at a time.
Exact float-to-decimal conversion is the problem of Steele & White (PLDI
1990) and Adams's Ryū (PLDI 2018); this settles it with a wider product
where a fraction is near ½.

Each cell fills a fixed slot of whole uint32 words, each from a table
lookup: the sign, lead digit and point; the p digits after the point,
four to a word; the exponent and the separator, the slot's last byte.
The bytes a cell does not print (a plus sign, a third exponent digit,
the padding of a short digit word) are 0, and one ``bytes.translate``
drops them (:meth:`RowFormat.join`, which also cuts a table of some of
the cells out of a block).  From p = 14, where the band of the float64
product (10^(p+1)·2^-51, 0.44 at p = 14) would hold nearly every cell,
every cell is formatted by Python's ``%`` into a slot of whole words.
No long double is used: every host formats in numpy and prints the same
bytes.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import cycle

import numpy as np

# from this precision on every cell takes Python's %
_PERCENT_FROM = 14
# far above the double-double stage's error (under 1e-17 for s < 10^14)
_TIE = 2.0**-40
# decimal exponents of the finite doubles: 5e-324 to 1.8e308
_E_MIN, _E_MAX = -324, 308
# every k = p - e at the precisions of the numpy path, with e one decade off either way
_K_LOW, _K_HIGH = -_E_MAX - 1, _PERCENT_FROM - _E_MIN
# the power of two of 10^k is held within 2^±1000, so both factors stay normal doubles
_C_MAX = 1000
# Dekker's splitter: a·_SPLIT cuts a double into two halves of 26 bits
_SPLIT = 2.0**27 + 1
# 10^j is exact in double for j < 23
_EXACT_TENS = 23


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and err with p + err = a·b exactly (Dekker 1971), where nothing over- or underflows."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@cache
def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2^c, and hi + lo = 10^k·2^−c, for k = _K_LOW .. _K_HIGH (index k − _K_LOW).

    c is k·log2(10) rounded and held within ±_C_MAX, so hi lies between
    1e-8 and 1e37.  hi is within an ulp of 10^k·2^−c and hi + lo within
    2^-104 of it, relative.  Each power is 10^(23m)·10^j, j < 23: 10^j is
    exact in double, 10^(23m)·2^−c(23m) is taken to 2^-119 from integers,
    and their product is Dekker's.
    """
    k = np.arange(_K_LOW, _K_HIGH + 1)
    c = np.clip(np.rint(k * math.log2(10)), -_C_MAX, _C_MAX).astype(int)
    m, j = np.divmod(k, _EXACT_TENS)
    bits = 120
    anchors, shifts = [], []
    for big in range(m[0], m[-1] + 1):
        shift = round(_EXACT_TENS * big * math.log2(10))
        ten = 10 ** (_EXACT_TENS * abs(big))
        if big < 0:
            q = (1 << (bits - shift)) // ten
        else:
            q = ten << (bits - shift) if bits >= shift else ten >> (shift - bits)
        hi = float(q)
        anchors.append((hi, float(q - int(hi))))
        shifts.append(shift)
    anchor = np.ldexp(np.array(anchors)[m - m[0]], -bits)
    tens = np.array([float(10**i) for i in range(_EXACT_TENS)])[j]
    p, err = _two_product(anchor[:, 0], tens)
    err += anchor[:, 1] * tens
    hi = p + err
    lo = err - (hi - p)
    rescale = np.array(shifts)[m - m[0]] - c
    return np.ldexp(1.0, c), np.ldexp(hi, rescale), np.ldexp(lo, rescale)


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
    """'e', sign, three digits and a separator for each exponent, as two uint32 each.

    Row e − _E_MIN ends in ',', row e − _E_MIN + n, n the number of
    exponents, in a newline; a third digit that is 0 is left 0.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)
    text = np.zeros((2, len(e), 8), np.uint8)
    text[..., 0] = ord("e")
    text[..., 1] = np.where(e < 0, ord("-"), ord("+"))
    text[..., 2:5] = _quads()[np.abs(e)].view(np.uint8).reshape(-1, 4)[:, 1:]
    text[..., 2] *= np.abs(e) >= 100
    text[..., 7] = [[ord(",")], [ord("\n")]]
    return text.reshape(-1, 8).view(np.uint32)


class RowFormat:
    """The CSV row format of a table's columns: ``%d`` for bools, ``%.{precision}e`` otherwise.

    A block of rows is a uint32 array, one row of words per row: each
    cell's slot in turn, a float's of ``words`` words, a bool's of one.
    """

    def __init__(self, cols: list[np.ndarray], precision: int):
        self.precision = p = precision
        bools = np.array([c.dtype == bool for c in cols])
        last = np.arange(len(cols)) == len(cols) - 1
        self.percent = ["%d" if b else f"%.{p}e" for b in bools]
        if p >= _PERCENT_FROM:
            # every cell's text and separator, in whole words
            self.words = -(-(p + 9) // 4)
            widths = np.full(len(cols), self.words)
            self.separators = np.where(last, ord("\n"), ord(",")).astype(np.uint8)
        else:
            # sign, digit and point; the digits after the point, four to a word;
            # a 0 word if need be, so that the exponent's two words are a uint64
            self.digit_words = g = -(-p // 4)
            self.words = g + 3 + (g % 2 == 0)
            widths = np.where(bools, 1, self.words)
        self.starts = np.cumsum([0, *widths])
        self.row_words = self.starts[-1]
        if p >= _PERCENT_FROM:
            return
        self.floats, self.bools = np.flatnonzero(~bools), np.flatnonzero(bools)
        self.float_words = _run(np.flatnonzero(np.repeat(~bools, widths)))
        self.flag_words = _run(self.starts[self.bools])
        self.scales, self.highs, self.lows = _powers()
        self.band = 10.0 ** (p + 1) * 2.0**-51
        quads = _quads()
        # the first digit word holds the p - 4(g - 1) leading digits after the point
        first = quads[:10 ** (p - 4 * g + 4)].view(np.uint8).reshape(-1, 4).copy()
        first[:, :4 * g - p] = 0
        self.quads, self.first = quads, first.view(np.uint32).ravel()
        lead = np.zeros((2, 10, 4), np.uint8)
        lead[1, :, 0] = ord("-")
        lead[:, :, 1] = np.arange(48, 58)
        lead[:, :, 2] = ord(".") if p else 0
        self.leads = lead.view(np.uint32).ravel()
        self.exponents = _exponents().view(np.uint64).ravel()
        self.exponent_offsets = -_E_MIN + len(self.exponents) // 2 * last[self.floats]
        flag = np.zeros((2, 2, 4), np.uint8)
        flag[:, :, 2] = [ord("0"), ord("1")]
        flag[:, :, 3] = [[ord(",")], [ord("\n")]]
        self.flags = flag.view(np.uint32).ravel()
        self.flag_offsets = 2 * last[self.bools]

    def slots(self, cols: list[np.ndarray], start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of ``cols`` as a block: uint32, shape (rows, ``row_words``).

        A cell's slot holds its text and then its separator, ``,`` or the
        newline, as its last byte; every other byte is 0.
        """
        rows = stop - start
        block = np.empty((rows, self.row_words), np.uint32)
        if self.precision >= _PERCENT_FROM:
            values = np.column_stack([c[start:stop] for c in cols]).ravel().tolist()
            text = np.array([f % v for f, v in zip(cycle(self.percent), values)],
                            f"S{4 * self.words - 1}")
            cells = block.view(np.uint8).reshape(rows, len(cols), -1)
            cells[..., :-1] = text.view(np.uint8).reshape(rows, len(cols), -1)
            cells[..., -1] = self.separators
            return block
        floats = np.column_stack([cols[j][start:stop] for j in self.floats])
        shape = (*floats.shape, self.words)
        # the float cells' slots, in place where they are adjacent
        run = type(self.float_words) is slice
        out = block[:, self.float_words].reshape(shape) if run else np.empty(shape, np.uint32)
        # no warning may escape: the CLI counts every one into a note
        with np.errstate(all="ignore"):
            self._fill(floats, out)
        if not run:
            block[:, self.float_words] = out.reshape(rows, -1)
        if self.bools.size:
            flags = np.column_stack([cols[j][start:stop] for j in self.bools])
            block[:, self.flag_words] = np.take(self.flags, flags + self.flag_offsets)
        return block

    def join(self, block: np.ndarray, cells: list[int] | None = None) -> bytes:
        """The CSV text of a block of :meth:`slots`, or of its cells ``cells`` as rows of their own.

        A cut's last cell ends its rows with a newline in place of its separator.
        """
        if cells is not None:
            words = [np.arange(self.starts[j], self.starts[j + 1]) for j in cells]
            block = block.take(np.concatenate(words), axis=1)
            block.view(np.uint8)[:, -1] = ord("\n")
        return block.tobytes().translate(None, b"\0")

    def _fill(self, x: np.ndarray, out: np.ndarray) -> None:
        """Fill the slots ``out``, uint32 of shape (*x.shape, words), with the float cells ``x``."""
        p = self.precision
        a = np.abs(x)
        finite = a < np.inf
        odd = np.flatnonzero(~finite)  # cells for Python's %
        nonzero = a > 0
        nonzero &= finite
        del finite
        # zero and non-finite cells are taken as 1.0, and their s set to 0
        a = np.where(nonzero, a, 1.0)
        e = np.log10(a)
        np.floor(e, out=e)
        e = e.astype(np.intp)
        k = (p - _K_LOW) - e
        a *= np.take(self.scales, k)
        s = a * np.take(self.highs, k)
        low, high = 10.0**p, 10.0 ** (p + 1)
        # flat views of the cells, for the few redone
        fe, fk, fa, fs = e.ravel(), k.ravel(), a.ravel(), s.ravel()
        off = np.flatnonzero((s < low) | (s >= high))
        if off.size:  # log10 put the value in the next decade or the last
            fe[off] += np.where(fs[off] >= high, 1, -1)
            fk[off] = (p - _K_LOW) - fe[off]
            fa[off] = np.abs(x.ravel()[off]) * np.take(self.scales, fk[off])
            fs[off] = fa[off] * np.take(self.highs, fk[off])
        s *= nonzero
        del nonzero
        whole = np.floor(s)
        half = s
        half -= whole
        half -= 0.5
        q = whole.astype(np.int64)
        q += half > 0
        fq = q.ravel()
        near = np.flatnonzero(np.abs(half) <= self.band)
        if near.size:  # redone in double-double: s is a·hi + a·lo, to 2^-104
            an, kn = fa[near], fk[near]
            err = _two_product(an, np.take(self.highs, kn))[1]
            err += an * np.take(self.lows, kn)
            fraction = half.ravel()[near] + err
            fq[near] = whole.ravel()[near] + (fraction > 0)
            odd = np.concatenate([odd, near[np.abs(fraction) <= _TIE]])
        del a, k, s, whole, half, fa, fk, fs
        carry = np.flatnonzero(q == 10 ** (p + 1))
        fq[carry] = 10**p
        fe[carry] += 1
        g = self.digit_words
        lead = q // 10**p
        rest = q - lead * 10**p
        for w in range(g, 1, -1):
            above = rest // 10_000
            np.take(self.quads, rest - above * 10_000, out=out[..., w])
            rest = above
        if g:
            np.take(self.first, rest, out=out[..., 1])
        if g % 2 == 0:
            out[..., g + 1] = 0
        lead += 10 * np.signbit(x)
        np.take(self.leads, lead, out=out[..., 0])
        e += self.exponent_offsets
        np.take(self.exponents, e, out=out[..., -2:].view(np.uint64)[..., 0])
        text = out.view(np.uint8)
        for i in odd:
            row, col = divmod(i, x.shape[1])
            cell = (f"%.{p}e" % x[row, col]).encode()
            text[row, col, :len(cell)] = np.frombuffer(cell, np.uint8)
            text[row, col, len(cell):-1] = 0


def _run(index: np.ndarray) -> slice | np.ndarray:
    """``index`` as a slice where it is a run of consecutive integers."""
    if index.size and np.array_equal(index, np.arange(index[0], index[0] + index.size)):
        return slice(index[0], index[0] + index.size)
    return index
