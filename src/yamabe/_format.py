"""Float64 columns as CSV bytes, each value exactly as `'%.17g' % value`.

The 17 digits of a value x come from N = round(|x| 10^k), k = 16 - e,
where e = floor(log10 |x|) is read off `log10`.  The power P = 10^k is the
pair (H, L) of doubles: H nearest to P, L nearest to P - H, both computed
once from exact integers (_powers).  Dekker's two-product (1971) gives
ph + pl = |x| H exactly, and N = ph + round(pl + |x| L).  ph is an integer,
since it lies beyond 2^53, so the rounding happens in r = pl + |x| L alone.

The error bound.  With u = 2^-53, |L| <= u H and P = H + L + d with
|d| <= u |L| <= u^2 H.  Where ph < 10^17, |pl| <= 8 and |x| |L| <= u |x| H
< 12, so |r| < 32, and the computed r differs from the exact
pl + |x| (L + d) by at most u 12 (the product |x| L), 2^-48 (the sum) and
u^2 10^17 (the dropped |x| d): less than 1e-14 in all.  A value is handed
to Python's own `'%.17g' %` instead (_MARGIN, _E_MAX) when

* it is zero, infinite or nan;
* e lies outside [-_E_MAX, _E_MAX], where H, L and the splits stay normal
  and finite;
* ph lies within 64 of 10^16 or 10^17, where log10 may have missed e or N
  may carry into an 18th digit;
* the fraction of r lies within _MARGIN = 1e-9 of one half, five orders of
  magnitude above the bound, so every other value rounds to the nearest N
  as the exact product does.

So N and e are the digits and exponent of `'%.17e'`.  `%g` prints them in
fixed notation where -4 <= e < 17 and in scientific notation otherwise,
without trailing zeros.  Each value fills a cell of _WIDTH bytes, a fixed
layout of every byte either notation may need, and a mask keeps the bytes
of its own string; a row's cells end in a comma or a newline, so the masked
bytes of the cells in row order are the CSV text.  The kernel is numpy
elementwise work with no BLAS call and no lock, so forked writer processes
may run it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

# The cell, eight bytes to a word: the sign, "0." and three zeros (fixed
# notation below 1), the 17 digits each followed by a slot for the decimal
# point, where "e" takes the last slot, then the exponent's sign and three
# digits and the separator.
_SIGN, _LEAD, _ZEROS, _DIGITS, _EXP, _SEP = 0, 1, 3, 6, 39, 44
_WIDTH = 48
_WORD = np.dtype("<u8")

_E_MAX = 280
_MARGIN = 1e-9
_SPLIT = 134217729.0        # 2^27 + 1, Dekker's splitting constant

# Rows per chunk of csv_rows.  A chunk of 1024 rows of five columns works in
# about 1 MB; 2048 rows format a 4001-row profile 5% faster but add 2 MB to
# the peak RSS of a 4001-node `yamabe solve`, 512 rows add nothing and take
# 15% longer.
_CHUNK_ROWS = 1024

# cell layouts: fixed notation for e = -4 .. 16, then scientific notation
# with two or three exponent digits, each with 1 .. 17 significant digits;
# the layouts of negative values follow those of positive ones
_LAYOUTS = 23 * 17


class _Tables(NamedTuple):
    hi: np.ndarray          # H of k = 16 - e; every table of e is indexed by e + _E_MAX
    high: np.ndarray        # H's upper 26 bits, Dekker's split
    lo: np.ndarray          # L
    heads: np.ndarray       # word 0 of a first digit
    spread: np.ndarray      # words of 0..9999, each digit followed by a point
    spread_e: np.ndarray    # the same, "e" in place of the last point
    zeros: np.ndarray       # trailing zeros of 0..9999, four for 0
    tails: np.ndarray       # word 5 of e: exponent sign and digits, comma
    layouts: np.ndarray     # the layout of e with 17 significant digits
    masks: np.ndarray       # the kept bytes of each layout


def _powers():
    """H and L of 10^k, k = 16 - e, from exact integers: Python's int
    division rounds correctly."""
    hi, lo = [], []
    for k in range(16 + _E_MAX, 15 - _E_MAX, -1):
        if k >= 0:
            h = float(10 ** k)
            lo.append(float(10 ** k - int(h)))
        else:
            scale = 10 ** -k
            h = 1 / scale
            p, q = h.as_integer_ratio()
            lo.append((q - p * scale) / (q * scale))
        hi.append(h)
    return np.array(hi), np.array(lo)


def _masks():
    layout = np.arange(2 * _LAYOUTS) % _LAYOUTS
    fixed = layout < 21 * 17
    # a scientific layout stands for every e of its exponent width
    e = np.where(fixed, layout // 17 - 4, np.where(layout < 22 * 17, -5, 100))
    sig = layout % 17 + 1
    small = fixed & (e < 0)
    sci = ~fixed
    keep = np.zeros((2 * _LAYOUTS, _WIDTH), bool)
    keep[_LAYOUTS:, _SIGN] = True
    keep[:, _LEAD:_ZEROS] = small[:, None]
    keep[:, _ZEROS:_DIGITS] = np.arange(3) < np.where(small, -1 - e, 0)[:, None]
    whole = np.where(fixed & (e >= 0), e + 1, 0)
    keep[:, _DIGITS:_EXP:2] = np.arange(17) < np.maximum(sig, whole)[:, None]
    # the point follows digit `point`, when digits follow it
    point = np.where(fixed, e, 0)
    keep[:, _DIGITS + 1:_EXP:2] = (np.arange(16) == point[:, None]) & (sig > point + 1)[:, None]
    keep[:, _EXP:_EXP + 2] = sci[:, None]
    keep[:, _EXP + 2] = sci & (e >= 100)
    keep[:, _EXP + 3:_SEP] = sci[:, None]
    keep[:, _SEP] = True
    return keep


@cache
def _tables():
    """The tables, built on first use: none at import."""
    hi, lo = _powers()
    c = _SPLIT * hi
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    spread = np.full((10000, 8), ord("."), np.uint8)
    spread[:, ::2] = digits
    spread_e = spread.copy()
    spread_e[:, 7] = ord("e")
    heads = np.frombuffer(b"-0.000\0." * 10, np.uint8).reshape(10, 8).copy()
    heads[:, 6] = np.arange(48, 58)
    e = np.arange(-_E_MAX, _E_MAX + 1)
    tails = np.zeros((e.size, 8), np.uint8)
    tails[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    tails[:, 1:4] = digits[np.abs(e), 1:]
    tails[:, 4] = ord(",")
    layouts = np.where((e >= -4) & (e < 17), (e + 4) * 17, np.where(np.abs(e) < 100, 21, 22) * 17)
    return _Tables(hi, c - (c - hi), lo, heads.view(_WORD).ravel(), spread.view(_WORD).ravel(),
                   spread_e.view(_WORD).ravel(), np.cumprod(digits[:, ::-1] == 48, axis=1).sum(axis=1),
                   tails.view(_WORD).ravel(), layouts + 16, _masks())


class Cells(NamedTuple):
    """The cells of an array of values: bytes and mask, shape (..., _WIDTH)."""

    text: np.ndarray
    keep: np.ndarray


def cells(values):
    """The Cells of `values` (any shape), each cell ending in a comma."""
    x = np.asarray(values, dtype=float)
    out = Cells(np.empty(x.shape + (_WIDTH,), np.uint8), np.empty(x.shape + (_WIDTH,), bool))
    _fill(x, out)
    return out


def _digits(x):
    """(N, the tables' row of e, ok) of each value, ok false where the
    value goes to Python.  Its float temporaries are freed before _fill's
    byte work starts, which keeps a chunk's peak memory down."""
    t = _tables()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) <= _E_MAX                 # false for 0, inf and nan
    if not ok.all():
        a[~ok] = 1.0
        e[~ok] = 0.0
    i = e.astype(np.intp) + _E_MAX          # the tables' row of e
    hi, high = t.hi.take(i), t.high.take(i)
    low = hi - high
    ph = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    r = (((ah * high - ph) + ah * low + al * high) + al * low) + a * t.lo.take(i)
    floor = np.floor(r)
    frac = r - floor
    ok &= (ph >= 1e16 + 64) & (ph <= 1e17 - 64) & (np.abs(frac - 0.5) > _MARGIN)
    return ph.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5), i, ok


def _fill(x, out):
    t = _tables()
    text, keep = out
    n, i, ok = _digits(x)

    # 17 digits: the first, then four groups of four
    top = n // 10 ** 8
    first = top // 10 ** 8
    groups = []
    for half in (top - first * 10 ** 8, n - top * 10 ** 8):
        upper = half // 10 ** 4
        groups += [upper, half - upper * 10 ** 4]
    words = text.view(_WORD)
    words[..., 0] = t.heads.take(first, mode="clip")     # a fallback's n may pass 10^17
    for j, group in enumerate(groups):
        words[..., 1 + j] = (t.spread if j < 3 else t.spread_e).take(group)
    words[..., 5] = t.tails.take(i)
    trailing = 0
    for group in groups:
        tz = t.zeros.take(group)
        trailing = tz + (tz == 4) * trailing
    keep[...] = t.masks.take(t.layouts.take(i) - trailing + _LAYOUTS * (x < 0), axis=0)

    if not ok.all():
        fallback = np.nonzero(~ok)
        strings = np.array(["%.17g" % v for v in x[fallback].tolist()], dtype="S24")
        strings = strings.view(np.uint8).reshape(-1, 24)
        keep[fallback + (slice(_SEP),)] = False
        text[fallback + (slice(_DIGITS, _DIGITS + 24),)] = strings
        keep[fallback + (slice(_DIGITS, _DIGITS + 24),)] = strings != 0


def csv_rows(first, columns):
    """The CSV text of the rows (first[i], *columns[:, i]) in chunks of
    bytes: `first` the Cells of the first column, `columns` (c, m) values."""
    columns = np.asarray(columns, dtype=float)
    for lo in range(0, columns.shape[1], _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, columns.shape[1])
        chunk = Cells(np.empty((hi - lo, 1 + len(columns), _WIDTH), np.uint8),
                      np.empty((hi - lo, 1 + len(columns), _WIDTH), bool))
        chunk.text[:, 0] = first.text[lo:hi]
        chunk.keep[:, 0] = first.keep[lo:hi]
        _fill(columns[:, lo:hi].T, Cells(chunk.text[:, 1:], chunk.keep[:, 1:]))
        chunk.text[:, -1, _SEP] = ord("\n")
        yield np.compress(chunk.keep.ravel(), chunk.text.ravel())
