"""Byte-exact ``'%.17g'`` text of float arrays, formatted in bulk.

:func:`format_rows` gives the bytes that ``'%.17g' % x`` gives per cell,
with cells joined by ',' and rows ended by a newline.  It computes each
cell's 17 significant digits exactly and in bulk: Dekker's two-product of
``|x|`` with the exact double ``10**(16 - X)``, X the decimal exponent.
That covers zeros and exponents X from -6 to 15, about ``1e-6 <= |x| <
1e16``.  Any other cell (a subnormal, a tiny or huge magnitude, inf, nan)
is formatted on its own by ``'%.17g'`` and put into its place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]


# A cell of the exact range is printed from N, its 17 significant digits as
# an int64, and X, the decimal exponent that %g picks.  Every byte a cell
# may need has a fixed place in its slot of six little-endian uint64 words:
#
#   word 0     "-0.000d."  the sign, the lead "0.000" of fixed notation
#                          below one (X = -1 to -4), digit 0 and a point
#   words 1-4  "d.d.d.d."  digits 1 to 16, each followed by a point
#   word 5     "e-0K,"     the exponent of scientific notation (X = -5, -6)
#                          and the separator, ',' or a newline
#
# Digit k sits at byte 6 + 2k and the point after it at byte 7 + 2k.  Which
# bytes a cell keeps depends only on its sign, its layout (X, or zero) and
# how many digits it keeps (trailing zeros go, and a bare point), so a
# block's keep-mask is one table row per cell, and one compress of the
# block yields its text.

_X_MIN, _X_MAX = -6, 15  # exponents whose scale 10**(16 - X) is an exact double
_POW10 = np.array([10**k for k in range(16 - _X_MIN + 1)], dtype=float)
_WORD = np.dtype("<u8")
_SLOT = 6 * _WORD.itemsize
_LEAD = int.from_bytes(b"-0.000\0.", "little")  # digit 0 goes in byte 6
_TAIL = int.from_bytes(b"e-0\0,\0\0\0", "little")  # K goes in byte 3
_SEPARATOR = 5 * _WORD.itemsize + 4
_LAYOUTS = _X_MAX - _X_MIN + 3  # X = -6 to 16 (16 by rounding up), and zero
_FALLBACK_WIDTH = 24  # the longest '%.17g' text, e.g. -2.2250738585072014e-308


def _split(a):
    """Veltkamp's split: ``a == hi + lo``, each half 26 bits wide."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, x):
    """``hi + lo == a * 10**(16 - x)`` exactly, ``hi`` the rounded product.

    Dekker's two-product needs no fused multiply-add.  It is exact while no
    partial product underflows, which holds far below the exact range.
    """
    k = 16 - x
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return hi, lo


def _decade_offset(hi, lo):
    """-1, 0 or +1 as the exact ``hi + lo`` is below, in or above [1e16, 1e17)."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _group_tables():
    """Per 4-digit group: its word "d.d.d.d.", and the count of its digits up
    to the last nonzero one (negative for the group 0, which counts none)."""
    g = np.arange(10_000, dtype=np.int16)
    text = np.full((g.size, 8), ord("."), np.uint8)
    significant = np.full(g.size, -64, np.int8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        text[:, 2 * k] = 48 + g // unit % 10
        significant[g % (10 * unit) != 0] = k + 1  # later digits overwrite
    return text.view(_WORD).ravel(), significant


def _keep_table():
    """Row ``(sign * _LAYOUTS + layout) * 18 + kept``: the slot bytes that a
    cell keeps, ``kept`` being the count of its 17 digits that it prints.

    Layout X + 6 is the exponent X; the last layout is a zero, printed as its
    sign and "0".
    """
    x = np.arange(_X_MIN, _X_MAX + 2)[:, None, None]
    kept = np.arange(18)[:, None]
    below_one = (x < 0) & (x >= -4)  # "0.", then -X - 1 zeros
    point = np.where(x >= 0, x + 1, x < -4)  # digits before the '.'
    keep = np.zeros((2, _LAYOUTS, kept.size, _SLOT), bool)
    exps = keep[:, :-1]
    exps[..., 1:3] = below_one
    exps[..., 3:6] = below_one & (x <= -np.arange(2, 5))
    exps[..., 6:40:2] = np.arange(17) < kept
    exps[..., 7:38:2] = (np.arange(1, 17) == point) & (kept > point)
    exps[..., 40:44] = x < -4
    keep[:, -1, :, 1] = True
    keep[1, ..., 0] = True
    keep[..., _SEPARATOR] = True
    return keep.reshape(-1, _SLOT)


_GROUP_WORD, _GROUP_SIGNIFICANT = _group_tables()
_KEEP = _keep_table()


def format_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-D float array as text: cells ``'%.17g' % x`` joined by
    ',', each row ended by a newline.

    Zeros and cells with an exponent from -6 to 15 (about
    ``1e-6 <= |x| < 1e16``) are laid out in bulk.  Every other cell (a
    subnormal, a tiny or huge magnitude, inf, nan) is formatted on its own
    with ``'%.17g' % x`` and placed into its slot.
    """
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    zero = x == 0
    exact = (a > 0) & (a < 1e16)  # false for nan and inf
    a[~exact] = 1.0  # keeps the bulk arithmetic finite; the slot is redone
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), _X_MIN, _X_MAX)
    hi, lo = _scaled(a, e)
    # log10 can miss the exponent by one next to a power of ten, so move
    # each cell to the decade where its exact product is in [1e16, 1e17)
    offset = _decade_offset(hi, lo)
    moved = np.flatnonzero(offset)
    if moved.size:
        e[moved] += offset[moved]
        inside = (e[moved] >= _X_MIN) & (e[moved] <= _X_MAX)
        exact[moved[~inside]] = False
        e[moved[~inside]] = 0  # any layout; the fallback redoes these slots
        moved = moved[inside]
        hi[moved], lo[moved] = _scaled(a[moved], e[moved])
        exact[moved] &= _decade_offset(hi[moved], lo[moved]) == 0
    # hi is an integer of at least 2**53, so adding lo rounded half-even
    # rounds the exact product half-even to 17 digits, as '%.17g' does
    big = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = big == 10**17
    big[carry] = 10**16
    e += carry

    head, tail = np.divmod(big, 10**8)
    lead, head = np.divmod(head, 10**8)
    groups = (*np.divmod(head, 10**4), *np.divmod(tail, 10**4))
    significant = np.ones(n, np.intp)
    for j, g in enumerate(groups):  # the last nonzero group sets the count
        np.maximum(significant, _GROUP_SIGNIFICANT[g] + (1 + 4 * j), out=significant)
    point = np.where(e >= 0, e + 1, e < -4)  # digits before the '.'
    layout = e - _X_MIN
    layout[zero] = _LAYOUTS - 1
    code = (np.signbit(x) * _LAYOUTS + layout) * 18 + np.maximum(point, significant)

    words = np.empty((n, 6), _WORD)
    words[:, 0] = _LEAD + ((48 + lead.astype(_WORD)) << 48)
    for j, g in enumerate(groups):
        words[:, 1 + j] = _GROUP_WORD[g]
    words[:, 5] = _TAIL + ((48 - e).astype(_WORD) << 24)
    slots = words.view(np.uint8)
    slots.reshape(rows, cols, _SLOT)[:, -1, _SEPARATOR] = ord("\n")
    keep = np.take(_KEEP, code, axis=0)

    fallback = np.flatnonzero(~(exact | zero))
    if fallback.size:
        cells = [b"%.17g" % v for v in x[fallback].tolist()]
        slots[fallback, :_FALLBACK_WIDTH] = np.frombuffer(
            b"".join(c.ljust(_FALLBACK_WIDTH) for c in cells), np.uint8
        ).reshape(-1, _FALLBACK_WIDTH)
        lengths = np.fromiter(map(len, cells), np.intp, len(cells))
        keep[fallback, :_SEPARATOR] = np.arange(_SEPARATOR) < lengths[:, None]
        keep[fallback, _SEPARATOR + 1:] = False
    # np.extract is several times faster here than boolean indexing
    return np.extract(keep, slots).tobytes()
