"""Float tables to and from comma-separated text, in bulk and exactly.

:func:`format_rows` gives the bytes that ``'%.17g' % x`` gives per cell,
with cells joined by ',' and rows ended by a newline.  It computes each
cell's 17 significant digits exactly and in bulk: Dekker's two-product of
``|x|`` with the exact double ``10**(16 - X)``, X the decimal exponent.
That covers zeros and exponents X from -6 to 15, about ``1e-6 <= |x| <
1e16``.  Any other cell (a subnormal, a tiny or huge magnitude, inf, nan)
is formatted on its own by ``'%.17g'`` and put into its place.

:func:`parse_rows` goes the other way: it reads such text, in any decimal
notation of the grammar ``-?D*(.D*)?([eE][+-]?D+)?``, into the doubles that
``float()`` (and ``np.loadtxt``) give, bit for bit.  Each cell's decimal
digits become an integer ``m`` and its exponent ``q``; ``m * 10**q`` is
formed as a double-double with an exact table of ``10**q`` and rounded
once.  A cell whose rounding the error bound cannot settle (next to a
midpoint between two doubles), with more than about 19 significant digits
or of extreme magnitude is parsed on its own by ``float()``.  Text outside
the grammar is not parsed at all: the caller gets ``None``.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows", "parse_rows"]


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


# Parsing.  A cell's mantissa is read from a window of _WIDTH bytes ending
# where the mantissa ends: three little-endian words of 8 digits each, with
# the bytes before the mantissa and the decimal point cleared to 0, which
# the digit arithmetic reads as the digit 0.  Its exponent digits are read
# the same way, as the last word of a window that ends at the separator.
# The non-digit bytes the grammar allows get a class; every other byte is
# _OTHER.

_WIDTH = 24
_COMMA, _NEWLINE, _POINT, _EXP, _SIGN, _OTHER = range(1, 7)
_CLASS = np.full(256, _OTHER, np.uint8)
_CLASS[list(b",\n.eE-+")] = _COMMA, _NEWLINE, _POINT, _EXP, _EXP, _SIGN, _SIGN
_U64_POW10 = np.array([10**k for k in range(20)], np.uint64)
_Q_MAX = 280  # m * 10**q, m < 10**19, stays far from overflow and subnormals


def _window_masks():
    """Per window word j, ``masks[j][pad * 25 + point]`` keeps the bytes of a
    mantissa that has ``pad`` bytes before it in the window, except its
    decimal point at window byte ``point`` (24 for none)."""
    byte = np.arange(_WIDTH)
    first = np.arange(_WIDTH + 1)[:, None]  # pad, or point
    keep = (byte >= first)[:, None] & (byte != first)[None, :]
    masks = np.where(keep, 0xFF, 0).astype(np.uint8).reshape(-1, _WIDTH)
    return masks.view(_WORD).T.copy()


_WINDOW_MASKS = _window_masks()


@functools.cache
def _pow10():
    """10**q for q from -_Q_MAX to _Q_MAX as ``hi + lo``: hi the nearest
    double, lo the nearest double to the rest; and hi's Veltkamp high half.

    Built on first use, with exact integer arithmetic (``int / int`` rounds
    correctly).  The arrays are read-only.
    """
    hi = np.empty(2 * _Q_MAX + 1)
    lo = np.empty_like(hi)
    for i, q in enumerate(range(-_Q_MAX, _Q_MAX + 1)):
        num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
        hi[i] = h = num / den
        h_num, h_den = h.as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    hi_hi = _split(hi)[0]
    for table in (hi, lo, hi_hi):
        table.flags.writeable = False
    return hi, lo, hi_hi


def _eight_digits(w):
    """The value of the 8 digits of each little-endian word (SWAR): ASCII
    digits, or cleared bytes that read as 0."""
    w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32


def _window_word(words, end, j, mask):
    """The value of word ``j`` of the windows that end at byte ``end``, its
    bytes cleared by row ``mask`` of ``_WINDOW_MASKS``."""
    w = words[end - 8 * (3 - j)]
    w &= np.take(_WINDOW_MASKS[j], mask)
    return _eight_digits(w)


def parse_rows(text: bytes, ncols: int) -> np.ndarray | None:
    """The ``n x ncols`` float64 array of ``text``, ``n`` rows of ``ncols``
    comma-separated cells, each row ended by a newline; ``None`` for any
    text outside that grammar.

    A cell is ``-?D*(.D*)?([eE][+-]?D+)?`` with at least one mantissa
    digit.  Any other byte (a space, CR, a leading '+', '_', 'nan', a
    non-ASCII byte), an empty or extra field or a missing last newline gives
    ``None``.  Every cell equals ``float(cell)`` bit for bit.
    """
    if not text.endswith(b"\n"):
        return None
    # '0' bytes ahead of the text keep every window inside the buffer
    buf = np.frombuffer(b"0" * _WIDTH + text, np.uint8)
    # the 8 bytes from each offset, as one little-endian word
    words = np.ndarray((buf.size - 7,), _WORD, buf, strides=(1,))
    # one scan of the text finds its non-digits; the rest is per field
    special = np.flatnonzero((buf - np.uint8(48)) > np.uint8(9))
    cls = np.take(_CLASS, buf[special])
    if cls.max() == _OTHER:
        return None
    sep = np.flatnonzero(cls <= _NEWLINE)
    rows = sep.size // ncols
    newline = cls[sep] == _NEWLINE
    if (sep.size != rows * ncols or np.count_nonzero(newline) != rows
            or not newline[ncols - 1::ncols].all()):
        return None
    ends = special[sep]
    starts = np.empty_like(ends)
    starts[0] = _WIDTH
    starts[1:] = ends[:-1] + 1

    # Walk each field's non-digits in the grammar's order: a '-' first, '.',
    # 'e', a '+' or '-' right after it.  The field is well formed if the
    # walk ends at its separator.
    neg = buf[starts] == ord("-")
    at = np.empty_like(sep)
    at[0] = 0
    at[1:] = sep[:-1] + 1
    at += neg
    point = cls[at] == _POINT
    point_at = special[at]
    at += point
    exp = cls[at] == _EXP
    exp_at = special[at]
    at += exp
    sign = np.take(buf, exp_at + 1, mode="clip")
    exp_neg = exp & (sign == ord("-"))
    exp_sign = exp_neg | exp & (sign == ord("+"))
    at += exp_sign
    mant_end = np.where(exp, exp_at, ends)
    mant_len = mant_end - starts - neg  # bytes, the point included
    exp_len = (ends - exp_at - 1 - exp_sign) * exp  # digits
    # a field with non-digits left, or a part with no digit
    if ((at != sep) | (mant_len <= point) | (exp_len < exp)).any():
        return None

    # The mantissa's digits, its point read as a '0', then without it
    frac = np.where(point, mant_end - 1 - point_at, 0)  # digits after '.'
    mask = (np.maximum(_WIDTH - mant_len, 0) * 25
            + np.where(point, 23 - np.minimum(frac, 23), 24))
    top = _window_word(words, mant_end, 0, mask)
    digits = (top * 10**16 + _window_word(words, mant_end, 1, mask) * 10**8
              + _window_word(words, mant_end, 2, mask))
    after = digits % np.take(_U64_POW10, np.minimum(np.where(point, frac, 19), 19))
    m = (digits - after) // 10 + after
    exp_mask = (16 + np.maximum(8 - exp_len, 0)) * 25 + 24
    e = _window_word(words, ends, 2, exp_mask).view(np.int64)
    q = np.where(exp_neg, -e, e) - frac
    alone = ((mant_len > _WIDTH) | (exp_len > 8) | (top >= 1000)
             | (np.abs(q) > _Q_MAX))
    np.putmask(m, alone, 0)  # m wrapped around for some; keep casts in range

    # m * 10**q as the double-double h + err: Dekker's two-product gives the
    # rounding error of h = m_hi * p_hi exactly, and the other partial
    # products of (m_hi + m_lo) * (p_hi + p_lo) are each about 2**-53 h
    hi, lo, hi_hi = _pow10()
    qi = np.clip(q, -_Q_MAX, _Q_MAX) + _Q_MAX
    m_hi = m.astype(np.float64)
    m_lo = (m - m_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    p_hi = np.take(hi, qi)
    h = m_hi * p_hi
    a_hi, a_lo = _split(m_hi)
    b_hi = np.take(hi_hi, qi)
    b_lo = p_hi - b_hi
    err = a_hi * b_hi - h
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    err += m_hi * np.take(lo, qi)
    err += m_lo * p_hi
    # m * 10**q lies within 2**-102 h of h + err.  Rounding is monotonic, so
    # where both ends of the wider interval h + err -+ 2**-98 h round to one
    # double, so does m * 10**q; where they do not, a midpoint is near.
    tol = h * 2.0**-98
    x = h + (err + tol)
    alone |= x != h + (err - tol)
    np.negative(x, out=x, where=neg)
    for i in np.flatnonzero(alone).tolist():
        x[i] = float(text[starts[i] - _WIDTH:ends[i] - _WIDTH])
    return x.reshape(rows, ncols)
