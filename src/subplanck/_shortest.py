"""Shortest round-trip text of float64 arrays, byte for byte ``repr``.

:func:`repr_bytes` gives, for a whole array, the text Python's ``repr``
gives each value, in two stages:

* **Digits.**  Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020; the form of the JDK's ``DoubleToDecimal``) on uint64
  lanes.  It yields the shortest decimal ``f * 10**k`` inside the value's
  rounding interval, the closer one when there are two, the even one on a
  tie: the digits of ``repr``.  Unlike the JDK it also tries the one-digit
  shorter candidate for ``10 <= f < 100`` (Java prints at least two
  digits, ``repr`` one: ``5e-323``, not ``4.9e-323``), and subnormals go
  through as they are, ``c = t`` at ``q = -1074``.

  The value and the two bounds of its interval are ``cp * g / 2**127``
  rounded to odd (Giulietti, section 9.9; the JDK's ``rop``), with ``g =
  g1 * 2**63 + g0`` looked up by ``k``, and ``cp = 4c * 2**h`` for the
  value, ``cp + 2**(h + 1)`` and ``cp - 2**(h + 1)`` for the bounds
  (``cp - 2**h`` below a power of two, where the spacing halves).  Here
  ``h`` is 2 to 5, so ``cp < 2**60``.  Only the value's two products
  ``cp * g0`` and ``cp * g1`` are multiplied out, in full: the high
  halves from 32-bit limbs, the low halves by a wrapping multiply.  A
  bound's products are those plus or minus ``g0 << (h + 1)`` and ``g1 <<
  (h + 1)`` (at most 69 bits, added with carry or subtracted with
  borrow), and as every product is exact before the rounding, the bounds
  round exactly as if multiplied out; Ryu (U. Adams, PLDI 2018) derives
  its bounds' products from the value's the same way.  ``k``, ``h``, the
  hidden bit and ``g`` are looked up by the biased exponent and ``t =
  0``.
* **Layout.**  ``repr``'s rules: positional from 1e-4 up to 1e16, with
  ``.0`` on integral values; scientific outside, with one digit before
  the point and an exponent of at least two digits.  The 24 digits of
  ``f`` (of ``f * 10**(k + 1)`` for an integral value, whose last digit
  is the ``0`` after the point), zero-padded, are written right-aligned
  in columns 0 to 23 of a 32-byte row, eight bytes at a time from a table
  of four-digit words.  A second view of the same buffer, one byte
  further on, holds each row's digits one column further right, so
  nothing is copied to make room for the point.  Two mask rows per value,
  looked up by the column of the point and the number of digits before
  it or the last column of text, keep the digits before the point from
  the first view and those after it, up to the last non-zero one, from
  the second.  The point and the sign are set one byte each, and the
  exponent, in columns 25 to 29, is looked up whole.  Every other column
  is a zero byte, which a caller drops with one mask after assembling its
  lines.

Only integer numpy operations run per value, so no floating-point error
can be raised.  The tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292  # floor(log10(2**q)) for q = -1074 .. 971
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_POW10 = 10 ** np.arange(19, dtype=np.uint64)
# Text columns of the mantissa: 24 digits (up to 18 of f after "0.000")
# and the point; the exponent follows.
_MANTISSA = 25
# w = s + 1 is closer to vb = 4s + r than u = s, or as close with u odd,
# for r = vb & 3 = 3, or 2 at odd s: at 3, 6 and 7 of vb & 7
_W_ON_TIE = np.array([0, 0, 0, 1, 0, 0, 1, 1], bool)


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| < 5e6, as in the JDK's MathUtils."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """``(k, h1, hl, hidden, g1, g0, digits4, last4, before, after,
    exponents)``, all read-only.

    * Indexed by twice the biased exponent, plus 1 at ``t = 0``:
      ``k = floor(log10(2**q))``, or ``floor(log10(3/4 * 2**q))`` at
      irregular spacing (``t = 0`` above the least normal exponent, where
      the spacing below is half that above); ``h1 = h + 1`` and ``hl``,
      1 less at irregular spacing; the hidden bit ``c - t``;
      and ``g = g1 * 2**63 + g0 = floor(10**-k * 2**(125 - floor(log2
      10**-k))) + 1``.
    * ``digits4[i]``: ``i`` as four ASCII digits in the low half of a
      uint64.
    * ``last4[j, i]``: the column of the last non-zero digit of ``i``
      written in columns ``4j + 4`` to ``4j + 7``, or 0 for ``i = 0``.
    * 32-byte rows over the text columns, for the point in column
      ``point``: ``before[point * 18 + whole]`` is 0xFF at the ``whole``
      columns left of it, ``after[point * 26 + last]`` at the columns
      right of it up to ``last``.
    * ``exponents[e + 324]``: columns 24 to 31 of the text for the
      exponent ``e`` of the leading digit, zero bytes from -4 to 15.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            g = 10**-k << shift if shift >= 0 else 10**-k >> -shift
        else:
            g = (1 << shift) // 10**k
        g1.append((g + 1) >> 63)
        g0.append((g + 1) & _M63)
    bq, zero_t = np.arange(2048).repeat(2), np.tile([0, 1], 2048)
    q = np.maximum(bq, 1) - 1075
    irregular = zero_t & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h1 = (q + _flog2pow10(-k) + 3).astype(np.uint64)
    hidden = np.where(bq > 0, 1 << 52, 0).astype(np.uint64)
    i = np.arange(10_000, dtype=np.uint16)
    quad = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    digits4 = (quad + ord("0")).view("<u4").ravel().astype("<u8")
    zeros4 = sum(i % 10**e == 0 for e in range(1, 5))
    last4 = np.where(i > 0, 7 + 4 * np.arange(5)[:, None] - zeros4, 0).astype(np.uint8)
    col = np.arange(32)
    point, whole = (a.reshape(-1, 1) for a in np.indices((_MANTISSA, 18)))
    before = (point - whole <= col) & (col < point)
    point, last = (a.reshape(-1, 1) for a in np.indices((_MANTISSA, _MANTISSA + 1)))
    after = (point < col) & (col <= last)
    # "e", its sign and three digits, of which a leading zero is dropped
    e = np.arange(-324, 309)
    tail = digits4[np.abs(e)].astype(np.int64) & np.where(np.abs(e) >= 100, 0xFFFFFF00, 0xFFFF0000)
    tail = tail << 16 | np.where(e < 0, ord("-"), ord("+")) << 16 | 0x6500
    exponents = np.where((e < -4) | (e >= 16), tail, 0).astype("<u8")
    g1, g0 = np.array(g1, np.uint64)[k - _K_MIN], np.array(g0, np.uint64)[k - _K_MIN]
    masks = [np.ascontiguousarray(m, np.uint8) * 0xFF for m in (before, after)]
    out = (k, h1, h1 - irregular.astype(np.uint64), hidden, g1, g0, digits4, last4, *masks, exponents)
    for a in out:
        a.flags.writeable = False
    return out


def _mul_high(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """High 64 bits of ``g * cp``, ``cp = hi * 2**32 + lo``, from 32-bit limbs."""
    g_lo, g_hi = g & _M32, g >> 32
    mid0, mid1 = g_lo * hi, g_hi * lo
    carry = ((g_lo * lo) >> 32) + (mid0 & _M32) + (mid1 & _M32)
    return g_hi * hi + (mid0 >> 32) + (mid1 >> 32) + (carry >> 32)


def _round_odd(x: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """``cp * g / 2**127`` rounded to odd from ``x``, the high half of
    ``cp * g0``, and ``y1 * 2**64 + y0 = cp * g1`` (the JDK's ``rop``)."""
    z = (y0 >> 1) + x
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal ``(f, k)``, value ``f * 10**k``, of finite non-zero
    float64 bit patterns (the sign bit is ignored)."""
    t = bits & ((1 << 52) - 1)
    e = (bits >> 51) & 0xFFE  # twice the biased exponent, plus 1 at t = 0
    e += t == 0
    k, h1, hl, hidden, g1, g0 = (np.take(table, e) for table in _tables()[:6])
    c = t | hidden
    cp = c << h1 + 1  # 4c * 2**h
    lo, hi = cp & _M32, cp >> 32
    x, x0 = _mul_high(g0, lo, hi), g0 * cp  # cp * g0 = x * 2**64 + x0
    y1, y0 = _mul_high(g1, lo, hi), g1 * cp
    vb = _round_odd(x, y0, y1)
    # the upper bound, cp + 2**h1; an odd c excludes the bounds
    d0, d1 = g0 << h1, g1 << h1
    lo0, lo1 = x0 + d0, y0 + d1
    vbr = _round_odd(x + (g0 >> 64 - h1) + (lo0 < d0), lo1, y1 + (g1 >> 64 - h1) + (lo1 < d1))
    c &= 1
    vbr -= c
    # the lower bound, cp - 2**hl
    d0, d1 = g0 << hl, g1 << hl
    vbl = _round_odd(x - (g0 >> 64 - hl) - (x0 < d0), y0 - d1, y1 - (g1 >> 64 - hl) - (y0 < d1))
    vbl += c
    s = vb >> 2
    # one digit shorter: u' = 10 floor(s / 10) or w' = u' + 10, if only one is inside
    sp = s // 10 * 10
    up_in, wp_in = vbl <= sp << 2, (sp + 10) << 2 <= vbr
    shorter = (up_in != wp_in) & (s >= 10)
    # else u = s or w = s + 1: the one inside, or the closer, or the even on a tie
    u_in, w_in = vbl <= vb & ~np.uint64(3), vb | 3 < vbr
    pick_w = np.where(u_in != w_in, w_in, np.take(_W_ON_TIE, (vb & 7).view(np.int64)))
    return np.where(shorter, sp + wp_in * np.uint64(10), s + pick_w), k


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr`` of each finite value of a 1-D float64 array, as ASCII rows.

    Returns a uint8 matrix with one row per value: the value's text with
    zero bytes before, inside and after it.
    """
    digits4, last4, before, after, exponents = _tables()[6:]
    v = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("repr_bytes needs finite values")
    bits = v.view(np.uint64)
    zero = (bits << 1) == 0
    f, k = _schubfach(bits)
    f[zero] = 0
    # digits of f: 16 or 17 for a normal value (18 if it rounded up to 10**17)
    ndig = 16 + (f >= 10**16) + (f >= 10**17)
    short = f < 10**15
    if short.any():
        ndig[short] = np.searchsorted(_POW10, f[short], side="right")
    exp = np.where(zero, 0, k + ndig - 1)  # of the leading digit
    sci = (exp < -4) | (exp >= 16)
    integral = (k >= 0) & ~sci
    if integral.any():
        f = np.where(integral, f * _POW10[np.where(integral, k + 1, 0)], f)
    # digits after the point, and before it ("0" below 1)
    frac = np.where(sci, ndig - 1, np.where(integral | zero, 1, -k))
    whole = np.where(sci | (exp < 0), 1, exp + 1)

    # the 24 digits of f, right-aligned, in columns 0 to 23 of the rows
    # "left": 0000 and five quads; "right" views the same bytes one column
    # further right (column 0 holds the zero column 31 of the row before)
    quads = np.empty((5, len(v)), np.intp)
    f = f.view(np.int64)
    hi = f // 10**8
    lo = f - hi * 10**8
    quads[0] = hi // 10**8
    hi -= quads[0] * 10**8
    quads[1] = hi // 10**4
    quads[2] = hi - quads[1] * 10**4
    quads[3] = lo // 10**4
    quads[4] = lo - quads[3] * 10**4
    rows = np.zeros(32 * (len(v) + 1), np.uint8)
    left, right = rows[32:].reshape(-1, 32), rows[31:-1].reshape(-1, 32)
    words = left.view("<u8")
    digits = [np.take(digits4, quad) for quad in quads]
    words[:, 0] = digits[0] << 32 | 0x30303030
    words[:, 1] = digits[1] | digits[2] << 32
    words[:, 2] = digits[3] | digits[4] << 32
    last = np.take(last4[0], quads[0])  # column of the last non-zero digit
    for i in range(1, 5):
        np.maximum(last, np.take(last4[i], quads[i]), out=last)

    # mantissa: the digits before the point, the point and the digits after
    # it up to the last non-zero one; positional text keeps one digit after
    # the point ("1.0"), scientific text drops a point with none ("1e+16")
    point = _MANTISSA - 1 - frac
    last = np.maximum(last + 1, point + 1 - 2 * sci)  # left of the point: none after it
    text = np.take(before, point * 18 + whole, axis=0)
    text &= left
    digits_after = np.take(after, point * 26 + last, axis=0)
    digits_after &= right
    text |= digits_after
    at = np.arange(0, 32 * len(v), 32) + point
    text.ravel()[at] = (last > point) * np.uint8(ord("."))
    text.ravel()[at - whole - 1] = (bits >> 63).astype(np.uint8) * np.uint8(ord("-"))
    text.view("<u8")[:, 3] |= np.take(exponents, exp + 324)
    first = (point - whole - 1).min(initial=_MANTISSA)
    return text[:, first : (_MANTISSA + 5 if sci.any() else last.max(initial=0) + 1)]
