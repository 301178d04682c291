"""Shortest round-trip text of float64 arrays, byte for byte ``repr``.

:func:`repr_bytes` gives, for a whole array, the text Python's ``repr``
gives each value, in two stages:

* **Digits.**  Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020; the form of the JDK's ``DoubleToDecimal``) on uint64
  lanes, with the 64x64 -> 128-bit products built from 32-bit limbs.  It
  yields the shortest decimal ``f * 10**k`` inside the value's rounding
  interval, the closer one when there are two, the even one on a tie:
  the digits of ``repr``.  Unlike the JDK it also tries the one-digit
  shorter candidate for ``10 <= f < 100`` (Java prints at least two
  digits, ``repr`` one: ``5e-323``, not ``4.9e-323``), and subnormals go
  through as they are, ``c = t`` at ``q = -1074``.
* **Layout.**  ``repr``'s rules: positional from 1e-4 up to 1e16, with
  ``.0`` on integral values; scientific outside, with one digit before
  the point and an exponent of at least two digits.  The digits of ``f``
  (of ``f * 10**(k + 1)`` for an integral value, whose last digit is the
  ``0`` after the point) are written right-aligned in a 32-byte row, as
  they stand and shifted one column right.  Byte masks looked up by the
  column of the point, the number of digits before it and the last
  column kept take each column from one of the two rows or put the point
  or the sign there, so no per-byte index is built.  The columns outside
  the text, and the trailing zeros of ``f``, become zero bytes, which a
  caller drops with one mask after assembling its lines.

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


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| < 5e6, as in the JDK's MathUtils."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """``(g1_lo, g1_hi, g0_lo, g0_hi, digits4, zeros4, before, after,
    marks, end)``, all read-only.

    * The 32-bit limbs of ``g = g1 * 2**63 + g0 =
      floor(10**-k * 2**(125 - floor(log2 10**-k))) + 1`` for ``k`` from
      -324 to 292.
    * ``digits4[i]``: ``i`` as four ASCII digits in one uint32;
      ``zeros4[i]``: the number of its trailing ``0`` digits.
    * 32-byte rows over the text columns, for the point in column
      ``point`` after ``whole`` digits: ``before[point * 18 + whole]`` is
      0xFF at those digits, ``after[point]`` 0xFF at the mantissa columns
      right of the point, ``marks[(point * 18 + whole) * 2 + negative]``
      holds the point and the sign, and ``end[last]`` is 0xFF up to
      column ``last`` and at the exponent.
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
    g1, g0 = np.array(g1, np.uint64), np.array(g0, np.uint64)
    i = np.arange(10_000, dtype=np.uint16)
    quad = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    digits4 = (quad + ord("0")).view(np.uint32).ravel()
    zeros4 = sum(i % 10**e == 0 for e in range(1, 5)).astype(np.intp)
    col = np.arange(32)
    point, whole, neg = (a.reshape(-1, 1) for a in np.indices((_MANTISSA, 18, 2)))
    before = (point - whole <= col) & (col < point)
    after = (point < col) & (col < _MANTISSA)
    marks = np.where(col == point, ord("."), 0)
    marks[(col == point - whole - 1) & (neg == 1)] = ord("-")
    end = (col <= np.arange(_MANTISSA + 1)[:, None]) | (col >= _MANTISSA)
    masks = [np.ascontiguousarray(m, np.uint8) * 0xFF for m in (before[::2], after[::36], end)]
    out = (g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32, digits4, zeros4, *masks[:2],
           marks.astype(np.uint8), masks[2])
    for a in out:
        a.flags.writeable = False
    return out


def _rop(g1_lo, g1_hi, g0_lo, g0_hi, cp: np.ndarray) -> np.ndarray:
    """``cp * g / 2**127`` rounded to odd (Giulietti, section 9.9):
    the high 64 bits of ``cp * g0`` and all 128 of ``cp * g1``, each
    product built from 32-bit limbs."""
    lo, hi = cp & _M32, cp >> 32
    mid0, mid1 = g0_lo * hi, g0_hi * lo
    x = (((g0_lo * lo) >> 32) + (mid0 & _M32) + (mid1 & _M32)) >> 32
    x += g0_hi * hi + (mid0 >> 32) + (mid1 >> 32)
    mid0, mid1 = g1_lo * hi, g1_hi * lo
    low = g1_lo * lo
    carry = ((low >> 32) + (mid0 & _M32) + (mid1 & _M32)) >> 32
    y1 = g1_hi * hi + (mid0 >> 32) + (mid1 >> 32) + carry
    y0 = low + ((mid0 + mid1) << 32)  # mod 2**64
    z = (y0 >> 1) + x
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal ``(f, k)``, value ``f * 10**k``, of finite non-zero
    float64 bit patterns (the sign bit is ignored)."""
    signed = bits.view(np.int64)
    bq = (signed >> 52) & 0x7FF
    t = signed & ((1 << 52) - 1)
    c = (t | (np.minimum(bq, 1) << 52)).view(np.uint64)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)  # 2**q is the spacing above, 2**(q-1) below
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at irregular spacing
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)
    g = [np.take(table, k - _K_MIN) for table in _tables()[:4]]
    cb = c << 2
    vb = _rop(*g, cb << h)
    vbl = _rop(*g, (cb - 2 + irregular) << h) + (c & 1)  # an odd c excludes the bounds
    vbr = _rop(*g, (cb + 2) << h) - (c & 1)
    s = vb >> 2
    # one digit shorter: u' = 10 floor(s / 10) or w' = u' + 10, if only one is inside
    sp = s // 10 * 10
    up_in, wp_in = vbl <= sp << 2, (sp + 10) << 2 <= vbr
    shorter = (s >= 10) & (up_in != wp_in)
    # else u = s or w = s + 1: the one inside, or the closer, or the even on a tie
    u_in, w_in = vbl <= s << 2, (s + 1) << 2 <= vbr
    mid = (2 * s + 1) << 1
    pick_u = np.where(u_in != w_in, u_in, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(shorter, np.where(up_in, sp, sp + 10), np.where(pick_u, s, s + 1))
    return f, k


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr`` of each finite value of a 1-D float64 array, as ASCII rows.

    Returns a uint8 matrix with one row per value: the value's text with
    zero bytes before, inside and after it.
    """
    digits4, zeros4, before, after, marks, end = _tables()[4:]
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

    # the 24 digits of f, right-aligned, in columns 0 to 23: 0000 and five quads
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
    left = np.zeros((len(v), 32), np.uint8)
    words = left.view(np.uint32)
    words[:, 0] = digits4[0]
    tz = 0  # trailing zero digits of f
    for i, (quad, zeros) in enumerate(zip(np.take(digits4, quads), np.take(zeros4, quads))):
        words[:, 1 + i] = quad
        tz = np.where(zeros == 4, tz + 4, zeros)
    right = np.empty_like(left)  # shifted one column right, for the digits after the point
    right.ravel()[1:] = left.ravel()[:-1]
    right.ravel()[:1] = 0

    # mantissa: the digits before the point, the point and the digits after
    # it up to the last non-zero one; positional text keeps one digit after
    # the point ("1.0"), scientific text drops a point with none ("1e+16")
    point = _MANTISSA - 1 - frac
    last = np.where(tz < frac, _MANTISSA - 1 - tz, np.where(sci, point - 1, point + 1))
    text = left & np.take(before, point * 18 + whole, axis=0)
    text |= right & np.take(after, point, axis=0)
    text |= np.take(marks, (point * 18 + whole) * 2 + (bits >> 63).astype(np.intp), axis=0)
    text &= np.take(end, last, axis=0)
    first = (point - whole - 1).min(initial=_MANTISSA)
    if not sci.any():
        return text[:, first : last.max(initial=0) + 1]
    # exponent, columns 25 to 29: "e", its sign, three digits of which a
    # leading zero is dropped
    e = np.abs(exp)
    tail = np.take(digits4.view("<u4"), e).astype("<u8") & 0xFFFFFF00
    tail = tail << 16 | np.where(exp < 0, ord("-"), ord("+")).astype("<u8") << 16 | 0x6500
    tail &= np.where(e >= 100, ~0, ~(0xFF << 24)).astype("<u8")
    text.view("<u8")[:, 3] |= tail * sci
    return text[:, first : _MANTISSA + 5]
