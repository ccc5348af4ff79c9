"""``float.__repr__`` text for whole float64 arrays, in integer NumPy operations.

Each value becomes four little-endian ``uint64`` words that hold its
``repr`` text with zero bytes as padding, so a caller lays out many values
(and its own separators) in one word array and compacts the text with one
nonzero mask.

**Shortest digits.** Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the digit search of Java's ``DoubleToDecimal``), which finds
the shortest decimal in the rounding interval of each value, as Ryu does
(U. Adams, *PLDI* 2018), and the one closest to it when two are as short,
ties to the even one: the digits David Gay's shortest mode gives Python.
For ``v = c 2^q`` it takes ``k = floor(log10 2^q)``, or ``floor(log10(3/4
2^q))`` where ``c = 2^52`` and the interval is irregular (the power of two
has half the gap below), and scales ``4c`` and the interval bounds
``4c -+ 2`` (``4c - 1`` below an irregular power) by ``10^-k``.  The powers
of ten are Giulietti's 126-bit ``g = floor(10^e 2^-r) + 1``, held as two
63-bit limbs; each scaled value is the 127-bit shift of a 64 x 126-bit
product, formed from 32-bit halves and rounded to odd.  The bounds are
inclusive where ``c`` is even.  Only the shortest digits are sought: there
is no two-digit minimum, which no normal value needs.  Subnormals are left
to ``repr`` itself (:func:`_repr_words`).

**Digits to text.** The digits, scaled by a power of ten to 17, become
three SWAR words (several decimal digits packed into one 64-bit word, split
by multiply-and-shift), first digit in the low byte.  Trailing zeros stay
zero bytes; every other digit gets its ASCII offset.

**Layout** (Python's ``repr``, for decimal exponent ``E``): positional for
``-4 <= E < 16``, ``0.000ddd`` below 1, and ``.0`` after an integral
value; ``d.ddde+XX`` otherwise, with at least two exponent digits and no
point for one digit.  The point goes in by shifting the digit words one
byte from its position on; a ``0`` ORed into the byte after it is lost on
a digit and makes ``.0`` on a padding byte.  Zeros, infinities and NaN are
constant words.

Every constant is an explicit ``np.uint64``, so no mixed-type operation
turns to float64 under NumPy 1.x promotion, and the only floating-point
step is reading the bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repr_words", "text_words"]

_U = np.uint64
WORDS = 4  # per value; byte 7 of the last word is always zero
BATCH = 4096  # values per call of the sweep writer: larger arrays ran slower per value
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_MASK64 = 2**64 - 1
_B01, _B7F, _B80 = (_U(0x0101010101010101 * b) for b in (1, 0x7F, 0x80))
_C30 = _U(0x30)


def _flog10pow2(q):
    return (q * 661971961083) >> 41


def _flog10_three_quarters_pow2(q):
    return (q * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    return (e * 913124641741) >> 38


def _word(text: str, shift: int = 0) -> int:
    return int.from_bytes(text.encode("ascii"), "little") << 8 * shift


def _powers_of_ten() -> np.ndarray:
    """``g`` for ``10^e``, ``e`` in ``[-292, 324]``: its limbs ``g1 = g >>
    63`` and ``g0 = g mod 2^63`` and their 32-bit halves, shape ``(6,
    617)``."""
    g, power = [], 1
    for e in range(-1, -293, -1):
        power *= 10
        g.append((1 << 125 - _flog2pow10(e)) // power + 1)
    g.reverse()
    power = 1
    for e in range(325):
        r = _flog2pow10(e) - 125
        g.append((power << -r if r < 0 else power >> r) + 1)
        power *= 10
    g1 = np.array([x >> 63 for x in g], dtype="<u8")
    g0 = np.array([x & (2**63 - 1) for x in g], dtype="<u8")
    return np.array([g1, g0, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32])


_G = _powers_of_ten()
_E_OFFSET = 330  # column of decimal exponent E in the layout table


def _binary_table() -> np.ndarray:
    """Per biased exponent, and again from column 2048 for a zero fraction
    (an irregular interval from biased exponent 2 on): the six words of
    ``g`` for ``10^-k``, the shifts of ``c`` to ``cp`` and of ``g`` to the
    upper and lower bounds, and the layout column of ``E = k + 16``."""
    biased = np.arange(4096) % 2048
    irregular = (np.arange(4096) >= 2048) & (biased > 1)
    q = biased - 1075
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = q + _flog2pow10(-k) + 2
    shifts = [h + 2, h + 1, h + 1 - irregular, k + _E_OFFSET + 16]
    return np.concatenate([_G[:, 292 - k], np.array(shifts, dtype="<u8")])


_BINARY = _binary_table()


def _layout_table() -> np.ndarray:
    """Per decimal exponent ``E``, the words that place the 17 digits: the
    prefix (byte 0 left for the sign), the exponent text (from byte 2 of
    the last word), the masks of the digit bytes before the point in the
    first two digit words, the point with a ``0`` after it in the three
    words after the shift, and the bytes of the point and ``0`` in the
    first word, which a one-digit exponent form drops."""
    e = np.arange(-_E_OFFSET, _E_OFFSET + 1)
    mag = np.abs(e).astype(_U)
    h, t, u = (mag // _U(100)) + _C30, (mag // _U(10)) % _U(10) + _C30, mag % _U(10) + _C30
    digits = np.where(mag >= _U(100), h | (t << _U(8)) | (u << _U(16)), t | (u << _U(8)))
    sign = np.where(e < 0, _U(ord("-")), _U(ord("+")))
    table = np.zeros((len(e), 8), dtype="<u8")
    table[:, 1] = (_U(ord("e")) | (sign << _U(8)) | (digits << _U(16))) << _U(16)
    table[:, 2] = 0xFF  # one digit before the point
    table[:, 4] = _word(".0", 1)
    table[:, 7] = 0xFFFF00
    for row in range(_E_OFFSET - 4, _E_OFFSET + 16):  # positional
        p = max(row - _E_OFFSET + 1, 0)  # digits before the point
        low, marks = (1 << 8 * p) - 1, _word(".0", p) if p else 0
        prefix = _word("0." + "0" * (_E_OFFSET - row - 1), 1) if p == 0 else 0
        dots = ((marks >> 64 * i) & _MASK64 for i in range(3))
        table[row] = (prefix, 0, low & _MASK64, low >> 64, *dots, 0)
    return table.T.copy()


_LAYOUT = _layout_table()


def _mul(a_hi, a_lo, b_hi, b_lo):
    """The 128-bit product of ``a`` and ``b`` given as 32-bit halves, as
    ``(high word, low word)``."""
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _U(32)) + (lh & _M32) + (hl & _M32)
    high = a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    return high, (mid << _U(32)) | (ll & _M32)


def _round_to_odd(x1, y1, y0):
    """``cp g / 2^127`` rounded to odd (Giulietti's ``rop``) from ``y = g1
    cp`` and the high word ``x1`` of ``g0 cp``."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shifted(products, g, shift, sign):
    """:func:`_round_to_odd` at ``cp + sign 2^shift`` from the products at
    ``cp``: each 128-bit product gains or loses its limb of ``g`` shifted
    left by ``shift``, with the carry."""
    x1, x0, y1, y0 = products
    rshift = _U(64) - shift
    moved = []
    for high, low, limb in ((x1, x0, g[1]), (y1, y0, g[0])):
        d_low, d_high = limb << shift, limb >> rshift
        if sign > 0:
            new_low = low + d_low
            moved += [high + d_high + (new_low < low).astype(_U), new_low]
        else:
            new_low = low - d_low
            moved += [high - d_high - (new_low > low).astype(_U), new_low]
    return _round_to_odd(moved[0], moved[2], moved[3])


def _shortest(bits, biased):
    """The shortest digits ``f`` of each normal value, the closest where
    two are as short, and its column of :data:`_BINARY` (Schubfach)."""
    fraction = bits & _U(2**52 - 1)
    column = (biased | ((fraction == _U(0)).astype(_U) << _U(11))).astype(np.intp)
    t = _BINARY.take(column, axis=1)
    cp = (fraction | _U(2**52)) << t[6]
    b_hi, b_lo = cp >> _U(32), cp & _M32
    x1, x0 = _mul(t[4], t[5], b_hi, b_lo)
    y1, y0 = _mul(t[2], t[3], b_hi, b_lo)
    products = (x1, x0, y1, y0)
    vb = _round_to_odd(x1, y1, y0)
    # The bounds c -+ 1/2 (c - 1/4 below an irregular power), inclusive
    # where c is even.
    out = bits & _U(1)
    vbl = _shifted(products, t, t[8], -1) + out
    vbr = _shifted(products, t, t[7], 1) - out
    s = vb >> _U(2)
    # One digit fewer: at most one multiple of 10^(k+1) lies in the interval.
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    # Otherwise s or s + 1, the closer where both lie in it, ties to even:
    # s is closer where vb mod 8 (the parity of s, then the remainder) is
    # 0, 1, 2, 4 or 5.
    s4 = vb & ~_U(3)
    uin = vbl <= s4
    win = s4 + _U(4) <= vbr
    closer = ((_U(0x37) >> (vb & _U(7))) & _U(1)).astype(bool)
    f = s + (~(uin & (~win | closer))).astype(_U)
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + _U(10)), f)
    return f, t[9]


def _swar8(x):
    """The eight decimal digits of each ``x < 10^8`` as byte values, the
    first in the low byte."""
    hi = (x * _U(109951163)) >> _U(40)  # x // 10^4
    merged = hi | ((x - hi * _U(10000)) << _U(32))
    div100 = ((merged * _U(10486)) >> _U(20)) & _U(0x7F0000007F)
    pairs = ((merged - div100 * _U(100)) << _U(16)) | div100
    div10 = ((pairs * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return ((pairs - div10 * _U(10)) << _U(8)) | div10


def _smear(x):
    """Nonzero in every byte at or below the highest nonzero byte of ``x``."""
    x = x | (x >> _U(8))
    x |= x >> _U(16)
    return x | (x >> _U(32))


def _ascii(digits, significant):
    """The digit bytes with ``'0'`` added where ``significant`` is nonzero."""
    return digits | ((((significant + _B7F) & _B80) >> _U(7)) * _C30)


def _special_words(bits):
    """Words of zeros, infinities and NaN as constants, and of subnormals
    by ``repr``."""
    sign = (bits >> _U(63)) * _U(ord("-"))
    magnitude = bits & _M63
    first = np.where(magnitude == _U(0), _U(_word("0.0", 1)), _U(_word("inf", 1)))
    first = np.where(magnitude > _U(0x7FF0000000000000), _U(_word("nan", 1)), first | sign)
    words = np.zeros((len(bits), WORDS), dtype="<u8")
    words[:, 0] = first
    sub = np.flatnonzero((magnitude != _U(0)) & (magnitude < _U(2**52)))
    if len(sub):
        texts = _repr_words(bits[sub].view("<f8"))
        words[sub, : texts.shape[1]] = texts
    return words


def _repr_words(values) -> np.ndarray:
    """:func:`text_words` of each value's ``repr``, one value at a time."""
    return text_words(map(repr, values.tolist()))


def text_words(texts) -> np.ndarray:
    """ASCII ``texts`` as rows of little-endian ``uint64`` words, padded with
    zero bytes to the longest."""
    texts = [text.encode("ascii") for text in texts]
    width = -(-max(map(len, texts)) // 8) * 8
    raw = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(raw, dtype="<u8").reshape(len(texts), -1)


def repr_words(x) -> np.ndarray:
    """The ``repr`` text of every value of the float64 array ``x``
    (flattened), as ``(x.size, 4)`` little-endian ``uint64`` words: the text
    bytes in order, with zero bytes among and after them.  Byte 7 of the
    last word is always zero.  One pass: its temporaries take about 300
    bytes a value, so the sweep writer passes :data:`BATCH` at a time."""
    bits = np.ascontiguousarray(x, dtype="<f8").ravel().view("<u8")
    biased = (bits >> _U(52)) & _U(0x7FF)
    special = biased - _U(1) >= _U(0x7FE)  # 0 or 0x7FF
    any_special = special.any()
    normal = bits
    if any_special:
        normal = np.where(special, _U(0x3FF0000000000000), bits)  # 1.0
        biased = np.where(special, _U(0x3FF), biased)
    f, column = _shortest(normal, biased)
    short = f < _U(10**16)
    f = np.where(short, f * _U(10), f)  # 17 digits
    layout = _LAYOUT.take((column - short.astype(_U)).astype(np.intp), axis=1)
    top = f // _U(10**9)
    rest = f - top * _U(10**9)
    mid = rest // _U(10)
    x0, x1, x2 = _swar8(top), _swar8(mid), rest - mid * _U(10)  # D1-D8, D9-D16, D17
    sig1 = _smear(x1 | (x2 << _U(56)))
    sig0 = _smear(x0 | (sig1 << _U(56)))
    low0, low1 = layout[2], layout[3]
    x0 = _ascii(x0, sig0 | (low0 & _B01))
    x1 = _ascii(x1, sig1 | (low1 & _B01))
    x2 = _ascii(x2, x2)
    l0, l1 = x0 & low0, x1 & low1
    h0, h1 = x0 ^ l0, x1 ^ l1
    words = np.empty((len(bits), WORDS), dtype="<u8")
    words[:, 0] = layout[0] | ((bits >> _U(63)) * _U(ord("-")))
    # Only the first digit is nonzero: an exponent form then drops its point.
    single = (sig0 >> _U(8)) == _U(0)
    words[:, 1] = (l0 | (h0 << _U(8)) | layout[4]) & ~(layout[7] * single.astype(_U))
    words[:, 2] = l1 | (h1 << _U(8)) | (h0 >> _U(56)) | layout[5]
    words[:, 3] = (x2 << _U(8)) | (h1 >> _U(56)) | layout[6] | layout[1]
    if any_special:
        words[special] = _special_words(bits[special])
    return words
