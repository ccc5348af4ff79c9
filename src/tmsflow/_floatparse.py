"""Python ``float`` of every token in a block of sample lines, in NumPy operations.

The inverse of :mod:`tmsflow._floatrepr`: :func:`rows` reads a block of
lines of four comma-separated decimal tokens and gives the ``(L, 4)``
float64 array whose entries are bit for bit what Python's correctly rounded
``float`` gives for each token, or ``None`` where the block is not in that
plain form or holds a value that is not finite.

**Plain form.** Every byte is one of ``0-9 + - . e E , \\n``, a space or
a tab, every line holds exactly three commas and ends with a newline (or
``\\r\\n``), and every token is a Python float literal over that
alphabet, ``[+-]? (d+ [. d*] | . d+) ([eE] [+-]? d+)?``, with spaces and
tabs before or after it.  Other whitespace, comments, headers, digit
underscores, other line boundaries and non-ASCII text are the caller's to
remove or refuse.

**Grammar.** The non-digit bytes (events) are found once, a run of spaces
and tabs counting as one.  Each event is checked against the two events
before it and whether digits lie between them, by one table lookup
(:data:`_ALLOWED`): a sign only opens a mantissa or follows an ``e``, a
token has at most one point and one exponent and at least one digit in
each part, and padding only leads or ends a token.  A padded block is then
read with its spaces and tabs deleted.  The line structure comes from the
separators alone: commas and newlines alternate as ``, , , \\n`` on every
line.

**Digits.** Each token is the decimal ``M 10^k``.  With the points and
signs deleted and every ``e`` and newline made a comma, one
``np.fromstring(..., dtype=uint64, sep=",")`` reads every mantissa and
every exponent with NumPy's C integer parser; a mantissa of 10^19 or more
is out of range or saturates, and is read by ``float``.  A token's sign is
its first byte, so ``-0`` keeps it, and an exponent's sign is the byte
after its ``e``.  ``k`` is the exponent less the digits after the point.
Only digits follow a point, so a token's point, where it has one, is the
event just before the end of its mantissa field, and those digits lie
between the two.

**Scaling** (Clinger, *PLDI* 1990, widened with Dekker's exact product,
*Numer. Math.* 18, 224 (1971)).  Every token takes one path.  M is ``hi =
fl(M)`` plus the exact integer ``lo = M - hi``.  The quotient ``q = fl(hi
/ d)`` by the divisor ``d = fl(10^-k)`` (1 for ``k >= 0``) is corrected
by the residual ``M - q 10^-k``: ``hi - q d``, exact by Dekker's
TwoProduct, plus ``lo``, less ``q r`` for the divisor's remainder ``r =
10^-k - d``.  For ``-44 <= k <= 22``, ``10^-k`` is ``d + r`` exactly with
``r`` a double (0 from ``k = -22`` on; 5^44 has 103 bits), and ``q r``
rounds by about 2^-54 of a spacing.  The rounded result ``y`` is kept
where ``x - y``, known to about 2^-49 of a spacing, lies inside half the
spacing below ``y`` by a margin of 2^-40 of it; a quotient that is
already correctly rounded, as for ``M <= 2^53`` and ``k >= -22``, stays.
For ``k >= 0``, ``y`` is multiplied by the exact ``10^k``, one more
rounding, so it is kept only for ``M <= 2^53``.  A token left over (near
a tie, ``k`` outside -44 to 22, a wider M with ``k >= 0``, or M from
10^19 on) is read by one float64 ``np.fromstring`` of the leftover tokens'
bytes, gathered with their separators, which calls the same correctly
rounded routine as ``float``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rows"]

_U = np.uint64
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
_FIELDS = bytes.maketrans(b"\neE", b",,,")  # a comma ends every integer field
_NL, _COMMA, _MINUS = ord("\n"), ord(","), ord("-")
_LINE = np.frombuffer(b",,,\n", dtype=np.uint8)  # the separators of a line
_M_LIMIT = _U(10**19)  # every M below it has at most 19 digits, exactly parsed
_EXACT = _U(2**53)  # every M up to it is an exact double
_MAX_POWER = 22  # 10^22 is the largest exact power of ten
_MIN_POWER = 44  # 10^44 is exact as fl(10^44) plus a double
_EXPONENT_BITS = _U(0x7FF0000000000000)
_HALF_SPACING = 2.0**-53 * (1.0 - 2.0**-40)  # of 2^e, less the tie margin
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as ``hi + lo``, each of at most 26 significant bits (Dekker)."""
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


# Columns j = k + 44 for k = -44 .. 22, rows: the divisor fl(10^-k) (1 from
# k = 0 on), split in two, its exact remainder 10^-k - fl(10^-k) (0 from
# k = -22 on; 5^44 has 103 bits, so it has at most 50), and the multiplier
# 10^k (1 below k = 0).
_K = range(-_MIN_POWER, _MAX_POWER + 1)
_TENS = [10 ** max(-k, 0) for k in _K]  # 10^-k as integers
_DIVISOR = np.array([float(t) for t in _TENS])  # correctly rounded
_POWERS = np.array([
    _DIVISOR,
    *_split(_DIVISOR),
    [float(t - int(d)) for t, d in zip(_TENS, _DIVISOR.tolist())],
    [10.0 ** max(k, 0) for k in _K],
])

# Event classes of the non-digit bytes, even numbers: an event's code is its
# class plus 1 where digits lie before it.  A pad is a run of spaces and tabs.
_SEP, _EXP, _SIGN, _DOT, _PAD, _BAD = range(0, 12, 2)
_CLASS = np.full(256, _BAD, dtype=np.int16)
_CLASS[[_COMMA, _NL]] = _SEP
_CLASS[[ord("+"), _MINUS]] = _SIGN
_CLASS[ord(".")] = _DOT
_CLASS[[ord("e"), ord("E")]] = _EXP
_CLASS[[ord(" "), ord("\t")]] = _PAD
_SIGNS = np.ones(256)  # of a token, by its first byte
_SIGNS[_MINUS] = -1.0


def _allowed(c2: int, c1: int, c0: int, digits1: bool, digits0: bool) -> bool:
    """Whether event ``c0`` may follow events ``c2``, ``c1`` in a token,
    with ``digits1`` telling whether digits lie between c2 and c1 and
    ``digits0`` between c1 and c0."""
    if _BAD in (c1, c0):
        return False
    # A pad right after a separator leads a token, as the separator would;
    # any other pad ends it, and only a separator follows.
    if c1 == _PAD:
        if c2 != _SEP or digits1:
            return c0 == _SEP and not digits0
        c1 = _SEP
    if c0 == _PAD:
        if c1 == _SEP and not digits0:
            return True
        c0 = _SEP
    if c2 == _PAD:
        c2 = _SEP
    if c0 == _SIGN:  # opens the mantissa or the exponent
        return c1 in (_SEP, _EXP) and not digits0
    opens_mantissa = c1 == _SEP or (c1 == _SIGN and c2 == _SEP)
    if c0 == _DOT:
        return opens_mantissa
    if c1 == _DOT:  # a digit on either side of the point
        return digits0 or digits1
    if c0 == _EXP:  # closes a mantissa, not an exponent
        return opens_mantissa and digits0
    return digits0


# Indexed by the codes of three events in a row.
_CODES = _BAD + 2
_ALLOWED = np.array([
    _allowed(c2 & ~1, c1 & ~1, c0 & ~1, bool(c1 & 1), bool(c0 & 1))
    for c2 in range(_CODES) for c1 in range(_CODES) for c0 in range(_CODES)
])


def _corrected(m: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``M / 10^-k`` rounded to the nearest double, from the columns of
    :data:`_POWERS` for k, and whether no rounding tie lies within reach of
    the residual's error."""
    divisor, d_hi, d_lo, remainder, _ = powers
    hi = m.astype(np.float64)
    lo = (m - hi.astype(_U)).view(np.int64).astype(np.float64)  # exact below 10^19
    q = hi / divisor
    q_hi, q_lo = _split(q)
    p = q * divisor
    e = ((q_hi * d_hi - p) + q_hi * d_lo + q_lo * d_hi) + q_lo * d_lo  # p + e = q divisor
    # the residual M - q 10^-k, rounded only in q times the remainder, over
    # the divisor
    c = ((((hi - p) - e) + lo) - q * remainder) / divisor
    y = q + c
    # x - y is (q - y) + c, q - y exact (Sterbenz); half the spacing below y
    # is 2^-53 times 2^e of the double just below y, which is no more than
    # half the spacing above.
    half = ((y.view(_U) - _U(1)) & _EXPONENT_BITS).view(np.float64) * _HALF_SPACING
    return y, np.abs((q - y) + c) <= half


def _scaled(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``M 10^k`` rounded to the nearest double, and where that is proven:
    ``-44 <= k <= 22``, ``M < 10^19``, no rounding tie within reach of the
    residual's error, and ``M <= 2^53`` for ``k >= 0``, where the product
    rounds once more."""
    j = k + _MIN_POWER
    exact = (j.view(_U) <= _MIN_POWER + _MAX_POWER) & (m < _M_LIMIT)
    powers = _POWERS.take(np.where(exact, j, _MIN_POWER), axis=1)
    m = np.minimum(m, _M_LIMIT)
    y, clear = _corrected(m, powers)
    exact &= clear & ((k < 0) | (m <= _EXACT))
    y *= powers[4]  # exact below k = 0; one rounding of M 10^k from it on
    return y, exact


def rows(text: str) -> np.ndarray | None:
    """The ``(L, 4)`` floats of a block of plain lines (the module
    docstring), each entry Python's ``float`` of its token bit for bit;
    ``None`` where the block is not plain or a value is not finite.  A line
    may end in ``\\r\\n``, and the last one may lack its newline."""
    try:
        b = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if not b:
        return np.empty((0, 4))
    if b[-1] != _NL:
        b += b"\n"
    if b"\r" in b:  # a lone carriage return stays, and is refused
        b = b.replace(b"\r\n", b"\n")
    return _rows(b)


def _rows(b: bytes) -> np.ndarray | None:
    """:func:`rows` of the bytes of a block that ends in a newline."""
    a = np.frombuffer(b, dtype=np.uint8)
    events = np.flatnonzero((a - np.uint8(48)) > 9)  # the bytes that are not digits
    cls = _CLASS.take(a.take(events))
    # Each event after the two before it; a block opens as after two separators.
    codes = np.zeros(len(events) + 2, dtype=np.int16)
    codes[2] = cls[0] + (events[0] > 0)
    np.add(cls[1:], events[1:] - events[:-1] > 1, out=codes[3:])
    padded = (cls == _PAD).any()
    if padded:  # one event for each run of pads
        codes = np.concatenate((codes[:3], codes[3:][(codes[3:] != _PAD) | (cls[:-1] != _PAD)]))
    if not _ALLOWED.take((codes[:-2] * _CODES + codes[1:-1]) * _CODES + codes[2:]).all():
        return None
    if padded:  # the pads only lead or end tokens
        return _rows(b.translate(None, b" \t"))
    fields = np.flatnonzero(cls <= _EXP)  # the events that end an integer field
    exponent = cls.take(fields) == _EXP  # a mantissa field before an exponent field
    last = np.flatnonzero(~exponent) if exponent.any() else slice(None)  # of each token
    ends = events.take(fields[last])
    if len(ends) % 4 or (a.take(ends).reshape(-1, 4) != _LINE).any():
        return None

    # One integer field per mantissa and per exponent, signs and points
    # deleted: by the grammar each is a run of digits, so np.fromstring
    # reads every one (one beyond 2^64 - 1 saturates there).
    ints = np.fromstring(b[:-1].translate(_FIELDS, b".+-"), dtype=_U, sep=",")
    k, mantissa = 0, slice(None)  # the field of each token's mantissa
    if len(ends) < len(fields):
        has_exp = exponent.take(last - 1)  # field -1 is the block's last, not an exponent
        mantissa = last - has_exp
        value = np.where(has_exp, np.minimum(ints.take(last), _U(10**6)), _U(0)).astype(np.int64)
        sign = a.take(events.take(fields.take(last - 1)) + 1, mode="clip")  # after an "e"
        k = np.where(sign == _MINUS, -value, value)  # beyond 10^6, read by float
    m, before = ints[mantissa], fields[mantissa] - 1  # a token's point, if any
    point = cls.take(before, mode="clip") == _DOT  # clipped, event 0 is no point
    k = k + np.where(point, events.take(before, mode="clip") + 1 - events.take(before + 1), 0)
    y, exact = _scaled(m, k)
    starts = np.concatenate(([0], ends[:-1] + 1))
    y *= _SIGNS.take(a.take(starts))
    inexact = np.flatnonzero(~exact)
    if len(inexact):  # their bytes, each with the separator after it, read at once
        first = starts.take(inexact)
        sizes = ends.take(inexact) + 1 - first
        offsets = np.repeat(first - (np.cumsum(sizes) - sizes), sizes)  # of each gathered byte
        text = a.take(np.arange(len(offsets)) + offsets).tobytes()
        values = np.fromstring(text[:-1].translate(_NEWLINE_TO_COMMA), sep=",")  # float literals
        if not np.isfinite(values).all():
            return None
        y[inexact] = values
    return y.reshape(-1, 4)
