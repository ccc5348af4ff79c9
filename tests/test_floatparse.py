"""The block reader of sample files gives Python's ``float`` bit for bit."""

from __future__ import annotations

import io
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from tmsflow import _floatparse, tomography
from tmsflow.tomography import samples_from_csv

TOKENS = 200_000
FORMATS = ["%r", "%.17g", "%.18e", "%.15e", "%.10f"]


def _parsed(tokens: list[str]) -> np.ndarray:
    """The tokens, four to a line, read by ``rows`` in blocks of up to 64k
    characters, each of which must be plain."""
    tokens = tokens + ["0"] * (-len(tokens) % 4)
    lines = [",".join(tokens[i : i + 4]) + "\n" for i in range(0, len(tokens), 4)]
    out, block, size = [], [], 0
    for line in lines + [None]:
        if line is None or size + len(line) > 1 << 16:
            rows = _floatparse.rows("".join(block))
            assert rows is not None, "".join(block)[:200]
            out.append(rows.ravel())
            block, size = [], 0
        if line is not None:
            block.append(line)
            size += len(line)
    return np.concatenate(out)[: len(tokens)]


def _assert_floats(tokens: list[str]) -> None:
    got = _parsed(tokens)[: len(tokens)]
    want = np.array([float(t) for t in tokens])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not len(bad), [(tokens[i], got[i], want[i]) for i in bad[:5]]


def _bit_patterns(rng: np.random.Generator, bound: float) -> np.ndarray:
    """Doubles of uniformly random bits, below ``bound`` in magnitude."""
    values = rng.integers(0, 2**64 - 1, 4 * TOKENS, dtype=np.uint64, endpoint=True).view(float)
    return values[np.abs(values) < bound][:TOKENS]


def _normals(rng: np.random.Generator, bound: float) -> np.ndarray:
    """Normal deviates scaled by 10^-6 to 10^6."""
    return rng.standard_normal(TOKENS) * 10.0 ** rng.uniform(-6, 6, TOKENS)


def _small_normals(rng: np.random.Generator, bound: float) -> np.ndarray:
    """Normal deviates scaled by 10^-30 to 10^-6, whose 17 to 19 digit
    tokens have ``k`` from about -50 to -22."""
    return rng.standard_normal(TOKENS) * 10.0 ** rng.uniform(-30, -6, TOKENS)


SOURCES = [_bit_patterns, _normals, _small_normals]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("source", SOURCES)
def test_random_values_match_float(source, fmt):
    rng = np.random.default_rng([FORMATS.index(fmt), SOURCES.index(source)])
    values = source(rng, 1e22 if fmt == "%.10f" else np.inf)  # fixed point at a bounded width
    assert len(values) == TOKENS
    _assert_floats([fmt % v for v in values.tolist()])


def _near_ties(rng: np.random.Generator, count: int) -> list[str]:
    """Decimals of 16 to 20 significant digits rounded from the exact
    midpoints between neighbouring doubles, on either side of them."""
    values = 10.0 ** rng.uniform(-8, 8, count)
    tokens = []
    for v, digits in zip(values.tolist(), rng.integers(16, 21, count).tolist()):
        mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
        for rounding in ("ROUND_FLOOR", "ROUND_CEILING"):
            quantum = Decimal(1).scaleb(mid.adjusted() - digits + 1)
            tokens.append(str(mid.quantize(quantum, rounding=rounding)))
    return tokens


def _exact_ties(rng: np.random.Generator, count: int) -> list[str]:
    """Exact midpoints between neighbouring doubles from 2^49 to 2^64, which
    have at most 19 significant digits, written with a point."""
    values = np.ldexp(1.0 + rng.random(count), rng.integers(49, 64, count))
    tokens = []
    for v, zeros in zip(values.tolist(), rng.integers(0, 3, count).tolist()):
        mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
        text = f"{mid:f}"
        tokens.append(text + ("." if "." not in text else "") + "0" * zeros)
    return [t for t in tokens if len(t.replace(".", "").lstrip("0")) <= 19]


def _lattice_points(n: int, s: int, bound: int) -> list[tuple[int, int]]:
    """Pairs ``(c, d)`` with ``2^s`` dividing ``c 5^n + d``, ``|d| < bound``
    and ``c`` within 2^52 of 1.5 2^53: the points of that lattice, ``d``
    scaled by ``2^52 / bound``, nearest the box's centre in a
    Lagrange-Gauss reduced basis."""
    b1, b2 = (bound, -(5**n % 2**s) << 52), (0, 2**s << 52)  # (c bound, d 2^52)
    dot = lambda u, v: u[0] * v[0] + u[1] * v[1]
    while True:
        if dot(b1, b1) > dot(b2, b2):
            b1, b2 = b2, b1
        mu = round(Fraction(dot(b1, b2), dot(b1, b1)))
        if not mu:
            break
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
    centre, det = 3 * 2**52 * bound, b1[0] * b2[1] - b1[1] * b2[0]
    a0, b0 = round(Fraction(centre * b2[1], det)), round(Fraction(-centre * b1[1], det))
    points = []
    for a in range(a0 - 6, a0 + 7):
        for b in range(b0 - 6, b0 + 7):
            c, d = (a * b1[0] + b * b2[0]) // bound, (a * b1[1] + b * b2[1]) >> 52
            if 2**53 <= c < 2**54 and abs(d) < bound:
                points.append((c, d))
    return points


def _hard_ties(per_case: int = 50) -> list[str]:
    """Decimals ``M e-n`` of 17 to 19 digits, ``M > 2^53``, that lie
    ``|d| 5^-n / 2`` of a spacing from a midpoint ``c 2^-(s+n)`` between
    doubles (odd ``c`` of 54 bits), on either side: ``2^s M = c 5^n + d``.
    For n = 12..22 ``d = -+1``; for n = 23..44, where such a ``c`` is
    seldom of 54 bits, ``|d| < 5^n 2^-44``, under 2^-45 of a spacing.
    Nearer to a tie than any random decimal of their length comes."""
    tokens = []
    for n in range(12, 23):
        for side in (1, -1):
            for s in range(20, 60):
                modulus = 1 << s
                c0 = side * pow(5**n, -1, modulus) % modulus  # c 5^n = side (mod 2^s)
                first = 2**53 + (c0 - 2**53) % modulus
                for c in range(first, min(2**54, first + per_case * modulus), modulus):
                    m = (c * 5**n - side) >> s
                    if 2**53 < m < 10**19:
                        tokens.append(f"{m}e-{n}")
    for n in range(23, 45):
        top = (5**n).bit_length()
        for s in range(top - 11, top + 1):  # M from 2^53 to 10^19
            for c, d in _lattice_points(n, s, 5**n >> 44):
                m = (c * 5**n + d) >> s
                if c % 2 and 2**53 < m < 10**19:
                    tokens.append(f"{m}e-{n}")
    return tokens


def test_decimals_at_and_near_rounding_ties_match_float():
    with localcontext() as ctx:
        ctx.prec = 60
        _assert_floats(_near_ties(np.random.default_rng(7), 20_000))
        _assert_floats(_exact_ties(np.random.default_rng(8), 20_000))
    _assert_floats(_hard_ties())


def _mantissas_and_exponents(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``M`` and ``k`` of each token ``M 10^k`` as the reader forms them."""
    parts = [Decimal(t).as_tuple() for t in tokens]
    m = [int("".join(map(str, p.digits))) for p in parts]
    return np.array(m, dtype=np.uint64), np.array([p.exponent for p in parts])


def test_the_tie_guard_leaves_exactly_the_near_ties_to_float():
    """Every corrected quotient is proven only where the token lies more
    than 2^-41 of a spacing from a tie.  The constructed tokens
    ``M e-n`` lie ``5^-n / 2`` of a spacing from one up to n = 22: 2^-40.5
    at n = 17, 2^-42.8 at n = 18; beyond, under 2^-45.  Exact ties are
    never proven, though rounding half to even would give their value
    anyway."""
    m, k = _mantissas_and_exponents(_hard_ties())
    exact = _floatparse._scaled(m, k)[1]
    assert m.min() > 2**53
    assert exact[k >= -17].all() and not exact[k <= -18].any()
    with localcontext() as ctx:
        ctx.prec = 60
        m, k = _mantissas_and_exponents(_exact_ties(np.random.default_rng(8), 2000))
    wide = (m > 2**53) & (k < 0)
    assert wide.sum() > 500
    assert not _floatparse._scaled(m[wide], k[wide])[1].any()


@pytest.mark.parametrize(
    "fmt, low, high",
    [("%.17g", 0, 0), ("%.15e", 0, 0), ("%.10f", 0, 0),
     ("%.17g", -20, -6), ("%.18e", -20, -6), ("%r", -20, -6)],
)
def test_tokens_away_from_ties_are_proven(fmt, low, high):
    """``_scaled`` proves every token of 10k normals times 10^U(low, high).
    Mantissas up to 2^53 take the corrected quotient too, which keeps the
    correctly rounded one; values from 1e-20 to 1e-6 have ``k`` from about
    -42 to -22, in the range of the double-double powers of ten.  Only a
    value below about 1e-26 (``k < -44``) or within 2^-41 of a spacing of
    a tie would be left over; these hold none."""
    rng = np.random.default_rng(9)
    values = rng.standard_normal(10_000) * 10.0 ** rng.uniform(low, high, 10_000)
    m, k = _mantissas_and_exponents([fmt % v for v in values.tolist()])
    assert _floatparse._scaled(m, k)[1].all()


EDGE_TOKENS = [
    # integers around 2^53, where a double holds every other one
    *(str(2**53 + d) for d in range(-3, 8)),
    *(f"{2**53 + d}e-{s}" for d in (1, 3, 5) for s in (1, 5, 22)),
    # 19- and 20-digit mantissas around 2^63, 10^19 and 2^64
    "9223372036854775807", "9223372036854775808", "9223372036854775809",
    "9999999999999999999", "10000000000000000000", "18446744073709551615",
    "18446744073709551616", "99999999999999999999", "123456789012345678901",
    "9.223372036854775807", "-9.999999999999999999e-1", "1.8446744073709551615e3",
    # the exponent range of exact powers of ten, and just beyond it
    "1e-22", "1e-23", "1234567890123456789e-22", "1234567890123456789e-23",
    "0.0000000000000000000001", "0.00000000000000000000001", "1.5e-22", "1.5e-23",
    "1e22", "1e23", "9007199254740993e1", "123e+5", "5E10", "1e0", "1E+022",
    # signs, zeros, points and leading zeros
    "0", "-0", "+0", "-0.0", "0.", "-.0", "0e5", "-0e-5", "+0E+0",
    "5.", ".5", "-.5", "+.5e-3", "-5.e2", "000123.4500", "-0000.5", "00e3", "007",
    # exponents of many digits, subnormals and the largest double
    "1e-0005", "1e+0000000000000000000000000000003", "1e-0000000000000000000022",
    "4.9e-324", "2.4703282292062328e-324", "1e-320", "2.2250738585072011e-308",
    "1.7976931348623157e308", "-1.7976931348623158e308",
]


def test_edge_tokens_match_float():
    _assert_floats(EDGE_TOKENS)


def test_negative_zero_keeps_its_sign():
    rows = _floatparse.rows("-0,-0.0,-.0e5,0\n")
    assert np.signbit(rows).tolist() == [[True, True, True, False]]


@pytest.mark.parametrize(
    "text",
    [
        "1,2,3\n", "1,2,3,4,5\n", "1,2,3,4,\n", ",1,2,3\n", "1,,2,3\n", "1,2,3,4\n\n",
        "e5,1,2,3\n", "1e,1,2,3\n", "1e+,1,2,3\n", "1.2.3,1,2,3\n", "-,1,2,3\n",
        ".,1,2,3\n", "-.,1,2,3\n", ".e1,1,2,3\n", "1e5e5,1,2,3\n", "1e5.5,1,2,3\n",
        "1e-.5,1,2,3\n", "1e+-5,1,2,3\n", "+-1,1,2,3\n", "1-2,1,2,3\n", "1.e,1,2,3\n",
        "1 2,3,4,5\n", "1,2,3,4\n \n", "1,2\r,3,4\n", "#,1,2,3\n", "nan,1,2,3\n",
        "inf,1,2,3\n", "1_0,1,2,3\n", "١,1,2,3\n", "0x1,1,2,3\n",
        "1e309,1,2,3\n", "-1e999,1,2,3\n", "1e999,1e999,1e999,-1e999\n",
    ],
)
def test_text_that_is_not_plain_or_finite_is_refused(text):
    assert _floatparse.rows(text) is None


def test_every_short_token_is_read_exactly_when_float_reads_it():
    """All tokens of up to six characters over ``1 . e + -`` (and ``0``,
    ``E``, a space and a tab up to four): the reader takes a token where
    ``float`` gives a finite value, with that value, and refuses it
    elsewhere."""
    tokens = [""]
    for alphabet, length in (("1.e+-", 6), ("10.eE+- \t", 4)):
        level = [""]
        for _ in range(length):
            level = [t + c for t in level for c in alphabet]
            tokens += level
    for token in dict.fromkeys(tokens):
        rows = _floatparse.rows(token + ",1,2,3\n")
        try:
            value = float(token)
        except ValueError:
            value = np.inf
        if np.isfinite(value):
            assert rows is not None and rows[0, 0].tobytes() == np.float64(value).tobytes(), token
        else:
            assert rows is None, token


def test_line_counts_are_checked_line_by_line():
    """A 5-field line then a 3-field line hold eight fields, as two lines of
    four do: the reader refuses the block and the scanner names line 1."""
    text = "1,2,3,4,5\n6,7,8\n"
    assert _floatparse.rows(text) is None
    with pytest.raises(ValueError, match="line 1: expected 4 columns, got 5"):
        samples_from_csv(text)


def test_empty_text_crlf_and_last_line_without_newline():
    assert _floatparse.rows("").shape == (0, 4)
    for text in (
        "1,2,3,4\n5,6,7,8", "1,2,3,4\r\n5,6,7,8\r\n", "1,2,3,4\r\n5,6,7,8\r", "1,2,3,4\r5,6,7,8\n"
    ):
        assert _floatparse.rows(text).tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_savetxt_default_format_skips_the_line_scanner(monkeypatch):
    """``numpy.savetxt``'s default ``%.18e`` (19 significant digits) is read
    by the block reader alone, with the same values as ``repr`` text."""

    def scan(lines):
        raise AssertionError("the line scanner ran")

    monkeypatch.setattr(tomography, "_float_rows", scan)
    values = np.random.default_rng(3).standard_normal((5000, 4))
    rows = "".join(",".join("%.18e" % v for v in row) + "\n" for row in values.tolist())
    parsed = samples_from_csv("I1,Q1,I2,Q2\n" + rows).data
    assert parsed.tobytes() == values.tobytes()


def test_padded_fields_are_read_as_the_scanner_reads_them():
    text = "I1, Q1, I2, Q2\n 1.5 ,\t-2e-3,+.5 ,  4\n# note\n\n5,6,7,8\n"
    expected = tomography._scan_samples(io.StringIO(text))
    assert samples_from_csv(text).data.tobytes() == expected.tobytes()
