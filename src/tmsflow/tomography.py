"""State reconstruction and Gaussianity checks from quadrature samples.

Ingests four-column sample streams (I1, Q1, I2, Q2), estimates the
two-mode covariance matrix with the unbiased sample covariance, and
tests Gaussianity through third- and fourth-order joint cumulants: for a
Gaussian state every cumulant beyond second order vanishes, so the state
passes when each estimated cumulant is statistically compatible with
zero.

Cumulants are estimated with k-statistics (the unique symmetric unbiased
estimators).  Their standard errors are taken empirically by splitting
the sample into batches, which stays honest for correlated columns where
plug-in Gaussian-null formulas would need the full cross-covariance
structure.  Samples are assumed pre-calibrated to photon units with
I mapping to q and Q mapping to p.

Sample files (:func:`samples_from_csv`, from their text or an open text
stream) are parsed as they are read, a block of lines at a time, so memory
follows the ``(N, 4)`` float array and not the text.  Their lines are
those ``str.splitlines`` gives for the whole text, and their grammar is:

* line 1 is a header, and skipped, when one of its comma-separated fields
  is a column name (``I1``, ``Q1``, ``I2``, ``Q2``, any case); a header on
  any other line is a malformed data line;
* blank lines and lines whose first non-blank character is ``#`` are
  skipped; a ``#`` after a value is not a comment;
* every other line holds four comma-separated finite values in Python
  ``float`` syntax, surrounding whitespace allowed;
* the first line that breaks these rules is named by its number in the
  ``ValueError``, and a file with no data line is refused.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, TextIO

import numpy as np

from .errors import DomainError, NonFiniteError, NumericalError, TooFewSamplesError
from .symplectic import VACUUM_VARIANCE, CovarianceMatrix, TwoModeCovariance, _williamson

COLUMN_NAMES = ("I1", "Q1", "I2", "Q2")

# Orders (m, n) of the joint cumulants tested for Gaussianity.
_HIGHER_ORDERS = [
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
    (4, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 4),
]

DEFAULT_THRESHOLD = 5.0  # standard errors
_BATCHES = 25
_MIN_BATCH = 40  # samples per batch: ten per cumulant order, up to the fourth
_TINY = np.finfo(float).tiny  # the smallest normal double


@dataclass(frozen=True)
class QuadratureSamples:
    """Equal-length sample columns in the order (I1, Q1, I2, Q2)."""

    data: np.ndarray  # shape (N, 4)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise TooFewSamplesError(
                f"samples must form an (N, 4) array, got shape {arr.shape}"
            )
        if arr.shape[0] < 2:
            raise TooFewSamplesError("need at least two samples")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("samples contain NaN or infinite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class CumulantEntry:
    """One estimated joint cumulant kappa_mn of a column pair."""

    pair: tuple[int, int]  # column indices (i, j)
    order: tuple[int, int]  # powers (m, n) on columns (i, j)
    value: float
    standard_error: float
    normalized: float  # value / sigma_i^m / sigma_j^n


@dataclass(frozen=True)
class CumulantReport:
    second_order: dict[str, float]
    entries: tuple[CumulantEntry, ...]
    gaussian: bool
    threshold: float


@np.errstate(all="ignore")  # an entry beyond the double range raises below
def covariance_from_samples(samples: QuadratureSamples) -> TwoModeCovariance:
    """Unbiased sample covariance mapped to (q1, p1, q2, p2) ordering.

    Entry ``[i, j]`` is ``n/(n-1)`` times the mean product of the centred
    columns i and j (:func:`_centred`), formed for ``i <= j`` and mirrored:
    the second-order k-statistic that :func:`cumulants` reports, bit for bit
    wherever the products of the unscaled columns are normal doubles.  No
    matrix product is involved, so the entries do not depend on the BLAS
    build.  Each centred column is scaled by a power of two first, which is
    exact, so no product overflows where the entry itself is a double; an
    entry beyond the double range raises :class:`NumericalError`.
    """
    d = _centred(samples.data)
    _, e = np.frexp(np.abs(d).max(axis=1))
    d = np.ldexp(d, -e[:, None])
    n = float(samples.n_samples)
    cov = np.empty((len(d), len(d)))
    for i in range(len(d)):
        cov[i, i:] = cov[i:, i] = n / (n - 1.0) * (d[i] * d[i:]).mean(axis=1)
    cov = np.ldexp(cov, e[:, None] + e[None, :])
    if not np.isfinite(cov).all():
        raise NumericalError("a sample covariance entry leaves the double range")
    return CovarianceMatrix(cov)


def project_to_physical(V: CovarianceMatrix) -> CovarianceMatrix:
    """Clamp the symplectic spectrum up to the Heisenberg bound.

    Finite-sample covariance estimates of nearly pure states routinely dip
    a few standard errors below nu = 1/4, which blocks the correlation
    formulas.  This projects onto the physical set by raising every
    symplectic eigenvalue to at least 1/4 in the Williamson basis of the
    symmetrised estimate (:func:`~tmsflow.symplectic._williamson`, the
    routine that validates states of three or more modes), the usual
    post-processing step between reconstruction and analysis; the
    perturbation is of the order of the statistical noise itself.  A
    symmetrised estimate that is not positive definite raises
    :class:`~tmsflow.errors.NumericalError`.
    """
    sym = 0.5 * (V.entries + V.entries.T)
    nus, s_mat = _williamson(sym)
    if nus.min() >= VACUUM_VARIANCE:
        return CovarianceMatrix(sym)
    clamped = np.repeat(np.maximum(nus, VACUUM_VARIANCE), 2)
    out = (s_mat * clamped) @ s_mat.T
    return CovarianceMatrix(0.5 * (out + out.T))


def _centred(block: np.ndarray) -> np.ndarray:
    """The columns of a sample block, less their means, as contiguous rows."""
    d = np.ascontiguousarray(block.T)
    return d - d.mean(axis=1, keepdims=True)


def _k_statistics(block: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Unbiased joint cumulant estimators k_mn (2 <= m + n <= 4) of the
    column pairs of a sample block: entry ``[i, j]`` has power m on column
    i and n on column j.

    Only the entries :func:`cumulants` reads are estimated: ``i <= j`` for
    k_11 and ``i < j`` for the other mixed orders; the rest are NaN.  The
    univariate orders fill every entry.  Central-moment formulas (Kendall &
    Stuart): third order scales m_mn by n^2/((n-1)(n-2)); fourth order
    combines (n+1) m_4-type terms with products of second-order moments.
    Each mixed moment is formed one leading column at a time, from row
    slices of the centred columns (``d``) and their squares; the third and
    fourth powers are formed where they are used.  Means run along a
    contiguous sample axis with no matrix product, so results do not depend
    on the BLAS build, and no gather copies a power of the columns.
    """
    n = float(block.shape[0])
    d = _centred(block)
    d2 = d * d

    def power(k: int, cols) -> np.ndarray:
        """The k-th power of the centred columns ``cols`` (an index or a slice)."""
        if k < 3:
            return (d, d2)[k - 1][cols]
        return d2[cols] * (d if k == 3 else d2)[cols]

    def m(p: int, q: int) -> np.ndarray:
        if q == 0:
            return power(p, slice(None)).mean(axis=1)[:, None]
        if p == 0:
            return power(q, slice(None)).mean(axis=1)[None, :]
        out = np.full((len(d), len(d)), np.nan)
        first = 0 if (p, q) == (1, 1) else 1  # the offset of column j from column i
        for i in range(len(d) - first):
            out[i, i + first :] = (power(p, i) * power(q, slice(i + first, None))).mean(axis=1)
        return out

    c3 = n * n / ((n - 1.0) * (n - 2.0))
    c4 = n * n / ((n - 1.0) * (n - 2.0) * (n - 3.0))
    m20, m02, m11 = m(2, 0), m(0, 2), m(1, 1)
    out = {
        (2, 0): n / (n - 1.0) * m20,
        (1, 1): n / (n - 1.0) * m11,
        (0, 2): n / (n - 1.0) * m02,
        (3, 0): c3 * m(3, 0),
        (2, 1): c3 * m(2, 1),
        (1, 2): c3 * m(1, 2),
        (0, 3): c3 * m(0, 3),
        (4, 0): c4 * ((n + 1.0) * m(4, 0) - 3.0 * (n - 1.0) * m20 * m20),
        (3, 1): c4 * ((n + 1.0) * m(3, 1) - 3.0 * (n - 1.0) * m20 * m11),
        (2, 2): c4 * ((n + 1.0) * m(2, 2) - (n - 1.0) * (m20 * m02 + 2.0 * m11 * m11)),
        (1, 3): c4 * ((n + 1.0) * m(1, 3) - 3.0 * (n - 1.0) * m02 * m11),
        (0, 4): c4 * ((n + 1.0) * m(0, 4) - 3.0 * (n - 1.0) * m02 * m02),
    }
    return {order: np.broadcast_to(k, m11.shape) for order, k in out.items()}


@np.errstate(all="ignore")  # a value beyond the double range raises below
def cumulants(
    samples: QuadratureSamples,
    threshold: float = DEFAULT_THRESHOLD,
) -> CumulantReport:
    """Joint cumulants of all column pairs with a Gaussianity verdict.

    The verdict is true iff every third- and fourth-order k-statistic
    stays below ``threshold`` batch-estimated standard errors in
    magnitude.  One :func:`_k_statistics` pass on the whole sample (which
    also gives the second-order entries) plus one per batch; each
    univariate cumulant is reported once, under its first pair.  A
    constant column has no normalized cumulants and raises
    :class:`DomainError`; samples so large or so small that a cumulant, the
    product of standard deviations it is normalized by, or its standard
    error leaves the range of normal doubles raise :class:`NumericalError`.
    A threshold that is not > 0 raises :class:`DomainError`.
    """
    if not threshold > 0.0:
        raise DomainError(f"threshold must be > 0, got {threshold!r}")
    if samples.n_samples < _MIN_BATCH:
        raise TooFewSamplesError(
            f"need at least {_MIN_BATCH} samples, got {samples.n_samples}"
        )
    data = samples.data
    constant = np.flatnonzero(data.min(axis=0) == data.max(axis=0))
    if constant.size:
        raise DomainError(f"column {COLUMN_NAMES[constant[0]]} is constant")
    n = samples.n_samples
    n_batches = max(2, min(_BATCHES, n // _MIN_BATCH))
    bounds = np.linspace(0, n, n_batches + 1, dtype=int)
    full = _k_statistics(data)
    batches = [_k_statistics(data[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    cov = full[(1, 1)]
    sigmas = np.sqrt(np.diag(cov))
    second: dict[str, float] = {}
    for i, j in [*combinations(range(4), 2), *((i, i) for i in range(4))]:
        second[f"{COLUMN_NAMES[i]}{COLUMN_NAMES[j]}"] = float(cov[i, j])

    entries: list[CumulantEntry] = []
    gaussian = True
    seen_univariate: set[tuple[int, int]] = set()
    spreads = {o: _spread(np.array([b[o] for b in batches])) for o in _HIGHER_ORDERS}
    for i, j in combinations(range(4), 2):
        for order in _HIGHER_ORDERS:
            m_i, m_j = order
            # Univariate cumulants appear once per column, not per pair.
            if m_i == 0 or m_j == 0:
                key = (i if m_j == 0 else j, m_i + m_j)
                if key in seen_univariate:
                    continue
                seen_univariate.add(key)
            se = float(spreads[order][i, j] / np.sqrt(n_batches))
            value = float(full[order][i, j])
            scale = sigmas[i] ** m_i * sigmas[j] ** m_j  # a normal double, or out of range
            norm = value / scale
            if not (_TINY <= scale < math.inf and math.isfinite(norm) and math.isfinite(se)):
                raise NumericalError(
                    f"cumulant of order {order} on ({COLUMN_NAMES[i]}, {COLUMN_NAMES[j]}) leaves "
                    f"the double range (value {value:.3g}, scale {scale:.3g}, error {se:.3g})"
                )
            entries.append(
                CumulantEntry(
                    pair=(i, j),
                    order=order,
                    value=value,
                    standard_error=se,
                    normalized=float(norm),
                )
            )
            if se == 0.0:
                if value != 0.0:
                    gaussian = False
            elif abs(value) >= threshold * se:
                gaussian = False
    return CumulantReport(
        second_order=second,
        entries=tuple(entries),
        gaussian=gaussian,
        threshold=threshold,
    )


def _spread(stack: np.ndarray) -> np.ndarray:
    """``np.std(stack, axis=0, ddof=1)``, bit for bit where that is finite,
    on values scaled by a power of two so that no square overflows."""
    _, e = np.frexp(np.abs(stack).max(axis=0))
    return np.ldexp(np.std(np.ldexp(stack, -e), axis=0, ddof=1), e)


def samples_from_csv(source: str | TextIO) -> QuadratureSamples:
    """Parse an I1,Q1,I2,Q2 table, given as its text or as an open, seekable
    text stream; raises ValueError naming the bad line.

    The data lines go through one NumPy C-level parse, fed chunk by chunk
    (:func:`_line_blocks`; a text through an :class:`io.StringIO`), so no
    copy of a stream's whole text is held and memory follows the ``(N, 4)``
    float array.  Where that parse rejects the input, or returns other than
    four columns or a non-finite value, the line-by-line
    :func:`_scan_samples` reads the source again from where it started: it
    accepts every text the Python ``float`` grammar allows
    (digit underscores and non-ASCII digits included, which the bulk parse
    refuses) and names the first bad line.  Both accept the same texts and
    give bit-identical arrays.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    start = source.tell()
    lines = _data_lines(source)
    first = next(lines, None)
    if first is not None:  # loadtxt warns on an input with no line
        try:
            rows = np.loadtxt(chain((first,), lines), delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a decode error too: the scanner meets it again
            pass
        else:
            if rows.shape[1] == 4 and np.isfinite(rows).all():
                return QuadratureSamples(rows)
    source.seek(start)
    return QuadratureSamples(_scan_samples(source))


_CHUNK = 1 << 16  # characters read at a time from a stream


def _line_blocks(source: TextIO) -> Iterator[list[str]]:
    """The lines of the stream ``source``, exactly as ``str.splitlines``
    splits its whole text, in blocks of about ``_CHUNK`` characters.

    Each block ends at a ``\\n`` (or the end), so no ``\\r\\n`` pair is
    split and every other boundary ``splitlines`` knows (``\\x0b``,
    ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``, a lone
    ``\\r``) splits lines as in the whole text.
    """
    while chunk := source.read(_CHUNK):
        if chunk[-1] != "\n":
            chunk += source.readline()
        yield chunk.splitlines()


def _data_lines(source: TextIO) -> Iterator[str]:
    """The stripped data lines of ``source``: the header on line 1, blank
    lines and ``#`` lines left out."""
    for k, block in enumerate(_line_blocks(source)):
        lines = [line.strip() for line in block]
        if k == 0 and lines and _is_header(lines[0].split(",")):
            lines[0] = ""
        yield from [line for line in lines if line and line[0] != "#"]


def _is_header(fields: list[str]) -> bool:
    """Whether line 1, split at its commas, is the header: one of its
    fields is a column name."""
    return any(t.strip().upper() in COLUMN_NAMES for t in fields)


def _scan_samples(source: TextIO) -> np.ndarray:
    """The samples grammar checked one line at a time with Python ``float``;
    raises ValueError naming the first bad line."""
    rows = []
    lines = chain.from_iterable(_line_blocks(source))
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split(",")
        if line_no == 1 and _is_header(toks):
            continue
        if len(toks) != 4:
            raise ValueError(f"line {line_no}: expected 4 columns, got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric entry") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"line {line_no}: non-finite entry")
    if not rows:
        raise ValueError("no data rows found")
    return np.array(rows)


def samples_to_csv(samples: QuadratureSamples) -> str:
    lines = [",".join(COLUMN_NAMES)]
    for row in samples.data:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _cumulant_report_doc(report: CumulantReport) -> dict:
    return {
        "gaussian": report.gaussian,
        "threshold": report.threshold,
        "second_order": report.second_order,
        "cumulants": [
            {
                "pair": [COLUMN_NAMES[e.pair[0]], COLUMN_NAMES[e.pair[1]]],
                "order": list(e.order),
                "value": e.value,
                "standard_error": e.standard_error,
                "normalized": e.normalized,
            }
            for e in report.entries
        ],
    }
