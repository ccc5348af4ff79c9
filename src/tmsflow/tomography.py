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
or binary stream, a pipe included) are parsed in one forward pass, a block
of lines at a time, so memory follows the ``(N, 4)`` float array and not
the text.  The vectorised reader works on bytes: a binary stream's blocks
reach it as read, and only a block it refuses is decoded, as UTF-8, and
read line by line where it stands, so a malformed line costs its block,
not a second pass.  Their lines are those ``str.splitlines`` gives for the
whole (decoded) text, and their grammar is:

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
from itertools import combinations
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from ._defaults import DEFAULT_THRESHOLD
from .errors import DomainError, NonFiniteError, NumericalError, TooFewSamplesError
from .symplectic import VACUUM_VARIANCE, CovarianceMatrix, TwoModeCovariance
from .symplectic import _symmetrised, _validate, _williamson

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
_ORDERS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), *_HIGHER_ORDERS]

_BATCHES = 25
# The fewest samples cumulants takes, and the fewest rows per batch from 80
# samples on: 40-79 samples give 2 batches of 20-39 rows.
_MIN_BATCH = 40
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

    Entry ``[i, j]`` is the second-order k-statistic of columns i and j,
    formed for ``i <= j`` and mirrored: ``n/(n-1)`` times the mean product
    of the centred columns, merged from the batches of :func:`_moment_pass`
    with no pass over the whole sample.  It is the second-order entry that
    :func:`cumulants` reports, bit for bit.  No matrix product is involved,
    so the entries do not depend on the BLAS build.  The centred columns
    are scaled by a power of two first, which is exact, so no product
    overflows where the entry itself is a double; an entry beyond the
    double range raises :class:`NumericalError`.

    Its cost is mostly per batch, not per row: about 0.7 ms at 200 rows
    (5 batches) and 2 ms at 2000 (25 batches), where ``np.cov`` takes 0.03
    and 0.1 ms; from about 100k rows the pass over the data dominates and
    the two take about the same (8.5 ms at 200k rows, on a 2-core x86-64
    machine).  The batches are what makes the entries those of
    :func:`cumulants`; ``tomo`` takes the covariance from the cumulant
    report and does not call this.
    """
    n = float(samples.n_samples)
    e, _, _, pooled = _moment_pass(samples.data, *_column_bounds(samples.data), top=2)
    k = _unscaled(_k_from_moments(n, pooled), e)[1, 1]
    cov = np.triu(k) + np.triu(k, 1).T
    if not np.isfinite(cov).all():
        raise NumericalError("a sample covariance entry leaves the double range")
    return CovarianceMatrix(cov)


def project_to_physical(V: CovarianceMatrix) -> CovarianceMatrix:
    """Clamp the symplectic spectrum up to the Heisenberg bound.

    Finite-sample covariance estimates of nearly pure states routinely dip a
    few standard errors below nu = 1/4, which blocks the correlation formulas.
    Where validation's spectral pass finds nu >= 1/4 throughout, this returns
    the estimate symmetrised as there (:func:`_symmetrised`, finite up to the
    double range); otherwise it raises every symplectic eigenvalue to at
    least 1/4 in the Williamson basis (:func:`_williamson`), the usual
    post-processing step between reconstruction and analysis; the
    perturbation is of the order of the statistical noise itself.  A
    symmetrised estimate whose Cholesky factorisation fails (one that is not
    positive definite) raises :class:`NumericalError`.
    """
    sym, spectrum = _symmetrised(V.entries), _validate(V)[1]
    if spectrum is not None and (spectrum[0] >= VACUUM_VARIANCE).all():
        return CovarianceMatrix(sym)
    nus, s_mat = _williamson(sym)
    clamped = np.repeat(np.maximum(nus, VACUUM_VARIANCE), 2)
    return CovarianceMatrix(_symmetrised((s_mat * clamped) @ s_mat.T))


def _moments(block: np.ndarray, e: np.ndarray, top: int):
    """The column means of a sample block and the central moments m_pq of
    its columns, each centred column scaled by ``2**-e``: ``{(p, q): m_pq}``
    for 1 <= p + q <= ``top``.  The first moments are zero but for the
    rounding of the means.

    Entry ``[i, j]`` of m_pq has power p on column i and q on column j.
    Only the entries :func:`cumulants` reads are formed: ``i <= j`` for
    m_11 and ``i < j`` for the other mixed orders; the rest are NaN.  The
    univariate m_p0 is a ``(4, 1)`` column and m_0q a ``(1, 4)`` row.  Each
    mixed moment is formed one leading column at a time, from row slices of
    the centred columns (``d``) and their squares; the third and fourth
    powers are formed where they are used.  Means run along a contiguous
    sample axis with no matrix product, so results do not depend on the
    BLAS build, and no gather copies a power of the columns.
    """

    def mean(x: np.ndarray) -> np.ndarray:
        """``x.mean(axis=1)``, bit for bit, without its Python overhead."""
        return np.add.reduce(x, axis=1) / x.shape[1]

    d = np.array(block.T, order="C")  # a copy, centred in place
    means = mean(d)
    d -= means[:, None]
    np.ldexp(d, -e[:, None], out=d)  # exact
    d2 = d * d

    def power(k: int, cols) -> np.ndarray:
        """The k-th power of the centred columns ``cols`` (an index or a slice)."""
        if k < 3:
            return (d, d2)[k - 1][cols]
        return d2[cols] * (d if k == 3 else d2)[cols]

    univariate = [None] + [mean(power(k, slice(None))) for k in range(1, top + 1)]

    def m(p: int, q: int) -> np.ndarray:
        if q == 0:
            return univariate[p][:, None]
        if p == 0:
            return univariate[q][None, :]
        out = np.full((len(d), len(d)), np.nan)
        first = 0 if (p, q) == (1, 1) else 1  # the offset of column j from column i
        for i in range(len(d) - first):
            out[i, i + first :] = mean(power(p, i) * power(q, slice(i + first, None)))
        return out

    return means, {order: m(*order) for order in _ORDERS if sum(order) <= top}


def _k_from_moments(n, m: dict) -> dict[tuple[int, int], np.ndarray]:
    """Unbiased joint cumulant estimators k_pq of n samples from their
    central moments ``m`` (:func:`_moments`, for the second orders alone or
    up to the fourth); ``n`` broadcasts against the moments.

    Central-moment formulas (Kendall & Stuart): second order scales m_pq
    by n/(n-1), third order by n^2/((n-1)(n-2)); fourth order combines
    (n+1) m_4-type terms with products of second-order moments.  The
    univariate orders are broadcast to the shape of k_11.
    """
    m20, m02, m11 = m[2, 0], m[0, 2], m[1, 1]
    c2 = n / (n - 1.0)
    out = {(2, 0): c2 * m20, (1, 1): c2 * m11, (0, 2): c2 * m02}
    if (3, 0) in m:
        c3 = n * n / ((n - 1.0) * (n - 2.0))
        c4 = n * n / ((n - 1.0) * (n - 2.0) * (n - 3.0))
        out.update({
            (3, 0): c3 * m[3, 0],
            (2, 1): c3 * m[2, 1],
            (1, 2): c3 * m[1, 2],
            (0, 3): c3 * m[0, 3],
            (4, 0): c4 * ((n + 1.0) * m[4, 0] - 3.0 * (n - 1.0) * m20 * m20),
            (3, 1): c4 * ((n + 1.0) * m[3, 1] - 3.0 * (n - 1.0) * m20 * m11),
            (2, 2): c4 * ((n + 1.0) * m[2, 2] - (n - 1.0) * (m20 * m02 + 2.0 * m11 * m11)),
            (1, 3): c4 * ((n + 1.0) * m[1, 3] - 3.0 * (n - 1.0) * m02 * m11),
            (0, 4): c4 * ((n + 1.0) * m[0, 4] - 3.0 * (n - 1.0) * m02 * m02),
        })
    return {order: np.broadcast_to(k, m11.shape) for order, k in out.items()}


def _k_statistics(block: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Unbiased joint cumulant estimators k_mn (2 <= m + n <= 4) of the
    column pairs of one sample block: entry ``[i, j]`` has power m on
    column i and n on column j, formed where :func:`_moments` forms it."""
    _, m = _moments(block, np.zeros(block.shape[1], dtype=int), top=4)
    return _k_from_moments(float(block.shape[0]), m)


def _column_bounds(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``data.min(axis=0)`` and ``data.max(axis=0)`` of an ``(N, 4)``
    sample, reduced along contiguous rows of transposed 4096-row blocks:
    NumPy reduces the columns of the sample itself about 15x slower."""
    blocks = (np.array(data[a : a + 4096].T, order="C") for a in range(0, len(data), 4096))
    lo, hi = zip(*((block.min(axis=1), block.max(axis=1)) for block in blocks))
    return np.min(lo, axis=0), np.max(hi, axis=0)


def _moment_pass(data: np.ndarray, lo: np.ndarray, hi: np.ndarray, top: int):
    """One pass over the batches of an ``(N, 4)`` sample: returns the
    column exponents ``e``, the batch sizes, the central moments of each
    batch (:func:`_moments` up to order ``top`` of the columns scaled by
    ``2**-e``, stacked along a leading batch axis) and the central moments
    of the whole sample merged from them.  There are ``_BATCHES`` batches,
    or fewer so that each holds at least ``_MIN_BATCH`` rows, but at
    least 2.

    ``2**e`` exceeds the range ``hi - lo`` of each column, so every finite
    scaled centred value is below 1 in magnitude.  No temporary is as long
    as the sample.
    """
    n = data.shape[0]
    _, e = np.frexp(hi / 2 - lo / 2)  # half the range, which does not overflow
    e += 1
    n_batches = max(2, min(_BATCHES, n // _MIN_BATCH))
    bounds = np.linspace(0, n, n_batches + 1, dtype=int)
    batches = [_moments(data[a:b], e, top) for a, b in zip(bounds[:-1], bounds[1:])]
    counts = np.diff(bounds).astype(float)
    means = np.array([mean for mean, _ in batches])
    shifts = np.ldexp(means - (means * counts[:, None]).sum(axis=0) / n, -e)
    moments = {order: np.array([m[order] for _, m in batches]) for order in batches[0][1]}
    return e, counts, moments, _merged(counts, shifts, moments)


def _merged(counts: np.ndarray, shifts: np.ndarray, moments: dict) -> dict:
    """The central moments (p + q >= 2) of the union of sample blocks, from
    each block's size, the shift of its column means from a common centre
    near the pooled means, and its moments about its means, all stacked
    along a leading block axis.

    Each block's moments are shifted to the pooled means with the binomial
    expansion of ``(d + delta)**p (d' + delta')**q``, where delta is the
    block's mean less the pooled mean, and averaged with weights
    n_b / N: the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37,
    242 (1983)) and Pebay (SAND2008-6212), applied to all blocks at once.
    The offsets take the blocks' first moments into account, which the
    rounding of a mean far from zero leaves nonzero, so the merge does not
    lose the precision that centring on the rounded means would.
    """
    n = counts.sum()
    # A block's first moment is the rounding of its mean, so shift plus first
    # moment is its exact mean less the centre; their weighted mean is the
    # pooled mean less the centre.
    offsets = shifts + moments[1, 0][:, :, 0]
    delta = shifts - (offsets * counts[:, None]).sum(axis=0) / n
    di, dj = delta[:, :, None], delta[:, None, :]
    # powers 0..4 of delta for column i (rows) and column j (columns)
    pi, pj = [1.0, di, di * di], [1.0, dj, dj * dj]
    pi += [pi[2] * di, pi[2] * pi[2]]
    pj += [pj[2] * dj, pj[2] * pj[2]]
    out = {}
    for p, q in moments:
        if p + q < 2:
            continue
        shifted = pi[p] * pj[q]  # the (a, c) = (0, 0) term
        for a in range(p + 1):
            for c in range(q + 1):
                if a + c >= 1:
                    coeff = math.comb(p, a) * math.comb(q, c)
                    shifted = shifted + coeff * pi[p - a] * pj[q - c] * moments[a, c]
        out[p, q] = _batch_sum(counts[:, None, None] * shifted) / n
    return out


def _batch_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)``, correctly rounded (``math.fsum``) wherever
    every term is finite."""
    flat = terms.reshape(len(terms), -1)
    out = flat.sum(axis=0)
    for k in np.flatnonzero(np.isfinite(flat).all(axis=0)):
        out[k] = math.fsum(flat[:, k])
    return out.reshape(terms.shape[1:])


def _unscaled(k: dict, e: np.ndarray) -> dict:
    """Estimates of order (p, q) of columns scaled by ``2**-e``, at the
    columns' own scale: entry ``[i, j]`` times ``2**(p e_i + q e_j)``."""
    return {(p, q): np.ldexp(v, p * e[:, None] + q * e[None, :]) for (p, q), v in k.items()}


@np.errstate(all="ignore")  # a value beyond the double range raises below
def cumulants(
    samples: QuadratureSamples,
    threshold: float = DEFAULT_THRESHOLD,
) -> CumulantReport:
    """Joint cumulants of all column pairs with a Gaussianity verdict.

    The verdict is true iff every third- and fourth-order k-statistic
    stays below ``threshold`` batch-estimated standard errors in
    magnitude.  One pass over the batches (:func:`_moment_pass`) forms
    each batch's central moments once: their k-statistics give the
    standard errors, and the moments merged to the pooled mean give the
    whole sample's k-statistics, the second-order entries included, with
    no pass over the whole sample.  Each univariate cumulant is reported
    once, under its first pair.  A constant column has no normalized
    cumulants and raises :class:`DomainError`; samples so large or so small
    that a cumulant, the product of standard deviations it is normalized
    by, or its standard error leaves the range of normal doubles raise
    :class:`NumericalError`.
    A threshold that is not > 0 raises :class:`DomainError`.
    """
    if not threshold > 0.0:
        raise DomainError(f"threshold must be > 0, got {threshold!r}")
    if samples.n_samples < _MIN_BATCH:
        raise TooFewSamplesError(
            f"need at least {_MIN_BATCH} samples, got {samples.n_samples}"
        )
    data = samples.data
    lo, hi = _column_bounds(data)
    constant = np.flatnonzero(lo == hi)
    if constant.size:
        raise DomainError(f"column {COLUMN_NAMES[constant[0]]} is constant")
    n = samples.n_samples
    e, counts, batch_moments, pooled = _moment_pass(data, lo, hi, top=4)
    n_batches = len(counts)
    full = _unscaled(_k_from_moments(float(n), pooled), e)
    batches = _k_from_moments(counts[:, None, None], batch_moments)
    spreads = _unscaled({o: _spread(batches[o]) for o in _HIGHER_ORDERS}, e)

    cov = full[(1, 1)]
    sigmas = np.sqrt(np.diag(cov))
    second: dict[str, float] = {}
    for i, j in [*combinations(range(4), 2), *((i, i) for i in range(4))]:
        second[f"{COLUMN_NAMES[i]}{COLUMN_NAMES[j]}"] = float(cov[i, j])

    entries: list[CumulantEntry] = []
    gaussian = True
    seen_univariate: set[tuple[int, int]] = set()
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


def samples_from_csv(source: str | TextIO | BinaryIO) -> QuadratureSamples:
    """Parse an I1,Q1,I2,Q2 table, given as its text or as an open text or
    binary stream (a pipe will do); raises ValueError naming the bad line.

    The stream is read once, in blocks (:func:`_text_blocks`).
    :func:`tmsflow._floatparse.rows` converts a block whole from its bytes,
    every token bit for bit as Python ``float`` reads it, and takes only
    blocks whose every line is a data row, so the rows count the block's
    lines.  A block it refuses is read where it stands, as text (a block of
    bytes is decoded as UTF-8 first): its data lines (:func:`_data_lines`)
    get a second try joined, then :func:`_float_rows` reads them with
    ``float``, which takes all of its grammar (digit underscores, non-ASCII
    digits) and names the first bad line.  The rows go into one array grown
    in place, so memory follows the ``(N, 4)`` array, not the text.
    """
    from . import _floatparse

    if isinstance(source, str):
        source = io.StringIO(source)
    data, n, line_no = np.empty((0, 4)), 0, 0  # line_no: the lines before the block
    for block in _text_blocks(source):
        rows = _floatparse.rows(block)
        if rows is None:
            lines = (block.decode("utf-8") if isinstance(block, bytes) else block).splitlines()
            numbered = list(_data_lines(lines, line_no))
            rows = _floatparse.rows("".join([line + "\n" for _, line in numbered]))
            if rows is None:
                rows = _float_rows(numbered)
            line_no += len(lines)
        else:
            line_no += len(rows)
        if n + len(rows) > len(data):  # grown in place, by an eighth at least
            data.resize((max(n + len(rows), len(data) + len(data) // 8), 4), refcheck=False)
        data[n : n + len(rows)] = rows
        n += len(rows)
    if not n:
        raise ValueError("no data rows found")
    data.resize((n, 4), refcheck=False)
    return QuadratureSamples(data)


_CHUNK = 1 << 16  # characters or bytes read at a time from a stream


def _text_blocks(source: TextIO | BinaryIO) -> Iterator[str | bytes]:
    """The text of the stream ``source`` in blocks of about ``_CHUNK``
    characters, or bytes from a binary stream, each ending at a line
    boundary: a ``\\n``, a ``\\r`` that no ``\\n`` follows, or the end.

    So no ``\\r\\n`` pair or UTF-8 sequence is split, and the lines
    ``str.splitlines`` gives for the blocks are those it gives for the
    whole text: every other boundary it knows (``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``) splits
    lines as in the whole text.
    """
    rest = source.read(0)  # what was read past the last block: empty, of the stream's type
    newline, cr = ("\n", "\r") if isinstance(rest, str) else (b"\n", b"\r")
    while chunk := source.read(_CHUNK):
        chunk = rest + chunk
        if not chunk.endswith(newline):
            chunk += source.readline(_CHUNK)  # the rest of a line shorter than a chunk
        end = len(chunk)
        if not chunk.endswith(newline):  # a longer line, or lines that end in a lone \r:
            # cut after the last boundary but a last \r, whose \n may come next
            end = max(chunk.rfind(newline), chunk.rfind(cr, 0, -1)) + 1
        chunk, rest = chunk[:end], chunk[end:]
        if chunk:
            yield chunk
    if rest:
        yield rest


def _data_lines(lines: Iterable[str], start: int = 0) -> Iterator[tuple[int, str]]:
    """The stripped data lines of ``lines`` (lines ``start + 1`` on of the
    file) with their numbers: blank and ``#`` lines and the header left out."""
    for line_no, line in enumerate(lines, start=start + 1):
        line = line.strip()
        header = line_no == 1 and any(t.strip().upper() in COLUMN_NAMES for t in line.split(","))
        if line and line[0] != "#" and not header:
            yield line_no, line


def _float_rows(lines: Iterable[tuple[int, str]]) -> np.ndarray:
    """The ``(L, 4)`` rows of numbered data lines read with Python
    ``float``; raises ValueError naming the first bad line."""
    rows = []
    for line_no, line in lines:
        toks = line.split(",")
        if len(toks) != 4:
            raise ValueError(f"line {line_no}: expected 4 columns, got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric entry") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"line {line_no}: non-finite entry")
    return np.array(rows)


def _scan_samples(source: TextIO) -> np.ndarray:
    """The whole text read line by line with Python ``float``: the reference
    for :func:`samples_from_csv` in the tests."""
    rows = _float_rows(_data_lines(source.read().splitlines()))
    if not len(rows):
        raise ValueError("no data rows found")
    return rows


def samples_to_csv(samples: QuadratureSamples) -> str:
    lines = [",".join(COLUMN_NAMES)]
    for row in samples.data:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _report_covariance(report: CumulantReport) -> TwoModeCovariance:
    """The covariance matrix of a report's second-order entries:
    :func:`covariance_from_samples` of the same samples, bit for bit."""
    second, names = report.second_order, COLUMN_NAMES
    return CovarianceMatrix(
        np.array([[second[names[min(i, j)] + names[max(i, j)]] for j in range(4)] for i in range(4)])
    )


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
