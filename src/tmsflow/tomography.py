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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, NonFiniteError, TooFewSamplesError
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


def covariance_from_samples(samples: QuadratureSamples) -> TwoModeCovariance:
    """Unbiased sample covariance mapped to (q1, p1, q2, p2) ordering."""
    cov = np.cov(samples.data, rowvar=False, ddof=1)
    return CovarianceMatrix(0.5 * (cov + cov.T))


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


def _k_statistics(block: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Unbiased joint cumulant estimators k_mn (2 <= m + n <= 4) of every
    column pair of a sample block: entry ``[i, j]`` has power m on column i
    and n on column j.

    Central-moment formulas (Kendall & Stuart): third order scales m_mn by
    n^2/((n-1)(n-2)); fourth order combines (n+1) m_4-type terms with
    products of second-order moments.  Each power of the centred columns
    is formed once; means run along a contiguous sample axis with no
    matrix product, so results do not depend on the BLAS build.
    """
    n = float(block.shape[0])
    d = np.ascontiguousarray(block.T)
    d = d - d.mean(axis=1, keepdims=True)
    d2 = d * d
    powers = {1: d, 2: d2, 3: d2 * d, 4: d2 * d2}

    def m(p: int, q: int) -> np.ndarray:
        if q == 0:
            return powers[p].mean(axis=1)[:, None]
        if p == 0:
            return powers[q].mean(axis=1)[None, :]
        return np.array([np.mean(row * powers[q], axis=-1) for row in powers[p]])

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
    :class:`DomainError`.
    """
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
    spreads = {o: np.std([b[o] for b in batches], axis=0, ddof=1) for o in _HIGHER_ORDERS}
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
            norm = value / (sigmas[i] ** m_i * sigmas[j] ** m_j)
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


def samples_from_csv(text: str) -> QuadratureSamples:
    """Parse an I1,Q1,I2,Q2 table; raises ValueError naming the bad line."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split(",")
        if line_no == 1 and any(t.strip().upper() in COLUMN_NAMES for t in toks):
            continue  # header
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
    return QuadratureSamples(np.array(rows))


def samples_to_csv(samples: QuadratureSamples) -> str:
    lines = [",".join(COLUMN_NAMES)]
    for row in samples.data:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def cumulant_report_to_json(report: CumulantReport) -> str:
    return json.dumps(_cumulant_report_doc(report))


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
