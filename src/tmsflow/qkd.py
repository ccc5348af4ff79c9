"""Entangling-cloner CV-QKD key rates under reverse reconciliation.

The eavesdropper holds a TMS ancilla pair (diagonal variance factor W)
and couples one ancilla mode into channel B through a weak beam splitter
of power coupling beta.  Matching the noisy channel fixes ``beta W = 2n``
with ``n`` the injected photon number; the receiver homodynes the q
quadrature of B, so the effective noise in the detected quadrature is
``n_q = n/2``.  The secret key is ``K = I_s - chi_E`` with the Shannon
mutual information of the homodyne channel and the eavesdropper's Holevo
quantity.  The four-mode cloner output is pure, so chi_E is a closed form
in the two-mode channel state (:func:`holevo_quantity`);
:func:`cloner_state` builds the full state for checks.  This module alone
works in bits: the entropy kernel is evaluated in nats and divided by
ln 2 so that K is unit-consistent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _refine
from .errors import (
    BadCouplingError,
    DomainError,
    NumericalError,
    TmsflowError,
)
from .symplectic import (
    VACUUM_VARIANCE,
    CovarianceMatrix,
    apply_symplectic,
    beam_splitter,
    entropy_f,
    tensor,
)
from .states import eve_tms, ideal_tms, squeezing_db_to_r

_LN2 = math.log(2.0)

DEFAULT_CLONER_COUPLING = 1e-4
# Largest |K| in bits accepted at a refined key threshold, a safety check:
# the refined roots reach a few 1e-12 bits.
_KEY_CHECK = 1e-6
# Noise interval on which key_threshold looks for K = 0.
_KEY_BRACKET = (1e-4, 2.0)


@dataclass(frozen=True)
class QkdScenario:
    """Protocol parameters: resource squeezing r, detected-quadrature noise
    n_q and cloner coupling beta.

    The codebook variance ``sigma2 = sinh(2r)/2`` is the variance of the
    modulated quadrature of the resource state.  The cloner variance factor is
    ``W = max(1, 2n/beta)`` with ``n = 2 n_q``; the clamp at 1 keeps the
    ancilla physical when the noise is weaker than the coupling.
    """

    r: float
    n_q: float
    beta: float = DEFAULT_CLONER_COUPLING

    def __post_init__(self) -> None:
        for name in ("r", "n_q", "beta"):  # Python floats: NumPy scalars warn where they overflow
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.r < 0:
            raise DomainError(f"squeezing factor must be >= 0, got {self.r}")
        if self.n_q < 0:
            raise DomainError(f"quadrature noise must be >= 0, got {self.n_q}")
        if not 0.0 < self.beta < 1.0:
            raise BadCouplingError(f"cloner coupling must lie in (0, 1), got {self.beta}")

    @property
    def sigma2(self) -> float:
        return 0.5 * math.sinh(2.0 * self.r)

    @property
    def n(self) -> float:
        return 2.0 * self.n_q

    @property
    def w(self) -> float:
        return max(1.0, 2.0 * self.n / self.beta)


@dataclass(frozen=True)
class KeyResult:
    """Secret key budget in bits: K = shannon_mi - holevo."""

    shannon_mi: float
    holevo: float
    key: float


def cloner_state(scenario: QkdScenario) -> CovarianceMatrix:
    """Joint 4-mode covariance (A, B, E1, E2) after the cloner coupling.

    Built compositionally: the resource TMS state stacked with the
    eavesdropper pair, then the beam splitter on (B, E1).  The result is
    pure since the inputs are pure and the coupling is symplectic.
    """
    joint = tensor(ideal_tms(scenario.r), eve_tms(scenario.w))
    return apply_symplectic(joint, beam_splitter(scenario.beta, 1, 2, 4))


def holevo_quantity(scenario: QkdScenario) -> float:
    """Eavesdropper's Holevo bound in bits for reverse reconciliation.

    (A, B, E1, E2) is pure, and so is (A, E1, E2) after B is homodyned, so
    chi_E = S(E) - S(E|x_B) = S(AB') - S(A|x_B), taken on the two-mode
    channel state AB': the coupler with Eve's E1 (variance W/4) at its port.
    In vacuum-1 units, with ``a = cosh 2r``, ``b = (1 - beta) a + beta W``
    and ``g = ab - c^2 = (1 - beta) + beta a W``, AB' has
    ``nu+ = (sqrt((b - a)^2 + 4g) + |b - a|)/2`` and ``nu- = g/nu+``, and
    homodyning q on B leaves A with ``nu_A|x_B = sqrt(ag/b)``.  Where g
    overflows (near the top squeezing level with a large W), ``sqrt(g)``
    and ``g/nu+`` are taken factor by factor, and so is ``sqrt(ag/b)``
    wherever ``ag/b`` overflows.
    """
    beta, w = scenario.beta, scenario.w
    a = math.cosh(2.0 * scenario.r)
    b = (1.0 - beta) * a + beta * w
    g = (1.0 - beta) + beta * a * w
    d = abs(beta * (a - w))
    g_inf = math.isinf(g)  # then g = beta a W to double precision
    root_g = math.sqrt(beta * w) * math.sqrt(a) if g_inf else math.sqrt(g)
    nu_plus = 0.5 * (math.hypot(d, 2.0 * root_g) + d)
    nu_minus = beta * w * (a / nu_plus) if g_inf else g / nu_plus
    # a g / b overflows wherever g does, and from about 3075 dB also where g does not
    nu_cond = math.sqrt(a / b) * root_g if math.isinf(a / b * g) else math.sqrt(a / b * g)
    s_ab = entropy_f(VACUUM_VARIANCE * nu_plus) + entropy_f(VACUUM_VARIANCE * nu_minus)
    chi = (s_ab - entropy_f(VACUUM_VARIANCE * nu_cond)) / _LN2
    return max(chi, 0.0)


def shannon_mi(scenario: QkdScenario) -> float:
    """Shannon mutual information of the homodyne channel in bits.

    I_s = log2(1 + SNR) / 2 with
    SNR = 4 (1 - beta) sigma2 / ((1 - beta) exp(-2r) + 4 n_q).  Where the
    SNR overflows (from about 3077 dB at n_q = 0.1, and far lower without
    noise), ``1 + SNR = SNR`` and its logarithm is taken factor by factor.
    """
    beta = scenario.beta
    noise = (1.0 - beta) * math.exp(-2.0 * scenario.r) + 4.0 * scenario.n_q
    snr = 4.0 * (1.0 - beta) * scenario.sigma2 / noise
    if math.isinf(snr):
        return 0.5 * (math.log2(4.0 * (1.0 - beta)) + math.log2(scenario.sigma2) - math.log2(noise))
    return 0.5 * math.log2(1.0 + snr)


def secret_key(scenario: QkdScenario) -> KeyResult:
    mi = shannon_mi(scenario)
    chi = holevo_quantity(scenario)
    return KeyResult(shannon_mi=mi, holevo=chi, key=mi - chi)


def key_threshold(s_db: float, *, beta: float = DEFAULT_CLONER_COUPLING) -> float:
    """Noise photon number n_q at which the secret key changes sign.

    Chandrupatla's method (:func:`~tmsflow.analysis._refine`) on
    ``[1e-4, 2]``; the key must change sign strictly between the ends (it
    falls with noise, so it is positive at the lower end), otherwise
    :class:`~tmsflow.errors.NoSignChangeError` is raised.  An error of K
    at an end or at a refinement point is raised as it is.  The bracket is
    refined down to width 1e-12 max(1, n_q) in about ten steps, and the
    returned point (the midpoint of the final bracket) is checked to
    satisfy |K| < 1e-6 bits.  K is evaluated in closed form with about
    1e-15 bits of rounding noise, so that width, not the evaluation, sets
    |K| at the returned point (a few 1e-12 bits).  One level of the batch
    that ``qkd --threshold-out`` refines, with the same steps whatever the
    batch.
    """
    threshold = _key_thresholds([s_db], beta)[0]
    if isinstance(threshold, TmsflowError):
        raise threshold
    return threshold


def _key_thresholds(s_values, beta: float) -> list:
    """:func:`key_threshold` at every squeezing level, with the error that
    ends a level's search in place of its threshold.  All levels are one
    :func:`~tmsflow.analysis._refine` batch: a level that is not above
    0 dB fails unsearched, and a level where K fails at a point fails
    alone.  K is the scalar closed form, evaluated once per distinct point
    of a level, the check at the refined point included."""
    rs, failed = [], {}  # by level: r, or None where the level check failed
    for i, s_db in enumerate(s_values):
        try:
            if s_db <= 0:
                raise DomainError(f"squeezing level must be > 0 dB, got {s_db}")
            rs.append(squeezing_db_to_r(s_db))
        except TmsflowError as exc:
            rs.append(None)
            failed[i] = exc

    @functools.cache
    def key_at(r: float, n_q: float) -> float:
        return secret_key(QkdScenario(r=r, n_q=n_q, beta=beta)).key

    def keys(n_q: np.ndarray) -> tuple[np.ndarray, dict]:
        values, errors = np.full(n_q.shape, np.nan), {}
        for j, x in enumerate(n_q.ravel().tolist()):
            r = rs[j % len(rs)]
            try:
                values.flat[j] = np.nan if r is None else key_at(r, x)
            except TmsflowError as exc:
                errors[j] = exc
        return values, errors

    lo, hi = _KEY_BRACKET
    mids, errors = _refine(keys, np.full(len(rs), lo), np.full(len(rs), hi), failed)
    for i in errors:
        rs[i] = None  # no check where the search failed
    k, check_errors = keys(mids)
    for i in np.flatnonzero(~(np.abs(k) < _KEY_CHECK)).tolist():
        errors.setdefault(i, check_errors.get(i) or NumericalError(
            f"key at the refined point is not zero: |{k[i]:.3e}| >= {_KEY_CHECK}"
        ))
    return [errors.get(i, mid) for i, mid in enumerate(mids.tolist())]


def _key_result_doc(scenario: QkdScenario, result: KeyResult) -> dict:
    return {
        "r": scenario.r,
        "n_q": scenario.n_q,
        "beta": scenario.beta,
        "sigma2": scenario.sigma2,
        "shannon_mi_bits": result.shannon_mi,
        "holevo_bits": result.holevo,
        "key_bits": result.key,
    }


QKD_CSV_HEADER = "S_db,n_q,I_s_bits,holevo_bits,K_bits"


def key_result_to_csv_row(s_db: float, n_q: float, result: KeyResult) -> str:
    fields = [s_db, n_q, result.shannon_mi, result.holevo, result.key]
    return ",".join(repr(float(x)) for x in fields)
