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

import json
import math
from dataclasses import dataclass

from .analysis import _bisect_root
from .errors import BadCouplingError, DomainError, NoSignChangeError, NumericalError
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
    return apply_cloner_coupling(joint, scenario.beta)


def apply_cloner_coupling(joint: CovarianceMatrix, beta: float) -> CovarianceMatrix:
    if joint.n_modes != 4:
        raise DomainError("cloner coupling expects the 4-mode (A, B, E1, E2) state")
    return apply_symplectic(joint, beam_splitter(beta, 1, 2, 4))


def holevo_quantity(scenario: QkdScenario) -> float:
    """Eavesdropper's Holevo bound in bits for reverse reconciliation.

    (A, B, E1, E2) is pure, and so is (A, E1, E2) after B is homodyned, so
    chi_E = S(E) - S(E|x_B) = S(AB') - S(A|x_B), taken on the two-mode
    channel state AB': the coupler with Eve's E1 (variance W/4) at its port.
    In vacuum-1 units, with ``a = cosh 2r``, ``b = (1 - beta) a + beta W``
    and ``g = ab - c^2 = (1 - beta) + beta a W``, AB' has
    ``nu+ = (sqrt((b - a)^2 + 4g) + |b - a|)/2`` and ``nu- = g/nu+``, and
    homodyning q on B leaves A with ``nu_A|x_B = sqrt(ag/b)``.
    """
    beta, w = scenario.beta, scenario.w
    a = math.cosh(2.0 * scenario.r)
    b = (1.0 - beta) * a + beta * w
    g = (1.0 - beta) + beta * a * w
    d = abs(beta * (a - w))
    nu_plus = 0.5 * (math.hypot(d, 2.0 * math.sqrt(g)) + d)
    s_ab = entropy_f(VACUUM_VARIANCE * nu_plus) + entropy_f(VACUUM_VARIANCE * g / nu_plus)
    chi = (s_ab - entropy_f(VACUUM_VARIANCE * math.sqrt(a / b * g))) / _LN2
    return max(chi, 0.0)


def shannon_mi(scenario: QkdScenario) -> float:
    """Shannon mutual information of the homodyne channel in bits.

    I_s = log2(1 + SNR) / 2 with
    SNR = 4 (1 - beta) sigma2 / ((1 - beta) exp(-2r) + 4 n_q).
    """
    beta = scenario.beta
    snr = (
        4.0
        * (1.0 - beta)
        * scenario.sigma2
        / ((1.0 - beta) * math.exp(-2.0 * scenario.r) + 4.0 * scenario.n_q)
    )
    return 0.5 * math.log2(1.0 + snr)


def secret_key(scenario: QkdScenario) -> KeyResult:
    mi = shannon_mi(scenario)
    chi = holevo_quantity(scenario)
    return KeyResult(shannon_mi=mi, holevo=chi, key=mi - chi)


def key_threshold(
    s_db: float,
    tolerance: float = 1e-6,
    beta: float = DEFAULT_CLONER_COUPLING,
) -> float:
    """Noise photon number n_q at which the secret key changes sign.

    Bisection on ``[1e-4, 2]``; the key must be positive at the lower end
    and negative at the upper end (it decreases with noise), otherwise
    :class:`NoSignChangeError` is raised.  The bracket is bisected down to
    relative width 1e-12 and the midpoint is verified to satisfy
    |K| < tolerance (finite, > 0).  K is evaluated in closed form with about
    1e-15 bits of rounding noise, so that width, not the evaluation, sets |K|
    at the returned point (a few 1e-12 bits).
    """
    if s_db <= 0:
        raise DomainError(f"squeezing level must be > 0 dB, got {s_db}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise DomainError(f"tolerance must be finite and > 0, got {tolerance}")
    r = squeezing_db_to_r(s_db)

    def key_at(n_q: float) -> float:
        return secret_key(QkdScenario(r=r, n_q=n_q, beta=beta)).key

    lo, hi = _KEY_BRACKET
    k_lo, k_hi = key_at(lo), key_at(hi)
    if not (k_lo > 0.0 > k_hi):
        raise NoSignChangeError(
            f"no key sign change on [{lo}, {hi}] at {s_db} dB "
            f"(K({lo}) = {k_lo:.3e}, K({hi}) = {k_hi:.3e})"
        )
    mid = _bisect_root(lambda lo, hi: ([key_at(0.5 * (lo + hi))], {}), lo, hi, k_lo)
    if not abs(key_at(mid)) < tolerance:
        raise NumericalError(
            f"key at the bisection point exceeds the requested tolerance: "
            f"|{key_at(mid):.3e}| >= {tolerance}"
        )
    return mid


def key_result_to_json(scenario: QkdScenario, result: KeyResult) -> str:
    return json.dumps(_key_result_doc(scenario, result))


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
