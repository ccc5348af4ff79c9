"""Constructors for every covariance matrix used in the package.

Covers ideal two-mode squeezed (TMS) states, local noise injection into
mode B (both the ideal large-bath limit and the explicit directional
coupler) and the squeezing-level conversions.  :class:`StateModel` maps
(squeezing level, injected noise) to a state for each of the three noise
models; it alone checks a model's parameters (the coupling beta once, when
the model is built) and knows the amplifier prefactor of the model used
for fitting.

Squeezing conventions: the TMS state is the 50:50 superposition of a
q-squeezed mode A and a p-squeezed mode B with equal squeezing factor r,
giving the cross block ``sinh(2r) sigma_z / 4``.  The squeezing level in
dB relates to r via ``r = S / (20 log10 e)``; equivalently
``exp(2r) = 10^(S/10)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadCouplingError, DomainError, NumericalError
from .symplectic import CovarianceMatrix, TwoModeCovariance, VACUUM_VARIANCE

_DB_PER_UNIT_R = 20.0 * math.log10(math.e)

# Largest level whose gain exp(2r) = 10^(S/10) is a finite double (3082.5 dB).
_MAX_LEVEL_DB = 10.0 * math.log10(np.finfo(float).max)


def squeezing_db_to_r(level_db: float) -> float:
    """Convert a squeezing level in dB to the dimensionless factor r."""
    if not math.isfinite(level_db):
        raise DomainError(f"squeezing level must be finite, got {level_db}")
    if level_db > _MAX_LEVEL_DB:
        raise DomainError(f"squeezing level {level_db} dB is above {_MAX_LEVEL_DB:.1f} dB")
    return level_db / _DB_PER_UNIT_R


def squeezing_r_to_db(r: float) -> float:
    """Inverse of :func:`squeezing_db_to_r`."""
    if not math.isfinite(r):
        raise DomainError(f"squeezing factor must be finite, got {r}")
    return r * _DB_PER_UNIT_R


@dataclass(frozen=True)
class JpaNoiseModel:
    """Gain-dependent amplifier noise, n(G) = chi1 * (G - 1)**chi2."""

    chi1: float
    chi2: float

    def __post_init__(self) -> None:
        if self.chi1 < 0:
            raise DomainError(f"chi1 must be >= 0, got {self.chi1}")


_SIGMA_Z = np.diag([1.0, -1.0])


def vacuum(n_modes: int) -> CovarianceMatrix:
    return CovarianceMatrix(VACUUM_VARIANCE * np.eye(2 * n_modes))


def thermal(n_photons: float) -> CovarianceMatrix:
    """Single-mode thermal state with the given mean photon number."""
    if n_photons < 0:
        raise DomainError(f"photon number must be >= 0, got {n_photons}")
    return CovarianceMatrix((1.0 + 2.0 * n_photons) * VACUUM_VARIANCE * np.eye(2))


def _tms_matrix(diag: float, off: float) -> np.ndarray:
    m = np.zeros((4, 4))
    m[0:2, 0:2] = diag * np.eye(2)
    m[2:4, 2:4] = diag * np.eye(2)
    m[0:2, 2:4] = off * _SIGMA_Z
    m[2:4, 0:2] = off * _SIGMA_Z
    return m


def _squeezing_factor(s_db: float) -> float:
    """The factor r of a squeezing level, which must be >= 0 dB."""
    if s_db < 0:
        raise DomainError(f"squeezing level must be >= 0 dB, got {s_db}")
    return squeezing_db_to_r(s_db)


def ideal_tms(r: float) -> TwoModeCovariance:
    """Pure two-mode squeezed state for a squeezing factor r.

    Diagonal blocks ``cosh(2r)/4 * I`` and cross block
    ``sinh(2r)/4 * sigma_z``; both symplectic eigenvalues equal 1/4.
    """
    if r < 0:
        raise DomainError(f"squeezing factor must be >= 0, got {r}")
    return CovarianceMatrix(
        _tms_matrix(math.cosh(2 * r) * VACUUM_VARIANCE, math.sinh(2 * r) * VACUUM_VARIANCE)
    )


def eve_tms(w: float) -> TwoModeCovariance:
    """TMS state parameterized by the diagonal variance factor W >= 1.

    Diagonal blocks ``W/4 * I`` and cross blocks ``sqrt(W^2 - 1)/4 * sigma_z``;
    W = 1 is the two-mode vacuum.  This is the ancilla pair used by the
    entangling-cloner attack.
    """
    if w < 1.0:
        raise DomainError(f"cloner variance factor must be >= 1, got {w}")
    off = math.sqrt(max(w * w - 1.0, 0.0))
    return CovarianceMatrix(_tms_matrix(w * VACUUM_VARIANCE, off * VACUUM_VARIANCE))


def inject_noise_ideal(V: TwoModeCovariance, n: float) -> TwoModeCovariance:
    """Add n noise photons to mode B in the weak-coupling limit.

    Adds ``n/2`` to each B quadrature variance and leaves the A block and
    the cross correlations untouched (the beta -> 0 limit of the
    directional coupler at fixed injected photon number).
    """
    if n < 0:
        raise DomainError(f"injected noise photon number must be >= 0, got {n}")
    if V.n_modes != 2:
        raise DomainError("noise injection expects a two-mode state")
    m = np.array(V.entries)
    m[2:4, 2:4] += 2.0 * n * VACUUM_VARIANCE * np.eye(2)
    return CovarianceMatrix(m)


def _check_coupling(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise BadCouplingError(f"power coupling must lie in (0, 1), got {beta}")


def inject_noise_coupler(
    V: TwoModeCovariance, beta: float, env_photons: float
) -> TwoModeCovariance:
    """Couple mode B to a thermal environment through a directional coupler.

    ``beta`` is the power coupling and ``env_photons`` the thermal photon
    number at the coupled port, so ``beta * env_photons`` photons reach
    mode B.  B block becomes ``(1 - beta) * B + beta * (1 + 2 env) / 4 * I``
    and the cross block is scaled by ``sqrt(1 - beta)``; equivalent to
    appending a thermal mode, applying the asymmetric beam splitter, and
    tracing it out.
    """
    _check_coupling(beta)
    if env_photons < 0:
        raise DomainError(f"environment photon number must be >= 0, got {env_photons}")
    return _couple(V, beta, env_photons)


def _couple(V: TwoModeCovariance, beta: float, env_photons: float) -> TwoModeCovariance:
    """:func:`inject_noise_coupler` on parameters already checked."""
    if V.n_modes != 2:
        raise DomainError("noise injection expects a two-mode state")
    m = np.array(V.entries)
    env_var = (1.0 + 2.0 * env_photons) * VACUUM_VARIANCE
    m[2:4, 2:4] = (1.0 - beta) * m[2:4, 2:4] + beta * env_var * np.eye(2)
    m[0:2, 2:4] *= math.sqrt(1.0 - beta)
    m[2:4, 0:2] *= math.sqrt(1.0 - beta)
    return CovarianceMatrix(m)


def jpa_noise(G: float, jpa: JpaNoiseModel) -> float:
    """Amplifier noise photon number at degenerate gain G >= 1."""
    if G < 1.0:
        raise DomainError(f"degenerate gain must be >= 1, got {G}")
    if G == 1.0:
        return 0.0
    try:
        return jpa.chi1 * (G - 1.0) ** jpa.chi2
    except OverflowError:
        raise NumericalError(f"amplifier noise at gain {G:.3g} overflows double precision") from None


@dataclass(frozen=True)
class StateModel:
    """Maps (squeezing level in dB, injected noise photons) to a state.

    Three flavors:

    * ideal       -- no coupler, no amplifier noise (large-bath limit),
    * coupler     -- explicit directional coupler with power coupling beta,
    * realistic   -- coupler plus the gain-dependent amplifier noise model.
    """

    coupling_beta: float | None = None
    jpa: JpaNoiseModel | None = None

    def __post_init__(self) -> None:
        if self.jpa is not None and self.coupling_beta is None:
            raise BadCouplingError("the amplifier-noise model needs a coupler beta")
        if self.coupling_beta is not None:
            _check_coupling(self.coupling_beta)

    @property
    def kind(self) -> str:
        if self.jpa is not None:
            return "realistic"
        if self.coupling_beta is not None:
            return "coupler"
        return "ideal"

    def amplifier_prefactor(self, r: float) -> float:
        """Scale ``1 + 2 n_jpa(e^{2r})`` of the whole realistic matrix at
        squeezing factor r; 1 for models without amplifier noise."""
        if self.jpa is None:
            return 1.0
        return 1.0 + 2.0 * jpa_noise(math.exp(2.0 * r), self.jpa)

    def state(self, s_db: float, n: float) -> TwoModeCovariance:
        """State at squeezing level ``s_db`` (dB) with ``n`` noise photons
        injected into mode B; the coupler's environment holds ``n / beta``."""
        r = _squeezing_factor(s_db)
        if self.coupling_beta is None:
            return inject_noise_ideal(ideal_tms(r), n)
        if n < 0:
            raise DomainError(f"injected noise photon number must be >= 0, got {n}")
        V = _couple(ideal_tms(r), self.coupling_beta, n / self.coupling_beta)
        if self.jpa is None:
            return V
        return CovarianceMatrix(self.amplifier_prefactor(r) * V.entries)

    @classmethod
    def ideal(cls) -> "StateModel":
        return cls()

    @classmethod
    def coupler(cls, beta: float) -> "StateModel":
        return cls(coupling_beta=beta)

    @classmethod
    def realistic(cls, chi1: float, chi2: float, beta: float) -> "StateModel":
        return cls(coupling_beta=beta, jpa=JpaNoiseModel(chi1=chi1, chi2=chi2))
