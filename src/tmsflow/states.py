"""Constructors for every covariance matrix used in the package.

Covers ideal two-mode squeezed (TMS) states, local noise injection into
mode B (both the ideal large-bath limit and the explicit directional
coupler) and the squeezing-level conversions.  :class:`StateModel` maps
(squeezing level, injected noise) to a state for each of the three noise
models, either as a covariance matrix or, broadcast over arrays of both
parameters, as the factored standard form that the correlation kernel
reads.  It alone checks a model's parameters (the coupling beta once, when
the model is built) and squeezing levels, and evaluates the amplifier law
n(G) = chi1 (G - 1)**chi2 (:func:`_amplifier_q`), also for the fit
(:meth:`StateModel._levels`) and for :func:`jpa_noise`.

Squeezing conventions: the TMS state is the 50:50 superposition of a
q-squeezed mode A and a p-squeezed mode B with equal squeezing factor r,
giving the cross block ``sinh(2r) sigma_z / 4``.  The squeezing level in
dB relates to r via ``r = S / (20 log10 e)``; equivalently
``exp(2r) = 10^(S/10)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadCouplingError, DomainError, NonFiniteError, NumericalError
from .symplectic import CovarianceMatrix, StandardForm, TwoModeCovariance, VACUUM_VARIANCE

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


def _check_noise(n: float) -> None:
    """Reject an injected noise photon number below 0."""
    if n < 0:
        raise DomainError(f"injected noise photon number must be >= 0, got {n}")


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
    _check_noise(n)
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
    if V.n_modes != 2:
        raise DomainError("noise injection expects a two-mode state")
    m = np.array(V.entries)
    env_var = (1.0 + 2.0 * env_photons) * VACUUM_VARIANCE
    m[2:4, 2:4] = (1.0 - beta) * m[2:4, 2:4] + beta * env_var * np.eye(2)
    m[0:2, 2:4] *= math.sqrt(1.0 - beta)
    m[2:4, 0:2] *= math.sqrt(1.0 - beta)
    return CovarianceMatrix(m)


def jpa_noise(G: float, jpa: JpaNoiseModel) -> float:
    """Amplifier noise photon number n(G) at degenerate gain G >= 1: half
    of :func:`_amplifier_q`, which raises :class:`NumericalError` where
    ``2 n`` is not a finite double."""
    if not G >= 1.0:
        raise DomainError(f"degenerate gain must be >= 1, got {G}")
    return 0.5 * _amplifier_q(G - 1.0, jpa.chi1, jpa.chi2)


def _amplifier_q(excess: float, chi1: float, chi2: float) -> float:
    """``q = 2 n_jpa`` from the gain excess ``excess = G - 1``, given as
    ``expm1(2r)`` at squeezing factor r so that it stays where ``1 + q``
    rounds to 1.  The one evaluation of the power law: raises
    :class:`NumericalError` where q is not a finite double."""
    if excess == 0.0:
        return 0.0
    try:
        q = 2.0 * (chi1 * excess**chi2)
    except OverflowError:
        q = math.inf
    if not math.isfinite(q):
        raise NumericalError(f"amplifier noise at gain {1.0 + excess:.3g} overflows double precision")
    return q


def _spread(errors: dict, shape: tuple, part: np.ndarray, failures) -> None:
    """Record each ``(index into part, error)`` for every cell of the
    broadcast ``shape`` that reads that element; earlier records win."""
    for i, exc in failures:
        hit = np.zeros(part.shape, dtype=bool)
        hit.flat[i] = True
        for cell in np.flatnonzero(np.broadcast_to(hit, shape)):
            errors.setdefault(int(cell), exc)


class _BaseFamily(NamedTuple):
    """The amplifier-free (p = 1) part of :meth:`StateModel.standard_form`
    on one broadcast shape (see there): every array :func:`_amplified`
    reads, and the errors of rejected levels and noise."""

    full: np.ndarray  # zeros
    errors: dict
    beta: float
    t: float  # sqrt(1 - beta)
    a0: np.ndarray
    b0: np.ndarray
    v: np.ndarray  # b0 - 1
    v_plus_2: np.ndarray
    big_s: np.ndarray  # sinh 2r
    s2: np.ndarray
    g0: np.ndarray
    nu_sum: np.ndarray  # (nu+ - nu-) + (nu+ + nu-)
    plus0: np.ndarray  # nu+^2 - 1
    minus0: np.ndarray  # nu-^2 - 1
    w_a0: np.ndarray
    entry: np.ndarray  # the largest matrix entry at p = 1


def _amplified(base: _BaseFamily, q: np.ndarray, gain_errors: list) -> StandardForm:
    """The standard form of a base family scaled by the amplifier prefactor
    ``p = 1 + q``; ``q`` is indexed like the levels, as are the
    ``(index, error)`` pairs of its overflowing levels.  Call it, like
    :meth:`StateModel._base_family`, under ``np.errstate(all="ignore")``."""
    (full, errors, beta, t, a0, b0, v, v_plus_2, big_s, s2, g0, nu_sum, plus0, minus0, w_a0,
     entry) = base
    errors = dict(errors)
    _spread(errors, full.shape, q, gain_errors)
    q = q + full
    p = 1.0 + q
    p2, q2 = p * p, q * (q + 2.0)  # p^2 and p^2 - 1
    a, b, c = p * a0, p * b0, p * t * big_s
    nu_plus = 0.5 * p * nu_sum
    g = p2 * g0
    nu_minus, c_minus = g / nu_plus, 2.0 * c
    n_prod = (p2 * plus0 + q2) * (p2 * minus0 + q2)
    a2m1 = p2 * s2 + q2
    b2m1 = p2 * v * v_plus_2 + q2
    root_n = np.sqrt(n_prod)
    root_a = np.hypot(np.sqrt(b2m1) * root_n, q2 + p2 * w_a0)
    root_b = np.hypot(np.sqrt(a2m1) * root_n, q2 + p2 * beta * s2)
    entries = np.isfinite(p * entry)
    if not entries.all():
        for cell in np.flatnonzero(~entries):
            errors.setdefault(int(cell), NonFiniteError("covariance matrix has NaN or infinite entries"))
    first = np.ones(full.shape, dtype=bool)
    return StandardForm(
        a, b, c_minus, full, g, g, nu_plus, nu_minus, n_prod, a2m1, b2m1,
        root_a, root_b, first, first, errors=errors,
    )


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
        squeezing factor r; 1 for models without amplifier noise.  Raises
        :class:`NumericalError` where it is not a finite double."""
        return 1.0 + self._amplifier_excess(math.expm1(2.0 * r))

    def _amplifier_excess(self, excess: float) -> float:
        """``q = p - 1`` of :meth:`amplifier_prefactor` at the gain excess
        ``excess = expm1(2r)`` (:func:`_amplifier_q`)."""
        if self.jpa is None:
            return 0.0
        return _amplifier_q(excess, self.jpa.chi1, self.jpa.chi2)

    def state(self, s_db: float, n: float) -> TwoModeCovariance:
        """State at squeezing level ``s_db`` (dB) with ``n`` noise photons
        injected into mode B; the coupler's environment holds ``n / beta``."""
        r = _squeezing_factor(s_db)
        if self.coupling_beta is None:
            return inject_noise_ideal(ideal_tms(r), n)
        _check_noise(n)
        V = inject_noise_coupler(ideal_tms(r), self.coupling_beta, n / self.coupling_beta)
        if self.jpa is None:
            return V
        p = self.amplifier_prefactor(r)
        with np.errstate(over="ignore"):  # inf entries fail validation
            return CovarianceMatrix(p * V.entries)

    def standard_form(self, s_db, n) -> StandardForm:
        """The model's states on arrays of squeezing levels ``s_db`` (dB)
        and injected noise ``n``, broadcast together, as the factored
        standard form the correlation kernel reads.

        In vacuum-1 units, with ``A = cosh 2r = 1 + u``, ``S = sinh 2r``,
        ``t = sqrt(1 - beta)`` (``beta = 0`` for the ideal model) and the
        amplifier prefactor ``p = 1 + q`` (1 without amplifier), every state has
        ``a = p A``, ``b = p (A - beta u + 2n)``, ``c1 = -c2 = p t S`` and
        ``g = ab - c^2 = p^2 g0`` with ``g0 = 1 + beta u + 2n A`` (``1 + 2an``
        for the ideal model).  Nothing that cancels is formed by
        subtraction:

        * the EPR variances ``e-+ = a + b -+ 2c`` are ``p [e^{2r} (1 -+ t)^2
          + e^{-2r} (1 +- t)^2] / 2 + p (beta + 2n)``, so ``nu+ + nu- =
          sqrt(e- e+)``, ``nu+ - nu- = |a - b|`` and ``nu- = g / nu+``;
        * at ``p = 1``, ``N = (nu+^2 - 1)(nu-^2 - 1) = 4n(n + beta) S^2``
          (``4 n^2 c^2`` for the ideal model) and ``nu+^2 - 1 + nu-^2 - 1 =
          beta^2 u^2 + 2 beta u + 4n(1 - beta) u + 4n(n + 1)``; with the
          amplifier each factor becomes ``p^2 (nu0^2 - 1) + q (q + 2)``;
        * the first-branch discord radicands are ``(b^2 - 1) N + w_A^2`` and
          ``(a^2 - 1) N + w_B^2`` with ``w_B = a^2 - c^2 - 1 = p^2 - 1 + p^2
          beta S^2`` and ``w_A = b^2 - c^2 - 1 = p^2 - 1 + p^2 (4n((1 -
          beta) u + n + 1) - beta (1 - beta) u^2)``; that branch's exact
          condition reduces to ``c^4 (a - b g)^2 >= 0`` and always holds.

        A cell whose parameters are rejected carries, in ``errors``, the
        error :meth:`state` raises for them: the squeezing level first, then
        the noise, then an overflowing amplifier prefactor, then entries
        beyond the double range.  Refs: Serafini, Illuminati and De Siena,
        J. Phys. B 37, L21 (2004); Adesso and Datta, PRL 105, 030501 (2010).
        """
        s = np.asarray(s_db, dtype=float)
        return self._standard_form(s, self._levels(s), n)

    def _levels(self, s: np.ndarray) -> tuple:
        """The noise-independent part of :meth:`standard_form` on an array
        of squeezing levels: r, the gain excess ``expm1(2r)`` and the
        amplifier excess ``q = p - 1`` per level (each 0 at a rejected
        level), and ``(index, error)`` lists of rejected levels and of
        overflowing prefactors.  A root finder computes it once per batch,
        and the fit once per fit on its distinct levels."""
        r, excess, q = np.zeros(s.shape), np.zeros(s.shape), np.zeros(s.shape)
        level_errors, gain_errors = [], []
        for i, level in enumerate(s.flat):
            try:
                r.flat[i] = r_i = _squeezing_factor(float(level))
                excess.flat[i] = e_i = math.expm1(2.0 * r_i)
                q.flat[i] = self._amplifier_excess(e_i)
            except DomainError as exc:
                level_errors.append((i, exc))
            except NumericalError as exc:
                gain_errors.append((i, exc))
        return r, excess, q, level_errors, gain_errors

    def _standard_form(self, s: np.ndarray, levels: tuple, n) -> StandardForm:
        """:meth:`standard_form` on levels ``s`` whose :meth:`_levels` are given."""
        r, _, q, level_errors, gain_errors = levels
        with np.errstate(all="ignore"):
            return _amplified(self._base_family(s, r, level_errors, n), q, gain_errors)

    def _base_family(self, s: np.ndarray, r: np.ndarray, level_errors: list, n) -> _BaseFamily:
        """The part of :meth:`_standard_form` that does not read the
        amplifier excess q, with the errors of rejected levels and noise.
        Call it under ``np.errstate(all="ignore")``."""
        n = np.asarray(n, dtype=float)
        full = np.zeros(np.broadcast_shapes(s.shape, n.shape))
        noise_errors = []
        if (n < 0.0).any():
            noise_errors = [
                (i, DomainError(f"injected noise photon number must be >= 0, got {float(n.flat[i])}"))
                for i in np.flatnonzero(n < 0.0)
            ]
        errors: dict = {}
        _spread(errors, full.shape, s, level_errors)
        _spread(errors, full.shape, n, noise_errors)

        beta = self.coupling_beta or 0.0
        t = math.sqrt(1.0 - beta)
        t_minus, t_plus = beta / (1.0 + t), 1.0 + t  # 1 - t and 1 + t
        r, n = r + full, n + full  # every field takes the full shape
        u = 2.0 * np.sinh(r) ** 2  # A - 1
        big_s = np.sinh(2.0 * r)
        s2 = big_s * big_s
        gain = np.exp(2.0 * r)
        v = (1.0 - beta) * u + 2.0 * n  # b0 - 1
        g0 = 1.0 + beta * u + 2.0 * n * (1.0 + u)
        # Base family (p = 1): EPR variances, nu+ and the two factors of N.
        e_minus = 0.5 * (gain * t_minus**2 + t_plus**2 / gain) + beta + 2.0 * n
        e_plus = 0.5 * (gain * t_plus**2 + t_minus**2 / gain) + beta + 2.0 * n
        spread = np.abs(beta * u - 2.0 * n)  # |a0 - b0| = nu+ - nu-
        width = np.sqrt(e_minus) * np.sqrt(e_plus)  # nu+ + nu-
        w_a0 = 4.0 * n * ((1.0 - beta) * u + n + 1.0)
        plus0 = 0.5 * (beta * u * (beta * u + 2.0) + w_a0 + spread * width)  # nu+^2 - 1
        w_a0 -= beta * (1.0 - beta) * u * u
        n0 = 4.0 * n * (n + beta) * s2
        minus0 = n0 / np.where(plus0 > 0.0, plus0, 1.0)  # nu-^2 - 1; n0 = 0 where plus0 is
        a0, b0 = 1.0 + u, 1.0 + v
        # The matrix entries are p a0/4 and p b0/4 (c <= a).
        return _BaseFamily(
            full, errors, beta, t, a0, b0, v, v + 2.0, big_s, s2, g0, spread + width,
            plus0, minus0, w_a0, 0.25 * np.maximum(a0, b0),
        )

    @classmethod
    def ideal(cls) -> "StateModel":
        return cls()

    @classmethod
    def coupler(cls, beta: float) -> "StateModel":
        return cls(coupling_beta=beta)

    @classmethod
    def realistic(cls, chi1: float, chi2: float, beta: float) -> "StateModel":
        return cls(coupling_beta=beta, jpa=JpaNoiseModel(chi1=chi1, chi2=chi2))
