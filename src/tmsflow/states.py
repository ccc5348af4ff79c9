"""Constructors for every covariance matrix used in the package.

Covers ideal two-mode squeezed (TMS) states, local noise injection into
mode B (both the ideal large-bath limit and the explicit directional
coupler) and the squeezing-level conversions.  :class:`StateModel` maps
(squeezing level, injected noise) to a state for each of the three noise
models, either as a covariance matrix or, broadcast over arrays of both
parameters, as the factored standard form that the correlation kernel
reads.  It alone checks a model's parameters (the coupling beta once, when
the model is built) and squeezing levels, and evaluates the amplifier law
n(G) = chi1 (G - 1)**chi2 (:func:`_amplifier_q`), also for the fit and
:func:`jpa_noise`.  The standard form has three stages: the level terms
(:meth:`StateModel._levels`), the noise terms of the amplifier-free family
(:meth:`StateModel._base_family`) and the scaling by the amplifier
prefactor ``p = 1 + q`` (:func:`_amplified`).  A sweep runs each once; the
crossover root finder varies the noise, so it forms the level terms, and
n_sd from their r and q (:meth:`StateModel._n_sd`), once per batch; the fit
varies chi, so q, and forms the first two stages once per number of points.

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

from .errors import BadCouplingError, DomainError, NoSignChangeError, NonFiniteError, NumericalError
from .symplectic import CovarianceMatrix, StandardForm, TwoModeCovariance, VACUUM_VARIANCE, _failed

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
    rounds to 1.  The one evaluation of the power law, 0 where chi1 is:
    raises :class:`NumericalError` where q is not a finite double."""
    if excess == 0.0 or chi1 == 0.0:
        return 0.0
    try:
        q = 2.0 * (chi1 * excess**chi2)
    except OverflowError:
        q = math.inf
    if not math.isfinite(q):
        raise NumericalError(f"amplifier noise at gain {1.0 + excess:.3g} overflows double precision")
    return q


class _Family(NamedTuple):
    """The terms of the base family (p = 1) of
    :meth:`StateModel.standard_form` that read only the squeezing level,
    on an array of levels, with ``u = A - 1``, ``S = sinh 2r`` and ``t =
    sqrt(1 - beta)`` (see there); a ``*_level`` field is the level part of
    the :class:`_BaseFamily` field of that name."""

    big_s: np.ndarray  # S
    s2: np.ndarray  # S^2
    a0: np.ndarray  # 1 + u
    v0: np.ndarray  # (1 - beta) u
    bu: np.ndarray  # beta u
    g0_level: np.ndarray  # 1 + beta u
    e_minus_level: np.ndarray  # (e^{2r} (1 - t)^2 + (1 + t)^2 / e^{2r}) / 2 + beta
    e_plus_level: np.ndarray  # (e^{2r} (1 + t)^2 + (1 - t)^2 / e^{2r}) / 2 + beta
    plus0_level: np.ndarray  # beta u (beta u + 2)
    w_a0_level: np.ndarray  # beta (1 - beta) u^2


def _family(r: np.ndarray, beta: float) -> _Family:
    """The :class:`_Family` of squeezing factors ``r`` at coupling ``beta``.
    Call it under ``np.errstate(all="ignore")``."""
    t = math.sqrt(1.0 - beta)
    t_minus, t_plus = beta / (1.0 + t), 1.0 + t  # 1 - t and 1 + t
    u = 2.0 * np.sinh(r) ** 2  # A - 1
    big_s = np.sinh(2.0 * r)
    gain = np.exp(2.0 * r)
    bu = beta * u
    return _Family(
        big_s, big_s * big_s, 1.0 + u, (1.0 - beta) * u, bu, 1.0 + bu,
        0.5 * (gain * t_minus**2 + t_plus**2 / gain) + beta,
        0.5 * (gain * t_plus**2 + t_minus**2 / gain) + beta,
        bu * (bu + 2.0), beta * (1.0 - beta) * u * u,
    )


class _Levels(NamedTuple):
    """:meth:`StateModel._levels`: the noise-independent part of
    :meth:`StateModel.standard_form` on an array of squeezing levels."""

    r: np.ndarray  # the squeezing factor; 0 at a rejected level
    excess: np.ndarray  # the gain excess expm1(2r); 0 at a rejected level
    rejected: np.ndarray  # k where the level is rejected with rejected_causes[k - 1], else 0
    rejected_causes: tuple
    overflow: np.ndarray  # k where the prefactor overflows with overflow_causes[k - 1], else 0
    overflow_causes: tuple
    family: _Family
    q: np.ndarray  # the amplifier excess p - 1; 0 at a rejected level or overflowing prefactor


class _BaseFamily(NamedTuple):
    """The noise-dependent part of the amplifier-free (p = 1) family of
    :meth:`StateModel.standard_form` on one broadcast shape (see there):
    every such array :func:`_amplified` reads, and the status of rejected
    levels and noise (see :class:`~tmsflow.symplectic.StandardForm`)."""

    full: np.ndarray  # zeros
    status: np.ndarray
    causes: tuple
    b0: np.ndarray
    v: np.ndarray  # b0 - 1
    v_plus_2: np.ndarray
    g0: np.ndarray
    nu_sum: np.ndarray  # (nu+ - nu-) + (nu+ + nu-)
    plus0: np.ndarray  # nu+^2 - 1
    minus0: np.ndarray  # nu-^2 - 1
    w_a0: np.ndarray
    entry: np.ndarray  # the largest matrix entry at p = 1


def _amplified(base: _BaseFamily, levels: _Levels, beta: float) -> StandardForm:
    """The last stage of :meth:`StateModel.standard_form`: the base family
    scaled by the amplifier prefactor ``p = 1 + q``.  The family, ``q`` and
    the overflowing prefactors of ``levels`` are indexed like the levels;
    every term that reads ``q`` is formed here.  Call it, like
    :meth:`StateModel._base_family`, under ``np.errstate(all="ignore")``."""
    full, status, causes, b0, v, v_plus_2, g0, nu_sum, plus0, minus0, w_a0, entry = base
    family, q = levels.family, levels.q
    status, causes = _failed(status, causes, levels.overflow, levels.overflow_causes)
    p = 1.0 + q
    p2, q2 = p * p, q * (q + 2.0)
    a, c_minus = p * family.a0, 2.0 * (p * math.sqrt(1.0 - beta) * family.big_s)
    a2m1 = p2 * family.s2 + q2
    b = p * b0
    nu_plus = 0.5 * p * nu_sum
    g = p2 * g0
    nu_minus = g / nu_plus
    n_prod = (p2 * plus0 + q2) * (p2 * minus0 + q2)
    b2m1 = p2 * v * v_plus_2 + q2
    root_n = np.sqrt(n_prod)
    root_a = np.hypot(np.sqrt(b2m1) * root_n, q2 + p2 * w_a0)
    root_b = np.hypot(np.sqrt(a2m1) * root_n, q2 + p2 * beta * family.s2)  # w_B
    entries = np.isfinite(p * entry)
    if not entries.all():
        cause = NonFiniteError("covariance matrix has NaN or infinite entries")
        status, causes = _failed(status, causes, ~entries, (cause,))
    if a.shape != full.shape:  # level terms that the noise broadcasts
        a, c_minus, a2m1 = a + full, c_minus + full, a2m1 + full
    first = np.ones(full.shape, dtype=bool)
    return StandardForm(
        a, b, c_minus, full, g, g, nu_plus, nu_minus, n_prod, a2m1, b2m1, root_a, root_b,
        first, first, status, causes,
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

        A cell whose parameters are rejected carries, in ``status`` and
        ``causes``, the error :meth:`state` raises for them: the squeezing
        level first, then the noise, then an overflowing amplifier
        prefactor, then entries beyond the double range.  Each rejected
        level, noise value and prefactor has one code, which every cell
        that reads it shares.  Refs: Serafini, Illuminati and De Siena,
        J. Phys. B 37, L21 (2004); Adesso and Datta, PRL 105, 030501 (2010).
        """
        s = np.asarray(s_db, dtype=float)
        return self._standard_form(s, self._levels(s), n)

    def _levels(self, s: np.ndarray) -> _Levels:
        """The noise-independent part of :meth:`standard_form` on an array of
        squeezing levels: the factor r, the gain excess ``expm1(2r)`` and the
        amplifier excess ``q = p - 1`` per level (a rejected level reads r = 0
        and an overflowing prefactor q = 0), the codes and causes of both
        and the :class:`_Family` of the levels.  Each distinct level is
        checked, its prefactor evaluated and its failure coded once, so a
        batch may list a level once per entry.  A root finder forms it, and
        n_sd from it (:meth:`_n_sd`), once per batch, and the fit once per
        number of points on its (point, record) stack, whose q it forms itself."""
        r, excess, q = np.zeros(s.shape), np.zeros(s.shape), np.zeros(s.shape)
        rejected, overflow = np.zeros(s.shape, np.uint32), np.zeros(s.shape, np.uint32)
        rejected_causes, overflow_causes = [], []
        done: dict = {}  # level -> its r, excess, q and codes
        for i, level in enumerate(s.ravel().tolist()):
            if level not in done:
                r_i, e_i, q_i, bad, over = 0.0, 0.0, 0.0, 0, 0
                try:
                    r_i = _squeezing_factor(level)
                    e_i = math.expm1(2.0 * r_i)
                    q_i = self._amplifier_excess(e_i)
                except DomainError as exc:
                    rejected_causes.append(exc)
                    bad = len(rejected_causes)
                except NumericalError as exc:
                    overflow_causes.append(exc)
                    over = len(overflow_causes)
                done[level] = r_i, e_i, q_i, bad, over
            r.flat[i], excess.flat[i], q.flat[i], rejected.flat[i], overflow.flat[i] = done[level]
        with np.errstate(all="ignore"):
            family = _family(r + 0.0, self.coupling_beta or 0.0)  # -0 dB reads as r = +0
        return _Levels(r, excess, rejected, tuple(rejected_causes), overflow, tuple(overflow_causes), family, q)

    def _n_sd(self, s: np.ndarray, levels: _Levels) -> list:
        """:func:`~tmsflow.analysis.sudden_death_point`, or its error, per flat index of ``s``."""
        beta, n_sd = self.coupling_beta or 0.0, []
        fields = (s, levels.r, levels.q, levels.rejected, levels.overflow)
        for s_db, r, q, bad, over in zip(*(x.ravel().tolist() for x in fields)):
            if bad or over:
                n_sd.append(levels.rejected_causes[bad - 1] if bad else levels.overflow_causes[over - 1])
            elif q == 0.0 and r > 0.0:  # without amplifier 1 - beta, which would round
                n_sd.append(1.0 - beta)
            else:
                p, delta = 1.0 + q, 2.0 * math.sinh(r) ** 2
                num = delta * p * (2.0 - beta * (1.0 + p)) - q * q  # q * q is inf where q ** 2 would raise
                if num > 0.0:
                    n_sd.append(num / (2.0 * p * (p * delta + q)))
                else:
                    n_sd.append(NoSignChangeError(f"not entangled at {s_db} dB even without injected noise"))
        return n_sd

    def _standard_form(self, s: np.ndarray, levels: _Levels, n) -> StandardForm:
        """:meth:`standard_form` on levels ``s`` whose :meth:`_levels` are
        given: only the operations that read the noise ``n``."""
        with np.errstate(all="ignore"):
            base = self._base_family(s, levels, n)
            return _amplified(base, levels, self.coupling_beta or 0.0)

    def _base_family(self, s: np.ndarray, levels: _Levels, n) -> _BaseFamily:
        """The noise-dependent part of :meth:`_standard_form` that does not
        read the amplifier excess q, on the levels ``s`` whose
        :meth:`_levels` are given, with the status of rejected levels and
        noise.  Call it under ``np.errstate(all="ignore")``."""
        n = np.asarray(n, dtype=float)
        full = np.zeros(np.broadcast(s, n).shape)
        status, causes = _failed(np.zeros(full.shape, np.uint32), (), levels.rejected, levels.rejected_causes)
        negative = n < 0.0
        if negative.any():  # one code per noise value, in C order
            codes = np.cumsum(negative, dtype=np.uint32).reshape(n.shape) * negative
            message = "injected noise photon number must be >= 0, got %r"
            noise = [DomainError(message % x) for x in n[negative].tolist()]
            status, causes = _failed(status, causes, codes, noise)

        family, beta = levels.family, self.coupling_beta or 0.0
        n = n + full  # every field takes the full shape
        two_n, four_n = 2.0 * n, 4.0 * n
        v = family.v0 + two_n  # b0 - 1
        g0 = family.g0_level + two_n * family.a0
        # Base family (p = 1): EPR variances, nu+ and the two factors of N.
        spread = np.abs(family.bu - two_n)  # |a0 - b0| = nu+ - nu-
        width = np.sqrt(family.e_minus_level + two_n) * np.sqrt(family.e_plus_level + two_n)
        w_a0 = four_n * (family.v0 + n + 1.0)
        plus0 = 0.5 * (family.plus0_level + w_a0 + spread * width)  # nu+^2 - 1
        w_a0 = w_a0 - family.w_a0_level
        n0 = four_n * (n + beta) * family.s2
        minus0 = n0 / np.where(plus0 > 0.0, plus0, 1.0)  # nu-^2 - 1; n0 = 0 where plus0 is
        b0 = 1.0 + v
        # The matrix entries are p a0/4 and p b0/4 (c <= a).
        return _BaseFamily(
            full, status, causes, b0, v, v + 2.0, g0, spread + width, plus0, minus0, w_a0,
            0.25 * np.maximum(family.a0, b0),
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
