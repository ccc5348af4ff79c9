"""Correlation measures of two-mode Gaussian states.

Provides mutual information, the asymmetric Gaussian quantum discords
``D_A``/``D_B``, the closed-form lower bound ``E_F`` on the entanglement
of formation, and the information-flow differences
``delta_A = D_A - E_F``, ``delta_B = D_B - E_F`` and
``delta_AB = (D_A + D_B)/2 - E_F``.  All entropic quantities are in nats.

Every measure is a closed function of a state's standard form, so one
NumPy kernel, :func:`correlation_arrays`, evaluates all of them over
arrays of :class:`~tmsflow.symplectic.StandardForm` at once.  The noise
models supply those arrays in factored form for whole grids
(:meth:`tmsflow.states.StateModel.standard_form`); for an arbitrary state,
:func:`correlation_report` reduces the exact integer invariants of
validation to the same inputs and calls the same kernel on shape-``()``
arrays.  The single measures return fields of that report.

Naming of the asymmetric discords follows the measured-subsystem rule:
``D_A`` is the discord extracted by measuring subsystem B (it bounds the
one-way classical correlation about A), and vice versa.  The
:func:`discord` operation takes the *measured* mode as its argument, so
``discord(V, "B")`` returns ``D_A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalError
from .symplectic import (
    StandardForm,
    TwoModeCovariance,
    _entropy,
    _ratio,
    _sqrt_ratio,
    require_valid,
)

# Discord values this close below zero are clamped to 0; they arise from
# the floating-point limit of the pure-state coincidence D = E_F.
_DISCORD_CLAMP = 1e-10

# The first discord branch needs b^2 - 1 above this for the measured mode.
_BRANCH_1_MIN = 1e-9


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures of one state, in nats.

    ``delta_a``/``delta_b``/``delta_ab`` are the net flows of locally
    inaccessible information implied by the discord-EoF differences.
    """

    d_a: float
    d_b: float
    e_f: float
    i_ab: float
    delta_a: float
    delta_b: float
    delta_ab: float
    gamma: float


class CorrelationArrays(NamedTuple):
    """The fields of :class:`CorrelationReport` as arrays over cells, and
    the error of every failed cell by flat (C-order) index."""

    d_a: np.ndarray
    d_b: np.ndarray
    e_f: np.ndarray
    i_ab: np.ndarray
    delta_a: np.ndarray
    delta_b: np.ndarray
    delta_ab: np.ndarray
    gamma: np.ndarray
    errors: dict


def correlation_report(V: TwoModeCovariance) -> CorrelationReport:
    """Full correlation report for a two-mode state."""
    if V.n_modes != 2:
        raise DimensionMismatchError("correlation measures require a two-mode state")
    nus, _, invariants = require_valid(V)
    res = correlation_arrays(_exact_standard_form(nus, invariants))
    if res.errors:
        raise res.errors[0]
    return CorrelationReport(*(float(x) for x in res[:-1]))


def _exact_standard_form(nus, invariants: tuple) -> StandardForm:
    """The kernel's inputs from validation's exact invariants, as
    shape-``()`` arrays, each correctly rounded or nearly so.

    The block determinants ``I1..I4`` are rescaled to vacuum-1 units as
    exact integers over ``q``, an even power of two (``q**2`` for ``I4``).
    ``N = I4 - (I1 + I2 + 2 I3) + 1`` is exact (clamped at 0, where only the
    rounding of stored entries makes it negative), and so is ``prod = t^2 -
    4 I3^2 I1 I2`` with ``t = I1 I2 + I3^2 - I4``; in standard form ``prod =
    I1 I2 (c1 - c2)^2 (c1 + c2)^2``.  Of ``ab (c1 -+ c2)^2 = t -+ 2 I3 ab``
    the one that cancels is taken as ``prod`` over the other.  ``g1 + g2 =
    (I1 I2 - I3^2 + I4) / ab`` and ``g2 - g1 = (c1 - c2)(c1 + c2)`` give
    ``g2``, and ``g1 = I4 / g2``.  The first discord radicand after
    measuring the mode with block determinant ``m`` is the exact ``(m - 1)
    N + (m + I3 - 1)^2``, and that branch's condition ``(I4 - I1 I2)^2 <= (1
    + m) I3^2 (u + I4)``, with ``u`` the other block's determinant, is
    decided on exact integers.  Beyond the double range this raises
    :class:`NumericalError`.
    """
    i1, i2, i3, i4, e = invariants
    i1, i2, i3, i4, q = i1 << 4, i2 << 4, i3 << 4, i4 << 8, 1 << 2 * e
    qq, i12, i33 = q * q, i1 * i2, i3 * i3
    n = max(i4 - (i1 + i2 + 2 * i3) * q + qq, 0)
    t = i12 + i33 - i4
    prod = t * t - 4 * i33 * i12
    try:
        a, b = math.sqrt(_ratio(i1, q)), math.sqrt(_ratio(i2, q))
        ab = a * b
        big = _ratio(t, qq) + 2.0 * abs(_ratio(i3, q)) * ab
        small = _ratio(prod, qq * qq) / big if prod else 0.0
        m_minus, m_plus = (big, small) if i3 < 0 else (small, big)
        c_minus, c_plus = math.sqrt(m_minus / ab), math.sqrt(m_plus / ab)
        g2 = 0.5 * (_ratio(i12 - i33 + i4, qq) / ab + c_minus * c_plus)
        roots, branches = [], []
        for unmeasured, measured in ((i1, i2), (i2, i1)):
            rad = (measured - q) * n + (measured + i3 - q) ** 2 * q
            roots.append(_sqrt_ratio(rad, q * qq))
            branches.append((i4 - i12) ** 2 * q <= (q + measured) * i33 * (unmeasured * q + i4))
        fields = (
            a, b, c_minus, c_plus, _ratio(i4, qq) / g2, g2, 4.0 * nus[0], 4.0 * nus[1],
            _ratio(n, qq), _ratio(i1 - q, q), _ratio(i2 - q, q), *roots, *branches,
        )
    except OverflowError:
        raise NumericalError("exact invariant beyond the double range") from None
    return StandardForm(*(np.asarray(f) for f in fields), errors={})


def correlation_arrays(sf: StandardForm) -> CorrelationArrays:
    """Every correlation measure of every cell of ``sf`` in one NumPy pass.

    Cells already failed in ``sf.errors`` keep their error; a cell whose
    measures leave the double range fails with :class:`NumericalError`, as
    does a discord below ``-1e-10`` (values above it are clamped to 0).

    E_F: ``z = exp(4 gamma)`` solves ``k4 z^2 + k2 z + k0 = 0`` with the
    EPR-variance products ``k4 = (a+b-2c1)(a+b+2c2)/4 > 0``, ``k0 =
    (a+b+2c1)(a+b-2c2)/4`` and ``-k2 = I4 + 1 - (a-b)^2/2``.  The quadratic
    at z = 1 is ``k4 + k2 + k0 = I1 + I2 - 2 I3 - I4 - 1``, positive exactly
    for entangled states; then both roots lie on one side of 1, and above
    it, since their product ``k0 / k4`` is at least 1 (``k0 - k4 = (a+b)(c1
    - c2)``).  For separable states 1 lies between the roots.  Either way
    the smaller root ``z = 2 k0 / (-k2 + sqrt(disc))`` is the one on the
    boundary side of the state, so no root is chosen.  Every term is
    sign-definite: ``k0 = (a-b)^2/4 + (ab - c1 c2) + (a+b)(c1-c2)/2``, ``ab -
    c1 c2 = g1 + c1 (c1 - c2)`` and ``disc = (g1+1)(g2+1) N + (c1 + c2)^2 (I4
    + 1 + 2(ab - c1 c2))``.  For the models (``c1 + c2 = 0``) this is ``gamma
    = ln[(a + b + 2c) / (g + 1 + sqrt(N))] / 2``.  ``E_F = sign(gamma)
    f(cosh(2 gamma)/4)``, with ``2x - 1/2 = sinh^2 gamma`` taken directly.

    Discords: the minimized conditional-state determinant after measuring
    one mode follows the two-branch closed form of Adesso and Datta, PRL
    105, 030501 (2010), with ``u`` and ``m`` the determinants of the
    unmeasured and the measured block, ``c = I3`` and ``d = I4``.  The first
    branch (its condition from ``sf``, and ``m - 1 > 1e-9``) gives the
    square root ``(|c| + sqrt(rad)) / (m - 1)`` of the numerator ``2c^2 + (m
    - 1)(d - u) + 2|c| sqrt(rad) = (|c| + sqrt(rad))^2`` over ``(m - 1)^2``.
    The second, ``(um - c^2 + d - sqrt(prod)) / 2m``, is taken as ``2ud /
    (um - c^2 + d + sqrt(prod))``, free of cancellation, with ``um - c^2 =
    (ab - c1 c2)(g1 + c1 (c1 + c2))`` and ``sqrt(prod) = ab (c1 - c2)(c1 +
    c2)``.  The seven entropies f(a), f(b), f(nu+-), the two conditional
    terms and E_F's are evaluated once each.
    """
    a, b, c_minus, c_plus, g1, g2 = sf.a, sf.b, sf.c_minus, sf.c_plus, sf.g1, sf.g2
    with np.errstate(all="ignore"):
        c1 = 0.5 * (c_minus + c_plus)
        gap = g1 + c1 * c_minus  # ab - c1 c2
        i4 = g1 * g2
        amb2 = (a - b) ** 2
        k0 = 0.25 * amb2 + gap + 0.5 * (a + b) * c_minus
        # sqrt(disc) as a hypot of square-root products stays finite wherever I4 is.
        root = np.hypot(
            np.sqrt((g1 + 1.0) * (g2 + 1.0)) * np.sqrt(sf.n_prod),
            c_plus * np.sqrt(i4 + 1.0 + 2.0 * gap),
        )
        gamma = 0.25 * np.log(k0 / (0.5 * (i4 + 1.0 - 0.5 * amb2) + 0.5 * root))

        # The conditional symplectic eigenvalue after measuring B (D_A) and A (D_B).
        abs_i3 = c1 * 0.5 * np.abs(c_plus - c_minus)  # |c1 c2|
        x2 = gap * (g1 + c1 * c_plus) + i4 + a * b * c_minus * c_plus
        second = np.sqrt(2.0 * i4 / x2)
        cond_a = np.where(
            sf.branch_a & (sf.b2m1 > _BRANCH_1_MIN), (abs_i3 + sf.root_a) / sf.b2m1, a * second
        )
        cond_b = np.where(
            sf.branch_b & (sf.a2m1 > _BRANCH_1_MIN), (abs_i3 + sf.root_b) / sf.a2m1, b * second
        )
        # entropy_f(x) reads m = 2x - 1/2, which is (nu - 1)/2 for nu in vacuum-1 units.
        f_a, f_b, f_plus, f_minus, f_cond_a, f_cond_b, f_eof = _entropy(
            np.maximum(
                np.stack((
                    sf.a2m1 / (a + 1.0), sf.b2m1 / (b + 1.0), sf.nu_plus - 1.0,
                    sf.nu_minus - 1.0, cond_a - 1.0, cond_b - 1.0, 2.0 * np.sinh(gamma) ** 2,
                )) * 0.5,
                0.0,
            )
        )
        e_f = np.sign(gamma) * f_eof
        d_a = f_b - f_plus - f_minus + f_cond_a
        d_b = f_a - f_plus - f_minus + f_cond_b
        i_ab = np.maximum(f_a + f_b - f_plus - f_minus, 0.0)
        finite = np.isfinite(d_a + d_b + e_f + i_ab + gamma)

    errors = dict(sf.errors)
    if not finite.all():
        for cell in np.flatnonzero(~finite):
            errors.setdefault(int(cell), NumericalError("exact invariant beyond the double range"))
    if (np.minimum(d_a, d_b) < -_DISCORD_CLAMP).any():
        for d in (d_a, d_b):
            for cell in np.flatnonzero(d < -_DISCORD_CLAMP):
                errors.setdefault(
                    int(cell), NumericalError(f"discord {float(d.flat[cell]):.3e} below the clamp window")
                )
    d_a, d_b = np.maximum(d_a, 0.0), np.maximum(d_b, 0.0)
    return CorrelationArrays(
        d_a=d_a,
        d_b=d_b,
        e_f=e_f,
        i_ab=i_ab,
        delta_a=d_a - e_f,
        delta_b=d_b - e_f,
        delta_ab=0.5 * (d_a + d_b) - e_f,
        gamma=gamma,
        errors=errors,
    )


def discord(V: TwoModeCovariance, measured: str) -> float:
    """Gaussian quantum discord with a local measurement on one subsystem.

    ``measured="B"`` returns ``D_A`` (leading term f(sqrt(I2))), and
    ``measured="A"`` returns ``D_B``.  The optimal Gaussian measurement is
    taken in closed form via the minimized conditional determinant.
    """
    if measured not in ("A", "B"):
        raise DomainError(f"measured subsystem must be 'A' or 'B', got {measured!r}")
    report = correlation_report(V)
    return report.d_a if measured == "B" else report.d_b


def eof_gamma(V: TwoModeCovariance) -> float:
    """Signed minimal two-mode squeezing to reach the separability boundary.

    gamma > 0 iff the state is entangled: undoing two-mode squeezing by
    gamma makes the partial transpose positive.  gamma < 0 for separable
    states, measuring how much extra squeezing the state tolerates before
    its partial transpose turns negative.
    """
    return correlation_report(V).gamma


def eof_lower_bound(V: TwoModeCovariance) -> float:
    """Closed-form lower bound on the Gaussian entanglement of formation.

    Signed: positive iff entangled, exactly zero at gamma = 0, negative
    for states with a positive partial transpose.
    """
    return correlation_report(V).e_f


def gamma_ideal(r: float, n: float) -> float:
    """Analytic gamma for the ideally noise-injected TMS family.

    gamma(r, n) = ln[(e^{2r} + n) / (1 + e^{2r} n)] / 2; zero at n = 1 for
    every r, negative beyond.
    """
    if r < 0:
        raise DomainError(f"squeezing factor must be >= 0, got {r}")
    if n < 0:
        raise DomainError(f"noise photon number must be >= 0, got {n}")
    g = math.exp(2.0 * r)
    return 0.5 * math.log((g + n) / (1.0 + g * n))
