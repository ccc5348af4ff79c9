"""Correlation measures of two-mode Gaussian states.

Provides mutual information, the asymmetric Gaussian quantum discords
``D_A``/``D_B``, the closed-form lower bound ``E_F`` on the entanglement
of formation, and the information-flow differences
``delta_A = D_A - E_F``, ``delta_B = D_B - E_F`` and
``delta_AB = (D_A + D_B)/2 - E_F``.  All entropic quantities are in nats.

Every measure is a function of the block determinants and symplectic
eigenvalues that validation computes, so :func:`correlation_report` takes
them all in one exact pass and the single measures return its fields.

Naming of the asymmetric discords follows the measured-subsystem rule:
``D_A`` is the discord extracted by measuring subsystem B (it bounds the
one-way classical correlation about A), and vice versa.  The
:func:`discord` operation takes the *measured* mode as its argument, so
``discord(V, "B")`` returns ``D_A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatchError, DomainError, NumericalError
from .symplectic import (
    _GUARD,
    TwoModeCovariance,
    VACUUM_VARIANCE,
    _ratio,
    entropy_f,
    require_valid,
)

# Discord values this close below zero are clamped to 0; they arise from
# the floating-point limit of the pure-state coincidence D = E_F.
_DISCORD_CLAMP = 1e-10


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


def correlation_report(V: TwoModeCovariance) -> CorrelationReport:
    """Full correlation report for a two-mode state."""
    if V.n_modes != 2:
        raise DimensionMismatchError("correlation measures require a two-mode state")
    nus, _, invariants = require_valid(V)
    return _report(nus, invariants)


def _report(nus, invariants: tuple) -> CorrelationReport:
    """Every measure from one pass over the validation's exact invariants.

    The block determinants ``I1..I4`` are rescaled to vacuum-variance-1
    units as exact integers over ``q``, an even power of two (``q**2`` for
    ``I4``).  Two exact integers serve several measures:
    ``N = I4 - (I1 + I2 + 2 I3) + 1 = (nu+^2 - 1)(nu-^2 - 1)`` (clamped at
    0, where only the rounding of stored entries makes it negative) and
    ``prod = t^2 - 4 I3^2 I1 I2`` with ``t = I1 I2 + I3^2 - I4``.  In
    standard form (a, b, c1 >= |c2|), ``prod = I1 I2 (c1 - c2)^2 (c1 +
    c2)^2``, never negative for a positive-definite matrix.  The entropies
    f(nu+-), f(sqrt(I1)) and f(sqrt(I2)) are each evaluated once.

    E_F: ``z = exp(4 gamma)`` solves ``k4 z^2 + k2 z + k0 = 0`` with the
    EPR-variance products ``k4 = (a+b-2c1)(a+b+2c2)/4 > 0``, ``k0 =
    (a+b+2c1)(a+b-2c2)/4`` and ``-k2 = I4 + 1 - (a-b)^2/2``, where ``g_i =
    ab - c_i^2``.  The quadratic at z = 1 is ``k4 + k2 + k0 = I1 + I2 - 2 I3
    - I4 - 1``, positive exactly for entangled states; then both roots lie
    on one side of 1, and above it, since their product ``k0 / k4`` is at
    least 1 (``k0 - k4 = (a+b)(c1 - c2)``).  For separable states 1 lies
    between the roots.  Either way the smaller root ``z = 2 k0 / (-k2 +
    sqrt(disc))`` is the one on the boundary side of the state, so no root
    is chosen.  Every term is sign-definite: ``k0 = [(a-b)^2 + 4(ab - I3) +
    2(a+b)(c1-c2)]/4`` and ``disc = k2^2 - 4 k4 k0 = (g1+1)(g2+1) N + (c1 +
    c2)^2 (I4 + 1 + 2(ab - I3))``.  Of ``ab (c1 -+ c2)^2 = t -+ 2 I3 ab``,
    the one that cancels is taken as ``prod`` over the other, and ``ab -
    I3`` likewise from the exact ``I1 I2 - I3^2``, so nothing cancels near
    pure states.

    Discords: the minimized conditional-state determinant after measuring
    one mode follows the two-branch closed form of Adesso and Datta, PRL
    105, 030501 (2010), with ``a`` and ``b`` now the determinants of the
    unmeasured and the measured block, ``c = I3`` and ``d = I4``.  Its
    branch test and radicands are exact integers, so floats enter only at
    the square roots.  The first radicand is ``I3^2 + (b - 1)(I4 - a) = (b -
    1) N + (b + I3 - 1)^2``, with ``b > 1`` required of that branch.  The
    second, ``c^4 + (d - ab)^2 - 2 c^2 (ab + d)``, expands to ``(ab + c^2 -
    d)^2 - 4 c^2 ab``: it is ``prod`` itself, the same integer for both
    measured modes.
    """
    i1, i2, i3, i4, e = invariants
    i1, i2, i3, i4, q = i1 << 4, i2 << 4, i3 << 4, i4 << 8, 1 << 2 * e
    qq, i12, i33 = q * q, i1 * i2, i3 * i3
    n = max(i4 - (i1 + i2 + 2 * i3) * q + qq, 0)
    t = i12 + i33 - i4
    prod = t * t - 4 * i33 * i12

    a, b = math.sqrt(_ratio(i1, q)), math.sqrt(_ratio(i2, q))
    ab, c1c2 = a * b, _ratio(i3, q)
    i4_1 = _ratio(i4 + qq, qq)  # I4 + 1
    # ab - c1 c2 > 0, from the exact I1 I2 - I3^2 where it would cancel.
    gap = _ratio(i12 - i33, qq) / (ab + c1c2) if i3 > 0 else ab - c1c2
    # ab (c1 -+ c2)^2: the sum directly, the difference from prod.
    big = _ratio(t, qq) + 2.0 * abs(c1c2) * ab
    small = _ratio(prod, qq * qq) / big if prod else 0.0
    m_minus, m_plus = (big, small) if i3 < 0 else (small, big)
    amb = _ratio(i1 - i2, q) / (a + b)  # a - b
    k0 = 0.25 * amb * amb + gap + 0.5 * (a + b) * math.sqrt(m_minus / ab)
    minus_k2 = i4_1 - 0.5 * amb * amb
    gg = i4_1 + _ratio(i12 - i33 + i4, qq) / ab  # (g1 + 1)(g2 + 1)
    # z = 2 k0 / (-k2 + sqrt(disc)); sqrt(disc) as a hypot and the halved
    # sum stay finite wherever I4 itself is.
    root = math.hypot(
        math.sqrt(gg) * math.sqrt(_ratio(n, qq)),
        math.sqrt(m_plus / ab) * math.sqrt(i4_1 + 2.0 * gap),
    )
    gamma = 0.25 * math.log(k0 / (0.5 * minus_k2 + 0.5 * root))
    e_f = eof_from_gamma(gamma)

    # In vacuum-1/4 units sqrt(I1) is a / 4 exactly.
    f_a = entropy_f(max(0.25 * a, VACUUM_VARIANCE))
    f_b = entropy_f(max(0.25 * b, VACUUM_VARIANCE))
    f_plus = entropy_f(max(float(nus[0]), VACUUM_VARIANCE))
    f_minus = entropy_f(max(float(nus[1]), VACUUM_VARIANCE))
    # Branch 2: (ab - c^2 + d - sqrt(prod)) / 2b, free of cancellation since
    # the product of that numerator with ab - c^2 + d + sqrt(prod) is 4abd.
    x2 = ((i12 - i33 + i4) << _GUARD) + math.isqrt(prod << 2 * _GUARD)
    discords = []
    # D_A measures B (leading term f(sqrt(I2))), D_B measures A.
    for unmeasured, measured, f_lead in ((i1, i2, f_b), (i2, i1, f_a)):
        branch_1 = (i4 - i12) ** 2 * q <= (q + measured) * i33 * (unmeasured * q + i4)
        if branch_1 and (measured - q) * 10**9 > q:
            # The numerator 2c^2 + (b-1)(d-a) + 2|c| sqrt(rad) is (|c| + sqrt(rad))^2.
            rad = (measured - q) * n + (measured + i3 - q) ** 2 * q
            s = math.isqrt(q)
            x = (abs(i3) * s << _GUARD) + math.isqrt(rad << 2 * _GUARD)
            e_min = x * x / ((measured - q) * s << _GUARD) ** 2
        else:
            e_min = (unmeasured * i4 << (_GUARD + 1)) / (x2 * q)
        nu_cond = max(math.sqrt(e_min / 16.0), VACUUM_VARIANCE)
        value = f_lead - f_plus - f_minus + entropy_f(nu_cond)
        if value < 0.0:
            if value < -_DISCORD_CLAMP:
                raise NumericalError(f"discord {value:.3e} below the clamp window")
            value = 0.0
        discords.append(value)
    d_a, d_b = discords
    return CorrelationReport(
        d_a=d_a,
        d_b=d_b,
        e_f=e_f,
        i_ab=max(f_a + f_b - f_plus - f_minus, 0.0),
        delta_a=d_a - e_f,
        delta_b=d_b - e_f,
        delta_ab=0.5 * (d_a + d_b) - e_f,
        gamma=gamma,
    )


def mutual_information(V: TwoModeCovariance) -> float:
    """Quantum mutual information I(A:B) = S(A) + S(B) - S(AB) in nats."""
    return correlation_report(V).i_ab


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


def eof_from_gamma(gamma: float) -> float:
    """Signed EoF lower bound for a squeezing parameter gamma.

    ``sign(gamma) * [cosh^2 g ln cosh^2 g - sinh^2 g ln sinh^2 g]`` with
    g = |gamma|; equals ``sign(gamma) * f(cosh(2 gamma)/4)``.
    """
    if gamma == 0.0:
        return 0.0
    sign = 1.0 if gamma > 0 else -1.0
    return sign * entropy_f(math.cosh(2.0 * gamma) * VACUUM_VARIANCE)


REPORT_CSV_HEADER = "S_db,n,D_A,D_B,E_F,I_AB,delta_A,delta_B,delta_AB"


def report_to_csv_row(report: CorrelationReport, s_db: float, n: float) -> str:
    fields = [
        s_db,
        n,
        report.d_a,
        report.d_b,
        report.e_f,
        report.i_ab,
        report.delta_a,
        report.delta_b,
        report.delta_ab,
    ]
    return ",".join(repr(float(x)) for x in fields)
