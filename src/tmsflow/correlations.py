"""Correlation measures of two-mode Gaussian states.

Provides mutual information, the asymmetric Gaussian quantum discords
``D_A``/``D_B``, the closed-form lower bound ``E_F`` on the entanglement
of formation, and the information-flow differences
``delta_A = D_A - E_F``, ``delta_B = D_B - E_F`` and
``delta_AB = (D_A + D_B)/2 - E_F``.  All entropic quantities are in nats.

Naming of the asymmetric discords follows the measured-subsystem rule:
``D_A`` is the discord extracted by measuring subsystem B (it bounds the
one-way classical correlation about A), and vice versa.  The
:func:`discord` operation takes the *measured* mode as its argument, so
``discord(V, "B")`` returns ``D_A``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .symplectic import (
    _GUARD,
    TwoModeCovariance,
    VACUUM_VARIANCE,
    _ratio,
    _summary,
    entropy_f,
    symplectic_summary,
)

# Discord values this close below zero are clamped to 0; they arise from
# the floating-point limit of the pure-state coincidence D = E_F.
_DISCORD_CLAMP = 1e-10

# Relative dead band for radicands that vanish identically at pure states.
_RADICAND_TOL = 1e-12


def mutual_information(V: TwoModeCovariance) -> float:
    """Quantum mutual information I(A:B) = S(A) + S(B) - S(AB) in nats."""
    return _mutual_information(symplectic_summary(V))


def _mutual_information(s) -> float:
    value = (
        entropy_f(_clamped_sqrt(s.i1))
        + entropy_f(_clamped_sqrt(s.i2))
        - entropy_f(max(s.nu_plus, VACUUM_VARIANCE))
        - entropy_f(max(s.nu_minus, VACUUM_VARIANCE))
    )
    return max(value, 0.0)


def _clamped_sqrt(det: float) -> float:
    return max(math.sqrt(det), VACUUM_VARIANCE)


def eof_gamma(V: TwoModeCovariance) -> float:
    """Signed minimal two-mode squeezing to reach the separability boundary.

    gamma > 0 iff the state is entangled (nu_pt_min < 1/4): undoing two-mode
    squeezing by gamma makes the partial transpose positive.  gamma < 0 for
    separable states, measuring how much extra squeezing the state tolerates
    before its partial transpose turns negative.

    Closed form: with standard-form parameters (a, b, c1, c2) in vacuum-1
    units, ``z = exp(4 gamma)`` solves ``k4 z^2 + k2 z + k0 = 0`` where
    ``k4 = (a+b-2c1)(a+b+2c2)/4`` and ``k0 = (a+b+2c1)(a+b-2c2)/4`` are the
    EPR-variance products and ``k2 = -[det + 1 - (a-b)^2/2]``; the root on
    the entangled/separable side nearest the boundary is taken.  Everything
    is built from the block determinants, so the result is invariant under
    local symplectics; k4 and k0 are assembled from ``c1 - c2`` and
    ``(c1 + c2)^2`` directly, which stays well conditioned when
    ``c1 ~ -c2`` (the near-pure regime where the individual cross
    eigenvalues cancel).
    """
    return _eof_gamma(symplectic_summary(V))


def _eof_gamma(s) -> float:
    i1 = 16.0 * s.i1
    i2 = 16.0 * s.i2
    i3 = 16.0 * s.i3
    i4 = 256.0 * s.i4
    a = math.sqrt(i1)
    b = math.sqrt(i2)
    if a <= 0 or b <= 0:
        raise NumericalError("non-positive marginal determinant")
    # det V = (ab - c1^2)(ab - c2^2) fixes c1^2 + c2^2 given c1 c2 = i3.
    sumsq = (i1 * i2 + i3 * i3 - i4) / (a * b)
    m_minus = sumsq - 2.0 * i3  # (c1 - c2)^2
    m_plus = sumsq + 2.0 * i3  # (c1 + c2)^2
    tol = _RADICAND_TOL * max(1.0, abs(sumsq), abs(2.0 * i3))
    if m_minus < 0.0:
        if m_minus < -tol:
            raise NumericalError(f"negative (c1-c2)^2 term {m_minus:.3e}")
        m_minus = 0.0
    if m_plus < 0.0:
        if m_plus < -tol:
            raise NumericalError(f"negative (c1+c2)^2 term {m_plus:.3e}")
        m_plus = 0.0
    s_minus = math.sqrt(m_minus)  # c1 - c2 >= 0 in standard form
    ab_sum = a + b
    k4 = 0.25 * ((ab_sum - s_minus) ** 2 - m_plus)
    k0 = 0.25 * ((ab_sum + s_minus) ** 2 - m_plus)
    k2 = -(i4 + 1.0 - 0.5 * (a - b) ** 2)
    if k4 <= 0.0 or k0 <= 0.0:
        raise NumericalError("non-positive EPR variance product")
    # Algebraically disc = k2^2 - 4 k4 k0, but that form loses half the
    # significant digits near pure states; this equivalent expression stays
    # accurate because (i4 - 1) and (a - b) vanish there individually.
    ab = a * b
    try:
        disc = (i4 - 1.0) ** 2 - (a - b) ** 2 * (
            (ab + 1.0) ** 2 - (ab + 1.0) * sumsq + i3 * i3
        )
    except OverflowError:
        raise NumericalError("separability discriminant overflows double precision") from None
    if disc < 0.0:
        tol = _RADICAND_TOL * max(1.0, (i4 - 1.0) ** 2, k2 * k2)
        if disc < -tol:
            raise NumericalError(
                f"no squeezing reaches the separability boundary ({disc:.3e})"
            )
        disc = 0.0
    # Roots of the boundary quadratic; z_hi is cancellation-free and z_lo
    # follows from the product z_hi z_lo = k0 / k4.
    z_hi = (-k2 + math.sqrt(disc)) / (2.0 * k4)
    if z_hi <= 0.0:
        raise NumericalError("boundary quadratic has no positive root")
    z_lo = k0 / (k4 * z_hi)
    # On the boundary within roundoff nu_pt_min cannot pick the side.
    if min(abs(z_lo - 1.0), abs(z_hi - 1.0)) <= 1e-12:
        return 0.0
    entangled = s.nu_pt_min < VACUUM_VARIANCE
    if entangled:
        above = [z for z in (z_lo, z_hi) if z > 1.0]
        if not above:
            raise NumericalError("entangled state but no unsqueezing root above 1")
        z = min(above)
    else:
        below = [z for z in (z_lo, z_hi) if z <= 1.0]
        # Boundary states (nu_pt_min == 1/4) sit at z = 1 exactly.
        z = max(below) if below else 1.0
    return 0.25 * math.log(z)


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


def eof_lower_bound(V: TwoModeCovariance) -> float:
    """Closed-form lower bound on the Gaussian entanglement of formation.

    Signed: positive iff entangled, exactly zero at gamma = 0, negative
    for states with a positive partial transpose.
    """
    return eof_from_gamma(eof_gamma(V))


def _conditional_det_min(a: int, b: int, c: int, d: int, q: int) -> float:
    """Minimized conditional-state determinant after measuring the second mode.

    Arguments are the exact block determinants in vacuum-variance-1 units
    times ``q``, an even power of two (``a`` unmeasured block, ``b``
    measured block, ``c`` cross block; ``d`` the full matrix, times
    ``q**2``).  Two-branch closed form (Adesso and Datta, PRL 105, 030501
    (2010)) whose branch test and radicands are exact integers, so floats
    enter only at the square roots.  The radicands vanish identically for
    pure states; :func:`_dead_band` absorbs the rounding of stored entries.
    """
    if (d - a * b) ** 2 * q <= (q + b) * c * c * (a * q + d) and abs(b - q) * 10**9 > q:
        rad = _dead_band((c * c * q, (b - q) * (d - a * q)), q**3, "branch-1")
        # The numerator 2c^2 + (b-1)(d-a) + 2|c| sqrt(rad) is (|c| + sqrt(rad))^2.
        s = math.isqrt(q)
        x = (abs(c) * s << _GUARD) + math.isqrt(rad << 2 * _GUARD)
        return x * x / ((b - q) * s << _GUARD) ** 2
    ab = a * b
    rad = _dead_band((c**4, (d - ab) ** 2, -2 * c * c * (ab + d)), q**4, "branch-2")
    # (ab - c^2 + d - sqrt(rad)) / 2b, free of cancellation since the
    # product of that numerator with ab - c^2 + d + sqrt(rad) is 4abd.
    x = ((ab - c * c + d) << _GUARD) + math.isqrt(rad << 2 * _GUARD)
    return (a * d << (_GUARD + 1)) / (x * q)


def _dead_band(terms: tuple[int, ...], one: int, branch: str) -> int:
    """Sum of exact radicand terms; zero if it is negative by no more than
    ``_RADICAND_TOL`` times the largest term (or ``one``, the integer 1)."""
    rad = sum(terms)
    if rad >= 0:
        return rad
    if -rad * 10**12 <= max(one, *map(abs, terms)):
        return 0
    raise NumericalError(f"negative {branch} radicand {_ratio(rad, one):.3e}")


def discord(V: TwoModeCovariance, measured: str) -> float:
    """Gaussian quantum discord with a local measurement on one subsystem.

    ``measured="B"`` returns ``D_A`` (leading term f(sqrt(I2))), and
    ``measured="A"`` returns ``D_B``.  The optimal Gaussian measurement is
    taken in closed form via the minimized conditional determinant.
    """
    if measured not in ("A", "B"):
        raise DomainError(f"measured subsystem must be 'A' or 'B', got {measured!r}")
    return _discord(*_summary(V), measured)


def _discord(s, invariants: tuple, measured: str) -> float:
    # Rescale the exact determinants to vacuum-variance-1 units: 2x2 blocks
    # pick up a factor 16, the full 4x4 matrix a factor 256.
    i1, i2, i3, i4, e = invariants
    a, b = (i1 << 4, i2 << 4) if measured == "B" else (i2 << 4, i1 << 4)
    e_min = _conditional_det_min(a, b, i3 << 4, i4 << 8, 1 << 2 * e)
    leading = _clamped_sqrt(s.i2 if measured == "B" else s.i1)
    nu_cond = max(math.sqrt(e_min / 16.0), VACUUM_VARIANCE)
    value = (
        entropy_f(leading)
        - entropy_f(max(s.nu_plus, VACUUM_VARIANCE))
        - entropy_f(max(s.nu_minus, VACUUM_VARIANCE))
        + entropy_f(nu_cond)
    )
    if value < 0.0:
        if value < -_DISCORD_CLAMP:
            raise NumericalError(f"discord {value:.3e} below the clamp window")
        value = 0.0
    return value


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
    s, invariants = _summary(V)
    g = _eof_gamma(s)
    e_f = eof_from_gamma(g)
    d_a = _discord(s, invariants, "B")
    d_b = _discord(s, invariants, "A")
    return CorrelationReport(
        d_a=d_a,
        d_b=d_b,
        e_f=e_f,
        i_ab=_mutual_information(s),
        delta_a=d_a - e_f,
        delta_b=d_b - e_f,
        delta_ab=0.5 * (d_a + d_b) - e_f,
        gamma=g,
    )


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


def report_to_json(
    report: CorrelationReport, s_db: float | None = None, n: float | None = None
) -> str:
    doc = {
        "d_a": report.d_a,
        "d_b": report.d_b,
        "e_f": report.e_f,
        "i_ab": report.i_ab,
        "delta_a": report.delta_a,
        "delta_b": report.delta_b,
        "delta_ab": report.delta_ab,
        "gamma": report.gamma,
    }
    if s_db is not None:
        doc["s_db"] = s_db
    if n is not None:
        doc["n"] = n
    return json.dumps(doc)
