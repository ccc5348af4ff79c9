"""Independent 50-digit reference for the ideal noise-injected TMS family.

Built only from the analytic covariance entries in vacuum-1 units,
``a = cosh 2r``, ``b = a + 2n``, ``c = sinh 2r`` (cross block
``c * sigma_z``), so it shares no arithmetic with the package under test:
symplectic invariants, the Gaussian-discord conditional determinant, and
the EoF bound through ``gamma = ln[(e^{2r} + n) / (1 + e^{2r} n)] / 2``.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50


def _f(x):
    """Entropy kernel in vacuum-1 units; f(1) = 0."""
    plus, minus = (x + 1) / 2, (x - 1) / 2
    if minus <= 0:
        return mp.mpf(0)
    return plus * mp.log(plus) - minus * mp.log(minus)


def _conditional_det_min(a, b, c, d):
    """Minimised conditional determinant after measuring the second mode
    (block determinants ``a`` unmeasured, ``b`` measured, ``c`` cross,
    ``d`` full)."""
    if b != 1 and (d - a * b) ** 2 <= (1 + b) * c * c * (a + d):
        rad = c * c + (b - 1) * (d - a)
        return (2 * c * c + (b - 1) * (d - a) + 2 * abs(c) * mp.sqrt(max(rad, 0))) / (b - 1) ** 2
    rad = c**4 + (d - a * b) ** 2 - 2 * c * c * (a * b + d)
    return (a * b - c * c + d - mp.sqrt(max(rad, 0))) / (2 * b)


def ideal_report(s_db: float, n: float) -> dict[str, float]:
    """D_A, D_B, E_F, I_AB, the three deltas and gamma, as floats."""
    with mp.workdps(DIGITS):
        s, n = mp.mpf(s_db), mp.mpf(n)
        r = s * mp.log(10) / 20
        a = mp.cosh(2 * r)
        b = a + 2 * n
        c = mp.sinh(2 * r)
        det_a, det_b, det_c = a * a, b * b, -c * c
        det = (a * b - c * c) ** 2
        delta = det_a + det_b + 2 * det_c
        root = mp.sqrt(max(delta * delta - 4 * det, 0))
        nu_plus = mp.sqrt((delta + root) / 2)
        nu_minus = mp.sqrt((delta - root) / 2)
        s_ab = _f(nu_plus) + _f(nu_minus)
        d_a = _f(b) - s_ab + _f(mp.sqrt(_conditional_det_min(det_a, det_b, det_c, det)))
        d_b = _f(a) - s_ab + _f(mp.sqrt(_conditional_det_min(det_b, det_a, det_c, det)))
        g = mp.exp(2 * r)
        gamma = mp.log((g + n) / (1 + g * n)) / 2
        e_f = mp.sign(gamma) * _f(mp.cosh(2 * gamma))
        i_ab = _f(a) + _f(b) - s_ab
        values = {
            "d_a": d_a,
            "d_b": d_b,
            "e_f": e_f,
            "i_ab": i_ab,
            "delta_a": d_a - e_f,
            "delta_b": d_b - e_f,
            "delta_ab": (d_a + d_b) / 2 - e_f,
            "gamma": gamma,
        }
        return {k: float(v) for k, v in values.items()}
