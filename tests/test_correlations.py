import math
from itertools import product

import numpy as np
import pytest
from scipy.optimize import minimize

from tmsflow.correlations import (
    correlation_arrays,
    correlation_report,
    discord,
    eof_gamma,
    eof_lower_bound,
    gamma_ideal,
)
from tmsflow.analysis import sweep, sweep_blocks_to_csv
from tmsflow.errors import DimensionMismatchError, DomainError, NumericalError
from tmsflow.qkd import QkdScenario, secret_key
from tmsflow.states import (
    StateModel,
    ideal_tms,
    inject_noise_ideal,
    squeezing_db_to_r,
    thermal,
    vacuum,
)
from tmsflow import symplectic
from tmsflow.symplectic import CovarianceMatrix, apply_symplectic, symplectic_summary, tensor, validate

from conftest import random_local_op, random_physical_state

F_COSH2_QUARTER = 1.6198220928977022644
GAMMA_R1_N05 = 0.25953945472881448322  # log((e^2 + 1/2)/(1 + e^2/2)) / 2
EOF_R1_N05 = 0.25549921660354127964


def noisy_tms(r, n):
    return inject_noise_ideal(ideal_tms(r), n)


def discord_measurement_oracle(V, measured):
    """Gaussian discord by explicit minimization over pure single-mode
    measurement covariances M = R(t) diag(l, 1/l) R(t)^T / 4."""
    m = V.entries
    if measured == "B":
        a_blk, b_blk = m[0:2, 0:2], m[2:4, 2:4]
        c_blk = m[0:2, 2:4]
        lead_det = np.linalg.det(b_blk)
    else:
        a_blk, b_blk = m[2:4, 2:4], m[0:2, 0:2]
        c_blk = m[2:4, 0:2]
        lead_det = np.linalg.det(b_blk)

    def f(x):
        x = max(x, 0.25)
        return (2 * x + 0.5) * math.log(2 * x + 0.5) - (2 * x - 0.5) * math.log(
            max(2 * x - 0.5, 1e-300)
        )

    def cond_det(params):
        theta, log_l = params
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, s], [-s, c]])
        meas = rot @ np.diag([math.exp(log_l), math.exp(-log_l)]) @ rot.T / 4.0
        cond = a_blk - c_blk @ np.linalg.inv(b_blk + meas) @ c_blk.T
        return float(np.linalg.det(cond))

    best = math.inf
    for theta0 in (0.0, 0.6, 1.2):
        for log_l0 in (-6.0, -2.0, 0.0, 2.0, 6.0):
            res = minimize(cond_det, x0=[theta0, log_l0], method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
            best = min(best, float(res.fun))
    # symplectic eigenvalues via the invariant closed form
    i1 = np.linalg.det(m[0:2, 0:2])
    i2 = np.linalg.det(m[2:4, 2:4])
    i3 = np.linalg.det(m[0:2, 2:4])
    i4 = np.linalg.det(m)
    delta = i1 + i2 + 2 * i3
    root = math.sqrt(max(delta * delta - 4 * i4, 0.0))
    nu_p = math.sqrt((delta + root) / 2)
    nu_m = math.sqrt(max((delta - root) / 2, 0.0))
    return f(math.sqrt(lead_det)) - f(nu_p) - f(nu_m) + f(math.sqrt(best))


def _f_reference(x):
    """Entropy kernel in vacuum-1 units (mpmath); f(1) = 0."""
    import mpmath as mp

    plus, minus = (x + 1) / 2, (x - 1) / 2
    return mp.mpf(0) if minus <= 0 else plus * mp.log(plus) - minus * mp.log(minus)


def gamma_reference(a, b, c1, c2):
    """gamma of the standard form (a, b, c1 >= |c2|) in vacuum-1 units at
    the working precision, with the root chosen the way the closed form
    once chose it: the smallest root above 1 for an entangled state, the
    largest root at or below 1 (1 itself if there is none) otherwise."""
    import mpmath as mp

    det = (a * b - c1 * c1) * (a * b - c2 * c2)
    k4 = (a + b - 2 * c1) * (a + b + 2 * c2) / 4
    k0 = (a + b + 2 * c1) * (a + b - 2 * c2) / 4
    k2 = -(det + 1 - (a - b) ** 2 / 2)
    root = mp.sqrt(max(k2 * k2 - 4 * k4 * k0, 0))
    roots = ((-k2 - root) / (2 * k4), (-k2 + root) / (2 * k4))
    # the partial transpose is negative iff a^2 + b^2 - 2 c1 c2 > det + 1
    if a * a + b * b - 2 * c1 * c2 > det + 1:
        z = min(z for z in roots if z > 1)
    else:
        z = max((z for z in roots if z <= 1), default=mp.mpf(1))
    return mp.log(z) / 4


def standard_form_reference(a, b, c):
    """50-digit D_A, D_B, I_AB and E_F, with the information-flow
    differences, of the state with blocks a*1, b*1 and c*sigma_z (c >= 0)
    in vacuum-1 units, from its block determinants (Adesso and Datta's
    two-branch conditional determinant)."""
    import mpmath as mp

    f = _f_reference

    def det_min(a, b, c, d):
        if b != 1 and (d - a * b) ** 2 <= (1 + b) * c * c * (a + d):
            return ((abs(c) + mp.sqrt(max(c * c + (b - 1) * (d - a), 0))) / (b - 1)) ** 2
        rad = c**4 + (d - a * b) ** 2 - 2 * c * c * (a * b + d)
        return (a * b - c * c + d - mp.sqrt(max(rad, 0))) / (2 * b)

    det_a, det_b, det_c, det = a * a, b * b, -c * c, (a * b - c * c) ** 2
    delta = det_a + det_b + 2 * det_c
    root = mp.sqrt(max(delta * delta - 4 * det, 0))
    s_ab = f(mp.sqrt((delta + root) / 2)) + f(mp.sqrt((delta - root) / 2))
    d_a = f(b) - s_ab + f(mp.sqrt(det_min(det_a, det_b, det_c, det)))
    d_b = f(a) - s_ab + f(mp.sqrt(det_min(det_b, det_a, det_c, det)))
    gamma = gamma_reference(a, b, c, -c)
    e_f = mp.sign(gamma) * f(mp.cosh(2 * gamma))
    return {
        "d_a": d_a,
        "d_b": d_b,
        "i_ab": f(a) + f(b) - s_ab,
        "e_f": e_f,
        "delta_a": d_a - e_f,
        "delta_b": d_b - e_f,
        "delta_ab": (d_a + d_b) / 2 - e_f,
    }


def ideal_reference(s_db, n):
    """50-digit correlation report of the ideal noise-injected TMS family:
    a = cosh 2r, b = a + 2n, c = sinh 2r, and
    gamma = ln[(e^{2r} + n) / (1 + e^{2r} n)] / 2."""
    import mpmath as mp

    with mp.workdps(50):
        r, n = mp.mpf(s_db) * mp.log(10) / 20, mp.mpf(n)
        ref = standard_form_reference(mp.cosh(2 * r), mp.cosh(2 * r) + 2 * n, mp.sinh(2 * r))
        g = mp.exp(2 * r)
        gamma = mp.log((g + n) / (1 + g * n)) / 2
        e_f = mp.sign(gamma) * _f_reference(mp.cosh(2 * gamma))
        ref.update(
            e_f=e_f,
            delta_a=ref["d_a"] - e_f,
            delta_b=ref["d_b"] - e_f,
            delta_ab=(ref["d_a"] + ref["d_b"]) / 2 - e_f,
        )
        return {k: float(v) for k, v in ref.items()}


def channel_reference(s_db, n, beta, jpa=None, digits=50):
    """50-digit (or ``digits``) correlation report of the coupler model, or
    of the realistic model for ``jpa = (chi1, chi2)``: a = p cosh 2r,
    b = p[(1 - beta) cosh 2r + beta + 2n], c = p sqrt(1 - beta) sinh 2r,
    with p = 1 + 2 chi1 (e^{2r} - 1)^chi2 (1 without the amplifier)."""
    import mpmath as mp

    with mp.workdps(digits):
        r, n, beta = mp.mpf(s_db) * mp.log(10) / 20, mp.mpf(n), mp.mpf(beta)
        p = 1 if jpa is None else 1 + 2 * jpa[0] * (mp.exp(2 * r) - 1) ** jpa[1]
        a = mp.cosh(2 * r)
        ref = standard_form_reference(
            p * a, p * ((1 - beta) * a + beta + 2 * n), p * mp.sqrt(1 - beta) * mp.sinh(2 * r)
        )
        return {k: float(v) for k, v in ref.items()}


EXTREME_S = tuple(0.5 * k for k in range(61))
EXTREME_N = (0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1000.0)
REALISTIC = (0.05, 0.56, 0.01)

# Coupler cells (beta = 0.01) whose E_F once failed with "no squeezing
# reaches the separability boundary".
FORMER_COUPLER_FAILURES = (18.5, 19.0, 21.0, 22.0, 22.5, 26.0, 27.5, 28.0, 28.5, 29.5)


def _extreme_block(model, reference, bound):
    """Assert that every extreme-block cell is ok and that each reported
    quantity lies within ``bound(n)`` of ``reference(s_db, n)``."""
    grid = sweep(model, EXTREME_S, EXTREME_N)
    assert not grid.arrays.errors, grid.arrays.errors
    for (i_s, s_db), (i_n, n) in product(enumerate(grid.s_values), enumerate(grid.n_values)):
        report = grid.report(i_s, i_n)
        dev = max(abs(getattr(report, key) - value) for key, value in reference(s_db, n).items())
        assert dev <= bound(n), (s_db, n, dev)


class TestReference:
    @pytest.mark.parametrize("s_db", [0.5, 2.0, 13.0, 25.5, 29.5])
    @pytest.mark.parametrize("n", [1e-9, 1e-6])
    def test_near_pure_ideal_cells(self, s_db, n):
        report = correlation_report(StateModel.ideal().state(s_db, n))
        for key, value in ideal_reference(s_db, n).items():
            assert getattr(report, key) == pytest.approx(value, abs=1e-8), key

    def test_coupler_discord_at_zero_noise(self):
        import mpmath as mp

        beta = 0.01
        with mp.workdps(50):
            r = mp.mpf(0.5) * mp.log(10) / 20
            a = mp.cosh(2 * r)
            c = mp.sqrt(1 - beta) * mp.sinh(2 * r)
            ref = standard_form_reference(a, (1 - beta) * a + beta, c)
        d_a = correlation_report(StateModel.coupler(beta).state(0.5, 0.0)).d_a
        assert d_a == pytest.approx(float(ref["d_a"]), abs=1e-9)

    def test_ideal_extreme_block(self):
        _extreme_block(StateModel.ideal(), ideal_reference, lambda n: 1e-12)

    def test_realistic_extreme_block(self):
        model = StateModel.realistic(*REALISTIC)

        def reference(s_db, n):
            return channel_reference(s_db, n, REALISTIC[2], REALISTIC[:2])

        _extreme_block(model, reference, lambda n: 1e-12)

    def test_coupler_extreme_block(self):
        _extreme_block(
            StateModel.coupler(0.01), lambda s, n: channel_reference(s, n, 0.01), lambda n: 1e-12
        )

    @pytest.mark.parametrize(
        "s_axis, n_axis",
        [(tuple(range(35, 101, 5)), (0.0, 1e-9, 1e-6)), ((1000.0,), (0.0, 1e-9, 0.1, 1.0, 1000.0))],
        ids=["35-100dB", "1000dB"],
    )
    def test_coupler_beyond_a_stored_matrix(self, s_axis, n_axis):
        # A float matrix of these states no longer carries the model's g:
        # E_F(80 dB, 0) read 5.59868 from it, and 1000 dB overflowed.  The
        # reference carries 50 + S/2 digits.
        grid = sweep(StateModel.coupler(0.01), s_axis, n_axis)
        assert not grid.arrays.errors, grid.arrays.errors
        for (i_s, s_db), (i_n, n) in product(enumerate(grid.s_values), enumerate(grid.n_values)):
            report = grid.report(i_s, i_n)
            ref = channel_reference(s_db, n, 0.01, digits=50 + int(s_db) // 2)
            for key, value in ref.items():
                assert abs(getattr(report, key) - value) <= 1e-12, (s_db, n, key)
        e_f = sweep(StateModel.coupler(0.01), [80.0], [0.0]).report(0, 0).e_f
        assert e_f == pytest.approx(channel_reference(80.0, 0.0, 0.01)["e_f"], abs=1e-12)

    @pytest.mark.parametrize("s_db", FORMER_COUPLER_FAILURES)
    def test_former_coupler_failures(self, s_db):
        report = correlation_report(StateModel.coupler(0.01).state(s_db, 0.0))
        for key, value in channel_reference(s_db, 0.0, 0.01).items():
            assert getattr(report, key) == pytest.approx(value, abs=1e-5), key

    def test_gamma_takes_the_root_of_the_old_selection(self, rng):
        import mpmath as mp

        for _ in range(200):
            V = random_physical_state(rng)
            with mp.workdps(50):
                m = [[4 * mp.mpf(float(x)) for x in row] for row in V.entries]
                i1 = m[0][0] * m[1][1] - m[0][1] ** 2
                i2 = m[2][2] * m[3][3] - m[2][3] ** 2
                i3 = m[0][2] * m[1][3] - m[0][3] * m[1][2]
                i4 = mp.det(mp.matrix(m))
                a, b = mp.sqrt(i1), mp.sqrt(i2)
                t = i1 * i2 + i3 * i3 - i4
                # c1 -+ c2 >= 0 from ab (c1 -+ c2)^2 = t -+ 2 i3 ab
                minus = mp.sqrt(max(t - 2 * i3 * a * b, 0) / (a * b))
                plus = mp.sqrt(max(t + 2 * i3 * a * b, 0) / (a * b))
                ref = gamma_reference(a, b, (plus + minus) / 2, (plus - minus) / 2)
            assert eof_gamma(V) == pytest.approx(float(ref), abs=1e-12)

    def test_results_do_not_depend_on_long_double(self, monkeypatch):
        states = [
            inject_noise_ideal(ideal_tms(r), n)
            for r in np.linspace(0.1, 2.0, 20)
            for n in np.linspace(0.0, 5.0, 20)
        ] + [StateModel.coupler(0.01).state(s_db, n) for s_db in (0.5, 15.0) for n in (0.0, 1e-6)]
        scenarios = [
            QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q)
            for s_db in (0.25, 10.0, 30.0)
            for n_q in (1e-3, 0.1, 0.3)
        ]

        def results():
            return repr(
                (
                    [correlation_report(V) for V in states],
                    [symplectic_summary(V) for V in states],
                    [secret_key(sc) for sc in scenarios],
                )
            )

        native = results()
        monkeypatch.setattr(np, "longdouble", np.float64)
        assert results() == native


class TestMutualInformation:
    def test_product_states_carry_none(self):
        assert correlation_report(vacuum(2)).i_ab == 0.0
        assert correlation_report(tensor(thermal(0.8), thermal(0.3))).i_ab == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pure_tms_is_twice_marginal_entropy(self):
        assert correlation_report(ideal_tms(1.0)).i_ab == pytest.approx(
            2 * F_COSH2_QUARTER, abs=1e-7
        )


class TestGamma:
    def test_pure_tms(self):
        assert eof_gamma(ideal_tms(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_sits_on_the_boundary(self):
        assert eof_gamma(vacuum(2)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.3, 0.9, 1.6])
    def test_one_noise_photon_disentangles(self, r):
        assert abs(eof_gamma(noisy_tms(r, 1.0))) < 1e-9

    def test_analytic_family_values(self):
        assert gamma_ideal(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert gamma_ideal(0.63, 1.0) == 0.0
        assert gamma_ideal(1.0, 0.5) == pytest.approx(GAMMA_R1_N05, abs=1e-15)

    def test_equivalence_with_analytic_family(self):
        sup = 0.0
        for r in np.linspace(0.1, 2.0, 20):
            for n in np.linspace(0.0, 5.0, 20):
                sup = max(sup, abs(eof_gamma(noisy_tms(r, n)) - gamma_ideal(r, n)))
        assert sup < 1e-9

    def test_sign_negative_beyond_one_photon(self):
        assert gamma_ideal(0.8, 2.5) < 0.0
        assert eof_gamma(noisy_tms(0.8, 2.5)) == pytest.approx(
            gamma_ideal(0.8, 2.5), abs=1e-10
        )

    def test_local_symplectic_invariance(self, rng):
        for _ in range(50):
            V = noisy_tms(rng.uniform(0.2, 1.5), rng.uniform(0.0, 2.0))
            moved = apply_symplectic(V, random_local_op(rng))
            assert eof_gamma(moved) == pytest.approx(eof_gamma(V), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_ideal(-0.1, 0.0)
        with pytest.raises(DomainError):
            gamma_ideal(1.0, -0.1)


class TestEofLowerBound:
    def test_pure_tms_value(self):
        assert eof_lower_bound(ideal_tms(1.0)) == pytest.approx(F_COSH2_QUARTER, abs=1e-10)

    @pytest.mark.parametrize("r", [0.4, 0.9, 1.3])
    def test_zero_at_one_noise_photon(self, r):
        assert abs(eof_lower_bound(noisy_tms(r, 1.0))) < 1e-7

    def test_partially_decohered_value(self):
        assert eof_lower_bound(noisy_tms(1.0, 0.5)) == pytest.approx(EOF_R1_N05, abs=1e-10)

    @pytest.mark.parametrize("r", [0.35, 0.8, 1.2])
    def test_sign_change_exactly_at_one(self, r):
        lo, hi = 0.5, 1.5
        f = lambda n: eof_lower_bound(noisy_tms(r, n))
        assert f(lo) > 0 > f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s_db", [4.0, 4.5, 18.5, 23.0])
    def test_boundary_state_takes_the_near_root(self, s_db):
        # nu_pt_min rounds just below 1/4 here; the far root has E_F up to 4.9
        report = correlation_report(StateModel.ideal().state(s_db, 1.0))
        assert abs(report.e_f) < 1e-12
        assert abs(report.gamma) < 1e-12

    def test_signed_continuation(self):
        assert eof_lower_bound(noisy_tms(1.0, 3.0)) < 0.0


class TestDiscord:
    def test_product_state_has_no_discord(self):
        assert discord(tensor(thermal(0.6), thermal(1.1)), "A") == 0.0
        assert discord(tensor(thermal(0.6), thermal(1.1)), "B") == 0.0

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.5])
    def test_pure_state_coincidence(self, r):
        V = ideal_tms(r)
        e_f = eof_lower_bound(V)
        assert abs(discord(V, "A") - e_f) < 1e-8
        assert abs(discord(V, "B") - e_f) < 1e-8

    def test_r1_spot_value(self):
        assert discord(ideal_tms(1.0), "B") == pytest.approx(F_COSH2_QUARTER, abs=1e-8)

    def test_heavy_noise_keeps_positive_discord(self):
        V = noisy_tms(1.0, 100.0)
        d_b = discord(V, "A")
        assert 0.0 < d_b < 0.05
        assert d_b == pytest.approx(discord_measurement_oracle(V, "A"), abs=1e-6)

    def test_closed_form_matches_measurement_oracle(self, rng):
        for _ in range(12):
            V = noisy_tms(rng.uniform(0.2, 1.2), rng.uniform(0.0, 3.0))
            for side in ("A", "B"):
                closed = discord(V, side)
                orac = discord_measurement_oracle(V, side)
                assert closed == pytest.approx(orac, abs=5e-7)

    def test_oracle_on_random_states(self, rng):
        for _ in range(8):
            V = random_physical_state(rng)
            for side in ("A", "B"):
                assert discord(V, side) == pytest.approx(
                    discord_measurement_oracle(V, side), abs=5e-7
                )

    def test_monotone_decay_and_robustness(self):
        r = 0.6908  # ~6 dB
        for side in ("A", "B"):
            values = [discord(noisy_tms(r, n), side) for n in np.logspace(-3, 3, 40)]
            assert all(v > 0.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_heavy_noise_state_stays_sane(self):
        V = noisy_tms(1.0, 1000.0)
        assert eof_lower_bound(V) < 0.0
        i_ab = correlation_report(V).i_ab
        assert 0.0 < i_ab < 10.0

    def test_bounded_by_mutual_information(self, rng):
        for _ in range(1000):
            V = random_physical_state(rng)
            i_ab = correlation_report(V).i_ab
            assert -1e-12 <= discord(V, "A") <= i_ab + 1e-9
            assert -1e-12 <= discord(V, "B") <= i_ab + 1e-9

    def test_local_symplectic_invariance(self, rng):
        for _ in range(50):
            V = noisy_tms(rng.uniform(0.3, 1.4), rng.uniform(0.0, 2.0))
            moved = apply_symplectic(V, random_local_op(rng))
            assert discord(moved, "A") == pytest.approx(discord(V, "A"), abs=1e-9)
            assert discord(moved, "B") == pytest.approx(discord(V, "B"), abs=1e-9)

    def test_measured_argument_validated(self):
        with pytest.raises(DomainError):
            discord(vacuum(2), "C")


class TestCorrelationReport:
    def test_delta_identities(self, rng):
        for _ in range(20):
            V = random_physical_state(rng)
            rep = correlation_report(V)
            assert rep.delta_a == pytest.approx(rep.d_a - rep.e_f, abs=1e-12)
            assert rep.delta_b == pytest.approx(rep.d_b - rep.e_f, abs=1e-12)
            assert rep.delta_ab == pytest.approx(
                0.5 * (rep.d_a + rep.d_b) - rep.e_f, abs=1e-12
            )
            assert rep.i_ab >= rep.d_a - 1e-9
            assert rep.i_ab >= rep.d_b - 1e-9

    def test_pure_state_deltas_vanish(self):
        rep = correlation_report(ideal_tms(0.9))
        assert abs(rep.delta_a) < 1e-8
        assert abs(rep.delta_b) < 1e-8
        assert abs(rep.delta_ab) < 1e-8

    def test_at_sudden_death_delta_b_equals_discord(self):
        rep = correlation_report(noisy_tms(0.75, 1.0))
        assert rep.delta_b == pytest.approx(rep.d_b, abs=1e-7)

    def test_crossover_sign_structure(self):
        model = StateModel.ideal()
        rep_small = correlation_report(model.state(6.5, 0.05))
        rep_large = correlation_report(model.state(6.5, 0.3))
        assert rep_small.delta_b < 0.0 < rep_large.delta_b

    def test_single_measures_are_report_fields(self, rng):
        states = [random_physical_state(rng) for _ in range(100)]
        for model in (StateModel.ideal(), StateModel.coupler(0.01), StateModel.realistic(*REALISTIC)):
            states += [model.state(s_db, n) for s_db in EXTREME_S for n in EXTREME_N]
        for V in states:
            rep = correlation_report(V)
            assert discord(V, "B") == rep.d_a
            assert discord(V, "A") == rep.d_b
            assert eof_gamma(V) == rep.gamma
            assert eof_lower_bound(V) == rep.e_f

    def test_each_entropy_is_evaluated_once(self, monkeypatch):
        from tmsflow import correlations

        calls = []

        def counting(m):
            calls.append(m.shape)
            return symplectic._entropy(m)

        monkeypatch.setattr(correlations, "_entropy", counting)
        correlation_report(noisy_tms(1.0, 0.3))
        # f(sqrt(I1)), f(sqrt(I2)), f(nu+), f(nu-), two conditional terms and E_F
        assert calls == [(7,)]
        calls.clear()
        sweep(StateModel.realistic(*REALISTIC), [3.0, 6.0, 9.0], [0.0, 0.5])
        assert calls == [(7, 3, 2)]

    def test_reads_only_the_validation_pass(self, monkeypatch):
        calls = []
        two_mode_nu, summary = symplectic._two_mode_nu, symplectic.SymplecticSummary

        def counting_nu(invariants, partial_transpose=False):
            calls.append("pt" if partial_transpose else "nu")
            return two_mode_nu(invariants, partial_transpose)

        def counting_summary(**fields):
            calls.append("summary")
            return summary(**fields)

        monkeypatch.setattr(symplectic, "_two_mode_nu", counting_nu)
        monkeypatch.setattr(symplectic, "SymplecticSummary", counting_summary)
        V = noisy_tms(1.0, 0.3)
        for f in (correlation_report, eof_gamma, lambda V: discord(V, "A")):
            calls.clear()
            f(V)
            assert calls == ["nu"]
        # The models' factored standard form needs no validation pass at all.
        calls.clear()
        sweep(StateModel.realistic(*REALISTIC), [1.0, 6.0], [0.0, 0.3])
        assert calls == []

    def test_csv_row_format(self):
        rep = correlation_report(StateModel.ideal().state(4.34, 0.0))
        row = "".join(sweep_blocks_to_csv(sweep(StateModel.ideal(), [4.34], [0.0]))).splitlines()[1]
        fields = row.split(",")
        assert len(fields) == 10 and fields[-1] == "ok"
        assert float(fields[0]) == 4.34
        assert float(fields[2]) == pytest.approx(rep.d_a)


class TestGuards:
    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_report_needs_two_modes(self, n_modes):
        with pytest.raises(DimensionMismatchError, match="require a two-mode state"):
            correlation_report(vacuum(n_modes))

    def test_report_beyond_the_double_range(self):
        # in vacuum-1 units I4 = (4e77)**4 = 2.6e310
        with pytest.raises(NumericalError, match="exact invariant beyond the double range"):
            correlation_report(CovarianceMatrix(1e77 * np.eye(4)))

    def test_a_state_the_kernel_fails_raises(self):
        """Validation accepts this state inside its eigvalsh noise band
        (nu- = 0.082, below 1/4); the kernel's gamma is NaN there, and the
        report raises the cell's error rather than return NaN fields."""
        a, b, c1, c2 = 1.5e9, 2.0, 54700.0, -33000.0
        V = CovarianceMatrix([[a, 0, c1, 0], [0, a, 0, c2], [c1, 0, b, 0], [0, c2, 0, b]])
        assert validate(V).ok and validate(V).min_symplectic_eigenvalue < 0.1
        with pytest.raises(NumericalError):
            correlation_report(V)

    def test_discord_below_the_clamp_window_fails_its_cell(self):
        """No model or random state gives a discord below -1e-10, so the
        window is reached only by an inconsistent standard form: here nu+
        of the middle cell is raised by half."""
        sf = StateModel.ideal().standard_form(np.array([3.0, 6.0, 9.0]), 0.5)
        clean = correlation_arrays(sf)
        res = correlation_arrays(sf._replace(nu_plus=sf.nu_plus * np.array([1.0, 1.5, 1.0])))
        assert list(res.errors) == [1]
        assert str(res.errors[1]) == "discord -1.850e-01 below the clamp window"
        assert res.d_a[1] == res.d_b[1] == 0.0
        for field in ("d_a", "d_b", "e_f"):
            assert getattr(res, field)[[0, 2]].tolist() == getattr(clean, field)[[0, 2]].tolist()
