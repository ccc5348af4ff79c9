import math

import numpy as np
import pytest

import tmsflow.qkd
from tmsflow.errors import BadCouplingError, DomainError, NoSignChangeError, NumericalError
from tmsflow.qkd import (
    DEFAULT_CLONER_COUPLING,
    QkdScenario,
    _key_thresholds,
    cloner_state,
    holevo_quantity,
    key_threshold,
    secret_key,
    shannon_mi,
)
from tmsflow.states import squeezing_db_to_r
from tmsflow.symplectic import require_valid, symplectic_form

I_S_10DB_SPEC = 1.6609050251499517  # 40-digit evaluation of the SNR formula


from conftest import cloner_blocks_oracle as analytic_cloner_blocks
from test_analysis import bisected_root


def holevo_dense_oracle(r, n_q, beta):
    """Independent pipeline: analytic blocks, explicit projector pinv
    conditioning, entropies from |eig(i Omega V)| in extended precision
    (the cloner ancilla variance reaches W ~ 1e4, where double-precision
    eigensolves cannot resolve the near-boundary eigenvalue well enough
    for an apples-to-apples 1e-8 comparison)."""
    import mpmath as mp

    n = 2 * n_q
    w = max(1.0, 2 * n / beta)
    V = analytic_cloner_blocks(r, w, beta)
    eve = V[4:8, 4:8]
    c = V[np.ix_([4, 5, 6, 7], [2, 3])]
    b = V[np.ix_([2, 3], [2, 3])]
    pi = np.diag([1.0, 0.0])
    eve_cond = eve - c @ np.linalg.pinv(pi @ b @ pi) @ c.T

    def entropy_bits(m):
        with mp.workdps(30):
            nmod = m.shape[0] // 2
            om = symplectic_form(nmod)
            a = mp.matrix([[mp.mpf(float(x)) for x in row] for row in (om @ m)])
            ev = mp.eig(a, left=False, right=False)
            nus = sorted((abs(mp.im(z)) for z in ev), reverse=True)[::2]
            total = mp.mpf(0)
            half = mp.mpf(1) / 2
            for nu in nus:
                # Same convention as the implementation: eigenvalues within
                # the double-precision storage noise of the bound count as
                # pure (their true f is ~1e-8 and not resolvable anyway).
                if nu > mp.mpf(1) / 4 + mp.mpf(1e-6):
                    total += (2 * nu + half) * mp.log(2 * nu + half) - (
                        2 * nu - half
                    ) * mp.log(2 * nu - half)
            return float(total / mp.log(2))

    return entropy_bits(eve) - entropy_bits(eve_cond)


def holevo_reference(s_db, n_q, beta):
    """chi_E in bits from the analytic channel state alone, in vacuum-1
    units: a = cosh 2r, b = (1 - beta) a + beta W, c = sqrt(1 - beta) sinh 2r;
    chi_E = f(nu+) + f(nu-) - f(nu_A|x_B).  The eigenvalue discriminant
    cancels about 4 S/10 digits (a ~ 10^(S/10)), so the working precision
    is 50 digits plus S/2."""
    import mpmath as mp

    def f(x):
        plus, minus = (x + 1) / 2, (x - 1) / 2
        return mp.mpf(0) if minus <= 0 else plus * mp.log(plus) - minus * mp.log(minus)

    with mp.workdps(50 + int(s_db) // 2):
        r = mp.mpf(s_db) * mp.log(10) / 20
        beta = mp.mpf(beta)
        w = max(mp.mpf(1), 4 * mp.mpf(n_q) / beta)
        a = mp.cosh(2 * r)
        b = (1 - beta) * a + beta * w
        c = mp.sqrt(1 - beta) * mp.sinh(2 * r)
        delta = a * a + b * b - 2 * c * c
        root = mp.sqrt(max(delta * delta - 4 * (a * b - c * c) ** 2, 0))
        nu_plus, nu_minus = mp.sqrt((delta + root) / 2), mp.sqrt((delta - root) / 2)
        nu_cond = mp.sqrt(a * (a - c * c / b))
        return float((f(nu_plus) + f(nu_minus) - f(nu_cond)) / mp.log(2))


REFERENCE_S_DB = (0.1, 0.25, 1.0, 3.0, 6.0, 10.0, 20.0, 30.0, 40.0)
REFERENCE_BETA = (1e-4, 1e-3, 1e-2, 1e-1)


class TestScenario:
    def test_derived_quantities(self):
        s = QkdScenario(r=1.0, n_q=0.25, beta=1e-4)
        assert s.n == 0.5
        assert s.w == pytest.approx(2 * 0.5 / 1e-4, rel=1e-12)

    def test_w_clamped_to_vacuum(self):
        s = QkdScenario(r=1.0, n_q=1e-9, beta=1e-4)
        assert s.w == 1.0

    def test_default_codebook_variance(self):
        r = squeezing_db_to_r(10.0)
        s = QkdScenario(r=r, n_q=0.25)
        assert s.sigma2 == pytest.approx(math.sinh(2 * r) / 2.0, abs=1e-12)
        assert s.sigma2 == pytest.approx(2.475, abs=1e-12)

    def test_numpy_parameters_are_stored_as_python_floats(self):
        # at the top level, NumPy scalar arithmetic would overflow with a RuntimeWarning
        r = squeezing_db_to_r(3082.5)
        scenario = QkdScenario(np.float64(r), np.float64(2.0), np.float64(1e-4))
        assert all(type(x) is float for x in (scenario.r, scenario.n_q, scenario.beta))
        assert secret_key(scenario) == secret_key(QkdScenario(r, 2.0))
        assert secret_key(scenario).key == -2.9426950408513903

    def test_validation(self):
        with pytest.raises(DomainError):
            QkdScenario(r=-0.1, n_q=0.1)
        with pytest.raises(BadCouplingError):
            QkdScenario(r=0.5, n_q=0.1, beta=0.0)


class TestClonerState:
    def test_vacuum_cloner_blocks(self):
        s = QkdScenario(r=0.8, n_q=0.0, beta=1e-3)
        assert s.w == 1.0
        V = cloner_state(s).entries
        expected_b = ((1 - 1e-3) * math.cosh(1.6) + 1e-3) / 4.0
        assert V[2, 2] == pytest.approx(expected_b, abs=1e-14)
        # Eve's pair stays vacuum-pure up to the exchanged coupling
        assert np.abs(require_valid(cloner_state(s))[0] - 0.25).max() < 1e-10

    def test_spec_block_value(self):
        s = QkdScenario(r=1.0, n_q=0.25, beta=1e-4)
        assert s.w == pytest.approx(1e4)
        V = cloner_state(s).entries
        assert V[2, 2] == pytest.approx(1.1904548678786308, abs=1e-12)

    def test_analytic_blocks_match_composition(self, rng):
        for _ in range(50):
            r = rng.uniform(0.1, 2.0)
            beta = 10 ** rng.uniform(-4, -1)
            n_q = rng.uniform(0.0, 1.0)
            s = QkdScenario(r=r, n_q=n_q, beta=beta)
            V = cloner_state(s).entries
            ref = analytic_cloner_blocks(r, s.w, beta)
            assert np.abs(V - ref).max() < 1e-12

    def test_global_purity(self, rng):
        # W bounded near 2000: beyond that the stored matrix itself cannot
        # represent a pure state to 1e-9 in double precision.
        for _ in range(50):
            r = rng.uniform(0.1, 2.0)
            beta = 10 ** rng.uniform(-3, -2)
            n_q = rng.uniform(0.0, 0.5)
            V = cloner_state(QkdScenario(r=r, n_q=n_q, beta=beta))
            assert np.abs(require_valid(V)[0] - 0.25).max() < 1e-9

    def test_weak_coupling_limit_decouples(self):
        # at beta -> 0 with W fixed the coupling leaves the stacked state
        from tmsflow.states import eve_tms, ideal_tms
        from tmsflow.symplectic import apply_symplectic, beam_splitter, tensor

        joint = tensor(ideal_tms(0.7), eve_tms(50.0))
        out = apply_symplectic(joint, beam_splitter(1e-16, 1, 2, 4))
        assert np.abs(out.entries - joint.entries).max() < 1e-6


class TestHolevo:
    def test_vacuum_ancilla_learns_almost_nothing(self):
        chi = holevo_quantity(QkdScenario(r=1.0, n_q=0.0, beta=1e-4))
        assert 0.0 <= chi < 1e-3

    def test_matches_dense_oracle(self):
        for (r, n_q) in ((1.15, 0.25), (0.8, 0.1), (1.6, 0.45)):
            mine = holevo_quantity(QkdScenario(r=r, n_q=n_q, beta=1e-4))
            assert mine == pytest.approx(holevo_dense_oracle(r, n_q, 1e-4), abs=1e-8)

    @pytest.mark.parametrize("n_q", [1e-3, 0.01, 0.1, 1.0, 2.0])
    def test_matches_fifty_digit_reference(self, n_q):
        # covers (0.25 dB, n_q = 1, beta = 1e-4): W = 4e4, where a
        # four-mode evaluation misses by 8e-3 bits
        for s_db in REFERENCE_S_DB:
            for beta in REFERENCE_BETA:
                s = QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q, beta=beta)
                ref = holevo_reference(s_db, n_q, beta)
                assert holevo_quantity(s) == pytest.approx(ref, abs=1e-9), (s_db, beta)

    @pytest.mark.parametrize("n_q", [0.0, 1e-4])
    def test_near_pure_corners_match_reference(self, n_q):
        for s_db in REFERENCE_S_DB:
            for beta in REFERENCE_BETA:
                s = QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q, beta=beta)
                ref = holevo_reference(s_db, n_q, beta)
                assert holevo_quantity(s) == pytest.approx(ref, abs=1e-7), (s_db, beta)

    @pytest.mark.parametrize("s_db", [*REFERENCE_S_DB, 150.0, 400.0, 1000.0, 3000.0])
    def test_matches_reference_to_1e10_bits(self, s_db):
        for n_q in (0.0, 1e-4, 0.1, 1.0):
            for beta in REFERENCE_BETA:
                s = QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q, beta=beta)
                ref = holevo_reference(s_db, n_q, beta)
                assert holevo_quantity(s) == pytest.approx(ref, abs=1e-10), (n_q, beta)

    @pytest.mark.parametrize("s_db", [3000.0, 3070.0, 3082.5])
    @pytest.mark.parametrize("n_q", [0.1, 2.0])
    def test_matches_reference_where_g_overflows(self, s_db, n_q):
        # g = (1 - beta) + beta a W is beyond the double range at 3082.5 dB, n_q = 2
        s = QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q)
        assert holevo_quantity(s) == pytest.approx(holevo_reference(s_db, n_q, s.beta), abs=1e-10)

    @pytest.mark.parametrize("beta", [1e-4, 0.1, 0.3, 0.5, 0.9])
    def test_finite_where_the_conditional_product_overflows(self, beta):
        # a g / b leaves the double range from about 3075 dB with beta >= 0.1
        # while g itself does not: K stays finite and falls with noise
        for s_db in np.linspace(3075.0, 3082.5, 16).tolist():
            r = squeezing_db_to_r(s_db)
            keys = [
                secret_key(QkdScenario(r=r, n_q=n_q, beta=beta)).key
                for n_q in np.linspace(0.0, 2.0, 201).tolist()
            ]
            assert all(math.isfinite(k) for k in keys), s_db
            assert all(a > b for a, b in zip(keys[1:], keys[2:])), s_db

    @pytest.mark.parametrize("s_db, n_q, beta", [(3082.0, 0.45, 0.3), (3076.0, 1.0, 0.9)])
    def test_matches_reference_where_the_conditional_product_overflows(self, s_db, n_q, beta):
        s = QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q, beta=beta)
        assert holevo_quantity(s) == pytest.approx(holevo_reference(s_db, n_q, beta), abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(20):
            s = QkdScenario(
                r=rng.uniform(0.1, 1.8),
                n_q=rng.uniform(0.0, 1.0),
                beta=10 ** rng.uniform(-4, -2),
            )
            assert holevo_quantity(s) >= 0.0


class TestShannonMi:
    def test_zero_codebook(self):
        assert shannon_mi(QkdScenario(r=0.0, n_q=0.2)) == 0.0

    def test_spec_value_at_10db(self):
        r = squeezing_db_to_r(10.0)
        s = QkdScenario(r=r, n_q=0.25, beta=1e-4)
        assert shannon_mi(s) == pytest.approx(I_S_10DB_SPEC, abs=1e-12)

    def test_vanishes_at_large_noise(self):
        r = squeezing_db_to_r(10.0)
        assert shannon_mi(QkdScenario(r=r, n_q=1e7)) < 1e-5

    def test_asymptotic_form(self):
        r = 4.0
        s = QkdScenario(r=r, n_q=0.3, beta=1e-7)
        asymptotic = 0.5 * math.log2(1 + s.sigma2 / s.n_q)
        assert shannon_mi(s) == pytest.approx(asymptotic, rel=1e-3)

    @pytest.mark.parametrize("s_db, n_q", [(3082.5, 0.1), (3082.5, 100.0), (2000.0, 0.0)])
    def test_matches_reference_where_the_snr_overflows(self, s_db, n_q):
        import mpmath as mp

        s = QkdScenario(r=squeezing_db_to_r(s_db), n_q=n_q)
        with mp.workdps(50):
            r, beta = mp.mpf(s.r), mp.mpf(s.beta)
            snr = 2 * (1 - beta) * mp.sinh(2 * r) / ((1 - beta) * mp.exp(-2 * r) + 4 * n_q)
            ref = mp.log(1 + snr, 2) / 2
        assert shannon_mi(s) == pytest.approx(float(ref), rel=1e-15)


class TestSecretKey:
    def test_budget_identity(self):
        res = secret_key(QkdScenario(r=1.0, n_q=0.2))
        assert res.key == pytest.approx(res.shannon_mi - res.holevo, abs=1e-12)
        assert res.key <= res.shannon_mi

    def test_low_noise_is_secure(self):
        r = squeezing_db_to_r(10.0)
        assert secret_key(QkdScenario(r=r, n_q=0.01)).key > 0.0

    @pytest.mark.parametrize("s_db", [3.0, 10.0, 30.0])
    def test_one_noise_photon_is_insecure(self, s_db):
        r = squeezing_db_to_r(s_db)
        assert secret_key(QkdScenario(r=r, n_q=1.0)).key < 0.0

    @pytest.mark.parametrize("s_db", [3.0, 6.0, 10.0, 20.0])
    def test_key_decreases_with_noise(self, s_db):
        r = squeezing_db_to_r(s_db)
        keys = [
            secret_key(QkdScenario(r=r, n_q=nq)).key
            for nq in np.linspace(1e-4, 1.0, 30)
        ]
        assert all(a > b for a, b in zip(keys, keys[1:]))


class TestTwoModeKeyPath:
    def test_no_four_mode_state_is_built(self, monkeypatch):
        def forbidden(scenario):
            raise AssertionError("cloner_state called on the key path")

        monkeypatch.setattr(tmsflow.qkd, "cloner_state", forbidden)
        secret_key(QkdScenario(r=squeezing_db_to_r(10.0), n_q=0.1))
        key_threshold(10.0)

    def test_no_state_is_built_validated_or_diagonalised(self, monkeypatch):
        import tmsflow.states
        import tmsflow.symplectic

        def forbidden(*args, **kwargs):
            raise AssertionError("matrix route called on the key path")

        # Patched where they are defined and under any name qkd holds.
        for module in (tmsflow.states, tmsflow.symplectic, tmsflow.qkd):
            for name in (
                "inject_noise_coupler", "von_neumann_entropy", "homodyne_condition", "_validate"
            ):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        secret_key(QkdScenario(r=squeezing_db_to_r(10.0), n_q=0.1))
        key_threshold(10.0)


class TestKeyThreshold:
    def test_strong_squeezing_asymptote(self):
        th = key_threshold(30.0)
        assert th == pytest.approx(0.26, abs=0.01)

    def test_threshold_at_the_top_level(self):
        # the bracket's upper end n_q = 2 makes g overflow at 3082.5 dB
        assert key_threshold(3082.5) == pytest.approx(key_threshold(3000.0), rel=1e-9)

    @pytest.mark.parametrize("beta", [1e-4, 1e-3, 1e-2, 0.3])
    def test_key_small_at_threshold(self, beta):
        # the refined width, not a tolerance, sets |K| at the root: a few 1e-12 bits
        for s_db in (0.05, 1.0, 10.0, 100.0, 3000.0):
            th = key_threshold(s_db, beta=beta)
            r = squeezing_db_to_r(s_db)
            assert abs(secret_key(QkdScenario(r=r, n_q=th, beta=beta)).key) < 1e-10, s_db

    def test_weak_resource_tolerates_little_noise(self):
        th = key_threshold(0.5)
        assert 0.0 < th < 0.05
        # scan oracle: K is still positive just below and negative just above
        r = squeezing_db_to_r(0.5)
        assert secret_key(QkdScenario(r=r, n_q=0.8 * th)).key > 0.0
        assert secret_key(QkdScenario(r=r, n_q=1.25 * th)).key < 0.0

    def test_threshold_curve_monotone_and_bounded(self):
        values = [key_threshold(s) for s in (2.0, 5.0, 10.0, 20.0, 30.0, 40.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert max(values) < 0.27

    def test_few_key_evaluations_and_the_bisection_root(self, monkeypatch):
        # two bracket ends, about ten refinement steps and the check of |K|
        # (bisection took 44 evaluations)
        calls, original = [], tmsflow.qkd.secret_key
        monkeypatch.setattr(tmsflow.qkd, "secret_key", lambda sc: calls.append(sc) or original(sc))
        for s_db in (0.25, 1.0, 10.0, 30.0, 40.0, 3082.5):
            calls.clear()
            th = key_threshold(s_db)
            assert len(calls) <= 20, s_db
            r = squeezing_db_to_r(s_db)
            bisected = bisected_root(lambda n_q: -original(QkdScenario(r, n_q)).key, 1e-4, 2.0)
            assert abs(th - bisected) <= 1e-11 * max(1.0, th), s_db

    def test_batch_evaluates_as_often_as_its_levels_one_at_a_time(self, monkeypatch):
        # a level that has stopped keeps its K while the others refine
        calls, original = [], tmsflow.qkd.secret_key
        monkeypatch.setattr(tmsflow.qkd, "secret_key", lambda sc: calls.append(sc) or original(sc))
        levels = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0, 30.0, 40.0]
        batch = _key_thresholds(levels, DEFAULT_CLONER_COUPLING)
        batch_calls = len(calls)
        singles = [_key_thresholds([s], DEFAULT_CLONER_COUPLING)[0] for s in levels]
        assert batch_calls == len(calls) - batch_calls
        assert list(map(repr, batch)) == list(map(repr, singles))

    def test_threshold_where_the_conditional_product_overflows(self):
        plateau = key_threshold(3000.0, beta=0.3)
        for s_db in np.linspace(3075.0, 3082.5, 7).tolist():
            assert key_threshold(s_db, beta=0.3) == pytest.approx(plateau, rel=1e-11), s_db

    def test_key_error_fails_only_its_level(self, monkeypatch):
        levels = [6.0, 10.0, 30.0]
        clean = _key_thresholds(levels, DEFAULT_CLONER_COUPLING)
        original, r_bad = tmsflow.qkd.secret_key, squeezing_db_to_r(10.0)

        def failing(sc):
            if sc.r == r_bad and 1e-4 < sc.n_q < 2.0:
                raise NumericalError("interior point")
            return original(sc)

        monkeypatch.setattr(tmsflow.qkd, "secret_key", failing)
        found = _key_thresholds(levels, DEFAULT_CLONER_COUPLING)
        assert str(found[1]) == "interior point"
        assert [found[0], found[2]] == [clean[0], clean[2]]
        with pytest.raises(NumericalError):
            key_threshold(10.0)

    def test_refined_key_that_is_not_zero_fails_the_level(self, monkeypatch):
        monkeypatch.setattr(tmsflow.qkd, "_KEY_CHECK", 0.0)
        found = _key_thresholds([0.001, 10.0], DEFAULT_CLONER_COUPLING)
        assert isinstance(found[0], NoSignChangeError)
        assert isinstance(found[1], NumericalError)
        assert str(found[1]).startswith("key at the refined point is not zero: |")

    def test_no_sign_change(self):
        # K(1e-4) is already negative at 0.005 dB
        with pytest.raises(NoSignChangeError) as exc:
            key_threshold(0.005)
        assert str(exc.value).startswith("no sign change on [0.0001, 2] (f(0.0001) = -")

    def test_domain(self):
        with pytest.raises(DomainError):
            key_threshold(0.0)

    def test_beta_is_keyword_only(self):
        # a stray second positional argument is refused, not read as beta
        with pytest.raises(TypeError):
            key_threshold(10.0, 1e-6)
