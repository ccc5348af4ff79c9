import math
import warnings

import numpy as np
import pytest

from tmsflow.correlations import correlation_report
from tmsflow.errors import BadCouplingError, DomainError, NonFiniteError, NumericalError
from tmsflow.analysis import sudden_death_point
from tmsflow.states import (
    JpaNoiseModel,
    StateModel,
    eve_tms,
    ideal_tms,
    inject_noise_coupler,
    inject_noise_ideal,
    jpa_noise,
    squeezing_db_to_r,
    thermal,
    vacuum,
    _amplified,
)
from tmsflow.symplectic import (
    apply_symplectic,
    beam_splitter,
    partial_trace,
    symplectic_summary,
    tensor,
    validate,
)

from conftest import failed_cells

R_10_DB = 1.151292546497022842  # 10 / (20 log10 e)


class TestSqueezingConversion:
    def test_zero(self):
        assert squeezing_db_to_r(0.0) == 0.0

    def test_ten_db(self):
        assert squeezing_db_to_r(10.0) == pytest.approx(R_10_DB, abs=1e-14)

    def test_vacuum_reference_definition(self):
        # S = -10 log10(v_s / 0.25) with v_s the squeezed quadrature variance
        for r in (0.2, 0.7, 1.3):
            v_s = math.exp(-2 * r) * 0.25
            s_db = -10.0 * math.log10(v_s / 0.25)
            assert s_db == pytest.approx(20 * math.log10(math.e) * r, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="must be >= 0 dB"):
            StateModel.ideal().state(-1.0, 0.0)
        with pytest.raises(DomainError, match="must be >= 0 dB"):
            sudden_death_point(StateModel.ideal(), -1.0)

    def test_largest_representable_level(self):
        assert math.isfinite(math.cosh(2 * squeezing_db_to_r(3082.5)))
        with pytest.raises(DomainError, match="3082.5 dB"):
            squeezing_db_to_r(1e6)


class TestIdealTms:
    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(ideal_tms(0.0).entries, vacuum(2).entries)

    def test_r1_entries(self):
        V = ideal_tms(1.0)
        assert V.entries[0, 0] == pytest.approx(0.94054892277090786, abs=1e-15)
        assert V.entries[0, 2] == pytest.approx(0.90671510196175469, abs=1e-15)
        assert V.entries[1, 3] == pytest.approx(-0.90671510196175469, abs=1e-15)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_purity(self, r):
        s = symplectic_summary(ideal_tms(r))
        assert abs(s.nu_plus - 0.25) < 1e-10
        assert abs(s.nu_minus - 0.25) < 1e-10

    def test_swap_symmetry(self):
        V = ideal_tms(0.8).entries
        swap = np.zeros((4, 4))
        swap[0:2, 2:4] = np.eye(2)
        swap[2:4, 0:2] = np.eye(2)
        assert np.allclose(swap @ V @ swap.T, V)

    def test_matches_splitter_composition(self):
        from tmsflow.symplectic import single_mode_squeezer

        for r in (0.3, 1.0, 1.7):
            V = vacuum(2)
            V = apply_symplectic(V, single_mode_squeezer(r, 0, 2))
            V = apply_symplectic(V, single_mode_squeezer(-r, 1, 2))
            V = apply_symplectic(V, beam_splitter(0.5, 0, 1, 2))
            assert np.abs(V.entries - ideal_tms(r).entries).max() < 1e-13


class TestNoiseInjection:
    def test_zero_noise_identity(self):
        V = ideal_tms(1.0)
        assert np.all(inject_noise_ideal(V, 0.0).entries == V.entries)

    def test_sudden_death_point_blocks(self):
        V = inject_noise_ideal(ideal_tms(1.0), 1.0)
        assert V.entries[2, 2] == pytest.approx(1.4405489227709078, abs=1e-14)
        assert np.allclose(V.entries[0:2, 0:2], ideal_tms(1.0).entries[0:2, 0:2])
        assert np.allclose(V.entries[0:2, 2:4], ideal_tms(1.0).entries[0:2, 2:4])
        assert symplectic_summary(V).nu_pt_min == pytest.approx(0.25, abs=1e-12)

    def test_coupler_block_value(self):
        V = inject_noise_coupler(ideal_tms(1.0), 0.01, 0.0)
        assert V.entries[2, 2] == pytest.approx(0.93364343354319879, abs=1e-14)

    def test_coupler_weak_limit_is_identity(self):
        V = ideal_tms(1.0)
        assert np.abs(inject_noise_coupler(V, 1e-12, 0.0).entries - V.entries).max() < 1e-11

    def test_coupler_matches_ideal_injection_at_weak_coupling(self):
        V = ideal_tms(1.0)
        out = inject_noise_coupler(V, 1e-4, 0.5 / 1e-4)
        ref = inject_noise_ideal(V, 0.5)
        assert np.abs(out.entries - ref.entries).max() < 1e-4

    def test_compositional_oracle(self, rng):
        # tensor with a thermal mode + asymmetric splitter + partial trace
        for _ in range(100):
            r = rng.uniform(0.0, 1.5)
            beta = rng.uniform(0.001, 0.5)
            env = rng.uniform(0.0, 50.0)
            V = ideal_tms(r)
            direct = inject_noise_coupler(V, beta, env)
            joint = tensor(V, thermal(env))
            mixed = apply_symplectic(joint, beam_splitter(beta, 1, 2, 3))
            composed = partial_trace(mixed, [0, 1])
            assert np.abs(direct.entries - composed.entries).max() < 1e-12

    def test_bad_coupling(self):
        with pytest.raises(BadCouplingError):
            inject_noise_coupler(ideal_tms(1.0), 0.0, 1.0)
        with pytest.raises(BadCouplingError):
            inject_noise_coupler(ideal_tms(1.0), 1.0, 1.0)
        with pytest.raises(DomainError, match="environment photon number"):
            inject_noise_coupler(ideal_tms(1.0), 0.01, -1.0)


class TestJpaNoise:
    def test_unit_gain_is_noiseless(self):
        assert jpa_noise(1.0, JpaNoiseModel(0.05, 0.56)) == 0.0

    def test_unit_base(self):
        assert jpa_noise(2.0, JpaNoiseModel(0.05, 0.56)) == pytest.approx(0.05, abs=1e-15)

    def test_r1_value(self):
        assert jpa_noise(math.exp(2.0), JpaNoiseModel(0.05, 0.56)) == pytest.approx(
            0.14125848923814343, abs=1e-14
        )

    @pytest.mark.parametrize(
        "gain, expected", [(1.0, 0.0), (2.0, 0.05), (math.exp(2.0), 0.14125848923814344)]
    )
    def test_finite_values_are_pinned(self, gain, expected):
        assert jpa_noise(gain, JpaNoiseModel(0.05, 0.56)) == expected

    def test_overflow_raises_as_the_amplifier_prefactor_does(self):
        # (G - 1)**chi2 is finite at G = 1e300 and only its product with chi1 overflows
        r = 0.5 * math.log(1e300)
        with pytest.raises(NumericalError) as prefactor:
            StateModel.realistic(1e10, 1.0, 0.5).amplifier_prefactor(r)
        with pytest.raises(NumericalError) as err:
            jpa_noise(1e300, JpaNoiseModel(1e10, 1.0))
        assert str(err.value) == str(prefactor.value)
        assert str(err.value) == "amplifier noise at gain 1e+300 overflows double precision"

    def test_zero_chi1_is_noiseless_at_any_gain(self):
        assert jpa_noise(10.0, JpaNoiseModel(0.0, 400.0)) == 0.0
        assert StateModel.realistic(0.0, 400.0, 0.01).amplifier_prefactor(100.0) == 1.0

    def test_below_unit_gain_rejected(self):
        with pytest.raises(DomainError):
            jpa_noise(0.99, JpaNoiseModel(0.05, 0.56))

    def test_negative_chi1_rejected(self):
        with pytest.raises(DomainError):
            JpaNoiseModel(-0.1, 0.5)


class TestRealisticTms:
    def test_zero_chi_reduces_to_coupler(self):
        a = StateModel.realistic(0.0, 0.56, 0.01).state(6.0, 0.3)
        b = StateModel.coupler(0.01).state(6.0, 0.3)
        assert np.abs(a.entries - b.entries).max() == 0.0

    def test_prefactor_at_gain_two(self):
        r = math.log(2.0) / 2.0  # G = exp(2r) = 2
        model = StateModel.realistic(0.05, 0.56, 0.01)
        assert model.amplifier_prefactor(r) == pytest.approx(1.1, abs=1e-14)
        V = model.state(20 * math.log10(math.e) * r, 0.0)
        base = inject_noise_coupler(ideal_tms(r), 0.01, 0.0)
        ratio = V.entries[0, 0] / base.entries[0, 0]
        assert ratio == pytest.approx(1.1, abs=1e-14)  # global prefactor 1 + 2 chi1
        assert ratio / 4.0 == pytest.approx(0.275, abs=1e-14)

    def test_excess_does_not_cancel_at_weak_squeezing(self):
        """2 n_jpa comes from expm1(2r): it stays positive where the gain
        e^{2r} and the prefactor round to 1."""
        model = StateModel.realistic(0.05, 0.56, 0.01)
        for r in (1e-40, 1e-100, 1e-300):
            assert model.amplifier_prefactor(r) == 1.0
            assert model._amplifier_excess(math.expm1(2.0 * r)) == pytest.approx(
                0.1 * (2.0 * r) ** 0.56, rel=1e-14, abs=0
            )
        assert StateModel.coupler(0.01)._amplifier_excess(math.expm1(2.0)) == 0.0

    def test_weak_coupling_limit_converges_to_ideal(self):
        r = squeezing_db_to_r(6.0)
        n = 0.4
        out = StateModel.realistic(0.0, 1.0, 1e-8).state(6.0, n)
        ref = inject_noise_ideal(ideal_tms(r), n)
        assert np.abs(out.entries - ref.entries).max() < 1e-6

    def test_factory_marginals_are_isotropic(self, rng):
        models = [
            StateModel.ideal(),
            StateModel.coupler(0.01),
            StateModel.realistic(0.05, 0.56, 0.01),
        ]
        for model in models:
            for _ in range(10):
                V = model.state(rng.uniform(0.5, 10.0), rng.uniform(0.0, 3.0))
                assert abs(V.entries[0, 0] - V.entries[1, 1]) < 1e-12
                assert abs(V.entries[0, 1]) < 1e-12
                assert validate(V).ok


MODELS = {
    "ideal": StateModel.ideal(),
    "coupler-0.01": StateModel.coupler(0.01),
    "coupler-0.3": StateModel.coupler(0.3),
    "realistic": StateModel.realistic(0.05, 0.56, 0.01),
}


class TestStateModel:
    @pytest.mark.parametrize("name", MODELS)
    def test_state_is_the_composition_bit_for_bit(self, name):
        model = MODELS[name]
        beta = model.coupling_beta
        for s_db in (0.0, 0.1, 6.5, 30.0, 100.0):
            r = squeezing_db_to_r(s_db)
            for n in (0.0, 1e-9, 0.1, 1.0, 1000.0):
                if beta is None:
                    base = inject_noise_ideal(ideal_tms(r), n)
                else:
                    base = inject_noise_coupler(ideal_tms(r), beta, n / beta)
                expected = model.amplifier_prefactor(r) * base.entries
                assert model.state(s_db, n).entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize(
        "s_db, n, message",
        [
            (-1.0, 0.1, "squeezing level must be >= 0 dB, got -1.0"),
            (math.nan, 0.1, "squeezing level must be finite, got nan"),
            (3082.6, 0.1, "squeezing level 3082.6 dB is above 3082.5 dB"),
            (-1.0, -0.5, "squeezing level must be >= 0 dB, got -1.0"),
            (6.5, -0.5, "injected noise photon number must be >= 0, got -0.5"),
        ],
    )
    def test_rejected_inputs_keep_their_messages(self, name, s_db, n, message):
        with pytest.raises(DomainError) as err:
            MODELS[name].state(s_db, n)
        assert str(err.value) == message
        if n >= 0:
            with pytest.raises(DomainError) as err:
                sudden_death_point(MODELS[name], s_db)
            assert str(err.value) == message
        # a rejected cell of a batch fails alone, with the same error
        sf = MODELS[name].standard_form(np.array([[s_db], [6.5]]), np.array([n, 0.1]))
        # cells (s_db, n), (s_db, 0.1), (6.5, n), (6.5, 0.1)
        errors = failed_cells(sf)
        assert sorted(errors) == sorted({0} | ({1} if s_db != 6.5 else set()) | ({2} if n < 0 else set()))
        assert type(errors[0]) is DomainError and str(errors[0]) == message

    @pytest.mark.parametrize(
        "argv, error",
        [
            ((3000.0, 0.1, (0.05, 2.0)), NumericalError),  # (G - 1)**chi2 overflows
            ((3.0, 0.1, (1e308, 1.0)), NumericalError),  # 1 + 2 n_jpa overflows
            ((2000.0, 0.1, (0.05, 0.56)), NonFiniteError),  # p cosh 2r overflows
            ((6.0, math.nan, (0.05, 0.56)), NonFiniteError),
        ],
    )
    def test_overflowing_cells_fail_as_the_matrix_did(self, argv, error):
        s_db, n, chi = argv
        model = StateModel.realistic(*chi, 0.01)
        with pytest.raises(error) as err, warnings.catch_warnings():
            warnings.simplefilter("error")
            correlation_report(model.state(s_db, n))
        (exc,) = failed_cells(model.standard_form(s_db, n)).values()
        assert type(exc) is error and str(exc) == str(err.value)

    def test_failed_cells_keep_the_first_error_of_each_cell(self):
        """Rejected levels, rejected noise and overflowing prefactors on one
        grid: every cell holds the same exception object as under the rule
        of one broadcast mask per failure, earlier records winning."""

        def by_failure(errors, shape, part, failures):
            for i, exc in failures:
                hit = np.zeros(np.shape(part), dtype=bool)
                hit.flat[i] = True
                for cell in np.flatnonzero(np.broadcast_to(hit, shape)):
                    errors.setdefault(int(cell), exc)

        def listed(codes, causes):  # (index, error) of each failed element
            return [(i, causes[code - 1]) for i, code in enumerate(codes.ravel().tolist()) if code]

        model = StateModel.realistic(1e10, 1.0, 0.01)
        s = np.array([6.0, 3000.0, 3100.0, -1.0, 3000.0, 10.0, math.nan])[:, None]
        n = np.array([0.1, -1.0, 0.0, 2.0, -0.5])
        levels = model._levels(s)
        assert levels.rejected_causes and levels.overflow_causes
        # a level listed twice has one code, and so one exception object
        assert levels.overflow[1] == levels.overflow[4] == 1 and len(levels.overflow_causes) == 1
        expected: dict = {}
        with np.errstate(all="ignore"):
            base = model._base_family(s, levels, n)
            errors = failed_cells(_amplified(base, levels, 0.01))
            by_failure(expected, base.full.shape, s, listed(levels.rejected, levels.rejected_causes))
            # the noise errors _base_family made: cells 1 and 4 are n[1] and n[4] at 6 dB
            by_failure(expected, base.full.shape, n, [(i, failed_cells(base)[i]) for i in (1, 4)])
            by_failure(expected, base.full.shape, levels.q, listed(levels.overflow, levels.overflow_causes))
        assert len(expected) == 29  # all but (6 dB or 10 dB) x (n >= 0)
        assert {c: id(e) for c, e in errors.items()} == {c: id(e) for c, e in expected.items()}

    @pytest.mark.parametrize("name", MODELS)
    def test_a_zero_dimensional_part_fails_every_cell_it_reaches(self, name):
        """A rejected noise value of shape () reaches every cell, a cell that
        failed already keeps its error, and all cells of one level share its
        exception object."""
        s = np.array([-1.0, 6.0, -1.0, 3100.0])[:, None]
        sf = MODELS[name].standard_form(s, np.array(-0.5))
        assert sf.status.shape == (4, 1) and sf.status.all()
        first, noise, again, top = (sf.causes[code - 1] for code in sf.status.ravel().tolist())
        assert first is again and str(first) == "squeezing level must be >= 0 dB, got -1.0"
        assert str(noise) == "injected noise photon number must be >= 0, got -0.5"
        assert str(top) == "squeezing level 3100.0 dB is above 3082.5 dB"
        sf = MODELS[name].standard_form(-1.0, np.array([0.1, -0.5]))
        assert sf.status.tolist() == [1, 1] and len(sf.causes) == 2  # the noise code reaches no cell


class TestEveTms:
    def test_unit_w_is_vacuum(self):
        assert np.allclose(eve_tms(1.0).entries, vacuum(2).entries)

    def test_purity(self):
        s = symplectic_summary(eve_tms(50.0))
        assert abs(s.nu_plus - 0.25) < 1e-9
        assert abs(s.nu_minus - 0.25) < 1e-9

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            eve_tms(0.5)


class TestScenarioFiles:
    def test_jpa_requires_coupler(self):
        with pytest.raises(BadCouplingError):
            StateModel(jpa=JpaNoiseModel(0.05, 0.56))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, -0.1])
    def test_coupler_beta_checked_on_construction(self, beta):
        with pytest.raises(BadCouplingError):
            StateModel.coupler(beta)


class TestArgumentChecks:
    def test_negative_thermal_photon_number(self):
        with pytest.raises(DomainError, match="photon number must be >= 0, got -0.1"):
            thermal(-0.1)

    def test_negative_squeezing_factor(self):
        with pytest.raises(DomainError, match="squeezing factor must be >= 0, got -0.1"):
            ideal_tms(-0.1)

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_noise_goes_into_a_two_mode_state(self, n_modes):
        with pytest.raises(DomainError, match="noise injection expects a two-mode state"):
            inject_noise_ideal(vacuum(n_modes), 0.1)
        with pytest.raises(DomainError, match="noise injection expects a two-mode state"):
            inject_noise_coupler(vacuum(n_modes), 0.1, 1.0)
