import json
import math

import numpy as np
import pytest

from tmsflow.errors import (
    BadIndexError,
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    NumericalError,
    SingularMeasurementError,
    UnphysicalStateError,
)
from tmsflow.qkd import QkdScenario, cloner_state
from tmsflow.states import StateModel, ideal_tms, inject_noise_ideal, thermal, vacuum
import tmsflow.symplectic as symplectic
from tmsflow.symplectic import (
    CovarianceMatrix,
    SymplecticOperation,
    apply_symplectic,
    beam_splitter,
    covariance_from_csv,
    covariance_from_json,
    entropy_f,
    homodyne_condition,
    partial_trace,
    single_mode_squeezer,
    symplectic_form,
    require_valid,
    symplectic_summary,
    tensor,
    validate,
    von_neumann_entropy,
)

from conftest import nu_oracle, nu_pt_min_oracle, random_physical_state

F_COSH2_QUARTER = 1.6198220928977022644  # f(cosh(2)/4), 40-digit evaluation
NU_PT_TMS_R1 = 0.033833820809153172973  # exp(-2)/4


class TestValidate:
    def test_vacuum_clean(self):
        verdict = validate(vacuum(2))
        assert verdict.ok and not verdict.violations

    def test_scaled_below_vacuum_unphysical(self):
        verdict = validate(CovarianceMatrix(np.eye(4) / 8.0))
        assert not verdict.ok
        assert any("Heisenberg" in v for v in verdict.violations)
        assert verdict.min_symplectic_eigenvalue == pytest.approx(0.125, abs=1e-12)

    def test_pure_tms_clean_with_quarter_spectrum(self):
        V = ideal_tms(1.0)
        assert validate(V).ok
        assert np.allclose(nu_oracle(V.entries), 0.25, atol=1e-9)

    def test_asymmetric_flagged(self):
        m = 0.25 * np.eye(4)
        m[0, 1] = 1e-6
        verdict = validate(CovarianceMatrix(m))
        assert any("asymmetric" in v for v in verdict.violations)

    def test_zero_matrix_not_positive_definite(self):
        verdict = validate(CovarianceMatrix(np.zeros((4, 4))))
        assert not verdict.ok
        assert any("positive definite" in v for v in verdict.violations)

    @pytest.mark.parametrize("scale, ok", [(1e100, True), (1e-100, False)])
    def test_extreme_scale(self, scale, ok):
        # a mixed state with distinct symplectic eigenvalues, whose
        # determinant leaves the double range at either scale
        V = StateModel.coupler(0.01).state(6.0, 0.1)
        verdict = validate(CovarianceMatrix(scale * V.entries))
        assert verdict.ok is ok
        assert verdict.min_symplectic_eigenvalue == pytest.approx(
            scale * validate(V).min_symplectic_eigenvalue, rel=1e-12, abs=0.0
        )

    def test_entries_near_the_double_range(self):
        # m + m.T leaves the double range here; symmetrising must not
        verdict = validate(CovarianceMatrix(np.diag([1.5e308, 1.5e308, 1e308, 1e308])))
        assert verdict.ok
        assert verdict.min_symplectic_eigenvalue == 1e308

    def test_nan_raises(self):
        m = 0.25 * np.eye(4)
        m[2, 2] = np.nan
        with pytest.raises(NonFiniteError):
            validate(CovarianceMatrix(m))

    def test_one_mode_determinant_beyond_the_double_range(self):
        # det = 1e400 is no double; the exact integer determinant is
        verdict = validate(CovarianceMatrix(np.diag([1e200, 1e200])))
        assert verdict.ok and verdict.min_symplectic_eigenvalue == 1e200

    def test_one_mode_eigenvalue_within_an_ulp(self, rng):
        import mpmath as mp

        states = [random_physical_state(rng, n_modes=1).entries for _ in range(300)]
        states += [
            10.0 ** rng.uniform(-150, 150) * random_physical_state(rng, n_modes=1).entries
            for _ in range(100)
        ]
        # pure squeezed vacua: the determinant cancels to 1/16
        states += [
            apply_symplectic(vacuum(1), single_mode_squeezer(r, 0, 1)).entries
            for r in rng.uniform(-8.0, 8.0, 100)
        ]
        for m in states:
            nu = validate(CovarianceMatrix(m)).min_symplectic_eigenvalue
            with mp.workdps(50):
                a, b, d = (mp.mpf(float(x)) for x in (m[0, 0], m[0, 1], m[1, 1]))
                exact = float(mp.sqrt(a * d - b * b))
            assert abs(nu - exact) <= math.ulp(exact), m


class TestSymplecticSummary:
    def test_vacuum(self):
        s = symplectic_summary(vacuum(2))
        assert s.nu_plus == pytest.approx(0.25, abs=1e-14)
        assert s.nu_minus == pytest.approx(0.25, abs=1e-14)
        assert s.nu_pt_min == pytest.approx(0.25, abs=1e-14)

    def test_tms_partial_transpose(self):
        s = symplectic_summary(ideal_tms(1.0))
        assert s.nu_pt_min == pytest.approx(NU_PT_TMS_R1, abs=1e-14)
        assert s.nu_pt_min == pytest.approx(nu_pt_min_oracle(ideal_tms(1.0).entries), abs=1e-10)

    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0, 1.6])
    def test_noise_one_hits_the_boundary(self, r):
        V = inject_noise_ideal(ideal_tms(r), 1.0)
        s = symplectic_summary(V)
        assert s.nu_pt_min == pytest.approx(0.25, abs=1e-12)

    def test_product_identity_random_states(self, rng):
        for _ in range(200):
            V = random_physical_state(rng)
            s = symplectic_summary(V)
            assert s.nu_plus >= s.nu_minus > 0
            root_i4 = math.sqrt(s.i4)
            assert s.nu_plus * s.nu_minus == pytest.approx(root_i4, rel=1e-9)
            assert s.nu_plus**2 * s.nu_minus**2 == pytest.approx(s.i4, rel=1e-9)
            assert s.delta == pytest.approx(s.i1 + s.i2 + 2 * s.i3, rel=1e-12)

    def test_matches_eigensolve_oracle(self, rng):
        for _ in range(50):
            V = random_physical_state(rng)
            s = symplectic_summary(V)
            nus = nu_oracle(V.entries)
            assert s.nu_minus == pytest.approx(nus.min(), rel=1e-8)
            assert s.nu_plus == pytest.approx(nus.max(), rel=1e-8)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            symplectic_summary(CovarianceMatrix(np.eye(4) / 8.0))

    def test_one_exact_invariant_pass(self, monkeypatch):
        exact, eigvalsh = symplectic._exact_invariants, np.linalg.eigvalsh
        calls = []

        def counting_exact(m):
            calls.append("exact")
            return exact(m)

        def counting_eigvalsh(m):
            calls.append("eigvalsh")
            return eigvalsh(m)

        monkeypatch.setattr(symplectic, "_exact_invariants", counting_exact)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        V = inject_noise_ideal(ideal_tms(1.0), 0.3)
        for f in (symplectic_summary, require_valid, von_neumann_entropy):
            calls.clear()
            f(V)
            assert (calls.count("exact"), calls.count("eigvalsh")) == (1, 1), f.__name__

    def test_exact_invariants_of_a_dyadic_matrix(self):
        # entries with different power-of-two denominators; integer answers
        m = np.array(
            [[2.5, 0.25, 1.0, 0.0], [0.25, 2.0, 0.0, -1.0],
             [1.0, 0.0, 3.0, 0.125], [0.0, -1.0, 0.125, 2.0]]
        )
        i1, i2, i3, i4, e = symplectic._exact_invariants(m)
        scale = 2**e
        assert (i1, i2, i3) == (4.9375 * scale**2, 5.984375 * scale**2, -1.0 * scale**2)
        assert i4 == round(np.linalg.det(m) * scale**4)
        assert symplectic._exact_invariants(np.diag([1.0, 1.0, 1.0, -1e-300])) is None


def svd_nu_oracle(entries: np.ndarray) -> np.ndarray:
    """Cholesky-SVD symplectic spectrum: the singular values of the
    antisymmetric ``L^T Omega L`` (``V = L L^T``) come in equal pairs."""
    chol = np.linalg.cholesky(entries)
    m = chol.T @ symplectic_form(entries.shape[0] // 2) @ chol
    return np.linalg.svd(m, compute_uv=False)[::2]


class TestWilliamson:
    @pytest.mark.parametrize("n_q", [0.1, 1.0])
    @pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
    def test_cloner_state_normal_form(self, r, n_q):
        # pure four-mode states with an ancilla variance up to W/4 = 1e4
        m = cloner_state(QkdScenario(r=r, n_q=n_q)).entries
        V = 0.5 * (m + m.T)
        nus, s_mat = symplectic._williamson(V)
        omega = symplectic_form(4)
        assert np.abs(s_mat @ omega @ s_mat.T - omega).max() <= 1e-10
        back = (s_mat * np.repeat(nus, 2)) @ s_mat.T
        assert np.abs(back - V).max() <= 1e-14 * np.abs(V).max()

    @pytest.mark.parametrize("entries", [np.diag([np.inf] * 4), np.full((4, 4), np.nan)])
    def test_entries_beyond_the_double_range_raise(self, entries):
        with pytest.raises(NumericalError, match="double range"):
            symplectic._williamson(entries)

    @pytest.mark.parametrize("n_modes", [3, 4])
    def test_eigenvalues_descend_and_match_svd_oracle(self, n_modes, rng):
        for _ in range(20):
            V = random_physical_state(rng, n_modes)
            nus = require_valid(V)[0]
            assert np.all(np.diff(nus) <= 0.0)
            np.testing.assert_allclose(nus, svd_nu_oracle(V.entries), rtol=1e-14, atol=0.0)


class TestEntropyKernel:
    def test_vacuum_point_is_exactly_zero(self):
        assert entropy_f(0.25) == 0.0

    def test_one_photon_thermal(self):
        assert entropy_f(0.75) == pytest.approx(2.0 * math.log(2.0), abs=1e-14)

    def test_tms_marginal_value(self):
        assert entropy_f(math.cosh(2.0) / 4.0) == pytest.approx(F_COSH2_QUARTER, abs=1e-13)

    def test_monotone_on_grid(self):
        xs = np.linspace(0.25, 10.0, 400)
        vals = [entropy_f(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_mpmath_to_full_precision(self):
        import mpmath as mp

        xs = [0.25 + 1e-16, 0.25 + 1e-12, 0.2500001, 0.3, 0.75, 1e3, 1e10, 1e20, 1e100, 1e300]
        xs += list(0.25 + np.logspace(-15, 300, 200))
        for x in xs:
            with mp.workdps(400):  # the two limbs cancel about log10(x) digits
                plus, minus = 2 * mp.mpf(x) + 0.5, 2 * mp.mpf(x) - 0.5
                ref = float(plus * mp.log(plus) - minus * mp.log(minus))
            assert abs(entropy_f(x) - ref) <= 1e-15 * ref, x

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_f(0.25 - 1e-9)
        with pytest.raises(DomainError):
            entropy_f(float("nan"))


class TestVonNeumannEntropy:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_vacuum_zero(self, n_modes):
        assert von_neumann_entropy(vacuum(n_modes)) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_one_photon(self):
        assert von_neumann_entropy(thermal(1.0)) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-12
        )

    def test_pure_tms_zero(self):
        assert von_neumann_entropy(ideal_tms(1.0)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "V",
        [CovarianceMatrix(np.diag([0.1, 1e14])), StateModel.ideal().state(120.0, 0.01)],
        ids=["one-mode-cond-1e15", "ideal-120dB"],
    )
    def test_ill_conditioned_state_matches_mpmath(self, V):
        # One and two modes take nu from sqrt(det) and the exact invariants,
        # so a conditioning-sized purity band (about 7e8 and 5.5e5 here,
        # far above nu) must not apply.
        import mpmath as mp

        with mp.workdps(50):
            m = mp.matrix(V.entries.tolist())
            if V.n_modes == 1:
                nus = [mp.sqrt(mp.det(m))]
            else:
                i1, i2, i3 = mp.det(m[0:2, 0:2]), mp.det(m[2:4, 2:4]), mp.det(m[0:2, 2:4])
                i4, delta = mp.det(m), i1 + i2 + 2 * i3
                root = mp.sqrt(delta**2 - 4 * i4)
                nus = [mp.sqrt((delta + root) / 2), mp.sqrt((delta - root) / 2)]
            ref = sum(
                (2 * nu + 0.5) * mp.log(2 * nu + 0.5) - (2 * nu - 0.5) * mp.log(2 * nu - 0.5)
                for nu in nus
            )
        assert von_neumann_entropy(V) == pytest.approx(float(ref), rel=1e-13)

    def test_williamson_mode_inside_noise_band_is_refused(self):
        # From three modes nu comes from the Williamson form: nu ~ 3e6 lies
        # inside the ~7e8 storage-noise band of so ill-conditioned a matrix,
        # and calling it pure would return 0.
        V = tensor(CovarianceMatrix(np.diag([0.1, 1e14])), vacuum(2))
        with pytest.raises(NumericalError):
            von_neumann_entropy(V)


class TestSymplecticOperations:
    def test_identity_fixes_state(self, rng):
        V = random_physical_state(rng)
        out = apply_symplectic(V, SymplecticOperation(np.eye(4)))
        assert np.allclose(out.entries, V.entries, atol=0.0)

    def test_balanced_splitter_fixes_identical_thermals(self):
        V = tensor(thermal(0.7), thermal(0.7))
        out = apply_symplectic(V, beam_splitter(0.5, 0, 1, 2))
        assert np.allclose(out.entries, V.entries, atol=1e-14)

    def test_orthogonal_squeezers_plus_splitter_make_tms(self):
        r = 1.0
        steps = (
            single_mode_squeezer(r, 0, 2),
            single_mode_squeezer(-r, 1, 2),
            beam_splitter(0.5, 0, 1, 2),
        )
        V = vacuum(2)
        for s in steps:
            V = apply_symplectic(V, s)
        # matrix-algebra oracle, assembled independently
        sz = np.diag([1.0, -1.0])
        expected = np.zeros((4, 4))
        expected[0:2, 0:2] = math.cosh(2 * r) / 4.0 * np.eye(2)
        expected[2:4, 2:4] = math.cosh(2 * r) / 4.0 * np.eye(2)
        expected[0:2, 2:4] = math.sinh(2 * r) / 4.0 * sz
        expected[2:4, 0:2] = math.sinh(2 * r) / 4.0 * sz
        assert np.abs(V.entries - expected).max() < 1e-14
        assert np.abs(V.entries - ideal_tms(r).entries).max() < 1e-14

    def test_determinant_preserved(self, rng):
        for _ in range(30):
            V = random_physical_state(rng)
            op = beam_splitter(rng.uniform(0.05, 0.95), 0, 1, 2)
            out = apply_symplectic(V, op)
            assert np.linalg.det(out.entries) == pytest.approx(
                np.linalg.det(V.entries), rel=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_symplectic(vacuum(3), SymplecticOperation(np.eye(4)))

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError):
            SymplecticOperation(np.diag([2.0, 2.0, 1.0, 1.0]))

    def test_symplectic_form_preserved_by_factories(self):
        for op in (
            SymplecticOperation(np.eye(6)),
            beam_splitter(0.3, 0, 2, 3),
            single_mode_squeezer(0.9, 1, 3),
        ):
            omega = symplectic_form(3)
            assert np.abs(op.matrix @ omega @ op.matrix.T - omega).max() < 1e-12


class TestTensorAndPartialTrace:
    def test_vacuum_composition(self):
        assert np.allclose(tensor(vacuum(2), vacuum(2)).entries, vacuum(4).entries)

    def test_tms_pair_composition_is_block_diagonal(self):
        V = tensor(ideal_tms(0.8), ideal_tms(0.3))
        assert V.n_modes == 4
        assert np.allclose(V.entries[0:4, 0:4], ideal_tms(0.8).entries)
        assert np.allclose(V.entries[4:8, 4:8], ideal_tms(0.3).entries)
        assert np.all(V.entries[0:4, 4:8] == 0.0)

    def test_empty_is_identity_of_composition(self):
        V = ideal_tms(0.5)
        empty = CovarianceMatrix(np.zeros((0, 0)))
        assert np.allclose(tensor(V, empty).entries, V.entries)

    def test_tms_marginal_is_thermal(self):
        r = 0.9
        reduced = partial_trace(ideal_tms(r), keep=[0])
        assert np.allclose(reduced.entries, math.cosh(2 * r) / 4.0 * np.eye(2), atol=1e-14)

    def test_product_state_reduces_to_factor(self):
        V = tensor(thermal(0.4), ideal_tms(0.6))
        assert np.allclose(partial_trace(V, [0]).entries, thermal(0.4).entries)
        assert np.allclose(partial_trace(V, [1, 2]).entries, ideal_tms(0.6).entries)

    def test_vacuum_keep_middle_modes(self):
        assert np.allclose(partial_trace(vacuum(4), [2, 3]).entries, vacuum(2).entries)

    def test_bad_indices(self):
        with pytest.raises(BadIndexError):
            partial_trace(vacuum(2), [])
        with pytest.raises(BadIndexError):
            partial_trace(vacuum(2), [2])


class TestHomodyneConditioning:
    def test_uncorrelated_modes_unchanged(self):
        V = tensor(thermal(0.5), thermal(1.5))
        out = homodyne_condition(V, measured_mode=1, quadrature="q")
        assert np.allclose(out.entries, thermal(0.5).entries, atol=1e-14)

    def test_tms_conditional_variances(self):
        V = ideal_tms(1.0)
        out = homodyne_condition(V, measured_mode=1, quadrature="q")
        # Schur complement by hand: a_q - c^2 / b_q = 1 / (4 cosh 2r)
        assert out.entries[0, 0] == pytest.approx(0.06645055720851992, abs=1e-14)
        assert out.entries[1, 1] == pytest.approx(math.cosh(2.0) / 4.0, abs=1e-14)

    def test_matches_dense_pseudoinverse_oracle(self, rng):
        for _ in range(25):
            V = random_physical_state(rng, n_modes=3)
            for quad, off in (("q", 0), ("p", 1)):
                out = homodyne_condition(V, measured_mode=1, quadrature=quad)
                m = V.entries
                keep = [0, 1, 4, 5]
                meas = [2, 3]
                a = m[np.ix_(keep, keep)]
                c = m[np.ix_(keep, meas)]
                b = m[np.ix_(meas, meas)]
                pi = np.zeros((2, 2))
                pi[off, off] = 1.0
                expected = a - c @ np.linalg.pinv(pi @ b @ pi) @ c.T
                assert np.abs(out.entries - expected).max() < 1e-10

    def test_isotropic_block_closed_form(self, rng):
        # When the measured block is w * I, the general rule reduces to the
        # scalar prefactor 1 / (4 sqrt(det B / 16)) ... i.e. C C^T / B_qq.
        V = inject_noise_ideal(ideal_tms(0.8), 0.6)
        out = homodyne_condition(V, 1, "q")
        m = V.entries
        b = m[2:4, 2:4]
        assert abs(b[0, 0] - b[1, 1]) < 1e-14  # isotropic measured block
        c = m[np.ix_([0, 1], [2, 3])]
        pi_q = np.diag([1.0, 0.0])
        scalar = m[0:2, 0:2] - (c @ pi_q @ c.T) / math.sqrt(np.linalg.det(b))
        assert np.abs(out.entries - scalar).max() < 1e-10

    def test_conditioning_never_increases_variance(self, rng):
        for _ in range(25):
            V = random_physical_state(rng, n_modes=2)
            reduced = partial_trace(V, [0])
            out = homodyne_condition(V, 1, "q")
            assert out.entries[0, 0] <= reduced.entries[0, 0] + 1e-12
            assert out.entries[1, 1] <= reduced.entries[1, 1] + 1e-12

    def test_singular_measurement(self):
        m = np.zeros((4, 4))
        with pytest.raises(SingularMeasurementError):
            homodyne_condition(CovarianceMatrix(m), 1, "q")

    def test_bad_mode(self):
        with pytest.raises(BadIndexError):
            homodyne_condition(vacuum(2), 5, "q")


class TestSerialization:
    def test_json_roundtrip_exact(self, rng):
        V = random_physical_state(rng)
        back = covariance_from_json(json.dumps(symplectic._covariance_doc(V)))
        assert back.n_modes == V.n_modes
        assert np.all(back.entries == V.entries)

    def test_csv_roundtrip_exact(self, rng):
        V = random_physical_state(rng, n_modes=3)
        text = "\n".join(",".join(repr(float(x)) for x in row) for row in V.entries) + "\n"
        back = covariance_from_csv(text)
        assert np.all(back.entries == V.entries)

    def test_json_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            covariance_from_json('{"n_modes": 2, "entries": [1, 2, 3]}')

    @pytest.mark.parametrize(
        "n_modes", ["null", "[2]", "1e400", '"2"', "true", "1.7", "-1"]
    )
    def test_json_mode_count_must_be_an_integer(self, n_modes):
        text = '{"n_modes": %s, "entries": [0.25, 0, 0, 0.25]}' % n_modes
        with pytest.raises(ValueError, match="n_modes must be an integer >= 0, got "):
            covariance_from_json(text)

    @pytest.mark.parametrize(
        "entries", ['{"a": 1}', '"0.25"', "[0.25, 0, 0, true]", '[0.25, 0, 0, "0.25"]',
                    "[[0.25, 0], [0, 0.25]]", "null"]
    )
    def test_json_entries_must_be_an_array_of_numbers(self, entries):
        with pytest.raises(ValueError, match="entries must be an array of numbers"):
            covariance_from_json('{"n_modes": 1, "entries": %s}' % entries)


class TestArgumentChecks:
    @pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 3), (1, 2, 2)])
    def test_covariance_matrix_shape(self, shape):
        with pytest.raises(DimensionMismatchError, match="must be square with even size"):
            CovarianceMatrix(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 3)])
    def test_symplectic_operation_shape(self, shape):
        with pytest.raises(DimensionMismatchError, match="must be square with even size"):
            SymplecticOperation(np.zeros(shape))

    @pytest.mark.parametrize("coupling", [-0.1, 1.5, math.nan])
    def test_beam_splitter_coupling_outside_the_unit_interval(self, coupling):
        with pytest.raises(DomainError, match="coupling must lie in"):
            beam_splitter(coupling, 0, 1, 2)

    def test_homodyne_needs_an_unmeasured_mode(self):
        with pytest.raises(BadIndexError, match="at least one unmeasured mode"):
            homodyne_condition(vacuum(1), 0)

    def test_homodyne_quadrature_is_q_or_p(self):
        with pytest.raises(DomainError, match="quadrature must be 'q' or 'p'"):
            homodyne_condition(vacuum(2), 1, "x")

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_summary_needs_two_modes(self, n_modes):
        with pytest.raises(DimensionMismatchError, match="requires a two-mode state"):
            symplectic_summary(vacuum(n_modes))

    def test_the_state_of_no_modes_is_valid(self):
        verdict = validate(CovarianceMatrix(np.zeros((0, 0))))
        assert verdict.ok and verdict.min_symplectic_eigenvalue is None


class TestDoubleRange:
    def test_summary_of_invariants_beyond_the_double_range(self):
        # I4 = det V = 1.6e309 overflows; the matrix itself validates
        V = CovarianceMatrix(2e77 * np.eye(4))
        assert validate(V).ok
        assert symplectic_summary(CovarianceMatrix(1e77 * np.eye(4))).i4 == 1e308
        with pytest.raises(NumericalError, match="exact invariant beyond the double range"):
            symplectic_summary(V)

    def test_square_root_beyond_the_double_range(self):
        assert symplectic._sqrt_ratio(1 << 2040, 1) == 2.0**1020
        with pytest.raises(NumericalError, match="exact invariant beyond the double range"):
            symplectic._sqrt_ratio(1 << 2050, 1)
