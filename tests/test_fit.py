import dataclasses
import importlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from tmsflow.correlations import correlation_arrays
from tmsflow.errors import DomainError, ModelFailureError, NumericalError
from tmsflow.fit import (
    FitResult,
    MeasurementRecord,
    cost,
    fit,
    records_from_csv,
    records_to_csv,
    synthetic_records,
)
from tmsflow.states import StateModel

CHI_TRUE = (0.05, 0.56)
S_GRID = [3.0, 6.0, 9.0]
N_GRID = [0.0, 0.25, 1.0]
# the grid and noise of acceptance criterion 9
S_GRID_09 = [3.0, 4.5, 6.0, 7.5, 9.0]
N_GRID_09 = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0]


def _with_sigma(records, sigma):
    return [dataclasses.replace(r, sd_a=sigma, sd_b=sigma, se_f=sigma) for r in records]


@pytest.fixture(scope="module")
def clean_records():
    return synthetic_records(S_GRID, N_GRID, chi=CHI_TRUE)


class TestCost:
    def test_zero_at_the_generating_point(self, clean_records):
        assert cost(clean_records, CHI_TRUE) < 1e-18

    def test_positive_away_from_it(self, clean_records):
        assert cost(clean_records, (0.0, 1.0)) > 1e-3

    def test_quadratic_perturbation_identity(self, clean_records):
        delta = 0.037
        perturbed = list(clean_records)
        rec = perturbed[4]
        perturbed[4] = MeasurementRecord(
            s_db=rec.s_db, n=rec.n, d_a=rec.d_a + delta, d_b=rec.d_b, e_f=rec.e_f
        )
        w = (0.5, 0.5, 1.0)
        base = cost(clean_records, CHI_TRUE, w)
        bumped = cost(perturbed, CHI_TRUE, w)
        assert bumped - base == pytest.approx(0.5 * delta**2, rel=1e-9)

    def test_record_order_invariance(self, clean_records, rng):
        shuffled = list(clean_records)
        rng.shuffle(shuffled)
        assert cost(shuffled, (0.04, 0.5)) == pytest.approx(
            cost(clean_records, (0.04, 0.5)), rel=1e-12
        )

    def test_measured_sigma_replaces_the_weights(self, clean_records):
        delta, sigma = 0.037, 0.02
        rec = clean_records[4]
        bumped = dataclasses.replace(rec, d_b=rec.d_b + delta, sd_a=1.0, sd_b=sigma, se_f=1.0)
        records = clean_records[:4] + [bumped] + clean_records[5:]
        assert cost(records, CHI_TRUE, (0.5, 0.5, 1.0)) == pytest.approx(
            (delta / sigma) ** 2, rel=1e-9
        )

    def test_empty_records_rejected(self):
        with pytest.raises(DomainError):
            cost([], CHI_TRUE)

    @pytest.mark.parametrize("name", ["noisy-seed-0", "sigma", "clamped-start", "rejected-trial"])
    def test_equals_the_final_cost_of_a_fit_bit_for_bit(self, name):
        records, kwargs = _pinned_sets()[name]
        result = fit(records, **kwargs)
        assert cost(records, (result.chi1, result.chi2)) == result.final_cost

    def test_overflowing_cost_raises(self):
        # the residual 1e200 is a double, its square is not
        records = records_from_csv("s_db,n,d_a,d_b,e_f\n3,0,1e200,0,0\n6,0,0,0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="the cost at chi = \\(0.0, 1.0\\) is not finite"):
                cost(records, (0.0, 1.0))

    def test_model_failure_reports_index(self):
        bad = [
            MeasurementRecord(s_db=3.0, n=0.1, d_a=0.5, d_b=0.5, e_f=0.4),
            MeasurementRecord(s_db=6.0, n=0.2, d_a=0.5, d_b=0.5, e_f=0.4),
        ]
        # chi1 so large that the amplifier prefactor overflows to inf, so
        # the first record's state has non-finite entries
        with pytest.raises(ModelFailureError) as err, np.errstate(invalid="ignore"):
            cost(bad, (1e308, 1.0))
        assert err.value.record_index is not None


class TestFit:
    def test_noiseless_recovery(self, clean_records):
        result = fit(clean_records)
        assert result.converged
        assert abs(result.chi1 - CHI_TRUE[0]) < 1e-4
        assert abs(result.chi2 - CHI_TRUE[1]) < 1e-4
        assert result.final_cost <= cost(clean_records, (0.0, 1.0))

    def test_deterministic(self, clean_records):
        a = fit(clean_records)
        b = fit(clean_records)
        assert (a.chi1, a.chi2, a.final_cost, a.iterations) == (
            b.chi1,
            b.chi2,
            b.final_cost,
            b.iterations,
        )

    def test_noisy_recovery_single_seed(self):
        noisy = synthetic_records(S_GRID, N_GRID, chi=CHI_TRUE, noise=0.01, seed=3)
        result = fit(noisy)
        assert abs(result.chi1 - CHI_TRUE[0]) / CHI_TRUE[0] < 0.25
        assert abs(result.chi2 - CHI_TRUE[1]) / CHI_TRUE[1] < 0.25

    def test_zero_squeezing_records_excluded_with_warning(self, clean_records):
        records = [
            MeasurementRecord(s_db=0.0, n=0.1, d_a=0.0, d_b=0.0, e_f=0.0)
        ] + list(clean_records)
        with pytest.warns(UserWarning, match="S = 0"):
            result = fit(records)
        assert abs(result.chi1 - CHI_TRUE[0]) < 1e-4

    def test_identifiability_requires_two_levels(self):
        records = synthetic_records([6.0], N_GRID, chi=CHI_TRUE)
        with pytest.raises(DomainError):
            fit(records)

    def test_chi1_clamp_reported(self, clean_records):
        result = fit(clean_records, initial=(-0.2, 1.0))
        assert result.chi1 >= 0.0
        assert result.clamp_activations > 0

    def test_negative_start_is_projected_and_recovers(self, clean_records):
        result = fit(clean_records, initial=(-0.2, 1.0))
        assert result.converged and result.clamp_activations >= 1
        assert abs(result.chi1 - CHI_TRUE[0]) < 1e-4
        assert abs(result.chi2 - CHI_TRUE[1]) < 1e-4

    def test_failing_start_raises(self, clean_records):
        with pytest.raises(ModelFailureError), np.errstate(invalid="ignore"):
            fit(clean_records, initial=(1e308, 1.0))

    def test_a_level_above_the_double_range_names_its_record(self, clean_records):
        high = MeasurementRecord(s_db=4000.0, n=0.1, d_a=0.5, d_b=0.5, e_f=0.4)
        with pytest.raises(ModelFailureError) as err, warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(clean_records[:4] + [high] + clean_records[4:])
        assert err.value.record_index == 4
        assert str(err.value) == (
            "model evaluation failed for record 4 (S=4000.0 dB, n=0.1): "
            "squeezing level 4000.0 dB is above 3082.5 dB"
        )
        assert type(err.value.__cause__) is DomainError
        assert str(err.value.__cause__) == "squeezing level 4000.0 dB is above 3082.5 dB"

    @pytest.mark.parametrize("sigma", [1e-152, 1e-200, 1e-320])
    def test_overflowing_cost_raises(self, clean_records, sigma):
        # at 1e-152 the cost is finite at the start and J^T J is not
        records = [dataclasses.replace(r, d_a=r.d_a + 0.01) for r in clean_records]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite|overflow"):
                fit(_with_sigma(records, sigma))

    def test_error_bars_and_reduced_chi2(self):
        noisy = synthetic_records(S_GRID, N_GRID, chi=CHI_TRUE, noise=0.01, seed=3)
        result = fit(noisy)
        assert result.reduced_chi2 == result.final_cost / (3 * len(noisy) - 2)
        assert 0.0 < result.chi1_se < 0.01 and 0.0 < result.chi2_se < 0.1

    def test_singular_optimum_has_no_error_bars(self):
        # at chi1 = 0 the residuals do not depend on chi2
        records = synthetic_records(S_GRID, N_GRID, chi=(0.0, 1.0))
        result = fit(records)
        assert result.converged and result.chi1 == 0.0
        assert result.chi1_se is None and result.chi2_se is None
        assert json.loads(json.dumps(dataclasses.asdict(result)))["chi2_se"] is None

    @pytest.mark.parametrize("seed", [0, 5, 11, 17])
    def test_matches_a_reference_least_squares_solver(self, seed):
        from scipy.optimize import least_squares

        from tmsflow.fit import _residuals

        records = synthetic_records(S_GRID_09, N_GRID_09, chi=CHI_TRUE, noise=0.01, seed=seed)
        result = fit(records)
        reference = least_squares(
            lambda chi: _residuals(records, chi, (0.5, 0.5, 1.0), 0.01),
            x0=CHI_TRUE, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14,
        )
        assert result.converged
        assert result.final_cost <= cost(records, tuple(reference.x)) * (1 + 1e-9)
        assert np.abs(np.array([result.chi1, result.chi2]) - reference.x).max() < 1e-6

    def test_error_bars_cover_the_truth(self):
        sigma, fits = 0.01, 40
        hits = np.zeros(2)
        for seed in range(fits):
            noisy = synthetic_records(S_GRID, N_GRID, chi=CHI_TRUE, noise=sigma, seed=seed)
            result = fit(_with_sigma(noisy, sigma))
            assert result.converged
            hits += np.abs(np.array([result.chi1, result.chi2]) - CHI_TRUE) <= [
                result.chi1_se,
                result.chi2_se,
            ]
        # +-1 SE holds the truth with probability 0.683; 3 binomial sigmas of slack
        slack = 3.0 * math.sqrt(fits * 0.683 * 0.317)
        assert np.all(np.abs(hits - 0.683 * fits) <= slack), hits

    @pytest.mark.parametrize(
        "weights", [(-1.0, -1.0, -1.0), (0.5, -1e-12, 1.0), (0.0, 0.0, 0.0), (float("nan"), 1, 1)]
    )
    def test_weights_must_be_nonnegative_and_not_all_zero(self, clean_records, weights):
        with pytest.raises(DomainError, match="weights"):
            fit(clean_records, weights=weights)

    def test_stops_unconverged_at_the_step_cap(self):
        # chi1 crawls along a shallow valley towards 1e-6 and chi2 towards 4
        records = synthetic_records([3, 6, 9, 12], [0.5], chi=(1e-5, 3.0), noise=0.01, seed=2)
        result = fit(records, initial=(1.0, 1.0))
        assert result.iterations == 200 and not result.converged

    def test_stops_unconverged_where_no_damping_lowers_the_cost(self):
        # the Gauss-Newton decrement exceeds 1e-12 of the cost, yet no damped step up to
        # lam = 1e16 lowers it
        records = synthetic_records([3, 6, 9, 12], [0.5], chi=(1e-5, 4.0), noise=0.001, seed=1)
        result = fit(records, initial=(1e-3, 1.0))
        assert 0 < result.iterations < 200 and not result.converged
        assert result.final_cost == cost(records, (result.chi1, result.chi2))

    def test_synthetic_records_beyond_the_double_range(self):
        with pytest.raises(NumericalError, match="exact invariant beyond the double range"):
            synthetic_records([1e-300], [1e300])

    @pytest.mark.parametrize("noise", [-1.0, -1e-12, float("nan")])
    def test_synthetic_records_reject_a_bad_noise_amplitude(self, noise):
        with pytest.raises(DomainError, match="noise amplitude"):
            synthetic_records([6.0], [0.1], noise=noise)


# the module, not the function the package exports under the same name
fit_module = importlib.import_module("tmsflow.fit")


def _pinned_sets():
    """Record sets and fit arguments whose results are pinned below."""
    zero_rows = [
        MeasurementRecord(s_db=0.0, n=0.1, d_a=0.0, d_b=0.0, e_f=0.0),
        MeasurementRecord(s_db=0.0, n=0.5, d_a=0.1, d_b=0.1, e_f=0.0),
    ]
    return {
        "noisy-seed-0": (synthetic_records(S_GRID_09, N_GRID_09, noise=0.01, seed=0), {}),
        "noisy-seed-7": (synthetic_records(S_GRID_09, N_GRID_09, noise=0.01, seed=7), {}),
        "sigma": (_with_sigma(synthetic_records(S_GRID, N_GRID, noise=0.01, seed=3), 0.01), {}),
        "clamped-start": (synthetic_records(S_GRID, N_GRID), {"initial": (-0.2, 1.0)}),
        "chi1-zero-optimum": (synthetic_records(S_GRID, N_GRID, chi=(0.0, 1.0)), {}),
        "zero-squeezing-rows": (
            zero_rows + synthetic_records(S_GRID, N_GRID, noise=0.01, seed=9), {}
        ),
        "rejected-trial": (
            synthetic_records(S_GRID_09, N_GRID_09, noise=0.01, seed=2), {"initial": (0.5, 0.1)}
        ),
    }


# every field, bit for bit, as the fit finds it with no BLAS or LAPACK call
PINNED = {
    "noisy-seed-0": FitResult(
        chi1=0.04940529532435107, chi2=0.5495313444033268, final_cost=0.004922259693946219,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.0013684063638778425,
        chi2_se=0.017642420446339662, reduced_chi2=5.5934769249388855e-05,
    ),
    "noisy-seed-7": FitResult(
        chi1=0.05404961387971824, chi2=0.5153058170346576, final_cost=0.004201387633249646,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.0013142470225010357,
        chi2_se=0.01559882108079525, reduced_chi2=4.77430412869278e-05,
    ),
    "sigma": FitResult(
        chi1=0.05065947903380962, chi2=0.5390057085737275, final_cost=35.85613400655489,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.003459523156276522,
        chi2_se=0.04022162767901542, reduced_chi2=1.4342453602621956,
    ),
    "clamped-start": FitResult(
        chi1=0.049999999999776105, chi2=0.5600000000019245, final_cost=7.182841606734346e-25,
        iterations=7, converged=True, clamp_activations=1, chi1_se=5.426075029149003e-14,
        chi2_se=6.409100970554583e-13, reduced_chi2=2.873136642693738e-26,
    ),
    "chi1-zero-optimum": FitResult(
        chi1=0.0, chi2=1.0, final_cost=0.0, iterations=0, converged=True, clamp_activations=0,
        chi1_se=None, chi2_se=None, reduced_chi2=0.0,
    ),
    "zero-squeezing-rows": FitResult(
        chi1=0.05175816697863583, chi2=0.5211019648549555, final_cost=0.0021057893768675544,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.003006321693821746,
        chi2_se=0.03452945223776134, reduced_chi2=8.423157507470217e-05,
    ),
    "rejected-trial": FitResult(
        chi1=0.047358697103886196, chi2=0.5870865548326143, final_cost=0.005686725668119977,
        iterations=9, converged=True, clamp_activations=1, chi1_se=0.0014305029133837408,
        chi2_se=0.01910886980697802, reduced_chi2=6.462188259227246e-05,
    ),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """The shape of every correlation-kernel call the fit module makes."""
    shapes = []

    def counted(sf):
        shapes.append(sf.a.shape)
        return correlation_arrays(sf)

    monkeypatch.setattr(fit_module, "correlation_arrays", counted)
    return shapes


def _failing_kernel(monkeypatch, call, cells):
    """Make the fit module's kernel call number ``call`` (from 1) fail at
    ``(point, record)`` cells of its (point, record) stack."""
    made = itertools.count(1)

    def failing(sf):
        res = correlation_arrays(sf)
        if next(made) != call:
            return res
        errors = dict(res.errors)
        for point, record in cells:
            errors[point * sf.a.shape[1] + record] = NumericalError(f"injected at {point}")
        return res._replace(errors=errors)

    monkeypatch.setattr(fit_module, "correlation_arrays", failing)


class TestOneKernelCallPerTrial:
    @pytest.mark.parametrize("name", list(PINNED))
    def test_results_are_pinned(self, name):
        records, kwargs = _pinned_sets()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the S = 0 exclusion
            assert fit(records, **kwargs) == PINNED[name]

    def test_default_records_take_nine_calls(self, kernel_calls):
        # the gen-synthetic default grid; every trial on it is accepted
        records = synthetic_records(S_GRID_09, N_GRID_09)
        kernel_calls.clear()
        result = fit(records)
        assert len(kernel_calls) == 1 + result.iterations == 9
        assert set(kernel_calls) == {(3, len(records))}

    def test_a_call_per_trial_with_rejections(self, kernel_calls):
        records, kwargs = _pinned_sets()["rejected-trial"]
        kernel_calls.clear()
        result = fit(records, **kwargs)
        assert len(kernel_calls) > 1 + result.iterations  # one trial or more rejected
        assert set(kernel_calls) == {(3, len(records))}

    def test_zero_squeezing_rows_are_not_evaluated(self, kernel_calls):
        records, _ = _pinned_sets()["zero-squeezing-rows"]
        kernel_calls.clear()
        with pytest.warns(UserWarning, match="S = 0"):
            fit(records)
        assert set(kernel_calls) == {(3, len(records) - 2)}

    def test_cost_is_one_call(self, kernel_calls, clean_records):
        kernel_calls.clear()
        cost(clean_records, CHI_TRUE)
        assert kernel_calls == [(1, len(clean_records))]

    @pytest.mark.parametrize("above_range", [False, True])
    def test_each_point_equals_the_model_path_bit_for_bit(self, clean_records, above_range):
        # the third point's prefactor overflows at 100 dB (excess 1e10) alone
        records = _with_sigma(clean_records[:3], 0.1) + clean_records[3:]
        records.insert(5, MeasurementRecord(s_db=100.0, n=0.5, d_a=0.5, d_b=0.5, e_f=0.4))
        if above_range:
            records.append(MeasurementRecord(s_db=4000.0, n=0.1, d_a=0.5, d_b=0.5, e_f=0.4))
        weights, beta = (1.0, 2.0, 0.5), 0.02
        points = [(0.05, 0.56), (0.07, 0.5), (0.05, 40.0)]
        s, n = np.array([r.s_db for r in records]), np.array([r.n for r in records])
        measured = np.array([(r.d_a, r.d_b, r.e_f) for r in records]).T.ravel()
        root_w = np.sqrt(weights).repeat(len(records))
        plain = np.tile([r.sd_a is None for r in records], 3)
        scale = np.where(plain, root_w, 1.0)
        sigma = np.array([[r.sd_a or 1.0, r.sd_b or 1.0, r.se_f or 1.0] for r in records]).T.ravel()
        values = fit_module._evaluator(records, weights, beta)(points)
        failures = 0
        for (chi1, chi2), value in zip(points, values):
            res = correlation_arrays(StateModel.realistic(chi1, chi2, beta).standard_form(s, n))
            if res.errors:
                failures += 1
                idx = min(res.errors)
                assert isinstance(value, ModelFailureError) and value.record_index == idx
                assert str(value.__cause__) == str(res.errors[idx])
                continue
            predicted = np.concatenate((res.d_a, res.d_b, res.e_f))
            expected = (scale * (predicted - measured)) / sigma
            assert value.tobytes() == expected.tobytes(), (chi1, chi2)
        assert failures == (3 if above_range else 1)

    def test_accepted_trial_raises_the_held_jacobian_failure(self, monkeypatch):
        records = synthetic_records(S_GRID_09, N_GRID_09)
        # call 2 is the first trial, accepted on these records; the chi1
        # point is differenced first, so its failure wins over the chi2 point's
        _failing_kernel(monkeypatch, 2, [(2, 1), (1, 7), (1, 9)])
        with pytest.raises(ModelFailureError) as err:
            fit(records)
        rec = records[7]
        assert err.value.record_index == 7
        assert str(err.value) == (
            f"model evaluation failed for record 7 (S={rec.s_db} dB, n={rec.n}): injected at 1"
        )
        assert isinstance(err.value.__cause__, NumericalError)

    def test_failing_start_point_raises_before_its_jacobian_points(self, monkeypatch, clean_records):
        _failing_kernel(monkeypatch, 1, [(1, 0), (0, 5)])
        with pytest.raises(ModelFailureError, match="record 5 .*: injected at 0$"):
            fit(clean_records)

    def test_rejected_trials_never_raise_their_held_failures(self, monkeypatch, kernel_calls):
        records, kwargs = _pinned_sets()["rejected-trial"]
        kernel_calls.clear()
        expected = fit(records, **kwargs)
        calls, returned = len(kernel_calls), 0
        for call in range(2, calls + 1):  # every trial in turn
            _failing_kernel(monkeypatch, call, [(1, 3), (2, 3)])
            try:
                result = fit(records, **kwargs)
            except ModelFailureError as exc:  # an accepted trial
                assert exc.record_index == 3 and str(exc).endswith("injected at 1")
            else:
                assert result == expected
                returned += 1
        assert returned == calls - 1 - expected.iterations > 0


class TestClosedFormAlgebra:
    """The fit's 2x2 algebra on ``A = J^T J`` against 50-digit mpmath on the
    exact values of the float inputs: the damped and the full-rank
    pseudo-inverse steps are correctly rounded, the rank-one step is within
    a few ulps of the step's scale, and the condition cut of the standard
    errors is decided exactly."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _reference_steps(A, g, lam):
        """The damped step and ``-pinv(A) g`` (cutoff 1e-15 of the largest
        singular value) at 50 digits, the step's scale ``|g| / lambda_max``
        and the rank pinv keeps."""
        import mpmath as mp

        with mp.workdps(50):
            a, b, c = map(mp.mpf, A)
            g = mp.matrix([mp.mpf(float(v)) for v in g])
            damping = mp.mpf(lam) * (a + c)
            damped = None
            if a + c > 0:
                damped = -mp.lu_solve(mp.matrix([[a + damping, b], [b, c + damping]]), g)
            values, vectors = mp.eigsy(mp.matrix([[a, b], [b, c]]))
            largest = max(abs(v) for v in values)
            pinv_step = mp.matrix([0, 0])
            for i in range(2):
                if abs(values[i]) > mp.mpf(1e-15) * largest:
                    w = vectors[:, i]
                    pinv_step -= w * ((w.T * g)[0] / values[i])
            scale = mp.sqrt(g[0] ** 2 + g[1] ** 2) / largest if largest else mp.mpf(0)
            rank = sum(abs(v) > mp.mpf(1e-15) * largest for v in values)
            return damped, pinv_step, float(scale), rank

    @staticmethod
    def _rounded(got, exact) -> bool:
        """Whether each float of ``got`` is the exact value rounded to
        nearest, allowing for the reference's own error of about ``cond(A)
        10^-50`` relative (a tie stays a tie)."""
        import mpmath as mp

        with mp.workdps(50):
            return all(
                abs(mp.mpf(x) - e) <= mp.mpf(math.ulp(x)) / 2 + abs(e) * mp.mpf(10) ** -33
                for x, e in zip(got, exact)
            )

    @staticmethod
    def _reference_errors(A, reduced):
        import mpmath as mp

        with mp.workdps(50):
            a, b, c = map(mp.mpf, A)
            if not (a > 0 and c > 0):
                return None, None
            rho = abs(b) / mp.sqrt(a * c)
            if not (rho < 1 and (1 + rho) / (1 - rho) <= mp.mpf(1e8)):
                return None, None
            det = a * c - b * b
            return float(mp.sqrt(reduced * c / det)), float(mp.sqrt(reduced * a / det))

    @classmethod
    def _cases(cls):
        """(A, g) pairs: random normal equations formed as the fit forms
        them, near-singular ones with condition numbers from 1e4 to past
        1e16, rank-one ones and the zero matrix."""
        rng = np.random.default_rng(30)
        cases = []
        for _ in range(40):
            J = rng.standard_normal((90, 2)) * 10.0 ** rng.uniform(-4, 4, 2)
            r = rng.standard_normal(90) * 10.0 ** rng.uniform(-3, 3)
            A = tuple(fit_module._sum(J[:, i] * J[:, j]) for i, j in ((0, 0), (0, 1), (1, 1)))
            cases.append((A, tuple(fit_module._sum(J[:, i] * r) for i in range(2))))
        # [[1, 1], [1, 1 + d]] has condition number about 4 / d.
        for k in (12, 20, 24, 25, 26, 27, 30, 40, 46, 50, 52, 60):
            for scale in (1.0, 2.0**-70, 3.0e40):
                for sign in (1.0, -1.0):
                    A = (scale, sign * scale, scale * (1.0 + 2.0**-k))
                    cases.append((A, tuple(rng.standard_normal(2) * scale)))
        for A in ((2.5, 0.0, 0.0), (0.0, 0.0, 7.0), (4.0, -2.0, 1.0), (0.0, 0.0, 0.0)):
            cases.append((A, (0.3, -1.7)))
        return cases

    def test_steps_match_fifty_digit_references(self):
        rank_one = full_rank = 0
        for A, g in self._cases():
            for lam in (1e-12, 1e-3, 10.0, 1e16):
                damped, pinv_step, scale, rank = self._reference_steps(A, g, lam)
                if damped is not None:  # the fit never damps the zero matrix: g = 0 there
                    assert self._rounded(fit_module._damped_step(A, g, lam), damped), (A, g, lam)
            step = fit_module._pinv_step(A, g)
            if rank == 2:
                full_rank += 1
                assert self._rounded(step, pinv_step), (A, g)
            else:
                rank_one += rank == 1
                misses = [abs(x - float(e)) for x, e in zip(step, pinv_step)]
                assert max(misses) <= 8 * self.EPS * scale, (A, g)
        assert full_rank > 40 and rank_one >= 20

    def test_pseudo_inverse_keeps_numpys_cutoff(self):
        # eigenvalue ratios 1.8e-15 and 4.4e-16, either side of the 1e-15 cutoff
        g = (1.0, 2.0)
        kept = fit_module._pinv_step((1.0, 1.0, 1.0 + 2.0**-47), g)
        dropped = fit_module._pinv_step((1.0, 1.0, 1.0 + 2.0**-49), g)
        assert abs(kept[0]) > 1e13 and abs(dropped[0]) < 1.0
        assert fit_module._pinv_step((2.5, 0.0, 0.0), g) == (-0.4, 0.0)  # the chi1-zero optimum
        assert fit_module._pinv_step((0.0, 0.0, 0.0), g) == (0.0, 0.0)

    def test_standard_errors_match_fifty_digit_references(self):
        rng = np.random.default_rng(31)
        cut = (1e8 - 1) / (1e8 + 1)  # |rho| of condition number 1e8
        rhos = [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 1.0), 1.0, 0.999, 0.0, 0.5]
        rhos += [1.0 - 2.0**-k for k in (10, 20, 25, 26, 30, 52)]
        cases = [(A, 1.0) for A, _ in self._cases()]
        for rho in rhos:
            for sign in (1.0, -1.0):
                s0, s1 = 10.0 ** rng.uniform(-5, 5, 2)
                cases.append(((s0 * s0, sign * rho * s0 * s1, s1 * s1), rng.uniform(0.1, 10.0)))
        cases.append(((1.0, cut, 1.0), 2.0))  # the cut in doubles: the exact rho decides
        # within a few ulps of the cut, where a cut taken in floats errs now and then
        for k in rng.integers(-6, 7, 200):
            s0, s1 = 10.0 ** rng.uniform(-5, 5, 2)
            rho = cut + int(k) * math.ulp(cut)
            cases.append(((s0 * s0, rho * s0 * s1, s1 * s1), 1.0))
        kept = 0
        for A, reduced in cases:
            expected = self._reference_errors(A, reduced)
            got = fit_module._standard_errors(A, reduced)
            assert (got[0] is None) == (expected[0] is None), (A, got, expected)
            if expected[0] is not None:
                kept += 1
                for value, reference in zip(got, expected):
                    assert abs(value - reference) <= 2 * self.EPS * reference, (A, got, expected)
        assert kept > 40 and len(cases) - kept > 20


class TestRecordsCsv:
    def test_roundtrip(self, clean_records):
        text = records_to_csv(clean_records)
        back = records_from_csv(text)
        assert len(back) == len(clean_records)
        for a, b in zip(back, clean_records):
            assert a == b

    def test_stderr_columns_roundtrip(self):
        rec = MeasurementRecord(
            s_db=6.0, n=0.2, d_a=0.5, d_b=0.6, e_f=0.4, sd_a=0.01, sd_b=0.01, se_f=0.02
        )
        back = records_from_csv(records_to_csv([rec]))
        assert back[0].sd_a == 0.01

    @pytest.mark.parametrize(
        "sigmas",
        [
            {"sd_a": 0.01},
            {"sd_a": 0.01, "sd_b": 0.01},
            {"sd_a": 0.0, "sd_b": 0.01, "se_f": 0.01},
            {"sd_a": 0.01, "sd_b": -0.01, "se_f": 0.01},
            {"sd_a": 0.01, "sd_b": 0.01, "se_f": float("nan")},
            {"sd_a": float("inf"), "sd_b": 0.01, "se_f": 0.01},
        ],
    )
    def test_sigma_all_or_none_finite_and_positive(self, sigmas):
        with pytest.raises(DomainError):
            MeasurementRecord(3.0, 0.1, 0.5, 0.5, 0.4, **sigmas)

    @pytest.mark.parametrize("sigma_fields", ["0,0.01,0.01", "0.01,-1,0.01"])
    def test_bad_sigma_line_reported(self, sigma_fields):
        text = f"s_db,n,d_a,d_b,e_f\n3.0,0.1,0.5,0.5,0.4\n6.0,0.2,0.5,0.5,0.4,{sigma_fields}\n"
        with pytest.raises(ValueError, match="line 3: standard deviations"):
            records_from_csv(text)

    def test_malformed_line_reported(self):
        text = "s_db,n,d_a,d_b,e_f\n3.0,0.1,0.5,0.5,0.4\n6.0,0.2,oops,0.5,0.4\n"
        with pytest.raises(ValueError, match="line 3"):
            records_from_csv(text)

    def test_header_line_is_optional(self):
        records = records_from_csv("3.0,0.1,0.5,0.5,0.4\n6.0,0.2,0.6,0.5,0.4\n")
        assert [(r.s_db, r.n) for r in records] == [(3.0, 0.1), (6.0, 0.2)]

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError, match="noise photon number must be >= 0, got -0.1"):
            MeasurementRecord(s_db=3.0, n=-0.1, d_a=0.5, d_b=0.5, e_f=0.4)

    def test_wrong_column_count_reported(self):
        text = "s_db,n,d_a,d_b,e_f\n3.0,0.1,0.5\n"
        with pytest.raises(ValueError, match="line 2"):
            records_from_csv(text)

    def test_json_output_fields(self, clean_records):
        doc = json.loads(json.dumps(dataclasses.asdict(fit(clean_records))))
        for key in (
            *("chi1", "chi2", "final_cost", "iterations", "converged"),
            *("chi1_se", "chi2_se", "reduced_chi2"),
        ):
            assert key in doc
