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


# every field, bit for bit, as a fit that gives each point its own kernel call finds it
PINNED = {
    "noisy-seed-0": FitResult(
        chi1=0.04940529467755579, chi2=0.5495313532214254, final_cost=0.004922259693946266,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.0013684061569636272,
        chi2_se=0.017642418734167796, reduced_chi2=5.5934769249389384e-05,
    ),
    "noisy-seed-7": FitResult(
        chi1=0.054049612930443934, chi2=0.5153058290802283, final_cost=0.004201387633249659,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.001314247101813123,
        chi2_se=0.01559882224261948, reduced_chi2=4.7743041286927944e-05,
    ),
    "sigma": FitResult(
        chi1=0.05065947873648605, chi2=0.5390057123585453, final_cost=35.85613400655482,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.0034595231646982693,
        chi2_se=0.040221628748022396, reduced_chi2=1.4342453602621927,
    ),
    "clamped-start": FitResult(
        chi1=0.04999999999976479, chi2=0.5600000000020942, final_cost=7.353881735351069e-25,
        iterations=7, converged=True, clamp_activations=1, chi1_se=5.4902978526951586e-14,
        chi2_se=6.484959326738623e-13, reduced_chi2=2.9415526941404273e-26,
    ),
    "chi1-zero-optimum": FitResult(
        chi1=0.0, chi2=1.0, final_cost=0.0, iterations=0, converged=True, clamp_activations=0,
        chi1_se=None, chi2_se=None, reduced_chi2=0.0,
    ),
    "zero-squeezing-rows": FitResult(
        chi1=0.051758168226531974, chi2=0.5211019495805695, final_cost=0.0021057893768673813,
        iterations=8, converged=True, clamp_activations=0, chi1_se=0.003006321588294478,
        chi2_se=0.034529448874874975, reduced_chi2=8.423157507469525e-05,
    ),
    "rejected-trial": FitResult(
        chi1=0.04735869704700997, chi2=0.5870865557346526, final_cost=0.005686725668119965,
        iterations=9, converged=True, clamp_activations=1, chi1_se=0.0014305029231671768,
        chi2_se=0.019108869259329024, reduced_chi2=6.462188259227233e-05,
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
