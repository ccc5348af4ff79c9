import dataclasses
import json
import math

import numpy as np
import pytest

from tmsflow.errors import DomainError, ModelFailureError
from tmsflow.fit import (
    MeasurementRecord,
    cost,
    fit,
    fit_result_to_json,
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
        assert json.loads(fit_result_to_json(result))["chi2_se"] is None

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
        doc = json.loads(fit_result_to_json(fit(clean_records)))
        for key in (
            *("chi1", "chi2", "final_cost", "iterations", "converged"),
            *("chi1_se", "chi2_se", "reduced_chi2"),
        ):
            assert key in doc
