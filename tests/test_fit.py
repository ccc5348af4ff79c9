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

    def test_malformed_line_reported(self):
        text = "s_db,n,d_a,d_b,e_f\n3.0,0.1,0.5,0.5,0.4\n6.0,0.2,oops,0.5,0.4\n"
        with pytest.raises(ValueError, match="line 3"):
            records_from_csv(text)

    def test_wrong_column_count_reported(self):
        text = "s_db,n,d_a,d_b,e_f\n3.0,0.1,0.5\n"
        with pytest.raises(ValueError, match="line 2"):
            records_from_csv(text)

    def test_json_output_fields(self, clean_records):
        import json

        doc = json.loads(fit_result_to_json(fit(clean_records)))
        for key in ("chi1", "chi2", "final_cost", "iterations", "converged"):
            assert key in doc
