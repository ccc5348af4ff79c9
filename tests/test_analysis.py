import numpy as np
import pytest

from tmsflow.analysis import (
    FEATURE_GRID,
    crossover_point,
    sudden_death_point,
    sweep,
    sweep_to_csv,
)
from tmsflow.correlations import correlation_report
from tmsflow.errors import DomainError, NoSignChangeError
from tmsflow.states import StateModel

IDEAL = StateModel.ideal()
REALISTIC = StateModel.realistic(0.05, 0.56, 0.01)


def sudden_death_reference(model, s_db):
    """50-digit root of the PT boundary (p a - 1)(p b - 1) = p^2 c^2 in
    vacuum-1 units, with a = cosh 2r, b = (1 - beta) a + beta + 2n,
    c^2 = (1 - beta) sinh^2 2r and p = 1 + 2 chi1 (G - 1)^chi2, G = e^{2r}."""
    import mpmath as mp

    with mp.workdps(50):
        r = mp.mpf(s_db) * mp.log(10) / 20
        beta = mp.mpf(model.coupling_beta or 0)
        p = mp.mpf(1)
        if model.jpa is not None:
            p += 2 * model.jpa.chi1 * (mp.exp(2 * r) - 1) ** model.jpa.chi2
        a = mp.cosh(2 * r)
        c2 = (1 - beta) * mp.sinh(2 * r) ** 2
        b = (1 + p * p * c2 / (p * a - 1)) / p
        return float((b - (1 - beta) * a - beta) / 2)


class TestSweep:
    def test_pure_column_has_zero_deltas(self):
        grid = sweep(IDEAL, [6.0], [0.0])
        rep = grid.cell(0, 0).report
        assert abs(rep.delta_a) < 1e-8
        assert abs(rep.delta_b) < 1e-8
        assert abs(rep.delta_ab) < 1e-8

    def test_sudden_death_row(self):
        grid = sweep(IDEAL, [2.0, 6.0, 10.0], [1.0])
        for i in range(3):
            assert abs(grid.cell(i, 0).report.e_f) < 1e-7

    def test_discord_surface_positive(self):
        grid = sweep(IDEAL, list(np.linspace(1, 10, 6)), list(np.linspace(0, 2, 9)))
        for cell in grid.cells:
            assert cell.report is not None
            assert cell.report.d_b > 0.0

    def test_failed_cell_is_marked(self):
        grid = sweep(IDEAL, [-1.0, 6.0], [0.1])
        bad = grid.cell(0, 0)
        assert bad.report is None and bad.error
        good = grid.cell(1, 0)
        assert good.report is not None
        csv_text = sweep_to_csv(grid)
        assert "nan" in csv_text.splitlines()[1]

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            sweep(IDEAL, [], [0.0])
        with pytest.raises(DomainError):
            sweep(IDEAL, [2.0, 1.0], [0.0])


class TestSuddenDeath:
    @pytest.mark.parametrize("s_db", [3.0, 6.0, 10.0])
    def test_ideal_root_is_one(self, s_db):
        assert sudden_death_point(IDEAL, s_db) == pytest.approx(1.0, abs=1e-6)

    def test_squeezing_independence(self, rng):
        values = [sudden_death_point(IDEAL, s) for s in rng.uniform(1.0, 12.0, size=10)]
        assert max(values) - min(values) < 2e-6

    def test_realistic_chain_dies_earlier(self):
        model = StateModel.realistic(0.05, 0.56, 0.01)
        assert sudden_death_point(model, 6.0) < 1.0

    def test_no_sign_change_when_never_entangled(self):
        # enough amplifier noise keeps the bound negative on the whole grid
        model = StateModel.realistic(5.0, 1.0, 0.01)
        with pytest.raises(NoSignChangeError):
            sudden_death_point(model, 6.0)

    @pytest.mark.parametrize(
        "model",
        [IDEAL, StateModel.coupler(0.01), StateModel.coupler(0.3), REALISTIC],
        ids=["ideal", "coupler-0.01", "coupler-0.3", "realistic"],
    )
    def test_matches_fifty_digit_reference(self, model):
        for s_db in (0.1, 0.5, 1.0, 3.0, 6.5, 10.0, 20.0, 30.0):
            assert sudden_death_point(model, s_db) == pytest.approx(
                sudden_death_reference(model, s_db), abs=1e-12
            ), s_db
        if model.jpa is None:
            beta = model.coupling_beta or 0.0
            assert sudden_death_point(model, 6.5) == pytest.approx(1.0 - beta, abs=1e-12)

    @pytest.mark.parametrize(
        "model", [IDEAL, StateModel.coupler(0.01), REALISTIC], ids=["ideal", "coupler", "realistic"]
    )
    def test_unsqueezed_state_is_never_entangled(self, model):
        with pytest.raises(NoSignChangeError):
            sudden_death_point(model, 0.0)

    def test_no_state_is_built_or_reported(self, monkeypatch):
        import tmsflow.analysis

        def forbidden(*args, **kwargs):
            raise AssertionError("sudden_death_point evaluated a state")

        monkeypatch.setattr(StateModel, "state", forbidden)
        monkeypatch.setattr(tmsflow.analysis, "correlation_report", forbidden)
        for model in (IDEAL, StateModel.coupler(0.01), REALISTIC):
            sudden_death_point(model, 6.0)


class TestCrossover:
    @pytest.mark.parametrize("flavor", ["A", "B"])
    def test_root_verifies_on_exact_model(self, flavor):
        res = crossover_point(IDEAL, 6.5, flavor)
        rep = correlation_report(IDEAL.state(6.5, res.n_c))
        delta = rep.delta_a if flavor == "A" else rep.delta_b
        assert abs(delta) < 1e-8
        assert res.bracket[0] <= res.n_c <= res.bracket[1]
        lo = correlation_report(IDEAL.state(6.5, res.bracket[0]))
        hi = correlation_report(IDEAL.state(6.5, res.bracket[1]))
        lo_delta = lo.delta_a if flavor == "A" else lo.delta_b
        hi_delta = hi.delta_a if flavor == "A" else hi.delta_b
        assert lo_delta * hi_delta < 0.0

    def test_ab_flavor_is_mean_of_crossovers(self):
        res_a = crossover_point(IDEAL, 6.5, "A")
        res_b = crossover_point(IDEAL, 6.5, "B")
        res_ab = crossover_point(IDEAL, 6.5, "AB")
        assert res_ab.n_c == pytest.approx(0.5 * (res_a.n_c + res_b.n_c), abs=1e-12)
        assert res_ab.bracket[0] <= res_ab.n_c <= res_ab.bracket[1]

    def test_asymptotes_at_strong_squeezing(self):
        res_a = crossover_point(IDEAL, 30.0, "A")
        res_b = crossover_point(IDEAL, 30.0, "B")
        assert res_a.n_c == pytest.approx(0.26, abs=0.01)
        assert res_b.n_c == pytest.approx(0.26, abs=0.01)

    def test_asymptote_converged(self):
        a30 = crossover_point(IDEAL, 30.0, "A").n_c
        a40 = crossover_point(IDEAL, 40.0, "A").n_c
        assert abs(a30 - a40) < 0.005

    def test_monotone_in_squeezing(self):
        s_grid = np.linspace(2.0, 12.0, 6)
        ncs_a = [crossover_point(IDEAL, s, "A").n_c for s in s_grid]
        ncs_b = [crossover_point(IDEAL, s, "B").n_c for s in s_grid]
        assert all(a > b for a, b in zip(ncs_a, ncs_a[1:]))
        assert all(a < b for a, b in zip(ncs_b, ncs_b[1:]))

    def test_bad_flavor(self):
        with pytest.raises(DomainError):
            crossover_point(IDEAL, 6.0, "C")

    def test_feature_grid_shape(self):
        assert FEATURE_GRID[0] == pytest.approx(1e-3)
        assert FEATURE_GRID[-1] == pytest.approx(4.0)
        assert len(FEATURE_GRID) == 41
