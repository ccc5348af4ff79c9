import numpy as np
import pytest

from tmsflow.analysis import (
    crossover_point,
    sudden_death_point,
    sweep,
    sweep_to_csv,
)
from tmsflow.correlations import correlation_arrays, correlation_report
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


TABLE_MODELS = {
    "ideal": IDEAL,
    "coupler-0.01": StateModel.coupler(0.01),
    "coupler-0.3": StateModel.coupler(0.3),
    "realistic": REALISTIC,
}

# (n_c A, n_c B) per model and squeezing level (dB), as found by a scan of
# 34 log-spaced points on [1e-3, 0.93] plus bisection; None where no
# crossover exists.  Coupler 0.3 flavor A at 2 and 3 dB is None although
# that scan returned 1.23e-3 and 5.47e-3: delta_A is positive at 1e-3
# there and those are its + -> - crossings.  The 100 dB rows are 60-digit
# roots of the models' delta (the scan's states had lost about 1e-7 there
# to the rounding of their stored matrices).
CROSSOVER_TABLE = {
    "ideal": {
        0.0: (None, None),
        0.05: (0.6773818368839064, None),
        0.3: (0.6172557750298941, None),
        0.7: (0.5729244432770846, None),
        1.0: (0.5488483883502302, 0.002220375685848267),
        2.0: (0.48746004865912723, 0.014116335111930339),
        3.0: (0.4386400480004534, 0.03622114149191555),
        6.0: (0.3337728841225594, 0.12039859124832139),
        12.0: (0.2668386618919344, 0.21826634195818487),
        30.0: (0.2565198756563103, 0.2557970806765618),
        100.0: (0.2564194768672478, 0.2564194767950485),
    },
    "coupler-0.01": {
        0.0: (None, None),
        0.05: (0.6684129336237576, None),
        0.3: (0.6083679149720969, 0.0018943202167069871),
        0.7: (0.5640452787062507, 0.003956399334431871),
        1.0: (0.5399488048267378, 0.006024566177231002),
        2.0: (0.47839733736264345, 0.018079827798982533),
        3.0: (0.42930216126198684, 0.039024752580205435),
        6.0: (0.3234619344016003, 0.12029874095078594),
        12.0: (0.25656359046886845, 0.21614385712926018),
        30.0: (0.24672955468197824, 0.2530636136889751),
        100.0: (0.24663839602914045, 0.2536763973449),
    },
    "coupler-0.3": {
        0.0: (None, None),
        0.05: (0.4175778094670749, 0.0038878308558441196),
        0.3: (0.3620455175669602, 0.008922947347609737),
        0.7: (0.3194613614334636, 0.015377731404940378),
        1.0: (0.29540680905143146, 0.020162091835632782),
        2.0: (None, 0.03692793750940633),
        3.0: (None, 0.054714108955075086),
        6.0: (0.002369136238320806, 0.10502119510653984),
        12.0: (0.016618744243249946, 0.1605840889299226),
        30.0: (0.025860050584001204, 0.18259072051085282),
        100.0: (0.026027274228338063, 0.18295992127658),
    },
    "realistic": {
        0.0: (None, None),
        0.05: (None, None),
        0.3: (None, None),
        0.7: (None, None),
        1.0: (0.01618076178379858, 0.002434204880319932),
        2.0: (0.08577579677163016, 0.011104479437340994),
        3.0: (0.1224731264644213, 0.021106613570651345),
        6.0: (0.14120437821011783, 0.0653709252312568),
        12.0: (0.13633398366407878, 0.12366039506624013),
        30.0: (0.037550784171577284, 0.038747112590540214),
        100.0: (None, None),
    },
}


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
        monkeypatch.setattr(StateModel, "standard_form", forbidden)
        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", forbidden)
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

    @pytest.mark.parametrize("name", sorted(CROSSOVER_TABLE))
    def test_status_and_values_match_the_table(self, name):
        model = TABLE_MODELS[name]
        for s_db, expected in CROSSOVER_TABLE[name].items():
            found = {}
            for flavor, n_ref in zip("AB", expected):
                if n_ref is None:
                    with pytest.raises(NoSignChangeError):
                        crossover_point(model, s_db, flavor)
                    continue
                n_c = found[flavor] = crossover_point(model, s_db, flavor).n_c
                assert n_c == pytest.approx(n_ref, abs=2e-12 if s_db >= 0.1 else 1e-9), (s_db, flavor)
                below = correlation_report(model.state(s_db, 0.999 * n_c))
                above = correlation_report(model.state(s_db, 1.001 * n_c))
                key = "delta_a" if flavor == "A" else "delta_b"
                assert getattr(below, key) < 0.0 < getattr(above, key), (s_db, flavor)
            if len(found) == 2:
                n_ab = crossover_point(model, s_db, "AB").n_c
                assert n_ab == 0.5 * (found["A"] + found["B"])
            else:
                with pytest.raises(NoSignChangeError):
                    crossover_point(model, s_db, "AB")

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_evaluations_per_root(self, name, monkeypatch):
        # one kernel call for the bracket, then one per four bisection steps
        import tmsflow.analysis

        calls = []

        def counted(sf):
            calls.append(sf.a.size)
            return correlation_arrays(sf)

        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", counted)
        for s_db in (1.0, 6.0, 30.0):
            for flavor in "AB":
                calls.clear()
                crossover_point(TABLE_MODELS[name], s_db, flavor)
                assert len(calls) <= 12 and calls[0] == 2, (s_db, flavor, calls)
                assert sum(calls) <= 2 + 11 * 15, (s_db, flavor, calls)

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_batched_bisection_takes_the_one_at_a_time_steps(self, name):
        model = TABLE_MODELS[name]
        for s_db in (1.0, 6.0, 30.0):
            for flavor in "AB":
                key = "delta_a" if flavor == "A" else "delta_b"

                def delta(n):
                    return float(getattr(correlation_arrays(model.standard_form(s_db, n)), key))

                res = crossover_point(model, s_db, flavor)
                lo, hi = res.bracket
                d_lo = delta(lo)
                for _ in range(100):
                    if hi - lo <= 1e-12 * max(1.0, hi):
                        break
                    mid = 0.5 * (lo + hi)
                    if (delta(mid) > 0.0) == (d_lo > 0.0):
                        lo = mid
                    else:
                        hi = mid
                assert res.n_c == 0.5 * (lo + hi), (s_db, flavor)



class TestEvaluationSite:
    """A cell's values do not depend on where the kernel evaluates it (the
    SIMD loop body and its tail must round alike)."""

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_cell_of_a_large_sweep_equals_the_single_cell(self, name):
        model = TABLE_MODELS[name]
        s_axis, n_axis = np.linspace(0.5, 25.0, 40), np.geomspace(1e-4, 10.0, 50)
        grid = sweep(model, s_axis, n_axis)
        assert len(grid.cells) == 2000
        for i_s, i_n in ((0, 0), (7, 13), (21, 2), (39, 49), (39, 48), (38, 49)):
            alone = sweep(model, [s_axis[i_s]], [n_axis[i_n]]).cell(0, 0)
            assert repr(grid.cell(i_s, i_n)) == repr(alone)

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_crossover_delta_equals_the_sweep_cell(self, name, monkeypatch):
        import tmsflow.analysis

        model = TABLE_MODELS[name]
        seen = []

        def recorded(sf):
            res = correlation_arrays(sf)
            seen.append((res.delta_a.ravel(), res.delta_b.ravel()))
            return res

        points = []
        original = tmsflow.analysis._midpoint_tree

        def tree(lo, hi):
            points.append(original(lo, hi))
            return points[-1]

        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", recorded)
        monkeypatch.setattr(tmsflow.analysis, "_midpoint_tree", tree)
        evaluated = {}
        for flavor in "AB":
            seen.clear()
            points.clear()
            res = crossover_point(model, 6.0, flavor)
            n_values = np.concatenate([np.array(res.bracket)] + points)
            row = 0 if flavor == "A" else 1
            evaluated[flavor] = zip(n_values, np.concatenate([pair[row] for pair in seen]))
        monkeypatch.undo()
        for flavor, pairs in evaluated.items():
            for n, value in pairs:
                report = sweep(model, [6.0], [n]).cell(0, 0).report
                assert value == (report.delta_a if flavor == "A" else report.delta_b), (flavor, n)
