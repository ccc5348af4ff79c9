import math

import numpy as np
import pytest

from tmsflow.analysis import (
    _crossovers,
    _refine,
    crossover_point,
    sudden_death_point,
    sweep,
    sweep_blocks_to_csv,
)
from tmsflow.correlations import correlation_arrays, correlation_report
from tmsflow.errors import DomainError, NoSignChangeError, NumericalError
from tmsflow.states import StateModel

from conftest import failed_cells
from test_correlations import channel_reference, ideal_reference

IDEAL = StateModel.ideal()
REALISTIC = StateModel.realistic(0.05, 0.56, 0.01)


def sudden_death_reference(model, s_db, digits=50):
    """Root of the PT boundary (p a - 1)(p b - 1) = p^2 c^2 in vacuum-1
    units to ``digits`` digits, with a = cosh 2r, b = (1 - beta) a + beta +
    2n, c^2 = (1 - beta) sinh^2 2r and p = 1 + 2 chi1 (G - 1)^chi2, G =
    e^{2r}.  A level of 10^-k dB needs more than 2k digits, since a - 1 is
    of order r^2."""
    import mpmath as mp

    with mp.workdps(digits):
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


def bisected_root(delta, lo, hi):
    """Plain scalar bisection of ``[lo, hi]``, with ``delta`` negative at
    ``lo``, down to width ``1e-12 max(1, hi)``: the crossover search as it
    was before Chandrupatla's method replaced it."""
    for _ in range(100):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if delta(mid) > 0.0 else (mid, hi)
    return 0.5 * (lo + hi)


def reference_root(delta, near):
    """The root of ``delta`` within 1e-9 max(1, near) of ``near``, bisected
    down to adjacent doubles.  ``delta`` is an mpmath evaluation rounded
    to a double, so its sign is exact."""
    width = 1e-9 * max(1.0, near)
    lo, hi = near - width, near + width
    assert delta(lo) < 0.0 < delta(hi), near
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if delta(mid) > 0.0 else (mid, hi)
    return mid


class TestSweep:
    def test_pure_column_has_zero_deltas(self):
        grid = sweep(IDEAL, [6.0], [0.0])
        rep = grid.report(0, 0)
        assert abs(rep.delta_a) < 1e-8
        assert abs(rep.delta_b) < 1e-8
        assert abs(rep.delta_ab) < 1e-8

    def test_sudden_death_row(self):
        grid = sweep(IDEAL, [2.0, 6.0, 10.0], [1.0])
        for i in range(3):
            assert abs(grid.report(i, 0).e_f) < 1e-7

    def test_discord_surface_positive(self):
        grid = sweep(IDEAL, list(np.linspace(1, 10, 6)), list(np.linspace(0, 2, 9)))
        assert not grid.arrays.status.any()
        assert (grid.arrays.d_b > 0.0).all()

    def test_failed_cell_is_marked(self):
        grid = sweep(IDEAL, [-1.0, 6.0], [0.1])
        assert np.flatnonzero(grid.arrays.status).tolist() == [0]
        with pytest.raises(DomainError, match="squeezing level"):
            grid.report(0, 0)
        assert grid.report(1, 0).d_b > 0.0
        csv_text = "".join(sweep_blocks_to_csv(grid))
        assert "nan" in csv_text.splitlines()[1]
        assert csv_text.splitlines()[2].endswith(",ok")

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            sweep(IDEAL, [], [0.0])
        with pytest.raises(DomainError):
            sweep(IDEAL, [2.0, 1.0], [0.0])

    @pytest.mark.parametrize(
        "s_axis, n_axis",
        [([1.0, math.nan, 0.5], [0.1, math.nan]), ([math.nan, 1.0], [0.1]), ([1.0], [0.1, math.nan])],
    )
    def test_axis_with_nan_is_not_increasing(self, s_axis, n_axis):
        with pytest.raises(DomainError, match="strictly increasing"):
            sweep(IDEAL, s_axis, n_axis)


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

    @pytest.mark.parametrize("beta", [None, 0.01, 0.3, 0.5])
    def test_one_minus_beta_exactly_without_amplifier(self, beta, rng):
        """At every level above 0 dB, down to where delta = 2 sinh^2 r
        underflows, and on 1199 levels where the quotient rounded."""
        model = IDEAL if beta is None else StateModel.coupler(beta)
        levels = [1e-300, 1e-161, 3e-161, 1e-160, 1e-12, *rng.uniform(0.0, 40.0, 1199)]
        assert {sudden_death_point(model, s_db) for s_db in levels} == {1.0 - (beta or 0.0)}

    def test_realistic_weak_squeezing_is_never_entangled(self):
        """Below about 0.03 dB the amplifier noise outweighs the squeezing.
        That holds also where 1 + 2 n_jpa rounds to 1 (below about 1e-15
        dB): the excess 2 n_jpa is formed from expm1(2r), not as p - 1."""
        levels = [*np.geomspace(1e-300, 0.02, 61).tolist(), 1e-16, 1e-15, 1e-14]
        for s_db in levels:
            assert sudden_death_reference(REALISTIC, s_db, digits=700) < 0.0, s_db
            with pytest.raises(NoSignChangeError):
                sudden_death_point(REALISTIC, s_db)
        assert sudden_death_point(REALISTIC, 0.03) == pytest.approx(
            sudden_death_reference(REALISTIC, 0.03), rel=1e-12
        )

    def test_features_nsd_at_tiny_realistic_levels(self, capsys):
        from tmsflow import cli

        argv = ["features", "--s", "1e-300,1e-30,1e-16,0.02", "--model", "realistic", "--what", "nsd"]
        assert cli.main(argv) == 3
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split(",")[1:] for row in rows] == [
            ["nan", f"n_sd: not entangled at {s} dB even without injected noise"]
            for s in ("1e-300", "1e-30", "1e-16", "0.02")
        ]

    def test_features_nsd_at_a_tiny_coupler_level(self, capsys):
        from tmsflow import cli

        assert cli.main(["features", "--s", "1e-161", "--model", "coupler", "--what", "nsd"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1e-161,0.99,ok"

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

    @pytest.mark.parametrize(
        "model, s_db",
        [(StateModel.coupler(0.9995), 5.0), (REALISTIC, 0.031)],
        ids=["coupler", "realistic"],
    )
    def test_empty_bracket_fails_unsearched(self, model, s_db, monkeypatch):
        import tmsflow.analysis

        n_sd = sudden_death_point(model, s_db)
        assert 0.0 < n_sd < 1e-3  # so the bracket [1e-3, n_sd] holds no point

        def refused(sf):
            raise AssertionError("a kernel call")

        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", refused)
        for flavor in ("A", "B", "AB"):
            with pytest.raises(NoSignChangeError) as err:
                crossover_point(model, s_db, flavor)
            assert str(err.value) == f"empty bracket [0.001, n_sd] with n_sd = {n_sd:.4g}"

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
    def test_every_entry_takes_the_one_at_a_time_steps(self, name, monkeypatch):
        # A table of levels is one batch; each (level, flavor) entry must
        # read the points, and end at the root, of a batch of one.
        model = TABLE_MODELS[name]
        levels = [0.05, 1.0, 3.0, 6.0, 30.0, 2000.0]
        grids = []
        original = StateModel._standard_form

        def recorded(self, s_db, levels, n):
            grids.append(np.array(n, dtype=float))
            return original(self, s_db, levels, n)

        monkeypatch.setattr(StateModel, "_standard_form", recorded)
        table = _crossovers(model, levels)
        monkeypatch.undo()
        assert grids[0].shape == (2, len(levels), 2)  # the first call evaluated the bracket ends
        steps = np.stack(grids[1:])
        assert steps.shape[1:] == (len(levels), 2)
        for i, s_db in enumerate(levels):
            for k, flavor in enumerate("AB"):
                key = "delta_a" if flavor == "A" else "delta_b"
                points = []

                def delta(n):
                    if n.ndim == 1:  # a step, not the bracket ends
                        points.append(float(n[0]))
                    res = correlation_arrays(model.standard_form(s_db, n))
                    return getattr(res, key), failed_cells(res)

                try:
                    hi = sudden_death_point(model, s_db)
                    roots, errors = _refine(delta, np.array([1e-3]), np.array([hi]), {})
                    if errors:
                        raise errors[0]
                except (NoSignChangeError, NumericalError) as exc:
                    assert type(table[i][flavor]) is type(exc), (s_db, flavor)
                    continue
                assert table[i][flavor] == roots[0], (s_db, flavor)
                assert 0 < len(points) <= len(steps), (s_db, flavor)
                assert steps[: len(points), i, k].tolist() == points, (s_db, flavor)
                assert (steps[len(points) :, i, k] == points[-1]).all(), (s_db, flavor)

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_roots_are_no_further_from_mpmath_than_bisection(self, name):
        # 50-digit (ideal) or 60-digit references; at 0.05 dB the coupler's
        # flat delta_A leaves both roots several 1e-12 off, from kernel noise
        model = TABLE_MODELS[name]
        reference = {
            "ideal": ideal_reference,
            "coupler-0.01": lambda s_db, n: channel_reference(s_db, n, 0.01, digits=60),
            "coupler-0.3": lambda s_db, n: channel_reference(s_db, n, 0.3, digits=60),
            "realistic": lambda s_db, n: channel_reference(s_db, n, 0.01, (0.05, 0.56), 60),
        }[name]
        checked = 0
        for s_db in (0.05, 0.2, 1.0, 5.73, 18.0):
            for flavor, key in (("A", "delta_a"), ("B", "delta_b")):
                try:
                    n_c = crossover_point(model, s_db, flavor).n_c
                except NoSignChangeError:
                    continue

                def kernel(n):
                    return float(getattr(correlation_arrays(model.standard_form(s_db, n)), key))

                bisected = bisected_root(kernel, 1e-3, sudden_death_point(model, s_db))
                ref = reference_root(lambda n: reference(s_db, n)[key], n_c)
                assert abs(n_c - bisected) <= 1e-11 * max(1.0, n_c), (s_db, flavor)
                slack = 2e-12 * max(1.0, n_c)
                assert abs(n_c - ref) <= abs(bisected - ref) + slack, (s_db, flavor)
                checked += 1
        assert checked >= 6

    def test_refine_fails_only_the_entry_that_reads_a_failed_point(self):
        roots = np.array([0.3, 0.6, 0.9, 0.25, 0.5])
        calls = []

        def f(x):
            calls.append(x)
            # entry 1 fails at its third step; entry 3 failed before the
            # search, so its failure is never read
            failed = {1: NumericalError("third"), 3: NumericalError("unread")}
            return x * x - roots * roots, failed if len(calls) == 4 else {}

        lo, hi = np.array([0.0, 0.0, 0.0, 0.5, 0.0]), np.array([1.0, 1.0, 1.0, 0.5, 1.0])
        carried = NumericalError("carried")
        found, errors = _refine(f, lo, hi, {3: carried})
        assert calls[0].tolist() == [lo.tolist(), hi.tolist()]  # the bracket ends
        steps = calls[1:]
        assert len(steps) == 8
        assert sorted(errors) == [1, 3] and str(errors[1]) == "third" and errors[3] is carried
        assert np.abs(found[[0, 2]] - roots[[0, 2]]).max() < 1e-12
        assert found[3] == 0.5 and [x[3] for x in steps] == [0.5] * 8
        # entry 4's first point is its root: it stops there, and reads it again
        assert found[4] == 0.5 and [x[4] for x in steps] == [0.5] * 8
        for x in steps:
            assert ((x > lo) & (x < hi))[[0, 1, 2, 4]].all()

    def test_refine_fails_an_entry_at_its_ends(self):
        # entries: a rising and a falling bracket, no sign change, a zero at
        # an end, a NaN at an end, and two ends whose evaluation fails
        lo, hi = np.zeros(6), np.array([1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
        sign = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        shift = np.array([0.5, 0.5, -0.5, 0.5, 0.5, 0.5])
        calls = []

        def f(x):
            calls.append(x.shape)
            values = sign * (x - shift)
            if x.ndim == 1:
                return values, {}
            values[1, 4] = np.nan
            return values, {6 + 5: NumericalError("upper"), 5: NumericalError("lower")}

        found, errors = _refine(f, lo, hi, {})
        assert calls[0] == (2, 6) and set(calls[1:]) == {(6,)}
        assert found[0] == found[1] == 0.5 and sorted(errors) == [2, 3, 4, 5]
        assert all(isinstance(errors[j], NoSignChangeError) for j in (2, 3, 4))
        assert str(errors[2]) == "no sign change on [0, 1] (f(0) = 5.000e-01, f(1) = 1.500e+00)"
        assert str(errors[5]) == "lower"  # the lower end's error first

    def test_ab_is_the_mean_of_the_a_and_b_entries(self):
        for row in _crossovers(StateModel.coupler(0.3), [0.05, 2.0, 6.0, 12.0]):
            if isinstance(row["A"], Exception):
                assert row["AB"] is row["A"]
            elif isinstance(row["B"], Exception):
                assert row["AB"] is row["B"]
            else:
                assert row["AB"] == 0.5 * (row["A"] + row["B"])


class TestEvaluationSite:
    """A cell's values do not depend on where the kernel evaluates it (the
    SIMD loop body and its tail must round alike)."""

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_cell_of_a_large_sweep_equals_the_single_cell(self, name):
        model = TABLE_MODELS[name]
        s_axis, n_axis = np.linspace(0.5, 25.0, 40), np.geomspace(1e-4, 10.0, 50)
        grid = sweep(model, s_axis, n_axis)
        assert grid.arrays.d_a.shape == (40, 50)
        for i_s, i_n in ((0, 0), (7, 13), (21, 2), (39, 49), (39, 48), (38, 49)):
            alone = sweep(model, [s_axis[i_s]], [n_axis[i_n]]).report(0, 0)
            assert repr(grid.report(i_s, i_n)) == repr(alone)

    def test_level_terms_are_formed_once_per_batch(self, monkeypatch):
        # Outside the kernel, np.sinh and np.exp run only in the batch's
        # StateModel._levels: their count does not grow with the steps, and
        # no step's _standard_form calls them.
        import tmsflow.analysis

        calls, counting, per_form = [], [True], []

        def counted(fn):
            def call(*args, **kwargs):
                if counting[0]:
                    calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return call

        def uncounted_kernel(form, kernel=tmsflow.analysis.correlation_arrays):
            counting[0] = False
            try:
                return kernel(form)
            finally:
                counting[0] = True

        def recorded(self, s_db, levels, n, original=StateModel._standard_form):
            before = len(calls)
            form = original(self, s_db, levels, n)
            per_form.append(len(calls) - before)
            return form

        monkeypatch.setattr(np, "sinh", counted(np.sinh))
        monkeypatch.setattr(np, "exp", counted(np.exp))
        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", uncounted_kernel)
        monkeypatch.setattr(StateModel, "_standard_form", recorded)
        counts, forms = [], []
        for levels in ([1.0, 2.0, 3.0], [0.1, 12.0, 30.0]):
            calls.clear()
            per_form.clear()
            _crossovers(REALISTIC, levels)
            counts.append(len(calls))
            forms.append(len(per_form))
            assert per_form == [0] * len(per_form)
        assert forms[0] != forms[1]  # the batches take different numbers of steps
        assert counts[0] == counts[1] == 3  # sinh r, sinh 2r and exp 2r of the level array

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_crossover_delta_equals_the_sweep_cell(self, name, monkeypatch):
        import tmsflow.analysis

        model = TABLE_MODELS[name]
        seen, points = [], []
        original = StateModel._standard_form

        def recorded_form(self, s_db, levels, n):
            points.append(np.broadcast_arrays(np.asarray(s_db, float), np.asarray(n, float)))
            return original(self, s_db, levels, n)

        def recorded(sf):
            res = correlation_arrays(sf)
            seen.append((res.delta_a.ravel(), res.delta_b.ravel()))
            return res

        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", recorded)
        monkeypatch.setattr(StateModel, "_standard_form", recorded_form)
        crossover_point(model, 6.0, "AB")
        monkeypatch.undo()
        assert len(points) == len(seen) > 2
        for (s_grid, n_grid), (d_a, d_b) in zip(points, seen):
            for s_db, n, value_a, value_b in zip(s_grid.ravel(), n_grid.ravel(), d_a, d_b):
                report = sweep(model, [s_db], [n]).report(0, 0)
                assert (value_a, value_b) == (report.delta_a, report.delta_b), n
