import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tmsflow
from tmsflow.cli import main, parse_grid
from tmsflow.states import StateModel, ideal_tms, vacuum
from tmsflow.symplectic import _covariance_doc
from tmsflow.tomography import QuadratureSamples, samples_to_csv

from conftest import sample_gaussian


class TestGridParsing:
    def test_scalar(self):
        assert parse_grid("6.5") == [6.5]

    def test_comma_list(self):
        assert parse_grid("1,2,6.5") == [1.0, 2.0, 6.5]

    def test_range_inclusive(self):
        vals = parse_grid("1:12:0.5")
        assert vals[0] == 1.0
        assert vals[-1] == pytest.approx(12.0)
        assert len(vals) == 23

    def test_range_endpoint_within_half_step(self):
        assert parse_grid("0:1:0.3") == pytest.approx([0.0, 0.3, 0.6, 0.9])
        assert parse_grid("0:0.95:0.3")[-1] == pytest.approx(0.9)

    def test_bad_specs(self):
        from tmsflow.cli import ConfigError

        for bad in (
            *("", ",", " , ", "1:2", "1:2:0", "2:1:0.5", "a,b", "nan", "1,inf", "0:inf:1"),
            # above the 10**6-point cap; never expanded
            *("0:1:1e-12", "0:1e6:1", "-1e308:1e308:1e-300"),
        ):
            with pytest.raises(ConfigError):
                parse_grid(bad)


class TestSweepCommand:
    def test_deterministic_across_runs_and_threads(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--s", "2:8:2", "--n", "0:1:0.25", "--model", "ideal"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_metadata_header(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--s", "6.5", "--n", "0,0.1", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tmsflow ")
        assert lines[1].startswith("# config: ")
        assert lines[2].startswith("S_db,n,")

    def test_json_format_has_meta(self, tmp_path, capsys):
        assert main(["sweep", "--s", "6.5", "--n", "0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "meta" in doc and doc["reports"]

    def test_empty_grid_is_usage_error(self):
        assert main(["sweep", "--n", "0:1:0.5"]) == 2
        assert main(["sweep", "--s", "", "--n", "0:1:0.5"]) == 2

    def test_unsorted_axis_is_usage_error(self, capsys):
        assert main(["sweep", "--s", "6,5", "--n", "0"]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_realistic_model_flags(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["sweep", "--s", "6", "--n", "0,0.5", "--model", "realistic",
             "--chi1", "0.05", "--chi2", "0.56", "--beta", "0.01", "--out", str(out)]
        )
        assert code == 0
        assert "ok" in out.read_text()


    @pytest.mark.parametrize("command", [["sweep", "--n", "0.1"], ["features", "--what", "nsd"]])
    def test_meta_echoes_model_parameters(self, command, tmp_path):
        echoes = {}
        for model in ("ideal", "coupler", "realistic"):
            out = tmp_path / f"{model}.csv"
            params = ["--beta", "0.02", "--chi1", "0.1", "--chi2", "0.7"]
            assert main(command + ["--s", "6", "--model", model, *params, "--out", str(out)]) == 0
            echoes[model] = json.loads(out.read_text().splitlines()[1][len("# config: "):])
        assert not {"beta", "chi1", "chi2"} & echoes["ideal"].keys()
        assert echoes["coupler"]["beta"] == 0.02 and "chi1" not in echoes["coupler"]
        realistic = echoes["realistic"]
        assert (realistic["beta"], realistic["chi1"], realistic["chi2"]) == (0.02, 0.1, 0.7)


class TestFeaturesCommand:
    def test_sudden_death_column_constant(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["features", "--s", "3,6,10", "--what", "nsd", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(abs(v - 1.0) < 1e-6 for v in values)

    def test_crossover_asymptote(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["features", "--s", "30", "--what", "nc", "--flavors", "A", "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[1]) == pytest.approx(0.26, abs=0.01)

    def test_minimum_location(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(
            ["features", "--s", "4:8:0.5", "--what", "nc", "--flavors", "AB", "--out", str(out)]
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        s_min = min(table, key=table.get)
        assert 5.0 <= s_min <= 6.5
        assert table[s_min] == pytest.approx(0.23, abs=0.01)

    def test_unsqueezed_row_reports_a_reason(self, tmp_path):
        # every correlation vanishes identically at S = 0, so no curve
        # changes sign and no threshold exists
        out = tmp_path / "f.csv"
        assert main(["features", "--s", "0,6", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        cells = rows[0].split(",")
        assert cells[1:5] == ["nan"] * 4
        for name in ("n_sd", "n_c_A", "n_c_B", "n_c_AB"):
            assert f"{name}: " in cells[5]
        assert rows[1].endswith(",ok")

    def test_bracket_without_a_sign_change_is_named(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["features", "--s", "0.05,6", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        reason = "no sign change on [0.001; 1] (f(0.001) = 5.328e-07; f(1) = 1.645e-04)"
        assert rows[0].endswith(f",n_c_B: {reason}; n_c_AB: {reason}")
        assert rows[1].endswith(",ok")

    def test_failing_row_is_marked_per_column(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["features", "--s", "6,2000", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert rows[0].startswith("6.0,") and rows[0].endswith(",ok")
        assert rows[1].startswith("2000.0,1.0,nan,nan,nan,")
        assert "n_c_A: exact invariant beyond the double range" in rows[1]

    @pytest.mark.parametrize("s_spec", ["6", "1,6", "2:12:0.5", "0.05:30:0.05"])
    @pytest.mark.parametrize("model", [["--model", "ideal"], ["--model", "realistic"]])
    def test_kernel_calls_per_job_do_not_grow_with_rows(self, s_spec, model, tmp_path, monkeypatch):
        # one call for every bracket end of both flavors, then one per
        # refinement step: at most 23 for any table here (bisection took 40)
        import tmsflow.analysis

        calls, original = [], tmsflow.analysis.correlation_arrays

        def counted(sf):
            calls.append(sf.a.shape)
            return original(sf)

        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", counted)
        prefactors, excess = [], StateModel._amplifier_excess
        monkeypatch.setattr(
            StateModel, "_amplifier_excess", lambda self, r: prefactors.append(r) or excess(self, r)
        )
        out = tmp_path / "f.csv"
        assert main(["features", "--s", s_spec, *model, "--out", str(out)]) == 0
        rows = len(parse_grid(s_spec))
        assert 2 < len(calls) <= 24
        assert calls[0] == (2, rows, 2) and set(calls[1:]) == {(rows, 2)}
        # the n_sd of each level and the batch's levels: not once per step
        assert len(prefactors) == 2 * rows

    @pytest.mark.parametrize("model", [["--model", "ideal"], ["--model", "realistic"]])
    def test_sudden_death_alone_makes_no_kernel_call(self, model, tmp_path, monkeypatch):
        import tmsflow.analysis

        levels = "0,0.5,3,6,12,30,2000"

        def rows(what):
            out = tmp_path / "f.csv"
            argv = ["features", "--s", levels, "--what", what, *model, "--out", str(out)]
            assert main(argv) == 0
            return [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]

        full = rows("nsd,nc")

        def refused(sf):
            raise AssertionError("a kernel call")

        monkeypatch.setattr(tmsflow.analysis, "correlation_arrays", refused)
        prefactors, excess = [], StateModel._amplifier_excess
        monkeypatch.setattr(
            StateModel, "_amplifier_excess", lambda self, r: prefactors.append(r) or excess(self, r)
        )
        alone = rows("nsd")
        assert len(prefactors) == len(alone) - 1  # one per level
        assert alone[0] == ["s_db", "n_sd", "status"]
        for (s_db, n_sd, status), row in zip(alone[1:], full[1:]):
            assert [s_db, n_sd] == row[:2]
            if n_sd == "nan":  # it leads the full row's status and fails every crossover
                assert row[-1].startswith(status + "; n_c_A: ")
            else:
                assert status == "ok"
        assert [row[1] for row in alone].count("nan") == (2 if "realistic" in model else 1)

    def test_ab_column_is_the_mean_of_the_a_and_b_columns(self, tmp_path):
        out = tmp_path / "f.csv"
        argv = ["features", "--s", "0.01,2,4,6,8,12", "--what", "nc", "--flavors", "AB,A,B"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        weak, *strong = (r.split(",") for r in rows)
        # crossover B does not exist at 0.01 dB; AB carries B's reason
        assert weak[1] == "nan" and weak[3] == "nan" and float(weak[2]) > 0.0
        reason = weak[4].split("n_c_B: ")[1]
        assert weak[4] == f"n_c_AB: {reason}; n_c_B: {reason}"
        for row in strong:
            n_ab, n_a, n_b = map(float, row[1:4])
            assert n_ab == 0.5 * (n_a + n_b)

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "ideal"],
            ["--model", "coupler"],
            ["--model", "coupler", "--beta", "0.3"],
            ["--model", "realistic"],
        ],
    )
    def test_batch_is_invisible(self, model, tmp_path):
        # a table of levels gives, row for row, the bytes of one-level runs,
        # failing rows (some models have no crossover B at 0.1 dB; 2000 dB
        # overflows) included
        levels = ["0.1", "1.0", "2.5", "6.0", "30.0", "2000.0"]

        def rows(s_spec):
            out = tmp_path / "f.csv"
            assert main(["features", "--s", s_spec, *model, "--out", str(out)]) in (0, 3)
            return [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]

        table = rows(",".join(levels))
        assert [rows(level) for level in levels] == [[row] for row in table]
        assert "nan" in table[-1]


class TestQkdCommand:
    def test_single_point_value(self, capsys):
        assert main(["qkd", "--s", "10", "--nq", "0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shannon_mi_bits"] == pytest.approx(1.66090, abs=1e-4)

    def test_grid_with_threshold_curve(self, tmp_path):
        grid_out = tmp_path / "k.csv"
        th_out = tmp_path / "th.csv"
        code = main(
            ["qkd", "--s", "6,10", "--nq", "0:0.4:0.2",
             "--out", str(grid_out), "--threshold-out", str(th_out)]
        )
        assert code == 0
        grid_rows = [l for l in grid_out.read_text().splitlines() if not l.startswith("#")]
        assert grid_rows[0] == "S_db,n_q,I_s_bits,holevo_bits,K_bits"
        assert len(grid_rows) == 1 + 2 * 3
        th_rows = [l for l in th_out.read_text().splitlines() if not l.startswith("#")]
        assert th_rows[0] == "s_db,n_q_threshold,status"
        th = {float(r.split(",")[0]): float(r.split(",")[1]) for r in th_rows[1:]}
        assert th[6.0] < th[10.0] < 0.27

    def test_missing_axis_is_usage_error(self):
        assert main(["qkd", "--s", "1:30:1"]) == 2

    @pytest.mark.parametrize("extra", [[], ["--cloner-beta", "0.01"]])
    def test_threshold_batch_is_invisible(self, extra, tmp_path):
        # a failing row (no squeezing at 0 dB) and, at 3082.5 dB, K at the
        # bracket's upper end with g = (1 - beta) + beta a W off the double range
        levels = ["0.0", "0.001", "1.0", "6.5", "30.0", "400.0", "3082.5"]

        def rows(s_spec):
            th_out, out = tmp_path / "t.csv", tmp_path / "k.csv"
            argv = ["qkd", "--s", s_spec, "--nq", "0.1", "--threshold-out", str(th_out)]
            assert main(argv + extra + ["--out", str(out)]) in (0, 3)
            return [l for l in th_out.read_text().splitlines() if not l.startswith("#")][1:]

        table = rows(",".join(levels))
        assert [rows(level) for level in levels] == [[row] for row in table]
        assert ",nan," in table[0] and table[-1].endswith(",ok")

    def test_key_stays_on_its_plateau_where_the_snr_overflows(self, tmp_path, capsys):
        # At n_q = 0.1 the SNR leaves the double range from about 3077 dB.
        plateau = 1.3792330690263839
        assert main(["qkd", "--s", "3082.5", "--nq", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["key_bits"] == pytest.approx(plateau, abs=1e-12)
        assert doc["shannon_mi_bits"] == pytest.approx(doc["holevo_bits"] + plateau, abs=1e-12)
        out = tmp_path / "k.csv"
        assert main(["qkd", "--s", "3000,3070,3082.5", "--nq", "0.1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "inf" not in text
        keys = [float(l.split(",")[4]) for l in text.splitlines()[3:]]
        assert keys[:2] == [plateau, plateau]
        assert keys[2] == pytest.approx(plateau, abs=1e-12)

    def test_strong_squeezing_gives_a_key(self, capsys):
        assert main(["qkd", "--s", "400", "--nq", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["key_bits"] > 0.0
        assert doc["key_bits"] == pytest.approx(doc["shannon_mi_bits"] - doc["holevo_bits"])

    def test_single_point_writes_threshold_curve(self, tmp_path, capsys):
        th_out = tmp_path / "thr.csv"
        assert main(["qkd", "--s", "30", "--nq", "0.1", "--threshold-out", str(th_out)]) == 0
        assert json.loads(capsys.readouterr().out)["key_bits"] > 0.0
        th_rows = [l for l in th_out.read_text().splitlines() if not l.startswith("#")]
        assert th_rows[0] == "s_db,n_q_threshold,status"
        assert float(th_rows[1].split(",")[1]) == pytest.approx(0.26, abs=0.01)

    def test_key_error_fails_only_its_threshold_row(self, tmp_path, monkeypatch):
        import tmsflow.qkd
        from tmsflow.errors import NumericalError
        from tmsflow.states import squeezing_db_to_r

        original, r_bad = tmsflow.qkd.secret_key, squeezing_db_to_r(10.0)

        def failing(sc):
            if sc.r == r_bad and 1e-4 < sc.n_q < 2.0:
                raise NumericalError("interior point")
            return original(sc)

        monkeypatch.setattr(tmsflow.qkd, "secret_key", failing)
        th_out, out = tmp_path / "t.csv", tmp_path / "k.csv"
        argv = ["qkd", "--s", "6,10,30", "--nq", "0.1", "--threshold-out", str(th_out)]
        assert main(argv + ["--out", str(out)]) == 0
        rows = [l.split(",") for l in th_out.read_text().splitlines() if not l.startswith("#")]
        assert [row[2] for row in rows[1:]] == ["ok", "interior point", "ok"]
        assert out.exists()

    def test_level_whose_key_overflowed_keeps_the_threshold_table(self, tmp_path, capsys):
        # a g / b overflows at 3082 dB with beta = 0.3 for n_q near 0.45
        assert main(["qkd", "--s", "3082", "--nq", "0.45", "--cloner-beta", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["key_bits"] == pytest.approx(-0.784, abs=1e-3)
        th_out, out = tmp_path / "t.csv", tmp_path / "k.csv"
        argv = ["qkd", "--s", "10,3082", "--nq", "0.1", "--cloner-beta", "0.3"]
        assert main(argv + ["--threshold-out", str(th_out), "--out", str(out)]) == 0
        rows = [l.split(",") for l in th_out.read_text().splitlines() if not l.startswith("#")]
        assert [row[2] for row in rows[1:]] == ["ok", "ok"]
        assert float(rows[2][1]) == pytest.approx(0.26374921215, abs=1e-11)

    def test_threshold_config_key_is_not_a_switch(self, tmp_path, capsys):
        # "threshold" is tomo's Gaussianity level; a shared config file
        # must not send a K = 0 curve to stdout
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 5.0}))
        out = tmp_path / "k.csv"
        args = ["qkd", "--config", str(cfg), "--s", "6,10", "--nq", "0.1", "--out", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().out == ""
        with pytest.raises(SystemExit) as exc:
            main(["qkd", "--s", "6,10", "--nq", "0.1", "--threshold"])
        assert exc.value.code == 2


def _records_file(tmp_path):
    path = tmp_path / "records.csv"
    assert main(["gen-synthetic", "--s", "3,6", "--n", "0,0.5", "--out", str(path)]) == 0
    return str(path)


def _samples_file(tmp_path):
    path = tmp_path / "samples.csv"
    rng = np.random.default_rng(7)
    path.write_text(samples_to_csv(QuadratureSamples(sample_gaussian(ideal_tms(0.5), 200, rng))))
    return str(path)


def _out_flag(argv):
    """The flag naming a command's main output: tomo has no ``--out``."""
    return "--covariance-out" if argv[0] == "tomo" else "--out"


def _file(name, text):
    def write(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestScalarInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--records", _records_file, "--w1", "nan"],
            ["fit", "--records", _records_file, "--init", "nan,1"],
            ["qkd", "--s", "10", "--nq", "0.1", "--cloner-beta", "nan"],
            ["sweep", "--s", "6", "--n", "0.1", "--model", "coupler", "--beta", "nan"],
            # settings the chosen model does not read are checked too
            ["sweep", "--s", "6", "--n", "0", "--beta", "nan"],
            ["sweep", "--s", "6", "--n", "0", "--model", "coupler", "--chi1", "nan"],
            ["tomo", "--samples", _samples_file, "--threshold", "nan"],
            ["gen-synthetic", "--noise", "inf"],
        ],
    )
    def test_non_finite_value_is_usage_error(self, argv, tmp_path, capsys):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        assert main(argv + [_out_flag(argv), str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("tmsflow: ")
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"s": "6", "n": "0.1", "model": "coupler", "beta": NaN}')
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "beta must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-synthetic", "--config", _file("c.json", '{"seed": "abc"}')],
            ["gen-synthetic", "--config", _file("c.json", '{"seed": 1.7}')],
            ["gen-synthetic", "--seed", "-1"],
            ["features", "--s", "6", "--flavors", "X"],
            [
                "tomo",
                "--samples",
                _file("s.csv", "I1,Q1,I2,Q2\n" + "0.1,0.2,0.3,0.4\n" * 50 + "0.1,nan,0.3,0.4\n"),
            ],
            ["validate", "--state", _file("v.json", '{"n_modes": 1, "entries": [0.3, 0, 0, NaN]}')],
            ["validate", "--state", _file("v.csv", "0.3,0\n0,inf\n")],
            ["fit", "--records", _file("r.csv", "s_db,n,d_a,d_b,e_f\n3,0.1,nan,0.1,0.1\n")],
        ],
    )
    def test_malformed_config_or_file_is_usage_error(self, argv, tmp_path, capsys):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        assert main(argv + [_out_flag(argv), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("tmsflow: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["tomo", "--samples"], "samples"),
            (["fit", "--records"], "records"),
            (["validate", "--state"], "state"),
            (["sweep", "--s", "6", "--n", "0.1", "--config"], "config"),
        ],
    )
    def test_file_that_is_not_utf8_is_usage_error(self, argv, name, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\n")
        argv = argv + [str(path)]
        assert main(argv + [_out_flag(argv), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tmsflow: cannot read {name}")
        assert "'utf-8' codec can't decode byte 0xff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, name, head",
        [
            (["tomo", "--samples"], "samples", "I1,Q1,I2,Q2\n"),
            (["fit", "--records"], "records", "s_db,n,d_a,d_b,e_f\n"),
            (["validate", "--state"], "state", "# \u00e9\n"),
        ],
    )
    def test_undecodable_byte_in_a_pipe_is_named_without_an_offset(
        self, argv, name, head, tmp_path, capsys
    ):
        read_end, write_end = os.pipe()
        os.write(write_end, head.encode() + b"\xff\n")
        os.close(write_end)
        try:
            argv = argv + [f"/dev/fd/{read_end}"]
            assert main(argv + [_out_flag(argv), str(tmp_path / "out")]) == 2
        finally:
            os.close(read_end)
        assert capsys.readouterr().err == (
            f"tmsflow: cannot read {name}: 'utf-8' codec can't decode byte 0xff: "
            "invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, name, head, row",
        [
            (["tomo", "--samples"], "samples", "I1,Q1,I2,Q2\n", "0.125,-0.25,0.5,1.0\n"),
            (["fit", "--records"], "records", "s_db,n,d_a,d_b,e_f\n", "3,0.1,0.2,0.2,0.1\n"),
            (["validate", "--state"], "state", "", "# \u00e9\u00e9\u00e9\n"),
        ],
    )
    def test_undecodable_byte_is_named_by_its_file_offset(
        self, argv, name, head, row, tmp_path, capsys
    ):
        # 1.2 MB, past the first 64k block and many decoder reads, then a bad byte
        text = (head + row * (1_200_000 // len(row))).encode()
        path = tmp_path / "input"
        path.write_bytes(text + b"\xff\n")
        argv = argv + [str(path)]
        assert main(argv + [_out_flag(argv), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"tmsflow: cannot read {name}: 'utf-8' codec can't decode byte 0xff "
            f"at file offset {len(text)}: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--s", "6", "--n", "0.1", "--model", "coupler", "--beta", "2"], "(0, 1)"),
            (["sweep", "--s", "6", "--n", "0.1", "--model", "realistic", "--chi1", "-1"], "chi1"),
            (
                ["sweep", "--s", "6", "--n", "0.1", "--config",
                 _file("c.json", '{"model": {"coupling_beta": 0.01}}')],
                """unknown model "{'coupling_beta': 0.01}" (ideal | coupler | realistic)""",
            ),
            (["qkd", "--s", "10", "--nq", "0.1", "--cloner-beta", "2"], "(0, 1)"),
            (["qkd", "--s", "6,10", "--nq", "-0.1"], "quadrature noise"),
            (["gen-synthetic", "--s", "3,6", "--n", "0.1", "--beta", "0"], "(0, 1)"),
            (
                ["fit", "--records",
                 _file("r.csv", "s_db,n,d_a,d_b,e_f\n3,0.1,0.1,0.1,0.1\n-3,0.1,0.1,0.1,0.1\n")],
                "line 3",
            ),
            (
                ["fit", "--records",
                 _file("r.csv", "s_db,n,d_a,d_b,e_f\n3,0.1,0.5,0.5,0.4\n6,0.1,0.5,0.5,0.4,0.01,0,0.01\n")],
                "line 3: standard deviations must be finite and > 0",
            ),
            (["features", "--s", "6", "--what", "xyz"], "nsd, nc"),
            (["features", "--s", "6", "--what", "nc,nsd,nc"], "distinct nsd, nc"),
            (["features", "--s", "6", "--flavors", "A,A"], "distinct A, B, AB"),
            (["gen-synthetic", "--noise", "-1"], "noise amplitude"),
            (["fit", "--records", _records_file, "--w1", "-1", "--w2", "-1", "--w3", "-1"],
             "weights must be >= 0 and not all zero"),
            (["fit", "--records", _records_file, "--w2", "-0.1"], "weights must be >= 0"),
            (["fit", "--records", _records_file, "--w1", "0", "--w2", "0", "--w3", "0"],
             "not all zero"),
        ],
    )
    def test_out_of_range_parameter_is_usage_error(self, argv, message, tmp_path, capsys):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tmsflow: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_coupler_sweep_marks_cells(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--s", "2000", "--n", "0,0.1,1", "--model", "coupler"]
        assert main(argv + ["--out", str(out)]) in (0, 3)
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3 and all(not r.endswith(",ok") for r in rows)

    @pytest.mark.parametrize("argv", [["sweep", "--n", "0"], ["features"]])
    def test_overflowing_amplifier_noise_marks_cells(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        argv = argv + ["--s", "3000", "--model", "realistic", "--chi2", "2"]
        assert main(argv + ["--out", str(out)]) == 3
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 1 and "amplifier noise at gain 1e+300 overflows" in rows[0]

    def test_amplifier_noise_near_the_double_range_marks_cells(self, tmp_path):
        out = tmp_path / "out.csv"
        argv = ["sweep", "--s", "1,2", "--n", "1.5", "--model", "realistic", "--chi1", "1e308"]
        assert main(argv + ["--out", str(out)]) == 3
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 2 and all("exact invariant beyond the double range" in r for r in rows)

    @pytest.mark.parametrize(
        "argv, code", [(["sweep", "--n", "0.1"], 3), (["features"], 3), (["qkd", "--nq", "0.1"], 2)]
    )
    def test_overflowing_squeezing_level(self, argv, code, tmp_path, capsys):
        """sweep and features report the level per cell or row; qkd refuses it."""
        out = tmp_path / "out.csv"
        assert main(argv + ["--s", "1e6", "--out", str(out)]) == code
        text = out.read_text() if out.exists() else capsys.readouterr().err
        assert "above 3082.5 dB" in text

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["qkd", "--s", "4000", "--nq", "0.1"], "squeezing level 4000.0 dB is above 3082.5 dB"),
            (["qkd", "--s", "5,4000", "--nq", "0.1"], "squeezing level 4000.0 dB is above 3082.5 dB"),
            (["qkd", "--s", "-1", "--nq", "0.1"], "squeezing level must be >= 0 dB, got -1.0"),
            (["gen-synthetic", "--s=-1,6", "--n", "0"], "squeezing level must be >= 0 dB, got -1.0"),
            (["gen-synthetic", "--s", "4000", "--n", "0"], "squeezing level 4000.0 dB is above 3082.5 dB"),
        ],
        ids=["qkd-high", "qkd-list-high", "qkd-negative", "gen-synthetic-negative", "gen-synthetic-high"],
    )
    def test_rejected_squeezing_level_is_a_usage_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"tmsflow: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, bad", [("-1", "-1.0"), ("0,0.5,-0.25", "-0.25")])
    def test_negative_injected_noise_is_a_usage_error(self, n, bad, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["gen-synthetic", "--s", "3", "--n", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"tmsflow: injected noise photon number must be >= 0, got {bad}\n"
        )
        assert not out.exists()


class TestFitAndGenSynthetic:
    def test_synthetic_then_fit_roundtrip(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert main(
            ["gen-synthetic", "--s", "3,6,9", "--n", "0,0.25,1",
             "--chi1", "0.05", "--chi2", "0.56", "--out", str(records)]
        ) == 0
        assert main(["fit", "--records", str(records)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi1"] == pytest.approx(0.05, abs=1e-4)
        assert doc["chi2"] == pytest.approx(0.56, abs=1e-4)
        assert doc["converged"] is True

    def test_synthetic_records_beyond_the_double_range(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["gen-synthetic", "--s", "1e-300", "--n", "1e300", "--out", str(out)]) == 3
        assert "exact invariant beyond the double range" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_squeezing_warning_is_one_line(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert main(["gen-synthetic", "--s", "0,3,6", "--n", "0,0.5", "--out", str(records)]) == 0
        capsys.readouterr()
        assert main(["fit", "--records", str(records), "--out", str(tmp_path / "fit.json")]) == 0
        err = capsys.readouterr().err
        assert err == "tmsflow: warning: excluded 2 record(s) at S = 0 dB from the fit\n"

    def test_overflowing_start_prints_one_line(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        assert main(["gen-synthetic", "--out", str(records)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--records", str(records), "--init", "1e308,1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tmsflow: model evaluation failed for record 0 ")
        assert captured.err.count("\n") == 1 and "overflows double precision" in captured.err

    @pytest.mark.parametrize(
        "rows",
        [
            "3,0,1e200,0,0\n6,0,0,0,0\n",
            "3,0,0.5,0.5,0.5,1e-200,1e-200,1e-200\n6,0,0.5,0.5,0.5,1e-200,1e-200,1e-200\n",
            "3,0,0.5,0.5,0.5,1e-320,1e-320,1e-320\n6,0,0.5,0.5,0.5,1e-320,1e-320,1e-320\n",
        ],
        ids=["huge-observable", "sd-1e-200", "sd-1e-320"],
    )
    def test_overflowing_cost_is_a_numeric_failure(self, rows, tmp_path, capsys):
        records, out = tmp_path / "records.csv", tmp_path / "fit.json"
        records.write_text("s_db,n,d_a,d_b,e_f\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--records", str(records), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "tmsflow: the cost at the start chi = (0.0, 1.0) is not finite\n"

    def test_a_level_above_the_double_range_is_a_model_failure(self, tmp_path, capsys):
        records, out = tmp_path / "records.csv", tmp_path / "fit.json"
        records.write_text("s_db,n,d_a,d_b,e_f\n3,0.1,0.5,0.5,0.4\n4000,0.1,0.5,0.5,0.4\n6,0.1,0.5,0.5,0.4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--records", str(records), "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "tmsflow: model evaluation failed for record 1 (S=4000.0 dB, n=0.1): "
            "squeezing level 4000.0 dB is above 3082.5 dB\n"
        )

    def test_truncated_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("s_db,n,d_a,d_b,e_f\n3.0,0.1,0.4,0.4\n")
        assert main(["fit", "--records", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert main(["fit", "--records", "/nonexistent.csv"]) == 2

    @pytest.mark.parametrize(
        "rows",
        [
            "",
            "0,0.1,0.1,0.1,0.1\n0,0.5,0.1,0.1,0.1\n",
            "6,0.1,0.1,0.1,0.1\n6,0.5,0.1,0.1,0.1\n",
        ],
        ids=["header-only", "all-at-0-dB", "one-level"],
    )
    @pytest.mark.filterwarnings("ignore:excluded")
    def test_too_few_squeezing_levels_is_usage_error(self, rows, tmp_path, capsys):
        records = tmp_path / "few.csv"
        records.write_text("s_db,n,d_a,d_b,e_f\n" + rows)
        out = tmp_path / "fit.json"
        assert main(["fit", "--records", str(records), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"tmsflow: records {records}: ") and "two or more" in err

    @pytest.mark.parametrize("chi1", ["0.05", "0"])
    def test_fit_json_has_no_nan_token(self, chi1, tmp_path):
        records, out = tmp_path / "records.csv", tmp_path / "fit.json"
        argv = ["gen-synthetic", "--s", "3,6", "--n", "0,0.5", "--chi1", chi1, "--out"]
        assert main(argv + [str(records)]) == 0
        assert main(["fit", "--records", str(records), "--out", str(out)]) == 0
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text)
        assert doc["converged"] is True and math.isfinite(doc["reduced_chi2"])
        # at chi1 = 0 the residuals do not depend on chi2: J^T J is singular
        assert (doc["chi1_se"] is None) == (chi1 == "0")


class TestTomoCommand:
    def test_gaussian_samples_pass(self, tmp_path, rng):
        samples = QuadratureSamples(sample_gaussian(ideal_tms(0.8), 20000, rng))
        path = tmp_path / "samples.csv"
        path.write_text(samples_to_csv(samples))
        cov_out = tmp_path / "cov.json"
        cum_out = tmp_path / "cum.json"
        code = main(
            ["tomo", "--samples", str(path), "--covariance-out", str(cov_out),
             "--cumulants-out", str(cum_out)]
        )
        assert code == 0
        assert json.loads(cum_out.read_text())["gaussian"] is True
        cov_doc = json.loads(cov_out.read_text())
        assert cov_doc["n_modes"] == 2

    def test_covariance_is_the_second_order_report(self, tmp_path):
        cov_out, cum_out = tmp_path / "cov.json", tmp_path / "cum.json"
        argv = ["tomo", "--samples", _samples_file(tmp_path), "--covariance-out", str(cov_out)]
        assert main(argv + ["--cumulants-out", str(cum_out)]) == 0
        entries = np.array(json.loads(cov_out.read_text())["entries"]).reshape(4, 4)
        second = json.loads(cum_out.read_text())["second_order"]
        names = ("I1", "Q1", "I2", "Q2")
        for i in range(4):
            for j in range(4):
                key = names[i] + names[j] if i <= j else names[j] + names[i]
                assert entries[i, j] == second[key]

    def test_covariance_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # only the projection goes through LAPACK
        data = sample_gaussian(ideal_tms(0.5), 2000, np.random.default_rng(11))
        samples = tmp_path / "samples.csv"
        samples.write_text(samples_to_csv(QuadratureSamples(data)))
        samples = str(samples)
        native, haswell = tmp_path / "native.json", tmp_path / "haswell.json"
        assert main(["tomo", "--samples", samples, "--covariance-out", str(native)]) == 0
        src = os.path.dirname(os.path.dirname(tmsflow.__file__))
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        argv = ["--samples", samples, "--covariance-out", str(haswell)]
        subprocess.run([sys.executable, "-m", "tmsflow.cli", "tomo", *argv], env=env, check=True)
        assert haswell.read_bytes() == native.read_bytes()

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_threshold_must_be_positive(self, threshold, tmp_path, capsys):
        cum_out = tmp_path / "cum.json"
        argv = ["tomo", "--samples", _samples_file(tmp_path), "--threshold", threshold]
        assert main(argv + ["--cumulants-out", str(cum_out)]) == 2
        assert capsys.readouterr().err == f"tmsflow: threshold must be > 0, got {float(threshold)!r}\n"
        assert not cum_out.exists()

    def test_constant_column_is_usage_error(self, tmp_path, capsys):
        data = sample_gaussian(ideal_tms(0.5), 200, np.random.default_rng(3))
        data[:, 2] = 0.5
        path = tmp_path / "s.csv"
        path.write_text(samples_to_csv(QuadratureSamples(data)))
        cum_out = tmp_path / "cum.json"
        assert main(["tomo", "--samples", str(path), "--cumulants-out", str(cum_out)]) == 2
        assert "column I2 is constant" in capsys.readouterr().err
        assert not cum_out.exists()

    def test_malformed_samples_reports_line(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("I1,Q1,I2,Q2\n0.1,0.2,0.3\n")
        assert main(["tomo", "--samples", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [(1, "need at least two samples"), (10, "need at least 40 samples, got 10")],
    )
    def test_too_few_samples_is_usage_error(self, rows, message, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("I1,Q1,I2,Q2\n" + "0.1,0.2,0.3,0.4\n" * rows)
        cum_out = tmp_path / "cum.json"
        assert main(["tomo", "--samples", str(path), "--cumulants-out", str(cum_out)]) == 2
        assert capsys.readouterr().err == f"tmsflow: samples: {message}\n"
        assert not cum_out.exists()

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e160, 1e200, 1e-80, 1e-100, 1e-160])
    def test_samples_beyond_the_double_range_are_numeric_failures(
        self, scale, project, tmp_path, capsys
    ):
        data = scale * sample_gaussian(ideal_tms(0.5), 200, np.random.default_rng(5))
        path = tmp_path / "s.csv"
        path.write_text(samples_to_csv(QuadratureSamples(data)))
        outs = tmp_path / "cov.json", tmp_path / "cum.json"
        argv = ["tomo", "--samples", str(path), "--covariance-out", str(outs[0])]
        argv += ["--cumulants-out", str(outs[1])] + ["--project"] * project
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("tmsflow: cumulant of order ") and err.count("\n") == 1
        assert "leaves the double range" in err
        assert not any(out.exists() for out in outs)


class TestValidateCommand:
    def test_clean_state(self, tmp_path, capsys):
        path = tmp_path / "vac.json"
        path.write_text(json.dumps(_covariance_doc(vacuum(2))))
        assert main(["validate", "--state", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_unphysical_state_still_reports(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_modes": 1, "entries": [0.125, 0, 0, 0.125]}))
        assert main(["validate", "--state", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["violations"]

    def test_one_mode_eigenvalue_beyond_the_determinant_range(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n_modes": 1, "entries": [1e200, 0, 0, 1e200]}))
        assert main(["validate", "--state", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["min_symplectic_eigenvalue"] == 1e200

    @pytest.mark.parametrize(
        "fields, named",
        [
            *((f'"n_modes": {n}, "entries": [0.25, 0, 0, 0.25]', "n_modes")
              for n in ("null", "[2]", "1e400", '"2"', "true", "1.7")),
            ('"n_modes": 1, "entries": {"a": 1}', "entries"),
        ],
    )
    def test_field_of_the_wrong_type_is_usage_error(self, fields, named, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text("{" + fields + "}")
        assert main(["validate", "--state", str(path)]) == 2
        assert f"malformed state file: {named} must be" in capsys.readouterr().err

    def test_csv_state_accepted(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        rows = ideal_tms(0.5).entries
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n")
        assert main(["validate", "--state", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": "10", "nq": "0.25"}))
        assert main(["qkd", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_q"] == 0.25

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": "10", "nq": "0.25"}))
        assert main(["qkd", "--config", str(cfg), "--nq", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_q"] == 0.1

    @pytest.mark.parametrize(
        "argv",
        [
            ["qkd", "--s", "10", "--nq", "0.25", "--cloner-beta", "0.001"],
            ["qkd", "--s", "0,10,30", "--nq", "0.1"],
        ],
    )
    def test_config_echo_reruns_the_job(self, argv, tmp_path):
        out, th_out, cfg = tmp_path / "k.out", tmp_path / "t.csv", tmp_path / "cfg.json"

        def outputs(*args):
            assert main([*args, "--out", str(out), "--threshold-out", str(th_out)]) in (0, 3)
            return out.read_text(), th_out.read_text()

        first = outputs(*argv)
        cfg.write_text(first[1].splitlines()[1][len("# config: "):])
        assert outputs(argv[0], "--config", str(cfg)) == first

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"s": "6", "n": "0.1", "modle": "coupler"}, "modle"),
            ({"s": "6", "n": "0.1", "cloner_beta": 0.001, "cloner-beta": 0.01}, "cloner-beta"),
        ],
    )
    def test_unknown_or_twice_given_config_key_is_usage_error(self, doc, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('["s", "6"]')
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "tmsflow: config file must hold a JSON object\n"
        assert not out.exists()

    def test_key_given_twice_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"s": "10", "nq": "0.25", "nq": "0.5"}')
        assert main(["qkd", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "has key nq twice" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [[], ["--w2", "0.5", "--init", "0.1,0.9", "--beta", "0.02"]])
    def test_fit_echo_reruns_the_job(self, argv, tmp_path):
        out, rerun, cfg = tmp_path / "fit.json", tmp_path / "rerun.json", tmp_path / "cfg.json"
        records = _records_file(tmp_path)
        assert main(["fit", "--records", records, *argv, "--out", str(out)]) == 0
        cfg.write_text(json.dumps(json.loads(out.read_text())["meta"]["config"]))
        assert main(["fit", "--config", str(cfg), "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == out.read_bytes()

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert main(["sweep", "--config", str(cfg), "--s", "6", "--n", "0"]) == 2

    def test_no_command_prints_help(self):
        assert main([]) == 2

    @pytest.mark.parametrize("value", [7, True, ""])
    @pytest.mark.parametrize(
        "key, argv",
        [
            ("out", ["sweep", "--s", "6", "--n", "0.1"]),
            ("records", ["fit"]),
            ("samples", ["tomo"]),
            ("state", ["validate"]),
            ("threshold-out", ["qkd", "--s", "10", "--nq", "0.1"]),
            ("covariance-out", ["tomo", "--samples", _samples_file]),
            ("cumulants-out", ["tomo", "--samples", _samples_file]),
        ],
    )
    def test_path_key_must_be_a_non_empty_string(self, key, argv, value, tmp_path, capsys):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tmsflow: {key} must be a non-empty path, got {value!r}\n"

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--out", ["sweep", "--s", "6", "--n", "0.1"]),
            ("--threshold-out", ["qkd", "--s", "10", "--nq", "0.1"]),
            ("--covariance-out", ["tomo", "--samples", _samples_file]),
        ],
    )
    def test_unwritable_output_is_usage_error(self, flag, argv, tmp_path, capsys):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        path = str(tmp_path / "missing_dir" / "x.csv")
        assert main(argv + [flag, path]) == 2
        assert capsys.readouterr().err.startswith(f"tmsflow: cannot write {path}: ")

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize(
        "argv, first, second",
        [
            (["qkd", "--s", "6,10", "--nq", "0.1"], "--out", "--threshold-out"),
            (["tomo", "--samples", _samples_file], "--covariance-out", "--cumulants-out"),
        ],
    )
    def test_unwritable_second_output_writes_nothing(
        self, argv, first, second, existing, tmp_path, capsys
    ):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        written, missing = tmp_path / "first.out", str(tmp_path / "missing_dir" / "x.csv")
        if existing:
            written.write_text("kept")
        assert main(argv + [first, str(written), second, missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"tmsflow: cannot write {missing}: ")
        assert written.read_text() == "kept" if existing else not written.exists()

    def test_tomo_has_no_out_flag(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["tomo", "--samples", _samples_file(tmp_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_project_config_key(self, tmp_path, capsys):
        samples = _samples_file(tmp_path)

        def covariance(*extra):
            out = tmp_path / "cov.json"
            argv = ["tomo", "--samples", samples, "--covariance-out", str(out)]
            assert main(argv + ["--cumulants-out", str(tmp_path / "cum.json"), *extra]) == 0
            return out.read_bytes()

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"project": True}))
        projected = covariance("--config", str(cfg))
        assert projected == covariance("--project")
        assert json.loads(projected)["meta"]["config"]["project"] is True
        assert "project" not in json.loads(covariance())["meta"]["config"]
        for bad in ("yes", 1):
            cfg.write_text(json.dumps({"project": bad}))
            assert main(["tomo", "--samples", samples, "--config", str(cfg)]) == 2
            assert "project must be true or false" in capsys.readouterr().err


def _loaded_scipy(code, *argv):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(tmsflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


class TestStartup:
    def test_threshold_jobs_do_not_load_scipy(self, tmp_path):
        code = (
            "from tmsflow.cli import main\n"
            "out, th = sys.argv[1], sys.argv[2]\n"
            "assert main(['features', '--s', '2,6.5', '--out', out]) == 0\n"
            "argv = ['qkd', '--s', '6,10', '--nq', '0.1', '--threshold-out', th]\n"
            "assert main(argv + ['--out', out]) == 0"
        )
        assert _loaded_scipy(code, str(tmp_path / "out.csv"), str(tmp_path / "th.csv")) == "[]"

    def test_synthetic_records_and_fit_do_not_load_scipy(self, tmp_path):
        code = (
            "from tmsflow.cli import main\n"
            "records, out = sys.argv[1], sys.argv[2]\n"
            "argv = ['gen-synthetic', '--s', '3,6', '--n', '0,0.5', '--noise', '0.01']\n"
            "assert main(argv + ['--seed', '1', '--out', records]) == 0\n"
            "assert main(['fit', '--records', records, '--out', out]) == 0"
        )
        argv = str(tmp_path / "records.csv"), str(tmp_path / "fit.json")
        assert _loaded_scipy(code, *argv) == "[]"

    def test_cli_import_does_not_load_scipy(self):
        assert _loaded_scipy("import tmsflow.cli") == "[]"

    def test_projection_does_not_load_scipy(self):
        code = (
            "import tmsflow.cli\n"
            "from tmsflow.states import ideal_tms\n"
            "from tmsflow.symplectic import CovarianceMatrix, validate\n"
            "from tmsflow.tomography import project_to_physical\n"
            "estimate = CovarianceMatrix(0.999 * ideal_tms(0.5).entries)\n"
            "assert not validate(estimate).ok and validate(project_to_physical(estimate)).ok"
        )
        assert _loaded_scipy(code) == "[]"
