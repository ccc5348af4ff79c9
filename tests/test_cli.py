import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tmsflow
from tmsflow.analysis import crossover_point
from tmsflow.cli import main, parse_grid
from tmsflow.states import ideal_tms, vacuum
from tmsflow.symplectic import covariance_to_json
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
            *("", "1:2", "1:2:0", "2:1:0.5", "a,b", "nan", "1,inf", "0:inf:1"),
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

    def test_failing_row_is_marked_per_column(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["features", "--s", "6,2000", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert rows[0].startswith("6.0,") and rows[0].endswith(",ok")
        assert rows[1].startswith("2000.0,1.0,nan,nan,nan,")
        assert "n_c_A: exact invariant beyond the double range" in rows[1]

    def test_each_crossover_root_is_solved_once(self, tmp_path, monkeypatch):
        import tmsflow.cli

        calls = []

        def counting(model, s_db, flavor):
            calls.append((s_db, flavor))
            return crossover_point(model, s_db, flavor)

        monkeypatch.setattr(tmsflow.cli, "crossover_point", counting)
        out = tmp_path / "f.csv"
        argv = ["features", "--s", "0.01,6", "--what", "nc", "--flavors", "AB,A,B"]
        assert main(argv + ["--out", str(out)]) == 0
        assert sorted(calls) == [(0.01, "A"), (0.01, "B"), (6.0, "A"), (6.0, "B")]
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        weak, strong = (r.split(",") for r in rows)
        # crossover B does not exist at 0.01 dB; AB carries B's reason
        assert weak[1] == "nan" and weak[3] == "nan" and float(weak[2]) > 0.0
        reason = weak[4].split("n_c_B: ")[1]
        assert weak[4] == f"n_c_AB: {reason}; n_c_B: {reason}"
        n_ab, n_a, n_b = map(float, strong[1:4])
        assert n_ab == 0.5 * (n_a + n_b)


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
            ["qkd", "--s", "10", "--nq", "0.1", "--tolerance", "inf"],
            ["sweep", "--s", "6", "--n", "0.1", "--model", "coupler", "--beta", "nan"],
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
            *(
                ["sweep", "--s", "6", "--n", "0.1", "--config", _file("c.json", doc)]
                for doc in (
                    '{"model": {"coupling_beta": 0.01, "jpa": {"chi1": 0.05}}}',
                    '{"model": {"coupling_beta": 0.01, "jpa": 5}}',
                )
            ),
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
        "argv, message",
        [
            (["sweep", "--s", "6", "--n", "0.1", "--model", "coupler", "--beta", "2"], "(0, 1)"),
            (["sweep", "--s", "6", "--n", "0.1", "--model", "realistic", "--chi1", "-1"], "chi1"),
            (
                ["sweep", "--s", "6", "--n", "0.1", "--config",
                 _file("c.json", '{"model": {"jpa": {"chi1": 0.05, "chi2": 0.56}}}')],
                "needs a coupler beta",
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
            (["gen-synthetic", "--noise", "-1"], "noise amplitude"),
            (["fit", "--records", _records_file, "--w1", "-1", "--w2", "-1", "--w3", "-1"],
             "weights must be >= 0 and not all zero"),
            (["fit", "--records", _records_file, "--w2", "-0.1"], "weights must be >= 0"),
            (["fit", "--records", _records_file, "--w1", "0", "--w2", "0", "--w3", "0"],
             "not all zero"),
            (["qkd", "--s", "6,10", "--nq", "0.1", "--threshold-out", _file("t.csv", ""),
              "--tolerance", "0"], "tolerance must be > 0"),
            (["qkd", "--s", "6,10", "--nq", "0.1", "--threshold-out", _file("t.csv", ""),
              "--tolerance", "-1"], "tolerance must be > 0"),
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
        "argv", [["sweep", "--n", "0.1"], ["features"], ["qkd", "--nq", "0.1"]]
    )
    def test_overflowing_squeezing_level(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--s", "1e6", "--out", str(out)]) == 3
        text = out.read_text() if out.exists() else capsys.readouterr().err
        assert "above 3082.5 dB" in text


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


class TestValidateCommand:
    def test_clean_state(self, tmp_path, capsys):
        path = tmp_path / "vac.json"
        path.write_text(covariance_to_json(vacuum(2)))
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

    def test_csv_state_accepted(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        from tmsflow.symplectic import covariance_to_csv

        path.write_text(covariance_to_csv(ideal_tms(0.5)))
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

    def test_config_model_scenario_shape(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "s": "6",
                    "n": "0,0.5",
                    "model": {"coupling_beta": 0.01, "jpa": {"chi1": 0.05, "chi2": 0.56}},
                }
            )
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "ok" in out.read_text()

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
