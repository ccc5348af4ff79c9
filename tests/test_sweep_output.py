"""Sweep output written from the kernel columns: byte-equal to the per-cell
writers it replaced, finite by construction, and one parser per process."""

import hashlib
import importlib.util
import json
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmsflow import analysis, cli
from tmsflow.analysis import (
    SWEEP_CSV_HEADER,
    SweepGrid,
    sweep,
    sweep_blocks_to_csv,
    sweep_blocks_to_json,
)
from tmsflow.correlations import CorrelationArrays
from tmsflow.errors import NumericalError
from tmsflow.states import StateModel

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("golden") / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MODELS = [StateModel.ideal(), StateModel.coupler(0.5), StateModel.realistic(0.05, 0.56, 0.01)]
META = {"tool": "tmsflow test", "config": {"command": "sweep", "s": "0:1:1"}}
MESSAGES = ['quote " here', "back\\slash", "a, b, c", "two\nlines", "Grüße ∞ ≠ 0", ""]


# The per-cell writers that the column formatter replaced, kept as references.


def _reference_cells(grid, fields):
    columns = [field.ravel().tolist() for field in grid.arrays[:fields]]
    cells = zip(product(grid.s_values, grid.n_values), zip(*columns))
    for i, ((s_db, n), values) in enumerate(cells):
        yield grid.arrays.errors.get(i), s_db, n, values


def reference_csv(grid):
    lines = [SWEEP_CSV_HEADER]
    nans = ",".join(["nan"] * 7)
    for exc, s_db, n, values in _reference_cells(grid, 7):
        if exc is None:
            lines.append(",".join(map(repr, (s_db, n, *values))) + ",ok")
        else:
            reason = (str(exc) or "failed").replace(",", ";").replace("\n", " ")
            lines.append(f"{s_db!r},{n!r},{nans},{reason}")
    return "\n".join(lines) + "\n"


def reference_json(grid, meta):
    names = CorrelationArrays._fields[:-1]
    reports = []
    for exc, s_db, n, values in _reference_cells(grid, len(names)):
        if exc is None:
            reports.append({"s_db": s_db, "n": n, **dict(zip(names, values))})
        else:
            reports.append({"s_db": s_db, "n": n, "error": str(exc)})
    doc = {"s_values": list(grid.s_values), "n_values": list(grid.n_values), "reports": reports}
    return json.dumps({**doc, "meta": meta}, allow_nan=False) + "\n"


def _with_failures(grid, failures):
    """The grid with extra failed cells ``{index: message}`` (indices taken
    modulo the cell count)."""
    errors = dict(grid.arrays.errors)
    for i, message in failures.items():
        errors[i % grid.arrays.d_a.size] = NumericalError(message)
    return SweepGrid(grid.s_values, grid.n_values, grid.arrays._replace(errors=errors))


def _assert_writers_match(grid):
    assert "".join(sweep_blocks_to_csv(grid)) == reference_csv(grid)
    assert "".join(sweep_blocks_to_json(grid, META)) == reference_json(grid, META)


def _axis(low, high):
    floats = st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)
    return st.lists(floats, min_size=1, max_size=12, unique=True).map(sorted)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(MODELS),
    s_values=_axis(-2.0, 3100.0),  # negative levels and 3082 dB and beyond fail
    n_values=_axis(-1.0, 1e4),
    failures=st.dictionaries(st.integers(0, 10**4), st.sampled_from(MESSAGES), max_size=6),
    block=st.integers(1, 7),
)
@example(MODELS[0], [0.0, 6.0], [0.0, 1000.0], {0: MESSAGES[0]}, 1)
def test_writers_match_the_per_cell_writers(model, s_values, n_values, failures, block):
    grid = _with_failures(sweep(model, s_values, n_values), failures)
    with mock.patch.object(analysis, "SWEEP_BLOCK", block):
        _assert_writers_match(grid)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("model", MODELS, ids=["ideal", "coupler", "realistic"])
def test_grids_straddling_the_block_size(extra, model):
    cells = analysis.SWEEP_BLOCK + extra
    rows = next(r for r in range(64, 0, -1) if cells % r == 0)
    grid = sweep(model, np.linspace(0.0, 30.0, rows), np.linspace(0.0, 4.0, cells // rows))
    edges = [0, analysis.SWEEP_BLOCK - 1, analysis.SWEEP_BLOCK, cells - 1]
    _assert_writers_match(_with_failures(grid, dict(zip(edges, MESSAGES))))
    blocks = list(sweep_blocks_to_json(grid, META))
    assert len(blocks) == 2 + (cells > analysis.SWEEP_BLOCK)  # row blocks, then the tail


def test_csv_blocks_join_to_the_document():
    grid = sweep(MODELS[1], [1.0, 2.0, 3.0], [0.0, 0.5])
    with mock.patch.object(analysis, "SWEEP_BLOCK", 4):
        blocks = list(sweep_blocks_to_csv(grid))
    assert blocks[0] == SWEEP_CSV_HEADER + "\n"
    assert [block.count("\n") for block in blocks[1:]] == [4, 2]
    assert "".join(blocks) == "".join(sweep_blocks_to_csv(grid))


class TestNonFiniteGuard:
    @pytest.fixture
    def poisoned(self, monkeypatch):
        """The kernel with ``inf`` in d_a of cell 1 and in gamma of cell 2."""
        kernel = analysis.correlation_arrays

        def poisoned_kernel(form):
            res = kernel(form)
            d_a, gamma = res.d_a.copy(), res.gamma.copy()
            d_a.flat[1] = gamma.flat[2] = np.inf
            return res._replace(d_a=d_a, gamma=gamma)

        monkeypatch.setattr(analysis, "correlation_arrays", poisoned_kernel)

    def test_sweep_marks_the_cells(self, poisoned):
        grid = sweep(MODELS[0], [6.0], [0.0, 0.1, 0.2, 0.3])
        assert sorted(grid.arrays.errors) == [1, 2]
        with pytest.raises(NumericalError, match="not finite"):
            grid.report(0, 2)
        assert grid.report(0, 3).d_a > 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_writes_failed_rows(self, fmt, poisoned, tmp_path):
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--s", "6", "--n", "0,0.1,0.2,0.3", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert "inf" not in text.lower() and "NaN" not in text
        if fmt == "json":
            reports = json.loads(text)["reports"]
            assert ["error" in report for report in reports] == [False, True, True, False]
        else:
            status = [line.rsplit(",", 1)[1] for line in text.splitlines()[3:]]
            assert status == ["ok", *["a correlation measure is not finite"] * 2, "ok"]

    def test_every_cell_poisoned_exits_3(self, monkeypatch, capsys):
        kernel = analysis.correlation_arrays

        def nan_kernel(form):
            res = kernel(form)
            return res._replace(gamma=np.full(res.gamma.shape, np.nan))

        monkeypatch.setattr(analysis, "correlation_arrays", nan_kernel)
        assert cli.main(["sweep", "--s", "6", "--n", "0,0.1", "--format", "json"]) == 3
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 2


class TestCachedParser:
    def test_golden_jobs_forward_then_reverse(self, tmp_path, monkeypatch):
        """Every golden job matches the manifest however many jobs ran
        before it in the process, in either order."""
        expected = golden.read_manifest()
        golden.write_samples(tmp_path / golden.SAMPLES)
        monkeypatch.chdir(tmp_path)
        cli._build_parser.cache_clear()
        forward = list(golden.JOBS)
        # fit reads the records gen-synthetic wrote, so the reverse pass
        # reads those of the forward pass.
        for argv in forward + forward[::-1]:
            assert cli.main(list(argv)) == 0, argv
            for name, digest in expected.items():
                if name in argv:
                    data = (tmp_path / name).read_bytes()
                    assert hashlib.sha256(data).hexdigest() == digest, (argv, name)
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "argv", [["--help"], ["--version"], [], ["--no-such-flag"], ["sweep", "--help"]]
    )
    def test_first_and_second_call_agree(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli._build_parser.cache_clear()
        runs = []
        for _ in range(2):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (0 if argv and "--no-such-flag" not in argv else 2)
        assert any(runs[0][1:])

