"""Sweep output written from the kernel columns: byte-equal to the per-cell
writers it replaced, finite by construction, and one parser per process."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmsflow import _floatrepr, analysis, cli
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
    batch=st.integers(1, 64),  # 1 to 9 rows per writer batch
)
@example(MODELS[0], [0.0, 6.0], [0.0, 1000.0], {0: MESSAGES[0]}, 1)
def test_writers_match_the_per_cell_writers(model, s_values, n_values, failures, batch):
    grid = _with_failures(sweep(model, s_values, n_values), failures)
    with mock.patch.object(_floatrepr, "BATCH", batch):
        _assert_writers_match(grid)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("model", MODELS, ids=["ideal", "coupler", "realistic"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grids_straddling_the_block_size(fmt, model, extra):
    """One block of text per writer batch, 585 CSV rows or 512 JSON
    reports, with failed cells on both sides of the batch edge."""
    batch = _floatrepr.BATCH // (7 if fmt == "csv" else 8)
    cells = batch + extra
    rows = next(r for r in range(64, 0, -1) if cells % r == 0)
    grid = sweep(model, np.linspace(0.0, 30.0, rows), np.linspace(0.0, 4.0, cells // rows))
    edges = [0, batch - 1, batch, cells - 1]
    grid = _with_failures(grid, dict(zip(edges, MESSAGES)))
    _assert_writers_match(grid)
    blocks = list(sweep_blocks_to_csv(grid) if fmt == "csv" else sweep_blocks_to_json(grid, META))
    assert len(blocks) == 2 + (cells > batch)  # the header or the tail, and one block a batch


def test_csv_blocks_join_to_the_document():
    grid = sweep(MODELS[1], [1.0, 2.0, 3.0], [0.0, 0.5])
    with mock.patch.object(_floatrepr, "BATCH", 28):  # 4 rows of 7 values
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


# Values that take every branch of the float formatter's layout: zeros,
# subnormals, exponent form below 1e-4 and from 1e16 on (one digit, two-
# and three-digit exponents), 0.000ddd, integral values with ".0",
# 17-digit values and the layout switches.
BRANCH_VALUES = [
    0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e-300, 3.0000000000000004e-05, 1e-05,
    9.999999999999999e-05, 0.0001, 0.000123456789, 0.1, 0.30000000000000004, 0.5, 1.0,
    3.141592653589793, 12.0, 100.0, 1e15, 1234567890123456.8, 9999999999999998.0, 1e16,
    1.2345678901234567e16, 5e20, 1.7976931348623157e308,
]  # fmt: skip


def synthetic_grid(rows, cols, failures=(), seed=0):
    """A grid whose kernel columns mix random finite doubles with
    :data:`BRANCH_VALUES` of either sign; failed cells hold inf and NaN."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, 8 * rows * cols, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 1.5)
    branches = rng.choice(BRANCH_VALUES, values.size) * rng.choice([-1.0, 1.0], values.size)
    values = np.where(rng.random(values.size) < 0.5, branches, values).reshape(8, -1)
    errors = {}
    for k, i in enumerate(failures):
        values[:, i] = [np.inf, -np.inf, np.nan] * 2 + [0.0, 5e-324]
        errors[i] = NumericalError(MESSAGES[k % len(MESSAGES)])
    s_values = tuple(np.linspace(-1e-300, 3e16, rows).tolist())
    n_values = tuple(sorted(set(np.geomspace(1e-310, 1e20, cols).tolist()) | {0.0}))[:cols]
    arrays = CorrelationArrays(*(v.reshape(rows, cols) for v in values), errors)
    return SweepGrid(s_values, n_values, arrays)


@pytest.mark.parametrize("batch", [1, 7, 24, 40, 4096])
def test_synthetic_columns_in_every_layout(batch):
    """Failed cells on both sides of the edges of the writer's batches of
    rows splice in where the per-cell writers put them."""
    grid = synthetic_grid(7, 6, failures=[0, 4, 5, 9, 10, 20, 41])
    with mock.patch.object(_floatrepr, "BATCH", batch):
        _assert_writers_match(grid)


def test_every_cell_failed_and_none_failed():
    _assert_writers_match(synthetic_grid(3, 4, failures=range(12)))
    _assert_writers_match(synthetic_grid(1, 1))
    _assert_writers_match(synthetic_grid(1, 1, failures=[0]))


def test_non_finite_values_in_csv_rows():
    """The writer formats inf and NaN as ``repr`` does, should a grid hold
    them in a cell that did not fail."""
    grid = synthetic_grid(2, 3)
    for field, value in zip(grid.arrays[:7], [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0]):
        field[0, 1] = value
    assert "".join(sweep_blocks_to_csv(grid)) == reference_csv(grid)
    assert ",inf,-inf,nan,nan,0.0,-0.0,1.0,ok\n" in reference_csv(grid)


def test_model_grids_need_no_per_value_repr():
    """Kernel values are normal doubles or zeros: the per-value ``repr``
    fallback, which subnormals take, never runs on a model grid."""
    fallback = mock.Mock(wraps=_floatrepr._repr_words)
    with mock.patch.object(_floatrepr, "_repr_words", fallback):
        for model in MODELS:
            grid = sweep(model, np.linspace(0.0, 40.0, 81), np.geomspace(1e-9, 1e3, 61))
            _assert_writers_match(grid)
        assert fallback.call_count == 0
        grid = synthetic_grid(2, 2)
        grid.arrays.d_a[1, 1] = -5e-324
        _assert_writers_match(grid)  # the fallback is live
        assert fallback.call_count > 0


@pytest.mark.parametrize("writer", ["csv", "json"])
def test_writer_memory_is_bounded_per_block(writer):
    """Writing four times the cells takes no more peak memory (within
    10 %): the writer holds one block of rows at a time."""

    def peak(rows):
        grid = synthetic_grid(rows, 500)
        tracemalloc.start()
        try:
            blocks = sweep_blocks_to_csv(grid) if writer == "csv" else sweep_blocks_to_json(grid, META)
            written = sum(map(len, blocks))
            return tracemalloc.get_traced_memory()[1], written
        finally:
            tracemalloc.stop()

    (small, small_chars), (large, large_chars) = peak(100), peak(400)
    assert large_chars > 3.9 * small_chars
    assert large <= 1.1 * small, (small, large)


def test_only_sweep_loads_the_formatter(tmp_path):
    """A fresh process builds the float formatter's tables only when it
    writes a sweep: every other command leaves the module unloaded."""
    golden.write_samples(tmp_path / "samples.csv")
    jobs = [
        ["features", "--s", "2:12:2", "--out", "features.csv"],
        ["qkd", "--s", "10", "--nq", "0.25", "--threshold-out", "t.csv", "--out", "q.json"],
        ["gen-synthetic", "--out", "records.csv"],
        ["fit", "--records", "records.csv", "--out", "fit.json"],
        ["tomo", "--samples", "samples.csv", "--covariance-out", "cov.json"]
        + ["--cumulants-out", "cum.json"],
        ["validate", "--state", "cov.json", "--out", "valid.json"],
        ["sweep", "--s", "6", "--n", "0,0.1", "--out", "sweep.csv"],
    ]
    code = (
        "import json, sys\n"
        "from tmsflow.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(argv[0], main(argv), 'tmsflow._floatrepr' in sys.modules)\n"
    )
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(jobs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    loaded = [line.split() for line in proc.stdout.splitlines()]
    assert loaded == [[argv[0], "0", str(argv[0] == "sweep")] for argv in jobs], proc.stderr
