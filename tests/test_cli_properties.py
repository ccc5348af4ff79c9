"""Property test of the CLI input contract: any argv built from the
documented flags, with values drawn from a pool of hard inputs, exits 0, 2
or 3 without a traceback, and every output it writes parses."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmsflow.cli import main
from tmsflow.states import ideal_tms
from tmsflow.symplectic import _covariance_doc
from tmsflow.tomography import QuadratureSamples, samples_to_csv

from conftest import sample_gaussian

HARD = ["nan", "inf", "-1", "0", "1e308", "3082.6", "", "abc"]
SMALL = ["0.01", "0.1", "0.5", "1", "2", "6"]
VALUES = (st.sampled_from(SMALL), st.sampled_from(HARD))
GRIDS = (
    st.sampled_from(["0:2:0.5", "1:12:1", "0:1:0.1"])
    | st.lists(st.sampled_from(SMALL + ["3", "12", "30"]), min_size=1, max_size=5).map(",".join),
    # reversed, zero step, malformed, overflowing, and 1e7 points
    st.sampled_from(HARD + ["2:1:1", "1:2:0", "1:2", "0:1e308:1e-308", "0:1:1e-7", "6,1"]),
)
MODELS = (st.sampled_from(["ideal", "coupler", "realistic"]), st.sampled_from(HARD))


def _pick(valid, hard):
    return st.sampled_from(valid), st.sampled_from(hard)


BETAS = _pick(["0.01", "0.1", "0.5"], HARD + ["1", "2"])
MODEL_FLAGS = {"--model": MODELS, "--beta": BETAS, "--chi1": VALUES, "--chi2": VALUES}


def _out(name):
    return st.just("@" + name), st.just("@" + name)


# flag -> (strategy for a sound value, strategy for a hard one)
FLAGS = {
    "sweep": {"--s": GRIDS, "--n": GRIDS, "--format": _pick(["csv", "json"], HARD), **MODEL_FLAGS},
    "features": {
        "--s": GRIDS,
        "--what": _pick(["nsd", "nc", "nsd,nc"], HARD + ["nsd,xyz"]),
        "--flavors": _pick(["A", "B", "AB", "A,B,AB"], HARD + ["A,C"]),
        **MODEL_FLAGS,
    },
    "qkd": {"--s": GRIDS, "--nq": GRIDS, "--cloner-beta": BETAS,
            "--threshold-out": _out("threshold.csv")},
    "gen-synthetic": {"--s": GRIDS, "--n": GRIDS, "--chi1": VALUES, "--chi2": VALUES,
                      "--beta": BETAS, "--noise": VALUES, "--seed": _pick(["0", "1", "7"], HARD)},
    "tomo": {"--samples": _pick(["samples"], ["constant", "short", "malformed", "missing", ""]),
             "--threshold": VALUES, "--project": (st.just(True), st.just(True)),
             "--covariance-out": _out("cov.json"), "--cumulants-out": _out("cum.json")},
    "validate": {"--state": _pick(["state.json", "state.csv"], ["unphysical", "malformed", "missing", ""])},
    "fit": {"--records": _pick(["records"], ["malformed", "missing", ""]),
            "--w1": VALUES, "--w2": VALUES, "--w3": VALUES,
            "--init": _pick(["0,1", "0.05,0.56"], HARD + ["1", "nan,1"]), "--beta": BETAS},
}
# Flags a command cannot run without are always passed a value unless drawn hard.
REQUIRED = {"--s", "--n", "--nq", "--samples", "--state", "--records"}
# Config values: the pool as JSON strings and as JSON numbers.
CONFIG_VALUES = st.sampled_from(HARD + SMALL + [math.nan, math.inf, -1, 0, 1e308, 3082.6, 0.1, 1])
FILE_FLAGS = {"--samples", "--state", "--records"}
OUT_FLAGS = {"--threshold-out", "--covariance-out", "--cumulants-out"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small input files for the file commands, by fixture name."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(11)
    samples = samples_to_csv(QuadratureSamples(sample_gaussian(ideal_tms(0.5), 200, rng)))
    texts = {
        "samples": samples,
        "constant": "I1,Q1,I2,Q2\n" + "0.1,0.2,0.3,0.4\n" * 50,
        "short": "I1,Q1,I2,Q2\n0.1,0.2,0.3,0.4\n",
        "malformed": "I1,Q1\n1,abc\n",
        "state.json": json.dumps(_covariance_doc(ideal_tms(0.5))),
        "state.csv": "0.3,0\n0,0.3\n",
        "unphysical": '{"n_modes": 1, "entries": [0.1, 0, 0, 0.1]}',
        "records": "s_db,n,d_a,d_b,e_f\n3,0.1,0.2,0.2,0.1\n6,0.1,0.5,0.5,0.4\n6,0.5,0.3,0.3,0.1\n",
    }
    paths = {"missing": str(root / "missing.csv"), "": ""}
    for name, text in texts.items():
        paths[name] = str(root / name)
        Path(paths[name]).write_text(text)
    return paths


@st.composite
def _drawn_argv(draw, command: str):
    """(flag -> value or None, config dict or None); at most two flags hard."""
    flags = FLAGS[command]
    hard = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    chosen = {}
    for flag, (sound, bad) in flags.items():
        if flag in hard:
            chosen[flag] = draw(bad)
        elif flag in REQUIRED:
            chosen[flag] = draw(sound)
        else:
            chosen[flag] = draw(st.none() | sound)
    config_keys = [f[2:] for f in flags if f not in FILE_FLAGS | OUT_FLAGS | {"--project"}]
    config = None
    if config_keys and draw(st.booleans()):
        config = draw(st.dictionaries(st.sampled_from(config_keys), CONFIG_VALUES, max_size=2))
    return chosen, config


def _parse_output(text: str, where: str) -> None:
    """Each written document must be strict JSON or a rectangular CSV."""
    if not text:
        return
    if text.startswith("{"):
        for line in text.splitlines():
            json.loads(line, parse_constant=lambda c: pytest.fail(f"{where}: {c} in JSON"))
        return
    rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
    assert rows and all(len(r) == len(rows[0]) for r in rows), where


def _run(command: str, drawn, inputs) -> None:
    flags, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, value in flags.items():
            if flag == "--project":
                argv += [flag] if value else []
            elif value is not None:
                if flag in FILE_FLAGS:
                    value = inputs[value]
                elif value.startswith("@"):
                    value = str(Path(tmp) / value[1:])
                argv += [flag, value]
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        if command != "tomo":  # tomo writes only to its two own output flags
            argv += ["--out", str(Path(tmp) / "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a malformed flag value
                code = exc.code
        assert code in (0, 2, 3), (argv, code, stderr.getvalue())
        _parse_output(stdout.getvalue(), "stdout")
        for path in Path(tmp).iterdir():
            if path.name != "config.json":
                _parse_output(path.read_text(), path.name)


EXAMPLES = {"sweep": 60, "features": 40, "qkd": 60, "gen-synthetic": 40, "tomo": 40,
            "validate": 10, "fit": 20}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_any_documented_argv_exits_cleanly(command, inputs):
    @settings(max_examples=EXAMPLES[command], deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_drawn_argv(command))
    def check(drawn):
        _run(command, drawn, inputs)

    check()
