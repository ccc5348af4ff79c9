"""Byte-level contract: fresh CLI outputs match the committed golden manifest.

A change that alters output bytes on purpose regenerates the manifest with
``tests/golden/regenerate.py``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmsflow
from tmsflow.cli import main

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("golden") / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_match_golden_manifest(tmp_path):
    assert golden.run_jobs(tmp_path) == golden.read_manifest()


# Prints the digests of the golden jobs run in the directory given.
_RUN_JOBS = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("golden_regenerate", sys.argv[1])
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
print(json.dumps(golden.run_jobs(Path(sys.argv[2]))))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "SandyBridge"])
def test_only_the_projection_depends_on_the_blas_kernel(tmp_path, coretype):
    """Under another OpenBLAS kernel every golden file but ``tomo_cov.json``,
    the output of ``tomo --project`` and the one that goes through LAPACK,
    keeps its bytes."""
    src = str(Path(tmsflow.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    regenerate = str(Path(golden.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _RUN_JOBS, regenerate, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    digests, expected = json.loads(run.stdout), golden.read_manifest()
    del digests["tomo_cov.json"], expected["tomo_cov.json"]
    assert digests == expected


# Flags that say where and in which format a job writes; its config echo
# holds every other setting.
OUTPUT_FLAGS = {"--out", "--threshold-out", "--covariance-out", "--cumulants-out", "--format"}


def _config_echo(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if text.startswith("#"):
        return json.loads(text.splitlines()[1][len("# config: "):])
    return json.loads(text)["meta"]["config"]


def test_config_echo_reruns_every_job(tmp_path, monkeypatch):
    golden.run_jobs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in golden.JOBS:
        flags = {flag: value for flag, value in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS}
        files = [value for flag, value in flags.items() if flag != "--format"]
        Path("config.json").write_text(json.dumps(_config_echo(Path(files[0]))))
        rerun = [argv[0], "--config", "config.json"]
        for flag, value in flags.items():
            rerun += [flag, value if flag == "--format" else "rerun_" + value]
        assert main(rerun) == 0, argv
        for name in files:
            assert Path("rerun_" + name).read_bytes() == Path(name).read_bytes(), argv
