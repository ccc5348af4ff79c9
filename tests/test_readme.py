"""The README's Python quick start runs as written, in a fresh interpreter,
and prints the numbers its comments state."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tmsflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    src = os.path.dirname(os.path.dirname(tmsflow.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert float(lines[1]) == 1.0  # sudden_death_point
    assert float(lines[2]) == pytest.approx(0.133, abs=5e-4)  # crossover_point n_c
    assert lines[3].startswith("KeyResult(")
    assert float(lines[4]) == pytest.approx(0.26, abs=0.005)  # key_threshold
