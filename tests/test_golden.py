"""Byte-level contract: fresh CLI outputs match the committed golden manifest.

A change that alters output bytes on purpose regenerates the manifest with
``tests/golden/regenerate.py``.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("golden") / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_match_golden_manifest(tmp_path):
    assert golden.run_jobs(tmp_path) == golden.read_manifest()
