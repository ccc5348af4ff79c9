"""Regenerate the golden sha256 manifest of the CLI's deterministic outputs.

The manifest pins the bytes of the README CLI jobs, of the three models'
extreme blocks (``0:30:0.5`` dB by ``0,1e-9,...,1000`` noise photons, CSV
and JSON) and of ``tomo`` on a 2000-row sample file drawn with the
standard library's ``random``.  ``tests/test_golden.py`` reruns the same jobs and
compares digests.  A change that is meant to alter output bytes reruns
this script from the repository root and states the largest absolute
difference in the change log:

    PYTHONPATH=src python tests/golden/regenerate.py

Every job runs in-process in a scratch directory with relative paths,
since input paths are echoed into the outputs' meta.  ``tomo_cov.json``
comes from ``tomo --project``, the one LAPACK-dependent output, so it is
the one file whose bytes may change with the BLAS kernel
(``OPENBLAS_CORETYPE``); the others must not.  The manifest lists
``<sha256>  <file>`` lines, as ``sha256sum`` prints them.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("manifest.sha256")

EXTREME = ["--s", "0:30:0.5", "--n", "0,1e-9,1e-6,1e-3,0.1,1,10,100,1000"]

SAMPLES = "samples.csv"
SAMPLE_ROWS = 2000

# Jobs run in order, so ``fit`` reads the records ``gen-synthetic`` wrote.
JOBS = (
    ["sweep", "--s", "1:12:0.5", "--n", "0:5:0.05", "--model", "ideal", "--out", "sweep.csv"],
    ["features", "--s", "2:12:0.5", "--flavors", "A,B,AB", "--out", "features.csv"],
    ["qkd", "--s", "10", "--nq", "0.25", "--out", "qkd_point.json"],
    ["qkd", "--s", "1:30:1", "--nq", "0:0.5:0.01", "--threshold-out", "threshold.csv"]
    + ["--out", "keys.csv"],
    ["gen-synthetic", "--noise", "0.01", "--seed", "1", "--out", "records.csv"],
    ["fit", "--records", "records.csv", "--out", "fit.json"],
    ["tomo", "--samples", SAMPLES, "--project"]
    + ["--covariance-out", "tomo_cov.json", "--cumulants-out", "tomo_cum.json"],
) + tuple(
    ["sweep", *EXTREME, "--model", model, "--format", fmt, "--out", f"extreme_{model}.{fmt}"]
    for model in ("ideal", "coupler", "realistic")
    for fmt in ("csv", "json")
)


def write_samples(path: Path) -> None:
    """Vacuum quadrature samples (standard deviation 1/2) with ``repr``
    floats and a header line, from ``random.Random(1).gauss``."""
    rng = random.Random(1)
    rows = (",".join(repr(rng.gauss(0.0, 0.5)) for _ in range(4)) for _ in range(SAMPLE_ROWS))
    path.write_text("\n".join(["I1,Q1,I2,Q2", *rows]) + "\n", encoding="utf-8")


def run_jobs(directory: Path) -> dict[str, str]:
    """Write the sample file and run every job in ``directory``; return
    {file name: sha256 hex digest}.

    Each job must exit 0.
    """
    from tmsflow.cli import main

    write_samples(directory / SAMPLES)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in JOBS:
            code = main(list(argv))
            if code != 0:
                raise RuntimeError(f"tmsflow {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def read_manifest() -> dict[str, str]:
    digests = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_jobs(Path(tmp))
    MANIFEST.write_text(
        "".join(f"{digest}  {name}\n" for name, digest in digests.items()), encoding="utf-8"
    )
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
