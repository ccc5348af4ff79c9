"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the CPU time of the same job changes by up to a factor
of two within seconds (other tenants, frequency boost), and every job of a
run moves together.  The worker times this kernel after each job and
scales the job's CPU time by ``REFERENCE_S / kernel time`` (the kernel time
being the mean of the runs just before and just after the job): the result
is the job's CPU time at the speed where the kernel takes ``REFERENCE_S``.
The kernel mixes what tmsflow spends its time on: small NumPy eigen-solves
and ``math`` calls, parsing floats from text, and passes over a large
array.  It uses no tmsflow code, so a change to the program cannot change
it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel_seconds() on the 2-core x86-64 machine the benchmark was
# defined on; it only fixes the scale of the adjusted times.
REFERENCE_S = 0.0140

_MATRIX = np.array(
    [[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.0, 0.2], [0.1, 0.0, 1.2, 0.1], [0.0, 0.2, 0.1, 1.1]]
)
_TEXT = ",".join(repr(float(x)) for x in np.random.default_rng(2).standard_normal(3000))
_ARRAY = np.random.default_rng(3).standard_normal(300_000)


def _kernel() -> float:
    start = time.process_time()
    acc = 0.0
    for i in range(350):
        eig = np.linalg.eigvalsh(_MATRIX + i * 1e-6)
        acc += math.log(float(eig[0])) + math.sqrt(i + 1.0)
    for _ in range(2):
        acc += float(np.array([float(t) for t in _TEXT.split(",")]).sum())
    for _ in range(3):
        acc += float(np.cumsum(_ARRAY)[-1]) + float((_ARRAY * _ARRAY).mean())
    return time.process_time() - start


def kernel_seconds() -> float:
    """Median CPU seconds of three runs of the reference kernel."""
    return statistics.median(_kernel() for _ in range(3))
