"""Seeded job plans for the benchmark workloads.

A workload is an endless sequence of cycles; cycle ``k`` is a fixed list of
CLI jobs whose shapes (job kinds, grid sizes, sample counts) never change
and whose values are drawn from ``(workload, seed, k)``.  Fixed shapes keep
the job-time distribution the same for every seed, so the metrics compare
across seeds; seeded values keep the program from seeing the same
arguments on every run.

This module uses only the standard library, so the worker process imports
it without adding to its measured start-up.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid", "thresholds", "records")

# Every grid cycle re-runs this block for each model.  Its failing cells
# (n = 1000, S = 0 at n = 1e-9, the coupler near 18.5-19 dB at n = 0) and
# the ideal cells that miss the mpmath reference are part of the workload.
EXTREME_S = "0:30:0.5"
EXTREME_N = "0,1e-9,1e-6,1e-3,0.1,1,10,100,1000"

# Weak squeezing row in every ideal `features` job; it is below the level
# where crossover B exists and where n_sd stays within 1e-6 of one.
WEAK_IDEAL_S = 0.1

# Per-run sample files for the records workload: (name, rows, S dB, n).
# The mixed state is left alone by --project; the pure one is projected.
SAMPLE_SETS = (
    ("mixed15k", 15_000, 6.0, 0.1),
    ("mixed100k", 100_000, 6.0, 0.1),
    ("pure100k", 100_000, 3.0, 0.0),
)
TINY_SAMPLE_ROWS = {"mixed15k": 2_000, "mixed100k": 5_000, "pure100k": 5_000}
WARM_SAMPLE_ROWS = 200


@dataclass
class Job:
    """One CLI invocation and what the checks need to know about it."""

    kind: str
    argv: list[str]
    outputs: list[str]
    inputs: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def grid_values(spec: str) -> list[float]:
    """Values of a grid argument as the CLI documents them: a comma list or
    an inclusive ``start:stop:step`` range."""
    if ":" in spec:
        start, stop, step = (float(p) for p in spec.split(":"))
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return [start + i * step for i in range(count)]
    return [float(t) for t in spec.split(",")]


def _sorted_draws(draw, count: int, digits: int) -> list[float]:
    values: set[float] = set()
    while len(values) < count:
        values.add(float(f"{draw():.{digits}g}"))
    return sorted(values)


def _s_list(rng: random.Random, count: int, lo: float, hi: float) -> str:
    vals = _sorted_draws(lambda: rng.uniform(lo, hi), count, 5)
    return ",".join(repr(v) for v in vals)


def _log_list(rng: random.Random, count: int, lo: float, hi: float) -> str:
    a, b = math.log(lo), math.log(hi)
    vals = _sorted_draws(lambda: math.exp(rng.uniform(a, b)), count, 4)
    return ",".join(repr(v) for v in vals)


def _range(rng: random.Random, count: int, start: tuple, step: tuple) -> str:
    s0 = round(rng.uniform(*start), 3)
    dx = round(rng.uniform(*step), 3)
    stop = round(s0 + dx * (count - 1), 6)
    return f"{s0!r}:{stop!r}:{dx!r}"


class Plan:
    """Job lists for one workload, seed and working directory."""

    def __init__(self, workload: str, seed: int, workdir: str, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def sample_path(self, name: str) -> str:
        return self.path(f"samples-{name}.csv")

    # -- cycles ------------------------------------------------------------

    def cycle(self, k: int) -> list[Job]:
        rng = random.Random(f"{self.workload}/{self.seed}/{k}")
        return getattr(self, f"_{self.workload}")(rng, k)

    def _size(self, full: int) -> int:
        return max(2, full // 8) if self.tiny else full

    def _sweep(self, k: int, tag: str, model: str, s: str, n: str, fmt: str, seeded: bool) -> Job:
        out = self.path(f"c{k}-{tag}.{fmt}")
        argv = ["sweep", "--s", s, "--n", n, "--model", model, "--out", out]
        if fmt == "json":
            argv += ["--format", "json"]
        return Job(
            kind=f"sweep-{tag}",
            argv=argv,
            outputs=[out],
            meta={"model": model, "s": s, "n": n, "format": fmt, "seeded": seeded},
        )

    def _qkd_map(self, k: int, tag: str, s: str, nq: str) -> Job:
        out = self.path(f"c{k}-{tag}.csv")
        return Job(
            kind=f"qkd-{tag}",
            argv=["qkd", "--s", s, "--nq", nq, "--out", out],
            outputs=[out],
            meta={"s": s, "nq": nq},
        )

    def _grid(self, rng: random.Random, k: int) -> list[Job]:
        # Sizes form four groups by job time: five small jobs, the three
        # extreme blocks, three large jobs and one largest, so that the
        # median and the 75th percentile each fall inside a group.
        z = self._size
        return [
            self._sweep(k, "ideal-list", "ideal",
                        _s_list(rng, z(10), 0.5, 25.0), _log_list(rng, z(10), 1e-3, 10.0),
                        "csv", True),
            self._sweep(k, "realistic-list", "realistic",
                        _s_list(rng, z(10), 0.5, 25.0), _log_list(rng, z(15), 1e-3, 10.0),
                        "csv", True),
            self._sweep(k, "coupler-range", "coupler",
                        _range(rng, z(10), (0.5, 5.0), (0.5, 2.0)),
                        _log_list(rng, z(20), 1e-3, 10.0), "json", True),
            self._qkd_map(k, "map-list", _s_list(rng, z(6), 1.0, 30.0),
                          _log_list(rng, z(10), 1e-3, 1.0)),
            self._qkd_map(k, "map-range", _range(rng, z(8), (1.0, 4.0), (0.5, 3.0)),
                          _range(rng, z(10), (0.001, 0.02), (0.01, 0.08))),
            self._sweep(k, "extreme-ideal", "ideal", EXTREME_S, EXTREME_N, "csv", False),
            self._sweep(k, "extreme-coupler", "coupler", EXTREME_S, EXTREME_N, "csv", False),
            self._sweep(k, "extreme-realistic", "realistic", EXTREME_S, EXTREME_N, "json", False),
            self._sweep(k, "ideal-range", "ideal",
                        _range(rng, z(25), (0.5, 2.0), (0.3, 0.9)),
                        _log_list(rng, z(40), 1e-3, 10.0), "json", True),
            self._sweep(k, "realistic-range", "realistic",
                        _s_list(rng, z(25), 0.5, 25.0),
                        _range(rng, z(40), (0.001, 0.05), (0.05, 0.2)), "csv", True),
            self._qkd_map(k, "map-large", _range(rng, z(18), (1.0, 4.0), (0.5, 1.4)),
                          _range(rng, z(18), (0.001, 0.02), (0.01, 0.05))),
            self._sweep(k, "coupler-large", "coupler",
                        _range(rng, z(40), (0.5, 2.0), (0.2, 0.55)),
                        _log_list(rng, z(50), 1e-3, 10.0), "json", True),
        ]

    def _features(self, k: int, tag: str, model: str, s_values: list[float]) -> Job:
        out = self.path(f"c{k}-{tag}.csv")
        s = ",".join(repr(v) for v in sorted(s_values))
        return Job(
            kind=f"features-{tag}",
            argv=["features", "--s", s, "--model", model, "--flavors", "A,B,AB", "--out", out],
            outputs=[out],
            meta={"model": model, "s": s},
        )

    def _threshold(self, k: int, tag: str, s_values: list[float], nq: float) -> Job:
        out = self.path(f"c{k}-{tag}-keys.csv")
        thr = self.path(f"c{k}-{tag}.csv")
        s = ",".join(repr(v) for v in sorted(s_values))
        return Job(
            kind=f"qkd-{tag}",
            argv=["qkd", "--s", s, "--nq", repr(nq), "--threshold-out", thr, "--out", out],
            outputs=[out, thr],
            meta={"s": s, "nq": repr(nq)},
        )

    def _thresholds(self, rng: random.Random, k: int) -> list[Job]:
        def strong(count: int) -> list[float]:
            return _sorted_draws(lambda: math.exp(rng.uniform(0.0, math.log(30.0))), count, 4)

        def key_levels(count: int) -> list[float]:
            lo, hi = math.log(0.25), math.log(40.0)
            return _sorted_draws(lambda: math.exp(rng.uniform(lo, hi)), count, 4)

        nq = float(f"{rng.uniform(0.01, 0.3):.4g}")
        at_30 = [v for v in key_levels(3) if v != 30.0][:2] + [30.0]  # K = 0 check
        weak_realistic = float(f"{rng.uniform(0.1, 0.5):.4g}")
        jobs = [
            self._features(k, "ideal-3", "ideal", [WEAK_IDEAL_S] + strong(2)),
            self._features(k, "realistic-3", "realistic", [weak_realistic] + strong(2)),
            self._features(k, "ideal-2", "ideal", strong(2)),
            self._threshold(k, "threshold", key_levels(3), nq),
            self._threshold(k, "threshold-30", at_30, nq),
        ]
        if self.tiny:
            jobs = [jobs[0], jobs[4]]
        return jobs

    def _records(self, rng: random.Random, k: int) -> list[Job]:
        records = self.path(f"c{k}-records.csv")
        fit_out = self.path(f"c{k}-fit.json")
        grid = ["--s", "3,6", "--n", "0,0.5,1"] if self.tiny else []
        jobs = [
            Job(
                kind="gen-synthetic",
                argv=["gen-synthetic", *grid, "--noise", "0.005",
                      "--seed", str(rng.randrange(2**31)), "--out", records],
                outputs=[records],
            ),
            Job(kind="fit", argv=["fit", "--records", records, "--out", fit_out],
                outputs=[fit_out], inputs=[records]),
        ]
        # By job time: three small jobs, one 15k tomography, then fit and
        # the two 100k tomographies, so that the median falls on the 15k
        # job and the 75th percentile inside the group of three.
        for name, validate in (("mixed15k", True), ("mixed100k", True), ("pure100k", False)):
            jobs += self._tomo(k, name, validate)
        return jobs

    def _tomo(self, k: int, name: str, validate: bool) -> list[Job]:
        cov = self.path(f"c{k}-{name}-cov.json")
        cum = self.path(f"c{k}-{name}-cum.json")
        samples = self.sample_path(name)
        jobs = [
            Job(
                kind=f"tomo-{name}",
                argv=["tomo", "--samples", samples, "--project",
                      "--covariance-out", cov, "--cumulants-out", cum],
                outputs=[cov, cum],
                inputs=[samples],
                meta={"samples": name},
            )
        ]
        if validate:
            out = self.path(f"c{k}-{name}-valid.json")
            jobs.append(
                Job(kind=f"validate-{name}", argv=["validate", "--state", cov, "--out", out],
                    outputs=[out], inputs=[cov])
            )
        return jobs

    # -- untimed jobs --------------------------------------------------------

    def warmup(self) -> list[list[str]]:
        """One tiny call of each subcommand the workload uses."""
        w = self.path
        if self.workload == "grid":
            return [
                ["sweep", "--s", "6", "--n", "0.1", "--out", w("warm.csv")],
                ["sweep", "--s", "6", "--n", "0.1", "--format", "json", "--out", w("warm.json")],
                ["qkd", "--s", "6,7", "--nq", "0.1", "--out", w("warm-keys.csv")],
            ]
        if self.workload == "thresholds":
            return [
                ["features", "--s", "6", "--out", w("warm.csv")],
                ["qkd", "--s", "6,7", "--nq", "0.1", "--threshold-out", w("warm-thr.csv"),
                 "--out", w("warm-keys.csv")],
            ]
        return [
            ["gen-synthetic", "--s", "3,6", "--n", "0,0.5", "--out", w("warm-records.csv")],
            ["fit", "--records", w("warm-records.csv"), "--out", w("warm-fit.json")],
            ["tomo", "--samples", self.sample_path("warm"), "--project",
             "--covariance-out", w("warm-cov.json"), "--cumulants-out", w("warm-cum.json")],
            ["validate", "--state", w("warm-cov.json"), "--out", w("warm-valid.json")],
        ]

    def check_jobs(self) -> list[Job]:
        """Untimed reference jobs run once per run after the timed loop."""
        if self.workload != "records":
            return []
        records, out = self.path("clean-records.csv"), self.path("clean-fit.json")
        return [
            Job(kind="gen-synthetic-clean",
                argv=["gen-synthetic", "--noise", "0", "--out", records], outputs=[records]),
            Job(kind="fit-clean", argv=["fit", "--records", records, "--out", out],
                outputs=[out], inputs=[records]),
        ]

    def sample_sets(self) -> list[tuple[str, int, float, float]]:
        """(name, rows, S dB, n) of every sample file the run reads."""
        if self.workload != "records":
            return []
        sets = [("warm", WARM_SAMPLE_ROWS, 6.0, 0.1)]
        for name, rows, s_db, n in SAMPLE_SETS:
            sets.append((name, TINY_SAMPLE_ROWS[name] if self.tiny else rows, s_db, n))
        return sets
