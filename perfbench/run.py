"""tmsflow benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads are ``grid``, ``thresholds`` and ``records`` (see README.md in
this directory).  The run measures set-up time over several fresh worker
processes, then runs the workload's jobs in-process in one of them, in a
closed loop with one client, for at least ``--seconds`` seconds.  Every
output is then checked against independent references.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a separately traced pass.  The exit code is 0 only if
every check passed.  A report and, for traced runs, the spans are written
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Checker
from workloads import WORKLOADS, Plan

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 5  # set-up-only workers; the measuring worker adds one more sample
TAIL_PERCENTILE = 75
# Fields of a job record: cycle, index, kind, wall s, CPU s, adjusted s, exit code.
WALL, CPU, ADJUSTED = 3, 4, 5
DEADLINE_S = 170.0
VACUUM = 0.25


def _write_samples(plan: Plan) -> dict[str, np.ndarray]:
    """Gaussian quadrature samples of ideal-family states, written as CSV
    before any worker starts; returned for the covariance check."""
    out = {}
    for name, rows, s_db, n in plan.sample_sets():
        r = s_db / (20.0 * np.log10(np.e))
        a, c = np.cosh(2 * r), np.sinh(2 * r)
        b = a + 2 * n
        cov = VACUUM * np.array(
            [[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]], dtype=float
        )
        rng = np.random.default_rng([plan.seed, len(out), rows])
        data = rng.standard_normal((rows, 4)) @ np.linalg.cholesky(cov).T
        np.savetxt(plan.sample_path(name), data, fmt="%.17g", delimiter=",",
                   header="I1,Q1,I2,Q2", comments="")
        out[name] = data
    return out


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class Spawner:
    """Starts worker processes one at a time and times them to READY."""

    def __init__(self, args, workdir: Path, deadline: float):
        self.base = [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workdir", str(workdir), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        self.env = dict(os.environ)
        self.env.pop("TMSFLOW_THREADS", None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.deadline = deadline

    def spawn(self, mode: str, extra: list[str] = ()) -> tuple[float, ...]:
        """Run one worker to completion; return its wall, CPU and adjusted
        time to READY."""
        start = time.perf_counter()
        proc = subprocess.Popen(self.base + ["--mode", mode, *extra], stdout=subprocess.PIPE,
                                env=self.env, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            adjusted = proc.stdout.readline()
            proc.stdout.read()
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, _, cpu = line.partition(" ")
        if word != "READY" or code != 0:
            raise RuntimeError(f"{mode} worker failed (exit {code})")
        return ready, float(cpu), float(adjusted)


def _timing(jobs: list[list], setups: list[tuple[float, ...]], field: int,
            items: int) -> dict[str, float]:
    """Set-up and job-time metrics on one clock."""
    times = [j[field] for j in jobs]
    return {
        "setup_s": statistics.median(s[field - WALL] for s in setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": float(np.percentile(times, TAIL_PERCENTILE)),
        "items_per_s": items / sum(times),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one set-up spawn, for the smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "tmsflow" / "cli.py").is_file():
        print(f"perfbench: no tmsflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    plan = Plan(args.workload, args.seed, str(workdir), tiny=args.tiny)
    samples = _write_samples(plan)

    spawner = Spawner(args, workdir, deadline)
    spans_out = outdir / f"{args.workload}-spans.jsonl"
    try:
        setups = [spawner.spawn("setup") for _ in range(1 if args.tiny else SETUP_SPAWNS)]
        setups.append(spawner.spawn("run", ["--spans-out", str(spans_out)] if args.trace else []))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}; work directory kept at {workdir}", file=sys.stderr)
        return 1
    with open(workdir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)

    checker = Checker(args.seed, samples)
    cycles = {k: plan.cycle(k) for k in range(result["cycles"])}
    failed_jobs = 0
    for k, i, *_, code in result["jobs"]:
        before = len(checker.failures)
        checker.job(cycles[k][i], k, code)
        failed_jobs += len(checker.failures) > before
    items_attempted, items_failed = checker.attempted, checker.failed_items
    fit_iterations = list(checker.fit_iterations)
    bytes_in, bytes_out = checker.bytes_in, checker.bytes_out
    for job, (_, code) in zip(plan.check_jobs(), result["check_jobs"]):
        checker.job(job, -1, code)
    checker.failures += result["determinism"]["mismatches"]

    ok_items = items_attempted - items_failed
    timing = {clock: _timing(result["jobs"], setups, field, ok_items)
              for clock, field in (("adjusted", ADJUSTED), ("cpu", CPU), ("wall", WALL))}
    end_to_end = dict(timing["adjusted"])
    end_to_end.update(
        fail_ratio=items_failed / max(items_attempted, 1),
        max_abs_dev=checker.max_dev,
        peak_rss_mb=result["peak_rss_mb"],
    )
    values = dict(end_to_end)
    if args.trace:
        n_cycles = result["cycles"]
        traced = [j[ADJUSTED] for j in result["traced_jobs"]]
        rows = {name: r for name, r, _, _ in plan.sample_sets()}
        values.update(result["layers"])
        values.update({
            "cli.bytes_in": bytes_in / n_cycles,
            "cli.bytes_out": bytes_out / n_cycles,
            "fit.iterations": statistics.mean(fit_iterations or [0]),
            "tomography.samples": sum(
                rows[j.meta["samples"]] for j in cycles[0] if j.kind.startswith("tomo")
            ),
            "trace.overhead": statistics.median(traced) / end_to_end["job_p50_s"] - 1.0,
            "check.fail_ratio": end_to_end["fail_ratio"],
            "check.max_abs_dev": end_to_end["max_abs_dev"],
        })
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        checker.failures.append(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    correct = not checker.failures

    units = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "items_per_s": "1/s",
             "fail_ratio": "ratio", "max_abs_dev": "abs", "peak_rss_mb": "MB"}
    times = [j[ADJUSTED] for j in result["jobs"]]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "job_tail_s": f"p{TAIL_PERCENTILE}, {sum(t > end_to_end['job_tail_s'] for t in times)}"
                      f" of {len(times)} jobs beyond it",
        "items_per_s": f"{ok_items} items completed",
        "fail_ratio": f"{items_failed} of {items_attempted} items",
        "max_abs_dev": checker.max_dev_at,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(times)} jobs in {result['cycles']} cycles, "
          f"{sum(times):.2f} adjusted CPU s of jobs")
    for name, value in end_to_end.items():
        raw = (f" (CPU {timing['cpu'][name]:.6g}, wall {timing['wall'][name]:.6g})"
               if name in timing["wall"] else "")
        print(f"  {name:<12} {value:.6g} {units[name]}{raw}  {notes.get(name, '')}")
    by_kind: dict[str, list[float]] = {}
    for j, t in zip(result["jobs"], times):
        by_kind.setdefault(j[2], []).append(t)
    for kind, kind_times in by_kind.items():
        print(f"  job {kind:<24} median {statistics.median(kind_times):.4f} s "
              f"over {len(kind_times)}")
    if checker.known_seen:
        print(f"  {len(checker.known_seen)} values miss their reference as listed in "
              f"known_deviations.json (counted as failed items), e.g. {checker.known_seen[0]}")
    if args.trace:
        print(f"  trace.overhead {values['trace.overhead']:.4f}, "
              f"coverage {values['trace.coverage']:.4f}")
    for failure in checker.failures[:20]:
        print(f"  CHECK FAILED {failure}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "source": _source_identity(),
        "environment": result["environment"], "end_to_end": end_to_end,
        "timing": timing,
        "metrics": metrics, "setup_samples": setups,
        "job_kinds": {k: statistics.median(v) for k, v in by_kind.items()},
        "failures": checker.failures, "known_deviations_seen": checker.known_seen,
        "errors_by_class": result.get("errors_by_class"),
    }
    with open(outdir / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    env = result["environment"]
    print(f"  tmsflow {env['tmsflow_file']} commit {report['source']['commit']}; "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} longdouble eps {env['longdouble_eps']:.3g}")
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        print(f"  outputs kept in {workdir}")
    print(json.dumps({"correct": correct, "attempted": len(times), "failed": failed_jobs,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
