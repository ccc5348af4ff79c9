"""Benchmark worker: one fresh process that runs CLI jobs in-process.

Started by ``run.py``; not meant to be run by hand.  The worker puts the
checkout's ``src/`` first on ``sys.path``, imports ``tmsflow.cli``, runs one
tiny call of each subcommand the workload uses and prints ``READY`` with
its CPU time so far, then that time speed-adjusted (see calibrate.py).  In
``--mode setup`` it exits there.  In ``--mode run`` it then runs whole
cycles of jobs in a closed loop (one
job at a time, each started when the previous one returned), repeats cycle
0 to check that outputs are byte-identical, runs the untimed reference
jobs, and writes ``result.json`` to the work directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

MIN_JOBS = 40  # ten samples beyond the 75th percentile


def _run_job(cli, argv: list[str]) -> tuple[float, float, str]:
    """Run one CLI job; return its wall time, its CPU time and its exit code."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        code = str(cli.main(list(argv)))
    except Exception as exc:  # a traceback is a program failure to record, not to stop on
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, time.process_time() - cpu, code


def _read(paths: list[str]) -> list[bytes | None]:
    out = []
    for p in paths:
        try:
            with open(p, "rb") as fh:
                out.append(fh.read())
        except OSError:
            out.append(None)
    return out


def _environment(tmsflow) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    blas_env = {
        k: os.environ.get(k)
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas": blas_name,
        "blas_threads": blas_env,
        "tmsflow_file": tmsflow.__file__,
        "tmsflow_version": tmsflow.__version__,
    }


def _loop(cli, plan, budget: float, min_jobs: int, max_cycles: int | None, tracer=None):
    """Run whole cycles until ``budget`` seconds and ``min_jobs`` jobs are
    reached (or exactly ``max_cycles`` cycles); return the job records and
    the bytes of cycle 0's outputs.

    A job record is (cycle, index, kind, wall s, CPU s, adjusted s, exit
    code); the adjusted time scales the CPU time by the reference kernel
    timed just before and just after the job."""
    from calibrate import REFERENCE_S, kernel_seconds

    jobs: list[list] = []
    first: dict[int, list] = {}
    start = time.perf_counter()
    before = kernel_seconds()
    k = 0
    while True:
        if max_cycles is not None:
            if k >= max_cycles:
                break
        elif k > 0 and time.perf_counter() - start >= budget and len(jobs) >= min_jobs:
            break
        for i, job in enumerate(plan.cycle(k)):
            if tracer is not None:
                tracer.job = len(jobs)
            wall, cpu, code = _run_job(cli, job.argv)
            after = kernel_seconds()
            adjusted = cpu * 2 * REFERENCE_S / (before + after)
            jobs.append([k, i, job.kind, wall, cpu, adjusted, code])
            before = after
            if k == 0 and tracer is None:
                first[i] = _read(job.outputs)
        k += 1
    return jobs, first, k


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    os.environ.pop("TMSFLOW_THREADS", None)
    import tmsflow
    import tmsflow.cli as cli

    if os.path.commonpath([os.path.realpath(tmsflow.__file__), os.path.realpath(src)]) != (
        os.path.realpath(src)
    ):
        print(f"imported tmsflow from {tmsflow.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import Plan

    plan = Plan(args.workload, args.seed, args.workdir, tiny=args.tiny)
    for argv in plan.warmup():
        *_, code = _run_job(cli, argv)
        if code != "0":
            print(f"warm-up job {argv} ended with {code}", file=sys.stderr)
            return 3
    setup_cpu = time.process_time()
    print(f"READY {setup_cpu!r}", flush=True)
    from calibrate import REFERENCE_S, kernel_seconds

    print(repr(setup_cpu * REFERENCE_S / kernel_seconds()), flush=True)
    if args.mode == "setup":
        return 0

    min_jobs = 0 if args.tiny else MIN_JOBS
    result: dict = {"environment": _environment(tmsflow)}
    if args.trace:
        jobs, first, cycles = _loop(cli, plan, args.seconds / 2, 0, None)
        from tracing import Tracer, summarise

        tracer = Tracer()
        tracer.install()
        traced, _, _ = _loop(cli, plan, 0.0, 0, cycles, tracer)
        layers, errors = summarise(tracer.spans, tracer.members, cycles, [j[3] for j in traced])
        result.update(traced_jobs=traced, layers=layers, errors_by_class=errors)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        jobs, first, cycles = _loop(cli, plan, args.seconds, min_jobs, None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(jobs=jobs, cycles=cycles)

    mismatches = []
    for i, job in enumerate(plan.cycle(0)):
        *_, code = _run_job(cli, job.argv)
        if code != "0" or _read(job.outputs) != first[i]:
            mismatches.append(f"{job.kind}: rerun with identical argv gave different output")
    result["determinism"] = {"jobs": len(first), "mismatches": mismatches}

    result["check_jobs"] = [
        [job.kind, _run_job(cli, job.argv)[2]] for job in plan.check_jobs()
    ]
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
