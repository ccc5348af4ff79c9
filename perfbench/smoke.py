"""Smoke test of the benchmark at tiny sizes.

Runs every workload with ``--tiny`` untraced and traced, and checks that the
last line of output is the result object with every metric that
``BENCHMARK.json`` names, in its unit.  Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: no result line (exit {code})")
                continue
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{where}: exit {code}, correct={result.get('correct')}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("attempted", 0) < 1 or result.get("failed") != 0:
                problems.append(f"{where}: attempted={result.get('attempted')} "
                                f"failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            declared = {m["name"]: m["unit"] for m in bench[key]}
            if set(metrics) != set(declared):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(declared))}")
            for name, unit in declared.items():
                entry = metrics.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) or (
                    not math.isfinite(value)
                ):
                    problems.append(f"{where}: {name} = {entry}, expected a number in {unit}")
            print(f"{where}: exit {code}, {len(metrics)} metrics", flush=True)

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(bare, "grid", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        problems.append(f"without sources: exit {code}, output {out.strip()[:200]!r}")
    print(f"without sources: exit {code}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
