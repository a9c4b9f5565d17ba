#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--size smoke``
and checks that each run exits 0 with a correct result that carries every
metric BENCHMARK.json names, with its unit; that on single-threaded
workloads the traced self times add up to the traced wall time; and that
the benchmark exits non-zero without a result when the package is absent.
Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SERIAL = ("presets", "full-disordered", "build-disordered")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, workload: str, trace: int, wanted: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        errors.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
            errors.append(f"{where}: {name} is {entry}, expected a number in {unit}")
    if trace and workload in SERIAL and not errors:
        wall = metrics["trace.wall_s"]["value"]
        accounted = metrics["trace.accounted_s"]["value"]
        if abs(accounted - wall) > 1e-6 * wall:
            errors.append(f"{where}: self times sum to {accounted}, traced wall is {wall}")
    return errors


def bare_directory_refuses() -> list[str]:
    """Only BENCHMARK.json and perfbench/: no package, so no result."""
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "presets", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "{" in proc.stdout:
        return ["bare directory: the benchmark ran without the package"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(run(ROOT, workload, trace), workload, trace, wanted[trace])
    errors += bare_directory_refuses()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
