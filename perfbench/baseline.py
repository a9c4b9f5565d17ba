#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record the environment and the figures.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload this runs ``run.py`` once per seed with tracing off and
once traced (seed 0), then reports for every end-to-end metric the median,
the first and third quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  ``--out`` writes all of it, with the machine and library
versions, as JSON.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from blas_env import pin_blas

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    """Core count, Python, numpy, scipy and the BLAS numpy loaded, pinned as run.py pins it."""
    pin_blas()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": openblas_threads(),
    }


def openblas_threads():
    """Thread count reported by the OpenBLAS this process loaded, if it is one."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its result JSON plus the run's own elapsed time."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeds = list(range(args.seeds))
    report = {
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_elapsed_s": [round(r["elapsed_s"], 2) for r in results],
            "metrics": {},
        }
        failed_frac = entry["failed"] / entry["attempted"]
        print(f"{workload}: failed_frac {failed_frac:.3g} ({entry['failed']} of {entry['attempted']})")
        for name in units:
            stats = summary([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = {"unit": units[name], **stats}
            print(
                f"  {name:12s} median {stats['median']:.5g} {units[name]:3s}"
                f" q1 {stats['q1']:.5g} q3 {stats['q3']:.5g}"
                f" spread {stats['spread']:.4f} (bound {bounds[name]})"
            )
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for name in ("energy_err", "norm_err"):
            unit = traced["metrics"][name]["unit"]
            print(f"  {name:12s} {entry['per_layer'][name]:.4g} {unit} (traced run)")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
