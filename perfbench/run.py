#!/usr/bin/env python3
"""Charging benchmark for magnon_battery.

Run from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 0 --seconds 25 --trace 0

Workloads: presets, sweep-uniform, full-disordered, build-disordered (see
perfbench/README.md).  The package is imported from ``src/`` of the same
checkout; without it the benchmark exits with code 2 and prints no result.

A run repeats passes of the workload for about ``--seconds`` seconds and
checks the outputs of the last pass against an oracle, and every earlier
pass against the last.  With ``--trace 0`` it reports the end-to-end
metrics (medians over passes; set-up time is the median over fresh
interpreters started between the passes).  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones.  A summary table goes to standard output, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from blas_env import pin_blas

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5

WORKLOAD_NAMES = ("presets", "sweep-uniform", "full-disordered", "build-disordered")

class Pass(NamedTuple):
    wall: float
    cpu: float
    traced: bool
    digests: dict  # operation -> output checksum, or the exception it raised


def metric_units(trace: int) -> dict:
    """Names and units of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="magnon_battery charging benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe(args, workdir) -> int:
    """Child process: import, construct the inputs, announce readiness."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.size, workdir).ready()
    print("ready", flush=True)
    return 0


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_passes(args, workload, tracer):
    """Timed passes and set-up probes.

    Returns the pass records, the payloads of the last pass and the set-up
    times.  Untraced runs start SETUP_PROBES fresh interpreters, spread over
    the run so that they meet the same machine as the passes; their time
    does not count against ``--seconds``.
    """
    from tracing import install

    records, setup = [], []
    probes = SETUP_PROBES if tracer is None else 0
    raw = payloads = None
    min_passes = 2 if tracer is not None else 1
    spent = 0.0
    while True:
        if len(setup) < probes and spent >= len(setup) * args.seconds / probes:
            setup.append(time_setup(args))
        begin = time.perf_counter()
        traced = tracer is not None and len(records) % 2 == 1
        raw = payloads = None
        gc.collect()  # every pass starts from the same heap, as a fresh run would
        restore = None
        if traced:
            tracer.pass_id = len(records)
            restore = install(tracer)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                raw = tracer.call("bench.pass", workload.run_pass, (), {})
            else:
                raw = workload.run_pass()
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if restore is not None:
                restore()
        payloads = workload.collect(raw)
        digests = {
            op: value if isinstance(value, Exception) else workload.digest(value)
            for op, value in payloads.items()
        }
        records.append(Pass(wall, cpu, traced, digests))
        spent += time.perf_counter() - begin
        typical = statistics.median(r.wall for r in records)
        if len(records) >= min_passes and spent + typical > args.seconds:
            setup += [time_setup(args) for _ in range(probes - len(setup))]
            return records, payloads, setup


def count_failures(workload, records, payloads):
    """Operations attempted and failed over all passes, plus oracle figures."""
    try:
        ok, info = workload.check(payloads)
    except Exception:  # an oracle that cannot run fails every operation
        traceback.print_exc()
        ok, info = {}, {}
    final = records[-1].digests
    attempted = failed = 0
    for record in records:
        for op, digest in record.digests.items():
            attempted += 1
            if isinstance(digest, Exception) or digest != final[op] or not ok.get(op, False):
                failed += 1
    for op, passed in ok.items():
        if op not in final:
            attempted += 1
            failed += not passed
    for op in sorted(set(final) | set(ok)):
        if isinstance(final.get(op), Exception):
            print(f"perfbench: {op} raised {final[op]!r}", file=sys.stderr)
        elif not ok.get(op, False):
            print(f"perfbench: {op} rejected by its oracle", file=sys.stderr)
    return attempted, failed, info


def layer_report(args, workload, tracer, records) -> dict:
    from tracing import layer_metrics

    traced = [i for i, r in enumerate(records) if r.traced]
    per_pass = [
        layer_metrics([s for s in tracer.spans if s[5] == i], workload.threads) for i in traced
    ]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    untraced_wall = statistics.median(r.wall for r in records if not r.traced)
    metrics["trace.overhead_s"] = statistics.median(records[i].wall for i in traced) - untraced_wall
    metrics["trace.missing"] = len(set(tracer.missing))
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    for name in sorted(set(tracer.missing)):
        print(f"perfbench: traced name missing: {name}", file=sys.stderr)
    return metrics


def measure(args, workdir) -> int:
    import magnon_battery

    if not Path(magnon_battery.__file__).resolve().is_relative_to(SRC.resolve()):
        print("perfbench: magnon_battery was not imported from src/", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    workload.ready()
    tracer = Tracer() if args.trace else None
    records, payloads, setup = run_passes(args, workload, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    attempted, failed, info = count_failures(workload, records, payloads)

    walls = [r.wall for r in records if not r.traced]
    if args.trace:
        metrics = layer_report(args, workload, tracer, records)
        metrics["energy_err"] = info.get("energy_err", 0.0)
        metrics["norm_err"] = info.get("norm_err", 0.0)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r.cpu for r in records),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units(args.trace)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  passes {len(records)}")
    shown = " ".join(f"{w:.3f}" for w in walls[:30]) + (" ..." if len(walls) > 30 else "")
    print(f"  untraced pass wall_s {shown}")
    for name in sorted(units):
        print(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name in ("energy_err", "norm_err"):
        if name in info and not args.trace:
            print(f"  {name:28s} {info[name]:.6g} {metric_units(1)[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads; the set-up probes inherit it
    pin_blas()
    if not (SRC / "magnon_battery" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC.relative_to(ROOT)}/magnon_battery", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return probe(args, workdir) if args.probe else measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
